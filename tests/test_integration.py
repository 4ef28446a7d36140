"""End-to-end integration tests across the whole library.

These tests exercise the complete pipelines a user of the library would run:
generate (or load) data, split, fit several models, evaluate, extract
co-clusters, explain recommendations and run a small grid search — asserting
the cross-module contracts rather than any single unit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import OCuLaR, ROCuLaR
from repro.baselines import (
    ItemKNNRecommender,
    PopularityRecommender,
    UserKNNRecommender,
    WeightedALSRecommender,
)
from repro.core.coclusters import cocluster_statistics, extract_coclusters
from repro.core.explain import batch_reports
from repro.data.datasets import make_b2b, make_movielens_like
from repro.data.loaders import load_movielens_ratings
from repro.data.splitting import train_test_split
from repro.data.synthetic import make_planted_coclusters
from repro.evaluation.evaluator import evaluate_recommender
from repro.evaluation.grid_search import grid_search


class TestFullPipelineOnSyntheticMovielens:
    @pytest.fixture(scope="class")
    def pipeline(self):
        matrix = make_movielens_like(n_users=150, n_items=100, random_state=1)
        split = train_test_split(matrix, test_fraction=0.25, random_state=1)
        models = {
            "OCuLaR": OCuLaR(
                n_coclusters=15, regularization=10.0, max_iterations=80, random_state=0
            ),
            "R-OCuLaR": ROCuLaR(
                n_coclusters=15, regularization=10.0, max_iterations=80, random_state=0
            ),
            "wALS": WeightedALSRecommender(n_factors=16, n_iterations=8, random_state=0),
            "user-based": UserKNNRecommender(n_neighbors=30),
            "item-based": ItemKNNRecommender(n_neighbors=30),
            "popularity": PopularityRecommender(),
        }
        for model in models.values():
            model.fit(split.train)
        results = {
            name: evaluate_recommender(model, split, m=20) for name, model in models.items()
        }
        return matrix, split, models, results

    def test_all_models_evaluate(self, pipeline):
        _, _, _, results = pipeline
        assert len(results) == 6
        for result in results.values():
            assert 0.0 <= result.recall <= 1.0

    def test_personalised_models_beat_popularity(self, pipeline):
        _, _, _, results = pipeline
        floor = results["popularity"].recall
        for name in ("OCuLaR", "R-OCuLaR", "wALS", "user-based", "item-based"):
            assert results[name].recall >= floor * 0.9

    def test_ocular_competitive_with_baselines(self, pipeline):
        _, _, _, results = pipeline
        best_baseline = max(
            results[name].recall for name in ("wALS", "user-based", "item-based")
        )
        assert results["OCuLaR"].recall >= 0.8 * best_baseline

    def test_explanations_available_for_top_recommendations(self, pipeline):
        _, split, models, _ = pipeline
        model = models["OCuLaR"]
        user = int(np.argmax(split.train.user_degrees()))
        report = batch_reports(model, [user], n_items=3)[0]
        assert len(report.explanations) == 3
        assert all(0 <= explanation.confidence < 1 for explanation in report.explanations)

    def test_cocluster_statistics_are_consistent(self, pipeline):
        matrix, split, models, _ = pipeline
        coclusters = extract_coclusters(models["OCuLaR"].factors_, split.train)
        stats = cocluster_statistics(coclusters, n_users=matrix.n_users, n_items=matrix.n_items)
        assert stats.n_coclusters >= 1
        assert stats.mean_users <= matrix.n_users
        assert stats.mean_items <= matrix.n_items


class TestPlantedStructureRecovery:
    def test_heldout_recall_high_on_clean_planted_data(self):
        planted = make_planted_coclusters(
            n_users=100,
            n_items=60,
            n_coclusters=4,
            users_per_cocluster=30,
            items_per_cocluster=18,
            within_density=0.85,
            background_density=0.005,
            holdout_fraction=0.15,
            random_state=5,
        )
        model = OCuLaR(
            n_coclusters=6, regularization=2.0, max_iterations=120, random_state=0
        ).fit(planted.matrix)
        hits = 0
        per_user_holdout = {}
        for user, item in planted.heldout_pairs:
            per_user_holdout.setdefault(user, set()).add(item)
        for user, items in per_user_holdout.items():
            ranked = set(int(i) for i in model.recommend(user, n_items=20))
            hits += len(ranked & items)
        total = sum(len(items) for items in per_user_holdout.values())
        assert hits / total > 0.5


class TestEndToEndFromRatingsFile:
    def test_movielens_file_pipeline(self, tmp_path):
        # Build a tiny MovieLens-format file with block structure, then run the
        # exact loader -> split -> fit -> evaluate chain the README documents.
        rng = np.random.default_rng(0)
        lines = []
        for user in range(30):
            block = user % 2
            items = range(0, 15) if block == 0 else range(15, 30)
            for item in items:
                if rng.random() < 0.7:
                    rating = int(rng.integers(3, 6))
                    lines.append(f"{user}::{item}::{rating}::0")
                elif rng.random() < 0.3:
                    lines.append(f"{user}::{item}::2::0")
        path = tmp_path / "ratings.dat"
        path.write_text("\n".join(lines) + "\n")

        matrix = load_movielens_ratings(path, threshold=3.0)
        split = train_test_split(matrix, test_fraction=0.25, random_state=0)
        model = OCuLaR(
            n_coclusters=4, regularization=1.0, max_iterations=60, random_state=0
        ).fit(split.train)
        result = evaluate_recommender(model, split, m=10)
        popularity = PopularityRecommender().fit(split.train)
        floor = evaluate_recommender(popularity, split, m=10)
        assert result.recall > floor.recall


class TestGridSearchIntegration:
    def test_grid_search_selects_regularised_model_on_b2b(self):
        dataset = make_b2b(n_clients=120, n_products=24, random_state=2)
        result = grid_search(
            lambda n_coclusters, regularization: OCuLaR(
                n_coclusters=n_coclusters,
                regularization=regularization,
                max_iterations=40,
                random_state=0,
            ),
            {"n_coclusters": [4, 10], "regularization": [0.5, 5.0]},
            dataset.matrix,
            metric="recall",
            m=8,
            random_state=0,
        )
        assert len(result.table) == 4
        assert result.best_params["n_coclusters"] in (4, 10)
        assert 0.0 <= result.best_score <= 1.0


class TestB2BDeploymentFlow:
    def test_named_reports_with_price_estimates(self):
        dataset = make_b2b(n_clients=120, n_products=25, random_state=3)
        model = OCuLaR(
            n_coclusters=10, regularization=2.0, max_iterations=60, random_state=0
        ).fit(dataset.matrix)
        client = int(np.argmax(dataset.matrix.user_degrees()))
        report = batch_reports(model, [client], n_items=3, deal_values=dataset.deal_values)[0]
        text = report.to_text()
        assert dataset.client_names[client] in text
        assert any(
            explanation.price_estimate is not None for explanation in report.explanations
        )
