"""Tests for evaluator, cross-validation and grid search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import PopularityRecommender, UserKNNRecommender
from repro.core.ocular import OCuLaR
from repro.data.splitting import train_test_split
from repro.evaluation.cross_validation import cross_validate
from repro.evaluation.evaluator import (
    evaluate_curves,
    evaluate_recommender,
)
from repro.evaluation.grid_search import grid_search, parameter_combinations
from repro.exceptions import ConfigurationError, EvaluationError
from repro.parallel import SerialExecutor, ThreadExecutor


@pytest.fixture(scope="module")
def fitted_split(request):
    """A split plus a fitted cheap model shared by the protocol tests."""
    from repro.data.datasets import make_movielens_like

    matrix = make_movielens_like(n_users=100, n_items=60, random_state=0)
    split = train_test_split(matrix, random_state=0)
    model = UserKNNRecommender(n_neighbors=20).fit(split.train)
    return matrix, split, model


class TestEvaluateRecommender:
    def test_result_fields_and_ranges(self, fitted_split):
        _, split, model = fitted_split
        result = evaluate_recommender(model, split, m=10)
        assert result.m == 10
        assert result.n_users == len(split.test_items)
        for value in (result.recall, result.map, result.precision, result.ndcg, result.hit_rate):
            assert 0.0 <= value <= 1.0

    def test_as_dict(self, fitted_split):
        _, split, model = fitted_split
        summary = evaluate_recommender(model, split, m=10).as_dict()
        assert set(summary) == {"m", "n_users", "recall", "map", "precision", "ndcg", "hit_rate"}

    def test_user_subset(self, fitted_split):
        _, split, model = fitted_split
        subset = sorted(split.test_items.keys())[:10]
        result = evaluate_recommender(model, split, m=10, users=subset)
        assert result.n_users == 10

    def test_per_user_breakdown(self, fitted_split):
        _, split, model = fitted_split
        result = evaluate_recommender(model, split, m=10, keep_per_user=True)
        assert len(result.per_user) == result.n_users
        some_user = next(iter(result.per_user.values()))
        assert {"recall", "ap", "precision", "ndcg", "hit"} <= set(some_user)

    def test_unfitted_model_rejected(self, fitted_split):
        _, split, _ = fitted_split
        with pytest.raises(EvaluationError):
            evaluate_recommender(PopularityRecommender(), split, m=10)

    def test_invalid_m_rejected(self, fitted_split):
        _, split, model = fitted_split
        with pytest.raises(EvaluationError):
            evaluate_recommender(model, split, m=0)

    def test_unknown_users_rejected(self, fitted_split):
        _, split, model = fitted_split
        with pytest.raises(EvaluationError):
            evaluate_recommender(model, split, m=5, users=[-1])

    def test_larger_m_never_decreases_recall(self, fitted_split):
        _, split, model = fitted_split
        small = evaluate_recommender(model, split, m=5).recall
        large = evaluate_recommender(model, split, m=30).recall
        assert large >= small


class TestEvaluateCurves:
    def test_matches_single_evaluations(self, fitted_split):
        _, split, model = fitted_split
        curves = evaluate_curves(model, split, m_values=[5, 20])
        for m in (5, 20):
            single = evaluate_recommender(model, split, m=m)
            assert curves[m].recall == pytest.approx(single.recall)
            assert curves[m].map == pytest.approx(single.map)

    def test_recall_monotone_in_m(self, fitted_split):
        _, split, model = fitted_split
        curves = evaluate_curves(model, split, m_values=[5, 10, 20, 40])
        recalls = [curves[m].recall for m in sorted(curves)]
        assert all(later >= earlier for earlier, later in zip(recalls, recalls[1:]))

    def test_empty_m_values_rejected(self, fitted_split):
        _, split, model = fitted_split
        with pytest.raises(EvaluationError):
            evaluate_curves(model, split, m_values=[])


class TestCrossValidation:
    def test_cross_validate_aggregates(self, fitted_split):
        matrix, _, _ = fitted_split
        result = cross_validate(
            lambda: UserKNNRecommender(n_neighbors=10), matrix, n_folds=3, m=10, random_state=0
        )
        assert result.n_folds == 3
        assert 0.0 <= result.mean("recall") <= 1.0
        assert result.std("recall") >= 0.0
        summary = result.as_dict()
        assert summary["n_folds"] == 3.0
        assert "recall_mean" in summary and "map_std" in summary

    def test_max_users_caps_evaluation(self, fitted_split):
        matrix, _, _ = fitted_split
        result = cross_validate(
            lambda: PopularityRecommender(), matrix, n_folds=2, m=10, max_users=5, random_state=0
        )
        assert all(fold.n_users <= 5 for fold in result.fold_results)

    def test_invalid_folds_rejected(self, fitted_split):
        matrix, _, _ = fitted_split
        with pytest.raises(EvaluationError):
            cross_validate(lambda: PopularityRecommender(), matrix, n_folds=1)


class TestGridSearch:
    def test_parameter_combinations_order_and_count(self):
        combos = parameter_combinations({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(combos) == 6
        assert combos[0] == {"a": 1, "b": "x"}
        assert combos[-1] == {"a": 2, "b": "z"}

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            parameter_combinations({})
        with pytest.raises(ConfigurationError):
            parameter_combinations({"a": []})

    def test_grid_search_finds_better_neighborhood(self, fitted_split):
        matrix, _, _ = fitted_split
        result = grid_search(
            UserKNNRecommender,
            {"n_neighbors": [1, 20]},
            matrix,
            metric="recall",
            m=10,
            random_state=0,
        )
        assert result.best_params["n_neighbors"] == 20
        assert len(result.table) == 2
        assert result.best_score == max(entry["score"] for entry in result.table)

    def test_scores_as_grid_pivot(self, fitted_split):
        matrix, _, _ = fitted_split
        result = grid_search(
            lambda n_coclusters, regularization: OCuLaR(
                n_coclusters=n_coclusters,
                regularization=regularization,
                max_iterations=10,
                random_state=0,
            ),
            {"n_coclusters": [2, 4], "regularization": [1.0, 10.0]},
            matrix,
            m=10,
            random_state=0,
        )
        rows, cols, grid = result.scores_as_grid("n_coclusters", "regularization")
        assert rows == [2, 4]
        assert cols == [1.0, 10.0]
        assert grid.shape == (2, 2)
        assert not np.isnan(grid).any()

    def test_unknown_metric_rejected(self, fitted_split):
        matrix, _, _ = fitted_split
        with pytest.raises(ConfigurationError):
            grid_search(UserKNNRecommender, {"n_neighbors": [5]}, matrix, metric="auc")

    def test_executor_paths_agree(self, fitted_split):
        matrix, _, _ = fitted_split
        grid = {"n_neighbors": [5, 15]}
        serial = grid_search(
            UserKNNRecommender, grid, matrix, m=10, executor=SerialExecutor(), random_state=1
        )
        with ThreadExecutor(max_workers=2) as executor:
            threaded = grid_search(
                UserKNNRecommender, grid, matrix, m=10, executor=executor, random_state=1
            )
        assert serial.best_params == threaded.best_params
        assert serial.best_score == pytest.approx(threaded.best_score)

    def test_executor_selected_by_registry_name(self, fitted_split):
        # Names route through the shard-scheduler registry; the built
        # executor is owned by the call and shut down afterwards.
        matrix, _, _ = fitted_split
        grid = {"n_neighbors": [5, 15]}
        inline = grid_search(UserKNNRecommender, grid, matrix, m=10, random_state=1)
        named = grid_search(
            UserKNNRecommender, grid, matrix, m=10, executor="thread", random_state=1
        )
        assert named.best_params == inline.best_params
        assert named.best_score == pytest.approx(inline.best_score)
        with pytest.raises(ConfigurationError):
            grid_search(
                UserKNNRecommender, grid, matrix, m=10, executor="spark", random_state=1
            )
