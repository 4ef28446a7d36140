"""The paper's shapes at unit-test sizes, and the pieces the paper benches share.

Every table and figure is reproduced at full size by its bench under
``benchmarks/``; the checks here run the same library calls on corpora small
enough for the unit suite, so a change that breaks a figure's machinery fails
here first.  ``benchmarks/_paper.py`` (Table I values, model zoo, hold-out,
toy fit) is tested directly.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from _paper import (
    DATASET_ZOO_DEFAULTS,
    MODEL_NAMES,
    TABLE1_PAPER,
    build_model_zoo,
    holdout,
    subsample_users,
    top1_recovered,
)

from repro.core.coclusters import cocluster_statistics, extract_coclusters
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.core.explain import batch_reports
from repro.core.render import render_coclusters, render_matrix, render_probability_matrix
from repro.data.datasets import dataset_by_name, make_b2b, make_netflix_like
from repro.evaluation.evaluator import evaluate_curves, evaluate_recommender
from repro.evaluation.grid_search import grid_search


# --------------------------------------------------------------------------- #
# Shared bench pieces
# --------------------------------------------------------------------------- #
class TestPaperTable1:
    def test_every_dataset_and_metric_covers_every_method(self):
        assert set(TABLE1_PAPER) == {"movielens", "citeulike", "b2b"}
        for rows in TABLE1_PAPER.values():
            assert set(rows) == {"MAP@50", "recall@50"}
            for values in rows.values():
                assert set(values) == set(MODEL_NAMES)

    def test_values_in_unit_interval(self):
        for rows in TABLE1_PAPER.values():
            for values in rows.values():
                assert all(0.0 < value < 1.0 for value in values.values())

    def test_zoo_defaults_name_loadable_datasets(self):
        assert set(DATASET_ZOO_DEFAULTS) == set(TABLE1_PAPER)
        for name, params in DATASET_ZOO_DEFAULTS.items():
            matrix = dataset_by_name(name, random_state=0, scale=0.1)
            assert matrix.nnz > 0
            assert set(params) == {"n_coclusters", "regularization"}


class TestModelZoo:
    def test_keys_follow_table1_column_order(self):
        zoo = build_model_zoo(n_coclusters=4, regularization=1.0)
        assert tuple(zoo) == tuple(MODEL_NAMES)

    def test_factories_produce_fresh_instances(self):
        zoo = build_model_zoo(n_coclusters=4, regularization=1.0)
        assert zoo["OCuLaR"]() is not zoo["OCuLaR"]()

    def test_ocular_variants_take_k_and_lambda(self):
        zoo = build_model_zoo(n_coclusters=7, regularization=3.5, random_state=2)
        for name, cls in (("OCuLaR", OCuLaR), ("R-OCuLaR", ROCuLaR)):
            model = zoo[name]()
            assert isinstance(model, cls)
            assert model.n_coclusters == 7
            assert model.regularization == 3.5


class TestHoldout:
    @pytest.fixture(scope="class")
    def split_and_users(self):
        return holdout("movielens", scale=0.2, max_users=25)

    def test_users_are_sorted_test_users(self, split_and_users):
        split, users = split_and_users
        assert len(users) == 25
        assert users == sorted(users)
        assert set(users) <= set(split.test_items)

    def test_subsample_is_reproducible_and_keeps_small_pools(self, split_and_users):
        split, _users = split_and_users
        assert subsample_users(split, 10, seed=4) == subsample_users(split, 10, seed=4)
        everyone = sorted(split.test_items)
        assert subsample_users(split, len(everyone) + 5, seed=4) == everyone

    def test_holdout_is_deterministic(self, split_and_users):
        split, users = split_and_users
        again, again_users = holdout("movielens", scale=0.2, max_users=25)
        assert again_users == users
        assert again.train.nnz == split.train.nnz


# --------------------------------------------------------------------------- #
# Figures 1 / 3: the toy example
# --------------------------------------------------------------------------- #
class TestToyExample:
    def test_headline_item_ranks_first_among_unknowns(self, paper_toy_model, toy_dataset):
        scores = paper_toy_model.score_user(6)
        seen = set(toy_dataset.matrix.items_of_user(6).tolist())
        unknown = [item for item in range(toy_dataset.matrix.n_items) if item not in seen]
        assert max(unknown, key=lambda item: scores[item]) == 4

    def test_headline_confidence_near_paper(self, paper_toy_model):
        # Paper: "Item 4 is recommended to User 6 with confidence 0.83".
        assert paper_toy_model.predict_proba(6, 4) == pytest.approx(0.83, abs=0.10)

    def test_all_candidates_recovered_at_top1(self, paper_toy_model, toy_dataset):
        assert top1_recovered(paper_toy_model, toy_dataset) == 3

    def test_renderings_mark_positives_and_probabilities(self, paper_toy_model, toy_dataset):
        assert "#" in render_matrix(toy_dataset.matrix)
        text = render_probability_matrix(paper_toy_model.factors_, toy_dataset.matrix)
        assert "%" in text


# --------------------------------------------------------------------------- #
# Table I / Figure 5: accuracy against the baselines
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_table1():
    """Every Table I method on one small MovieLens-like hold-out: recall@M curves."""
    split, users = holdout("movielens", scale=0.35, max_users=60)
    zoo = build_model_zoo(random_state=0, **DATASET_ZOO_DEFAULTS["movielens"])
    return {
        name: evaluate_curves(factory().fit(split.train), split, m_values=[5, 20, 40], users=users)
        for name, factory in zoo.items()
    }


class TestTable1Small:
    def test_every_method_scores_in_unit_interval(self, small_table1):
        assert set(small_table1) == set(MODEL_NAMES)
        for curves in small_table1.values():
            for result in curves.values():
                assert 0.0 <= result.recall <= 1.0
                assert 0.0 <= result.map <= 1.0

    def test_an_ocular_variant_is_in_the_top_two(self, small_table1):
        ranking = sorted(small_table1, key=lambda name: -small_table1[name][20].recall)
        assert min(ranking.index("OCuLaR"), ranking.index("R-OCuLaR")) <= 1

    def test_recall_curves_are_monotone_in_m(self, small_table1):
        for curves in small_table1.values():
            recalls = [curves[m].recall for m in (5, 20, 40)]
            assert all(later >= earlier - 1e-9 for earlier, later in zip(recalls, recalls[1:]))


# --------------------------------------------------------------------------- #
# Figures 6-10 and the float32 study
# --------------------------------------------------------------------------- #
def test_larger_k_gives_smaller_coclusters():
    split, _users = holdout("movielens", scale=0.25, max_users=30)
    mean_users = []
    for n_coclusters in (4, 16):
        model = OCuLaR(
            n_coclusters=n_coclusters, regularization=5.0, max_iterations=30, random_state=0
        ).fit(split.train)
        stats = cocluster_statistics(
            extract_coclusters(model.factors_, split.train),
            n_users=split.train.n_users,
            n_items=split.train.n_items,
        )
        mean_users.append(stats.mean_users)
    assert mean_users[0] > mean_users[1]


def test_larger_k_costs_more_per_iteration():
    # K=32 does ~16x the work of K=2 per iteration, but a CPU-steal spike on
    # a loaded host can still invert a single measurement, so allow a couple
    # of re-measurements.  A genuine complexity regression fails every one.
    matrix = make_netflix_like(n_users=400, n_items=200, random_state=0)

    def seconds(n_coclusters):
        model = OCuLaR(
            n_coclusters=n_coclusters,
            regularization=5.0,
            max_iterations=2,
            tolerance=0.0,
            random_state=0,
        ).fit(matrix)
        return model.history_.mean_seconds_per_iteration

    for _ in range(3):
        small_k, large_k = seconds(2), seconds(32)
        if large_k > small_k:
            break
    assert large_k > small_k


def test_more_positives_cost_more_per_iteration():
    # Figure 7's other axis: a quarter of the positives must be clearly
    # cheaper per iteration than all of them (re-measured like the K check).
    matrix = make_netflix_like(n_users=800, n_items=300, random_state=0)
    quarter = matrix.subsample(0.25, random_state=0)
    assert quarter.nnz < matrix.nnz

    def seconds(corpus):
        model = OCuLaR(
            n_coclusters=8, regularization=5.0, max_iterations=3, tolerance=0.0, random_state=0
        ).fit(corpus)
        return model.history_.mean_seconds_per_iteration

    for _ in range(3):
        small, full = seconds(quarter), seconds(matrix)
        if full > small:
            break
    assert full > small


def test_backends_trace_the_same_likelihood():
    matrix = make_netflix_like(n_users=200, n_items=80, random_state=0)
    histories = {
        backend: OCuLaR(
            n_coclusters=10,
            regularization=5.0,
            max_iterations=3,
            tolerance=0.0,
            backend=backend,
            random_state=0,
        ).fit(matrix).history_
        for backend in ("reference", "vectorized")
    }
    np.testing.assert_allclose(
        histories["reference"].log_likelihoods,
        histories["vectorized"].log_likelihoods,
        rtol=1e-6,
    )


def test_grid_search_fills_the_grid_and_reports_its_best():
    dataset = make_b2b(n_clients=80, n_products=20, random_state=0)
    search = grid_search(
        partial(OCuLaR, max_iterations=20, random_state=0),
        {"n_coclusters": [4, 8], "regularization": [1.0, 10.0]},
        dataset.matrix,
        m=10,
        random_state=0,
    )
    _k, _lam, grid = search.scores_as_grid("n_coclusters", "regularization")
    assert grid.shape == (2, 2)
    assert not np.isnan(grid).any()
    assert search.best_score == pytest.approx(float(grid.max()))


def test_float32_halves_factor_memory():
    split, users = holdout("movielens", scale=0.15, max_users=40)
    fitted = {}
    for dtype in ("float32", "float64"):
        model = OCuLaR(
            n_coclusters=8, max_iterations=15, dtype=dtype, random_state=0
        ).fit(split.train)
        evaluation = evaluate_recommender(model, split, m=20, users=users)
        assert 0.0 <= evaluation.recall <= 1.0
        factors = model.factors_
        fitted[dtype] = factors.user_factors.nbytes + factors.item_factors.nbytes
    assert fitted["float32"] / fitted["float64"] == 0.5


def test_deployment_reports_carry_rationale_and_price():
    dataset = make_b2b(n_clients=100, n_products=25, random_state=0)
    model = OCuLaR(
        n_coclusters=8, regularization=2.0, max_iterations=40, random_state=0
    ).fit(dataset.matrix)
    clients = np.argsort(-dataset.matrix.user_degrees())[:2]
    reports = batch_reports(
        model, [int(client) for client in clients], n_items=3, deal_values=dataset.deal_values
    )
    cards = [card for report in reports for card in report.explanations]
    assert len(cards) == 6
    assert sum(1 for card in cards if card.evidence) >= 4
    assert sum(1 for card in cards if card.price_estimate is not None) >= 4
    assert all("confidence" in report.to_text() for report in reports)


def test_cocluster_overview_names_client_companies():
    dataset = make_b2b(n_clients=100, n_products=25, random_state=0)
    model = OCuLaR(
        n_coclusters=8, regularization=2.0, max_iterations=40, random_state=0
    ).fit(dataset.matrix)
    coclusters = extract_coclusters(model.factors_, dataset.matrix, drop_empty=True)
    assert coclusters
    assert "Corp" in render_coclusters(coclusters[:3], dataset.matrix, max_members=5)
