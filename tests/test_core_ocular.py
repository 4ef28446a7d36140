"""Tests for the OCuLaR recommender (fitting, scoring, recommending)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import ParallelBackend
from repro.core.ocular import OCuLaR
from repro.data.synthetic import make_planted_coclusters, membership_recovery_score
from repro.exceptions import ConfigurationError, NotFittedError


class TestConfiguration:
    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ConfigurationError):
            OCuLaR(n_coclusters=0)
        with pytest.raises(ConfigurationError):
            OCuLaR(regularization=-1.0)
        with pytest.raises(ConfigurationError):
            OCuLaR(user_weighting="absolute")

    def test_get_params_roundtrip(self):
        model = OCuLaR(n_coclusters=7, regularization=3.0, backend="reference")
        params = model.get_params()
        assert params["n_coclusters"] == 7
        assert params["regularization"] == 3.0
        assert params["backend"] == "reference"
        rebuilt = OCuLaR(**{k: v for k, v in params.items()})
        assert rebuilt.get_params() == params


class TestUnfittedBehaviour:
    def test_prediction_before_fit_raises(self):
        model = OCuLaR()
        with pytest.raises(NotFittedError):
            model.score_user(0)
        with pytest.raises(NotFittedError):
            model.recommend(0)
        with pytest.raises(NotFittedError):
            model.predict_proba(0, 0)
        with pytest.raises(NotFittedError):
            model.coclusters()
        assert not model.is_fitted


class TestFitting:
    def test_fit_returns_self_and_sets_state(self, toy_dataset):
        model = OCuLaR(n_coclusters=3, regularization=0.05, max_iterations=50, random_state=0)
        assert model.fit(toy_dataset.matrix) is model
        assert model.is_fitted
        assert model.factors_ is not None
        assert model.history_ is not None
        assert model.user_factors_.shape == (12, 3)
        assert model.item_factors_.shape == (12, 3)

    def test_factors_non_negative(self, fitted_toy_model):
        assert (fitted_toy_model.user_factors_ >= 0).all()
        assert (fitted_toy_model.item_factors_ >= 0).all()

    def test_training_objective_decreases(self, fitted_toy_model):
        values = fitted_toy_model.history_.objective_values
        assert values[-1] < values[0]

    def test_deterministic_given_seed(self, toy_dataset):
        first = OCuLaR(n_coclusters=3, max_iterations=30, random_state=5).fit(toy_dataset.matrix)
        second = OCuLaR(n_coclusters=3, max_iterations=30, random_state=5).fit(toy_dataset.matrix)
        np.testing.assert_array_equal(first.user_factors_, second.user_factors_)

    def test_different_seeds_give_different_factors(self, toy_dataset):
        first = OCuLaR(n_coclusters=3, max_iterations=10, random_state=1).fit(toy_dataset.matrix)
        second = OCuLaR(n_coclusters=3, max_iterations=10, random_state=2).fit(toy_dataset.matrix)
        assert not np.allclose(first.user_factors_, second.user_factors_)


class TestScoring:
    def test_scores_are_probabilities(self, fitted_toy_model):
        scores = fitted_toy_model.score_user(6)
        assert scores.shape == (12,)
        assert np.all(scores >= 0) and np.all(scores < 1)

    def test_score_users_matches_score_user(self, fitted_toy_model):
        batch = fitted_toy_model.score_users([0, 6, 7])
        for row, user in zip(batch, (0, 6, 7)):
            np.testing.assert_allclose(row, fitted_toy_model.score_user(user))

    def test_score_users_empty(self, fitted_toy_model):
        assert fitted_toy_model.score_users([]).shape == (0, 12)

    def test_predict_proba_consistent_with_score(self, fitted_toy_model):
        assert fitted_toy_model.predict_proba(6, 4) == pytest.approx(
            float(fitted_toy_model.score_user(6)[4])
        )

    def test_observed_positives_get_high_probability(self, toy_dataset, fitted_toy_model):
        probabilities = [
            fitted_toy_model.predict_proba(user, item)
            for user, item in toy_dataset.matrix.iter_pairs()
        ]
        assert float(np.mean(probabilities)) > 0.6


class TestRecommendation:
    def test_recommend_excludes_seen_by_default(self, toy_dataset, fitted_toy_model):
        seen = set(toy_dataset.matrix.items_of_user(6).tolist())
        recommended = fitted_toy_model.recommend(6, n_items=5)
        assert not (set(recommended.tolist()) & seen)

    def test_recommend_can_include_seen(self, fitted_toy_model):
        ranked = fitted_toy_model.recommend(6, n_items=12, exclude_seen=False)
        assert len(ranked) == 12

    def test_recommend_respects_ranking(self, fitted_toy_model):
        ranked = fitted_toy_model.recommend(6, n_items=4)
        scores = fitted_toy_model.score_user(6)
        ranked_scores = scores[ranked]
        assert all(
            earlier >= later for earlier, later in zip(ranked_scores, ranked_scores[1:])
        )

    def test_headline_toy_recommendation(self, fitted_toy_model):
        # The paper's flagship example: item 4 is user 6's top recommendation.
        top = fitted_toy_model.recommend(6, n_items=1)
        assert int(top[0]) == 4


class TestStructureRecovery:
    """OCuLaR should recover planted overlapping co-clusters."""

    def test_recovers_planted_user_memberships(self):
        planted = make_planted_coclusters(
            n_users=90,
            n_items=60,
            n_coclusters=3,
            users_per_cocluster=30,
            items_per_cocluster=20,
            within_density=0.95,
            background_density=0.0,
            random_state=0,
        )
        model = OCuLaR(
            n_coclusters=3, regularization=0.5, max_iterations=150, random_state=1
        ).fit(planted.matrix)
        coclusters = model.coclusters(membership_threshold=0.5)
        score = membership_recovery_score(
            planted.user_memberships,
            [cocluster.users for cocluster in coclusters],
            universe=planted.matrix.n_users,
        )
        assert score > 0.6

    def test_heldout_positives_rank_above_random_unknowns(self):
        planted = make_planted_coclusters(
            n_users=80,
            n_items=50,
            n_coclusters=3,
            users_per_cocluster=25,
            items_per_cocluster=15,
            within_density=0.9,
            background_density=0.01,
            holdout_fraction=0.1,
            random_state=3,
        )
        model = OCuLaR(
            n_coclusters=4, regularization=1.0, max_iterations=100, random_state=0
        ).fit(planted.matrix)
        rng = np.random.default_rng(0)
        heldout_scores, random_scores = [], []
        for user, item in planted.heldout_pairs[:100]:
            heldout_scores.append(model.predict_proba(user, item))
            random_item = int(rng.integers(0, planted.matrix.n_items))
            if not planted.matrix.contains(user, random_item):
                random_scores.append(model.predict_proba(user, random_item))
        assert np.mean(heldout_scores) > np.mean(random_scores)


class TestBackendsAndWeighting:
    def test_reference_and_vectorized_backends_agree(self, toy_dataset):
        shared = dict(n_coclusters=3, regularization=0.1, max_iterations=20, random_state=0)
        reference = OCuLaR(backend="reference", **shared).fit(toy_dataset.matrix)
        vectorized = OCuLaR(backend="vectorized", **shared).fit(toy_dataset.matrix)
        np.testing.assert_allclose(
            reference.user_factors_, vectorized.user_factors_, rtol=1e-6, atol=1e-8
        )

    def test_relative_weighting_changes_solution(self, toy_dataset):
        plain = OCuLaR(n_coclusters=3, max_iterations=30, random_state=0).fit(toy_dataset.matrix)
        weighted = OCuLaR(
            n_coclusters=3, max_iterations=30, random_state=0, user_weighting="relative"
        ).fit(toy_dataset.matrix)
        assert not np.allclose(plain.user_factors_, weighted.user_factors_)

    def test_parallel_backend_fit_is_bit_identical(self, toy_dataset):
        shared = dict(n_coclusters=3, regularization=0.1, max_iterations=15, random_state=0)
        vectorized = OCuLaR(backend="vectorized", **shared).fit(toy_dataset.matrix)
        with ParallelBackend(n_workers=3) as backend:
            parallel = OCuLaR(backend=backend, **shared).fit(toy_dataset.matrix)
        np.testing.assert_array_equal(vectorized.user_factors_, parallel.user_factors_)
        np.testing.assert_array_equal(vectorized.item_factors_, parallel.item_factors_)
        np.testing.assert_array_equal(
            vectorized.history_.objective_values, parallel.history_.objective_values
        )

    def test_borrowed_backend_outlives_the_fit(self, toy_dataset):
        # The caller owns a backend instance: a fit leaves its pool up, and
        # a second fit on the same pool reproduces the first.
        shared = dict(n_coclusters=3, regularization=0.1, max_iterations=5, random_state=0)
        with ParallelBackend(n_workers=2) as backend:
            first = OCuLaR(backend=backend, **shared).fit(toy_dataset.matrix)
            assert backend._scheduler.live_executor is not None
            second = OCuLaR(backend=backend, **shared).fit(toy_dataset.matrix)
        assert backend._scheduler.live_executor is None
        np.testing.assert_array_equal(first.user_factors_, second.user_factors_)
        np.testing.assert_array_equal(first.item_factors_, second.item_factors_)

    def test_sweep_stats_exposed_after_fit(self, toy_dataset):
        model = OCuLaR(n_coclusters=3, max_iterations=5, random_state=0).fit(
            toy_dataset.matrix
        )
        history = model.history_
        assert len(history.item_sweep_stats) == history.n_iterations
        assert len(history.user_sweep_stats) == history.n_iterations
        assert history.mean_user_acceptance_rate > 0.0


class TestDtype:
    def test_default_fit_is_float64(self, toy_dataset):
        model = OCuLaR(n_coclusters=3, max_iterations=5, random_state=0).fit(
            toy_dataset.matrix
        )
        assert model.factors_.dtype == np.float64

    def test_float32_fit_stays_float32(self, toy_dataset):
        model = OCuLaR(
            n_coclusters=3, max_iterations=10, random_state=0, dtype="float32"
        ).fit(toy_dataset.matrix)
        assert model.factors_.dtype == np.float32
        assert model.user_factors_.dtype == np.float32
        assert model.item_factors_.dtype == np.float32
        # The fit must still behave: objective monotone, scores sane.
        values = model.history_.objective_values
        assert values[-1] < values[0]
        scores = model.score_user(0)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_float32_tracks_float64_solution(self, toy_dataset):
        shared = dict(n_coclusters=3, regularization=0.5, max_iterations=10, random_state=0)
        full = OCuLaR(dtype="float64", **shared).fit(toy_dataset.matrix)
        half = OCuLaR(dtype="float32", **shared).fit(toy_dataset.matrix)
        np.testing.assert_allclose(
            full.user_factors_, half.user_factors_, rtol=5e-2, atol=5e-2
        )

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            OCuLaR(dtype="int32")
        with pytest.raises(ConfigurationError):
            OCuLaR(dtype="float16")

    def test_get_params_roundtrips_dtype_and_workers(self):
        # A sized pool is a backend instance, which get_params() names.
        with ParallelBackend(n_workers=2) as backend:
            params = OCuLaR(dtype="float32", backend=backend).get_params()
        assert params["dtype"] == "float32"
        assert params["backend"] == "parallel"
        rebuilt = OCuLaR(**params)
        assert rebuilt.get_params() == params


class TestWarmStartFit:
    @pytest.fixture()
    def planted_matrix(self):
        return make_planted_coclusters(
            n_users=40,
            n_items=30,
            n_coclusters=3,
            users_per_cocluster=14,
            items_per_cocluster=10,
            random_state=11,
        ).matrix

    def _model(self, **overrides):
        settings = dict(
            n_coclusters=3,
            regularization=1.0,
            max_iterations=4,
            tolerance=0.0,
            random_state=0,
        )
        settings.update(overrides)
        return OCuLaR(**settings)

    def test_factor_model_and_tuple_seeds_are_equivalent(self, planted_matrix):
        seed = self._model().fit(planted_matrix)
        via_model = self._model().fit(planted_matrix, initial_factors=seed.factors_)
        via_tuple = self._model().fit(
            planted_matrix,
            initial_factors=(
                seed.factors_.user_factors,
                seed.factors_.item_factors,
            ),
        )
        np.testing.assert_array_equal(
            via_model.factors_.user_factors, via_tuple.factors_.user_factors
        )
        np.testing.assert_array_equal(
            via_model.factors_.item_factors, via_tuple.factors_.item_factors
        )
        assert via_model.history_.warm_started
        assert via_tuple.history_.warm_started
        assert not seed.history_.warm_started

    def test_seed_factors_are_copied_not_mutated(self, planted_matrix):
        seed = self._model().fit(planted_matrix)
        user_before = seed.factors_.user_factors.copy()
        item_before = seed.factors_.item_factors.copy()
        self._model().fit(planted_matrix, initial_factors=seed.factors_)
        np.testing.assert_array_equal(seed.factors_.user_factors, user_before)
        np.testing.assert_array_equal(seed.factors_.item_factors, item_before)

    def test_wrong_shape_rejected_with_extend_hint(self, planted_matrix):
        seed = self._model().fit(planted_matrix)
        grown = planted_matrix.extended_with([], n_new_users=2)
        with pytest.raises(ConfigurationError, match="extend_factors"):
            self._model().fit(grown, initial_factors=seed.factors_)

    def test_negative_seed_rejected(self, planted_matrix):
        user = np.full((planted_matrix.n_users, 3), 0.5)
        item = np.full((planted_matrix.n_items, 3), 0.5)
        user[0, 0] = -1e-6
        with pytest.raises(ConfigurationError, match="non-negative"):
            self._model().fit(planted_matrix, initial_factors=(user, item))

    def test_garbage_seed_rejected(self, planted_matrix):
        with pytest.raises(ConfigurationError, match="FactorModel"):
            self._model().fit(planted_matrix, initial_factors=42)

    def test_seed_cast_to_model_dtype(self, planted_matrix):
        seed = self._model().fit(planted_matrix)
        warm = self._model(dtype="float32").fit(
            planted_matrix, initial_factors=seed.factors_
        )
        assert warm.factors_.user_factors.dtype == np.float32

    def test_cold_fit_unchanged_by_warm_machinery(self, planted_matrix):
        # Two cold fits from the same seed are bit-identical — the presence
        # of the warm-start/plateau parameters must not perturb the default
        # path.
        a = self._model().fit(planted_matrix)
        b = self._model().fit(planted_matrix)
        np.testing.assert_array_equal(
            a.factors_.user_factors, b.factors_.user_factors
        )
        np.testing.assert_array_equal(
            a.factors_.item_factors, b.factors_.item_factors
        )
        assert a.history_.plateau_tolerance is None
