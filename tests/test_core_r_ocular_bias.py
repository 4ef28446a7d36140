"""Tests for R-OCuLaR (relative weighting) and the bias-extended model."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.bias import BiasedOCuLaR
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.data.synthetic import make_planted_coclusters
from repro.exceptions import ConvergenceWarning


class TestROCuLaR:
    def test_is_ocular_with_relative_weighting(self):
        model = ROCuLaR(n_coclusters=4)
        assert isinstance(model, OCuLaR)
        assert model.user_weighting == "relative"

    def test_fit_and_recommend(self, toy_dataset):
        model = ROCuLaR(
            n_coclusters=3, regularization=0.05, max_iterations=100, random_state=0
        ).fit(toy_dataset.matrix)
        assert model.is_fitted
        scores = model.score_user(6)
        assert np.all(scores >= 0) and np.all(scores < 1)
        assert len(model.recommend(6, n_items=3)) == 3

    def test_objective_decreases(self, toy_dataset):
        model = ROCuLaR(n_coclusters=3, max_iterations=40, random_state=0).fit(toy_dataset.matrix)
        values = model.history_.objective_values
        assert values[-1] < values[0]
        assert all(later <= earlier + 1e-8 for earlier, later in zip(values, values[1:]))

    def test_same_complexity_interface_as_ocular(self):
        # The paper notes R-OCuLaR has exactly the same complexity/implementation;
        # its constructor exposes the same knobs minus the weighting choice.
        ocular_params = set(OCuLaR().get_params())
        r_params = set(ROCuLaR().get_params())
        assert r_params == ocular_params

    def test_upweights_light_users(self):
        # A user with very few positives should see their positives explained
        # at least as well under R-OCuLaR as under plain OCuLaR.
        planted = make_planted_coclusters(
            n_users=50,
            n_items=40,
            n_coclusters=2,
            users_per_cocluster=25,
            items_per_cocluster=15,
            within_density=0.9,
            background_density=0.0,
            random_state=0,
        )
        matrix = planted.matrix
        degrees = matrix.user_degrees()
        active_users = np.flatnonzero(degrees > 0)
        order = active_users[np.argsort(degrees[active_users])]
        light_users = [int(u) for u in order[: max(3, len(order) // 10)]]
        shared = dict(n_coclusters=2, regularization=1.0, max_iterations=80, random_state=0)
        plain = OCuLaR(**shared).fit(matrix)
        relative = ROCuLaR(**shared).fit(matrix)

        def mean_positive_probability(model):
            values = []
            for user in light_users:
                for item in matrix.items_of_user(user):
                    values.append(model.predict_proba(user, int(item)))
            return float(np.mean(values))

        assert mean_positive_probability(relative) >= mean_positive_probability(plain) - 0.05


class TestBiasedOCuLaR:
    def test_fit_produces_biases_and_clean_factors(self, toy_dataset):
        model = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=30, random_state=0
        ).fit(toy_dataset.matrix)
        assert model.user_biases_ is not None and model.user_biases_.shape == (12,)
        assert model.item_biases_ is not None and model.item_biases_.shape == (12,)
        assert (model.user_biases_ >= 0).all()
        assert (model.item_biases_ >= 0).all()
        # The exposed co-cluster factors exclude the auxiliary bias columns.
        assert model.user_factors_.shape == (12, 3)
        assert model.item_factors_.shape == (12, 3)

    def test_inner_sweeps_are_honoured(self, toy_dataset):
        # inner_sweeps must reach the underlying trainer, not be silently
        # dropped: with inner_sweeps=2 every outer iteration runs two sweeps
        # per block.
        model = BiasedOCuLaR(
            n_coclusters=3, max_iterations=3, tolerance=0.0, inner_sweeps=2,
            random_state=0,
        ).fit(toy_dataset.matrix)
        history = model.history_
        assert len(history.item_sweep_stats) == 2 * history.n_iterations
        assert len(history.user_sweep_stats) == 2 * history.n_iterations

    def test_sweep_stats_cover_every_iteration(self, toy_dataset):
        # The per-iteration history merge must carry the sweep stats along,
        # not just the objective trajectories.
        model = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=8, tolerance=0.0,
            random_state=0,
        ).fit(toy_dataset.matrix)
        history = model.history_
        assert len(history.item_sweep_stats) == history.n_iterations
        assert len(history.user_sweep_stats) == history.n_iterations
        assert history.n_iterations > 1

    def test_scores_include_bias_and_stay_probabilities(self, toy_dataset):
        model = BiasedOCuLaR(n_coclusters=3, max_iterations=20, random_state=0).fit(
            toy_dataset.matrix
        )
        scores = model.score_user(6)
        assert np.all(scores >= 0) and np.all(scores < 1)
        assert model.predict_proba(6, 4) == pytest.approx(float(scores[4]))

    def test_popular_items_receive_larger_bias(self):
        planted = make_planted_coclusters(
            n_users=60,
            n_items=30,
            n_coclusters=2,
            users_per_cocluster=30,
            items_per_cocluster=10,
            within_density=0.8,
            background_density=0.05,
            random_state=1,
        )
        model = BiasedOCuLaR(n_coclusters=2, max_iterations=30, random_state=0).fit(
            planted.matrix
        )
        degrees = planted.matrix.item_degrees()
        popular = degrees >= np.percentile(degrees, 75)
        unpopular = degrees <= np.percentile(degrees, 25)
        assert model.item_biases_[popular].mean() >= model.item_biases_[unpopular].mean() - 1e-6

    def test_recommendations_still_work(self, toy_dataset):
        model = BiasedOCuLaR(n_coclusters=3, max_iterations=20, random_state=0).fit(
            toy_dataset.matrix
        )
        ranked = model.recommend(6, n_items=3)
        assert len(ranked) == 3
        seen = set(toy_dataset.matrix.items_of_user(6).tolist())
        assert not (set(int(i) for i in ranked) & seen)


class TestBiasedOCuLaRWarmStart:
    def test_warm_start_accepted_and_biases_carry_over(self, toy_dataset):
        seed = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=10, random_state=0
        ).fit(toy_dataset.matrix)
        user_biases = seed.user_biases_.copy()
        item_biases = seed.item_biases_.copy()

        warm = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=3, tolerance=0.0,
            random_state=1,
        )
        warm.user_biases_ = user_biases
        warm.item_biases_ = item_biases
        warm.fit(toy_dataset.matrix, initial_factors=seed.factors_)
        assert warm.history_.warm_started
        assert warm.user_biases_ is not None and (warm.user_biases_ >= 0).all()
        assert warm.item_biases_ is not None and (warm.item_biases_ >= 0).all()
        # The exposed co-cluster factors keep the bias columns stripped.
        assert warm.user_factors_.shape == (12, 3)
        assert warm.item_factors_.shape == (12, 3)

    def test_warm_start_plateau_stop(self, toy_dataset):
        seed = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=10, random_state=0
        ).fit(toy_dataset.matrix)
        warm = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=40, tolerance=0.0,
            random_state=1,
        ).fit(
            toy_dataset.matrix,
            initial_factors=seed.factors_,
            plateau_tolerance=1.0,
            plateau_patience=2,
        )
        assert warm.history_.stopped_on_plateau
        assert warm.history_.n_iterations < 40


def convergence_warnings(fit):
    """Run ``fit()`` and return the ConvergenceWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit()
    return [w for w in caught if issubclass(w.category, ConvergenceWarning)]


class TestConvergenceWarning:
    """One warning per fit that runs out of iterations, none for a converged fit."""

    def test_converged_biased_fit_does_not_warn(self, toy_dataset):
        model = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=200, tolerance=1e-3,
            random_state=0,
        )
        caught = convergence_warnings(lambda: model.fit(toy_dataset.matrix))
        assert model.history_.converged
        assert 1 < model.history_.n_iterations < 200
        assert caught == []

    def test_exhausted_biased_fit_warns_once(self, toy_dataset):
        model = BiasedOCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=6, tolerance=0.0,
            random_state=0,
        )
        caught = convergence_warnings(lambda: model.fit(toy_dataset.matrix))
        assert model.history_.n_iterations == 6 and not model.history_.converged
        assert len(caught) == 1
        assert "max_iterations" in str(caught[0].message)

    def test_exhausted_ocular_fit_warns_once(self, toy_dataset):
        model = OCuLaR(
            n_coclusters=3, regularization=0.1, max_iterations=6, tolerance=0.0,
            random_state=0,
        )
        caught = convergence_warnings(lambda: model.fit(toy_dataset.matrix))
        assert model.history_.n_iterations == 6 and not model.history_.converged
        assert len(caught) == 1
        # Attributed to the caller of fit, not to the package internals.
        assert caught[0].filename == __file__
