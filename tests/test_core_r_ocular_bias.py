"""Tests for R-OCuLaR (relative weighting) and the bias-extended model."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.backends import ParallelBackend
from repro.core.bias import BiasedOCuLaR
from repro.core.init import random_init
from repro.core.objective import relative_user_weights
from repro.core.ocular import OCuLaR
from repro.core.optimizer import BlockCoordinateTrainer
from repro.core.r_ocular import ROCuLaR
from repro.data.synthetic import make_planted_coclusters
from repro.exceptions import ConfigurationError, ConvergenceWarning


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

    def test_takes_every_ocular_parameter(self, toy_dataset):
        model = ROCuLaR(
            n_coclusters=3, max_iterations=3, tolerance=0.0, inner_sweeps=2,
            random_state=0,
        ).fit(toy_dataset.matrix)
        history = model.history_
        assert len(history.item_sweep_stats) == 2 * history.n_iterations
        assert len(history.user_sweep_stats) == 2 * history.n_iterations
        assert ROCuLaR(**model.get_params()).get_params() == model.get_params()
        with pytest.raises(ConfigurationError):
            ROCuLaR(user_weighting=None)

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


# --------------------------------------------------------------------------- #
# The bias fit is one trainer run
# --------------------------------------------------------------------------- #
def _legacy_biased_fit(model, matrix, initial_factors=None, plateau_tolerance=None, callback=None):
    """The earlier BiasedOCuLaR outer loop, kept as the parity reference.

    It trained one iteration per ``trainer.train`` call, reset the constant
    columns, merged the step into one history and re-implemented the
    tolerance, plateau and callback rules.  Returns the augmented factors and
    the merged history.
    """
    csr = matrix.csr()
    n_users, n_items = csr.shape
    k, dtype = model.n_coclusters, model.dtype
    if initial_factors is None:
        users, items = random_init(csr, k, random_state=model.random_state, dtype=dtype)
        user_biases = item_biases = None
    else:
        users, items = model._coerce_initial_factors(initial_factors)
        user_biases, item_biases = model.user_biases_, model.item_biases_

    def bias_column(previous, n_rows):
        column = np.full(n_rows, 0.01, dtype=dtype)
        if previous is not None:
            column[: len(previous)] = previous
        return column[:, None]

    user_aug = np.hstack([users, bias_column(user_biases, n_users), np.ones((n_users, 1), dtype)])
    item_aug = np.hstack([items, np.ones((n_items, 1), dtype), bias_column(item_biases, n_items)])
    weights = relative_user_weights(csr) if model.user_weighting == "relative" else None
    trainer = BlockCoordinateTrainer(
        regularization=model.regularization, max_iterations=1, tolerance=0.0,
        backend=model.backend, inner_sweeps=model.inner_sweeps,
    )
    history, streak = None, 0
    try:
        for _ in range(model.max_iterations):
            user_aug, item_aug, step = trainer.train(
                csr, user_aug, item_aug, user_weights=weights
            )
            user_aug[:, k + 1] = 1.0
            item_aug[:, k] = 1.0
            if history is None:
                history = step
            else:
                history.objective_values.extend(step.objective_values[1:])
                history.n_iterations += step.n_iterations
            previous, current = history.objective_values[-2:]
            improvement = previous - current
            relative = abs(improvement) / max(abs(previous), 1.0)
            if improvement >= 0 and relative < model.tolerance:
                history.converged = True
                break
            if plateau_tolerance is not None:
                streak = streak + 1 if improvement >= 0 and relative < plateau_tolerance else 0
                if streak >= 2:
                    history.converged = history.stopped_on_plateau = True
                    break
            if callback is not None and callback(history.n_iterations, history):
                break
    finally:
        trainer.shutdown()
    return user_aug, item_aug, history


@pytest.fixture(scope="module")
def planted():
    return make_planted_coclusters(
        n_users=120, n_items=60, n_coclusters=3, users_per_cocluster=40,
        items_per_cocluster=20, within_density=0.5, background_density=0.05,
        random_state=3,
    ).matrix


_PARITY_CONFIGS = {
    "cold-converging": dict(max_iterations=200, tolerance=1e-3),
    "exhausted": dict(max_iterations=8, tolerance=0.0),
    "inner-sweeps-2": dict(max_iterations=6, tolerance=0.0, inner_sweeps=2),
    "float32": dict(max_iterations=60, tolerance=1e-3, dtype="float32"),
    "relative-weighting": dict(max_iterations=60, tolerance=1e-3, user_weighting="relative"),
    # Fitted on a two-thread ParallelBackend the test builds and shuts down.
    "parallel-thread": dict(max_iterations=8, tolerance=0.0),
    "reference": dict(max_iterations=4, tolerance=0.0, backend="reference"),
}


class TestBiasedFitParity:
    """One trainer run gives exactly what the per-iteration loop gave."""

    @staticmethod
    def _assert_same(model, expected):
        user_aug, item_aug, history = expected
        assert np.array_equal(model.serving_factors_.user_factors, user_aug)
        assert np.array_equal(model.serving_factors_.item_factors, item_aug)
        assert model.history_.objective_values == history.objective_values
        assert model.history_.n_iterations == history.n_iterations
        assert model.history_.converged == history.converged
        assert model.history_.stopped_on_plateau == history.stopped_on_plateau

    @pytest.mark.parametrize("config", sorted(_PARITY_CONFIGS))
    def test_matches_the_per_iteration_loop(self, planted, config):
        settings = dict(n_coclusters=4, regularization=1.0, random_state=0)
        settings.update(_PARITY_CONFIGS[config])
        with ParallelBackend(n_workers=2, executor="thread") as pool, warnings.catch_warnings():
            if config == "parallel-thread":
                settings["backend"] = pool
            warnings.simplefilter("ignore", ConvergenceWarning)
            model = BiasedOCuLaR(**settings).fit(planted)
            expected = _legacy_biased_fit(BiasedOCuLaR(**settings), planted)
        self._assert_same(model, expected)
        if config == "cold-converging":
            assert model.history_.converged and model.history_.n_iterations > 2

    def test_warm_start_with_plateau_stop(self, planted):
        settings = dict(n_coclusters=4, regularization=1.0, max_iterations=40, tolerance=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            seed = BiasedOCuLaR(**settings, random_state=0).fit(planted)
        warm = BiasedOCuLaR(**settings, random_state=1)
        reference = BiasedOCuLaR(**settings, random_state=1)
        for target in (warm, reference):
            target.user_biases_ = seed.user_biases_.copy()
            target.item_biases_ = seed.item_biases_.copy()
        warm.fit(planted, initial_factors=seed.factors_, plateau_tolerance=1e-2)
        expected = _legacy_biased_fit(
            reference, planted, initial_factors=seed.factors_, plateau_tolerance=1e-2
        )
        self._assert_same(warm, expected)
        assert warm.history_.stopped_on_plateau and warm.history_.warm_started

    def test_callback_stop(self, planted):
        settings = dict(n_coclusters=4, regularization=1.0, max_iterations=20, tolerance=0.0,
                        random_state=0)
        stop_at_three = lambda iteration, _history: iteration >= 3  # noqa: E731
        model = BiasedOCuLaR(**settings).fit(planted, callback=stop_at_three)
        expected = _legacy_biased_fit(BiasedOCuLaR(**settings), planted, callback=stop_at_three)
        self._assert_same(model, expected)
        assert model.history_.n_iterations == 3


@pytest.mark.parametrize("model_class", [OCuLaR, BiasedOCuLaR])
class TestFitHistoryContract:
    def test_elapsed_seconds_are_cumulative(self, planted, model_class):
        model = model_class(
            n_coclusters=4, regularization=1.0, max_iterations=6, tolerance=0.0,
            random_state=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            history = model.fit(planted).history_
        elapsed = history.elapsed_seconds
        assert len(elapsed) == history.n_iterations == 6
        assert all(later >= earlier for earlier, later in zip(elapsed, elapsed[1:]))
        assert elapsed[-1] >= sum(history.iteration_seconds)

    def test_callback_runs_once_per_completed_iteration(self, planted, model_class):
        calls = []
        model = model_class(
            n_coclusters=4, regularization=1.0, max_iterations=200, tolerance=1e-3,
            random_state=0,
        ).fit(planted, callback=lambda iteration, _history: calls.append(iteration))
        assert model.history_.converged
        assert calls == list(range(1, model.history_.n_iterations + 1))

    def test_callback_stop_outranks_convergence(self, planted, model_class):
        # The callback runs before the stopping rules, so a callback that
        # stops the very iteration that meets ``tolerance`` wins: same
        # trajectory, reported as a callback stop (``converged`` False).
        settings = dict(
            n_coclusters=4, regularization=1.0, max_iterations=200, tolerance=1e-3,
            random_state=0,
        )
        free = model_class(**settings).fit(planted)
        last = free.history_.n_iterations
        assert free.history_.converged
        stopped = model_class(**settings).fit(
            planted, callback=lambda iteration, _history: iteration >= last
        )
        assert stopped.history_.n_iterations == last
        assert stopped.history_.objective_values == free.history_.objective_values
        assert not stopped.history_.converged
