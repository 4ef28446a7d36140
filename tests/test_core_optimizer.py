"""Tests for the block-coordinate trainer."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import objective
from repro.core.backends import ParallelBackend, VectorizedBackend
from repro.core.init import random_init
from repro.core.objective import full_objective
from repro.core.optimizer import BlockCoordinateTrainer, TrainingHistory
from repro.exceptions import ConfigurationError


@pytest.fixture
def training_problem():
    rng = np.random.default_rng(4)
    dense = (rng.random((30, 20)) < 0.2).astype(float)
    dense[0, 0] = 1.0
    matrix = sp.csr_matrix(dense)
    user_factors, item_factors = random_init(matrix, 5, random_state=4)
    return matrix, user_factors, item_factors


class TestConstructorValidation:
    def test_rejects_negative_regularization(self):
        with pytest.raises(ConfigurationError):
            BlockCoordinateTrainer(regularization=-1.0)

    def test_armijo_constants_make_a_valid_line_search(self):
        # Armijo's rule needs its sufficient-decrease fraction and its
        # backtracking factor strictly inside (0, 1), and at least one
        # backtrack before a row keeps its start.
        assert 0.0 < objective.ARMIJO_SIGMA < 1.0
        assert 0.0 < objective.ARMIJO_BETA < 1.0
        assert isinstance(objective.MAX_BACKTRACKS, int)
        assert objective.MAX_BACKTRACKS >= 1

    def test_armijo_constants_keep_their_values(self):
        # Every fitted factor depends on these three numbers.
        assert (objective.ARMIJO_SIGMA, objective.ARMIJO_BETA, objective.MAX_BACKTRACKS) == (
            0.1, 0.5, 20,
        )

    def test_rejects_non_positive_iterations(self):
        with pytest.raises(ConfigurationError):
            BlockCoordinateTrainer(max_iterations=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            BlockCoordinateTrainer(backend="gpu")


class TestTraining:
    def test_objective_monotonically_non_increasing(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(regularization=1.0, max_iterations=20, tolerance=0.0)
        _, _, history = trainer.train(matrix, user_factors, item_factors)
        values = history.objective_values
        assert all(later <= earlier + 1e-8 for earlier, later in zip(values, values[1:]))

    def test_factors_remain_non_negative(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(regularization=1.0, max_iterations=10)
        fitted_users, fitted_items, _ = trainer.train(matrix, user_factors, item_factors)
        assert (fitted_users >= 0).all()
        assert (fitted_items >= 0).all()

    def test_inputs_not_modified(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        user_copy, item_copy = user_factors.copy(), item_factors.copy()
        BlockCoordinateTrainer(max_iterations=3).train(matrix, user_factors, item_factors)
        np.testing.assert_array_equal(user_factors, user_copy)
        np.testing.assert_array_equal(item_factors, item_copy)

    def test_history_bookkeeping(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=5, tolerance=0.0)
        _, _, history = trainer.train(matrix, user_factors, item_factors)
        assert isinstance(history, TrainingHistory)
        assert history.n_iterations == 5
        assert len(history.objective_values) == 6  # initial value + one per iteration
        assert len(history.log_likelihoods) == 6
        assert len(history.iteration_seconds) == 5
        assert len(history.elapsed_seconds) == 5
        assert history.final_objective == history.objective_values[-1]
        assert history.mean_seconds_per_iteration > 0

    def test_convergence_flag_set_when_tolerance_met(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(regularization=1.0, max_iterations=200, tolerance=1e-3)
        _, _, history = trainer.train(matrix, user_factors, item_factors)
        assert history.converged
        assert history.n_iterations < 200

    def test_callback_can_stop_early(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=50, tolerance=0.0)
        _, _, history = trainer.train(
            matrix, user_factors, item_factors, callback=lambda it, hist: it >= 2
        )
        assert history.n_iterations == 2

    def test_backends_produce_identical_training(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        results = {}
        for backend in ("reference", "vectorized"):
            trainer = BlockCoordinateTrainer(
                regularization=1.0, max_iterations=5, tolerance=0.0, backend=backend
            )
            fitted_users, fitted_items, history = trainer.train(
                matrix, user_factors, item_factors
            )
            results[backend] = (fitted_users, fitted_items, history.objective_values)
        np.testing.assert_allclose(
            results["reference"][0], results["vectorized"][0], rtol=1e-7, atol=1e-9
        )
        np.testing.assert_allclose(
            results["reference"][2], results["vectorized"][2], rtol=1e-7
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 5])
    def test_parallel_training_is_bit_identical(self, training_problem, n_workers):
        matrix, user_factors, item_factors = training_problem
        fitted = {}
        with ParallelBackend(n_workers=n_workers) as parallel:
            for name, backend in (("vectorized", "vectorized"), ("parallel", parallel)):
                trainer = BlockCoordinateTrainer(
                    regularization=1.0, max_iterations=5, tolerance=0.0, backend=backend
                )
                fitted[name] = trainer.train(matrix, user_factors, item_factors)
        np.testing.assert_array_equal(fitted["vectorized"][0], fitted["parallel"][0])
        np.testing.assert_array_equal(fitted["vectorized"][1], fitted["parallel"][1])
        np.testing.assert_array_equal(
            fitted["vectorized"][2].objective_values,
            fitted["parallel"][2].objective_values,
        )

    def test_sweep_stats_recorded(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=4, tolerance=0.0)
        _, _, history = trainer.train(matrix, user_factors, item_factors)
        assert len(history.item_sweep_stats) == 4
        assert len(history.user_sweep_stats) == 4
        assert all(stats.n_rows == matrix.shape[1] for stats in history.item_sweep_stats)
        assert all(stats.n_rows == matrix.shape[0] for stats in history.user_sweep_stats)
        assert 0.0 <= history.mean_item_acceptance_rate <= 1.0
        assert 0.0 <= history.mean_user_acceptance_rate <= 1.0
        assert history.total_backtracks >= 0
        # Well-conditioned toy problems accept nearly every step.
        assert history.mean_user_acceptance_rate > 0.5

    def test_sweep_stats_count_inner_sweeps(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=3, tolerance=0.0, inner_sweeps=2)
        _, _, history = trainer.train(matrix, user_factors, item_factors)
        assert len(history.item_sweep_stats) == 6
        assert len(history.user_sweep_stats) == 6

    def test_float32_training_stays_float32(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=3, tolerance=0.0)
        fitted_users, fitted_items, history = trainer.train(
            matrix,
            user_factors.astype(np.float32),
            item_factors.astype(np.float32),
        )
        assert fitted_users.dtype == np.float32
        assert fitted_items.dtype == np.float32
        values = history.objective_values
        assert all(later <= earlier + 1e-3 for earlier, later in zip(values, values[1:]))

    def test_mixed_dtype_factors_rejected(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=2)
        with pytest.raises(ConfigurationError):
            trainer.train(matrix, user_factors.astype(np.float32), item_factors)

    def test_non_finite_factors_rejected(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=2)
        bad = user_factors.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            trainer.train(matrix, bad, item_factors)

    def test_neither_matrix_nor_plan_rejected(self, training_problem):
        _, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=2)
        with pytest.raises(ConfigurationError):
            trainer.train(None, user_factors, item_factors)

    def test_shape_mismatch_raises(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=2)
        with pytest.raises(ConfigurationError):
            trainer.train(matrix, user_factors[:-1], item_factors)
        with pytest.raises(ConfigurationError):
            trainer.train(matrix, user_factors, item_factors[:-1])
        with pytest.raises(ConfigurationError):
            trainer.train(matrix, user_factors, item_factors, user_weights=np.ones(3))

    def test_constant_columns_end_every_iteration_at_one(self, training_problem):
        # The sweeps move the held columns like any other; the reset after
        # each iteration puts them back, so the result ends at exactly 1.
        matrix, user_factors, item_factors = training_problem
        user_factors[:, 3] = 1.0
        item_factors[:, 1] = 1.0
        trainer = BlockCoordinateTrainer(max_iterations=4, tolerance=0.0)
        held_users, held_items, history = trainer.train(
            matrix, user_factors, item_factors, constant_columns=(3, 1)
        )
        free_users, free_items, _ = trainer.train(matrix, user_factors, item_factors)
        assert history.n_iterations == 4
        assert np.all(held_users[:, 3] == 1.0) and np.all(held_items[:, 1] == 1.0)
        assert not np.all(free_users[:, 3] == 1.0)
        assert not np.all(free_items[:, 1] == 1.0)

    def test_training_reduces_objective_substantially(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        initial = full_objective(matrix, user_factors, item_factors, 1.0)
        trainer = BlockCoordinateTrainer(regularization=1.0, max_iterations=30, tolerance=0.0)
        _, _, history = trainer.train(matrix, user_factors, item_factors)
        assert history.final_objective < initial * 0.9

    def test_weighted_training_monotone(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        weights = np.linspace(0.5, 4.0, matrix.shape[0])
        trainer = BlockCoordinateTrainer(regularization=1.0, max_iterations=10, tolerance=0.0)
        _, _, history = trainer.train(
            matrix, user_factors, item_factors, user_weights=weights
        )
        values = history.objective_values
        assert all(later <= earlier + 1e-8 for earlier, later in zip(values, values[1:]))


class TestStart:
    """``train`` is the one place a start is checked, cold or warm."""

    def test_negative_start_rejected(self, training_problem):
        # Outside the non-negative program the projected sweeps freeze: the
        # fit would return the negative entry untouched.
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=2)
        bad = user_factors.copy()
        bad[0, 0] = -0.1
        with pytest.raises(ConfigurationError, match="non-negative"):
            trainer.train(matrix, bad, item_factors)
        with pytest.raises(ConfigurationError, match="non-negative"):
            trainer.train(matrix, user_factors, -item_factors)

    def test_k_mismatch_rejected(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=2)
        with pytest.raises(ConfigurationError, match="share K"):
            trainer.train(matrix, user_factors, item_factors[:, :-1])

    def test_row_mismatch_names_extend_factors(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=2)
        with pytest.raises(ConfigurationError, match="extend_factors"):
            trainer.train(matrix, user_factors[:-2], item_factors)

    def test_start_is_not_modified(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        before = user_factors.copy(), item_factors.copy()
        trainer = BlockCoordinateTrainer(max_iterations=3, tolerance=0.0)
        fitted_users, _, history = trainer.train(matrix, user_factors, item_factors)
        np.testing.assert_array_equal(user_factors, before[0])
        np.testing.assert_array_equal(item_factors, before[1])
        assert not np.shares_memory(fitted_users, user_factors)
        assert not history.warm_started


class TestPlateau:

    def test_plateau_stop_fires_and_is_recorded(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(
            max_iterations=50,
            tolerance=0.0,
            plateau_tolerance=1.0,  # any iteration counts as a plateau
        )
        _, _, history = trainer.train(
            matrix, user_factors.copy(), item_factors.copy()
        )
        assert history.stopped_on_plateau
        assert history.plateau_tolerance == 1.0
        assert history.n_iterations < 50

    def test_plateau_patience_delays_the_stop(self, training_problem):
        # Every iteration is below a tolerance of 1.0, yet the first one
        # alone does not stop the run: the rule waits for two in a row.
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(
            max_iterations=50, tolerance=0.0, plateau_tolerance=1.0
        )
        _, _, history = trainer.train(
            matrix, user_factors.copy(), item_factors.copy()
        )
        assert history.stopped_on_plateau
        assert history.n_iterations == 2

    def test_plateau_off_by_default(self, training_problem):
        matrix, user_factors, item_factors = training_problem
        trainer = BlockCoordinateTrainer(max_iterations=3, tolerance=0.0)
        _, _, history = trainer.train(
            matrix, user_factors.copy(), item_factors.copy()
        )
        assert history.plateau_tolerance is None
        assert not history.stopped_on_plateau
        assert history.n_iterations == 3

    def test_plateau_tolerance_validated(self):
        with pytest.raises(ConfigurationError):
            BlockCoordinateTrainer(plateau_tolerance=-0.1)


class _ShutdownProbe(VectorizedBackend):
    """A backend that records its shutdowns instead of performing them."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def shutdown(self) -> None:
        self.calls.append("shutdown")


class TestBackendOwnership:
    """A backend built from a name is the trainer's; an instance is borrowed."""

    def test_name_is_owned_instance_is_borrowed(self):
        assert BlockCoordinateTrainer(backend="vectorized").owns_backend
        backend = VectorizedBackend()
        trainer = BlockCoordinateTrainer(backend=backend)
        assert not trainer.owns_backend
        assert trainer.backend is backend
        with ParallelBackend(n_workers=1, executor="serial") as parallel:
            assert not BlockCoordinateTrainer(backend=parallel).owns_backend

    def test_borrowed_backend_is_never_shut_down(self):
        probe = _ShutdownProbe()
        trainer = BlockCoordinateTrainer(backend=probe)
        trainer.shutdown()
        trainer.shutdown()
        assert probe.calls == []

    def test_owned_double_shutdown_is_idempotent(self):
        # Lifecycle code may shut down twice (an explicit call, then a
        # finally block); the second call must be a harmless no-op.
        trainer = BlockCoordinateTrainer(backend="parallel")
        assert trainer.owns_backend
        scheduler = trainer.backend._scheduler
        assert scheduler.live_executor is None  # still lazy
        scheduler.executor.map(abs, [-1])  # force the pool
        trainer.shutdown()
        assert scheduler.live_executor is None
        trainer.shutdown()  # second call: no error, nothing to tear down
        assert scheduler.live_executor is None

    def test_borrow_after_shutdown_stays_borrowed(self):
        # Borrowing an instance whose pool was already shut down is legal:
        # the trainer never owns it, its shutdown never touches it, and the
        # scheduler rebuilds the pool on next use (shutdown resets the owned
        # executor to lazy, it does not poison it).
        backend = ParallelBackend(n_workers=1, executor="thread")
        backend._scheduler.executor.map(abs, [-1])
        backend.shutdown()
        assert backend._scheduler.live_executor is None
        trainer = BlockCoordinateTrainer(backend=backend)
        assert not trainer.owns_backend
        assert trainer.backend is backend
        trainer.shutdown()
        trainer.shutdown()
        assert backend._scheduler.executor.map(abs, [-2]) == [2]
        backend.shutdown()

    def test_shut_down_borrowed_backend_is_not_brought_back(self):
        probe = _ShutdownProbe()
        probe.shutdown()
        trainer = BlockCoordinateTrainer(backend=probe)
        trainer.shutdown()
        trainer.shutdown()
        # Exactly the caller's own shutdown: the trainer added no call on a
        # borrowed (even dead) instance.
        assert probe.calls == ["shutdown"]
