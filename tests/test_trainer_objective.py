"""The trainer's objective trajectory, taken from the sweeps' row values.

Every sweep evaluates each row's objective ``Q(f_i)`` (eq. 5) at its start
and for the candidate it accepts; the backends sum them over the side and
the trainer records ``Q`` and ``-log L`` from those sums plus K-wide factor
norms, with no nnz-wide pass of its own.  These tests pin that the recorded
values are the objective of the iterates, that they do not depend on the
executor or the shard count, that no per-row data reaches the history, and
that the trainer refuses inputs the sweeps cannot optimise coherently.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.backends.reference as reference_module
import repro.core.backends.vectorized as vectorized_module
import repro.core.objective as objective_module
from repro.core.backends import (
    ParallelBackend,
    ReferenceBackend,
    SweepStats,
    VectorizedBackend,
)
from repro.core.backends.plan import SweepSide
from repro.core.init import random_init
from repro.core.objective import (
    full_objective,
    negative_log_likelihood,
    relative_user_weights,
    row_objective,
)
from repro.core.optimizer import BlockCoordinateTrainer
from repro.exceptions import ConfigurationError

REGULARIZATION = 0.5


def _problem(dtype=np.float64, n_users=90, n_items=45, k=5, seed=5):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_users, n_items)) < 0.15).astype(float)
    dense[:2] = 0.0  # empty users
    matrix = sp.csr_matrix(dense)
    users, items = random_init(matrix, k, random_state=seed, dtype=dtype)
    return matrix, users, items


class _RecordingBackend(VectorizedBackend):
    """The vectorized backend, keeping a copy of every factor array a sweep
    returns (the trainer resets constant columns in place afterwards)."""

    def __init__(self):
        self.outputs = []

    def sweep(self, *args, **kwargs):
        factors, stats = super().sweep(*args, **kwargs)
        self.outputs.append(factors.copy())
        return factors, stats


def _iterates(outputs, start, inner_sweeps):
    """``(U_t, V_t)`` for t = 0, 1, ... from the recorded sweep outputs."""
    per_iteration = 2 * inner_sweeps
    iterates = [start]
    for lo in range(0, len(outputs), per_iteration):
        items = outputs[lo + inner_sweeps - 1]
        users = outputs[lo + per_iteration - 1]
        iterates.append((users, items))
    return iterates


_CASES = {
    "plain": {},
    "user-weights": {"weighted": True},
    "inner-sweeps-2": {"inner_sweeps": 2},
    "constant-columns": {"constant_columns": (4, 3)},
    "warm-start": {"warm": True},
}


class TestRecordedObjective:
    """``Q_t`` / ``L_t`` equal :func:`full_objective` /
    :func:`negative_log_likelihood` of the iterate they were recorded for."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 4])
    def test_trajectory_matches_full_objective(self, case, max_iterations, dtype, rtol):
        options = _CASES[case]
        matrix, users, items = _problem(dtype)
        weights = relative_user_weights(matrix) if options.get("weighted") else None
        constant_columns = options.get("constant_columns")
        if constant_columns is not None:
            users[:, constant_columns[0]] = 1.0
            items[:, constant_columns[1]] = 1.0
        if options.get("warm"):
            users, items, _ = BlockCoordinateTrainer(
                regularization=REGULARIZATION, max_iterations=2, tolerance=0.0
            ).train(matrix, users, items)
        backend = _RecordingBackend()
        inner_sweeps = options.get("inner_sweeps", 1)
        trainer = BlockCoordinateTrainer(
            regularization=REGULARIZATION,
            max_iterations=max_iterations,
            tolerance=0.0,
            backend=backend,
            inner_sweeps=inner_sweeps,
        )
        fitted_users, fitted_items, history = trainer.train(
            matrix, users, items, user_weights=weights, constant_columns=constant_columns
        )

        iterates = _iterates(backend.outputs, (users, items), inner_sweeps)
        assert history.n_iterations == max_iterations
        assert len(iterates) == len(history.objective_values) == max_iterations + 1
        for (u, v), recorded_q, recorded_l in zip(
            iterates, history.objective_values, history.log_likelihoods
        ):
            u, v = u.astype(np.float64), v.astype(np.float64)
            want_q = full_objective(matrix, u, v, REGULARIZATION, user_weights=weights)
            want_l = negative_log_likelihood(matrix, u, v, user_weights=weights)
            np.testing.assert_allclose(recorded_q, want_q, rtol=rtol)
            np.testing.assert_allclose(recorded_l, want_l, rtol=rtol)
        if constant_columns is None:
            # Without the reset the last iterate is what train returns.
            assert np.array_equal(iterates[-1][0], fitted_users)
            assert np.array_equal(iterates[-1][1], fitted_items)


class TestSweepRowValues:
    """The per-row values a sweep reports are the row objectives of its
    start factors and of the factors it returns."""

    @pytest.mark.parametrize(
        "backend",
        [ReferenceBackend(), VectorizedBackend(), ParallelBackend(n_shards=3, executor="serial")],
    )
    @pytest.mark.parametrize("max_backtracks", [1, 20])
    def test_sums_match_row_objectives(self, backend, max_backtracks, monkeypatch):
        # One backtrack leaves rows unaccepted: they keep their start value.
        # The sharded backend runs the vectorized kernel per shard, so it
        # reads the same module constants.
        for module in (reference_module, vectorized_module):
            monkeypatch.setattr(module, "MAX_BACKTRACKS", max_backtracks)
        matrix, users, items = _problem()
        side = SweepSide.build(matrix)
        new_users, stats = backend.sweep(None, users, items, REGULARIZATION, plan=side)
        assert stats.row_values is None

        def row_sum(rows):
            total = items.sum(axis=0)
            values = []
            for row, factor in enumerate(rows):
                cols = matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]]
                unknown = total - items[cols].sum(axis=0)
                values.append(
                    row_objective(factor, items[cols], None, unknown, REGULARIZATION)
                )
            return float(np.sum(values))

        start, end = stats.row_objective_sums
        np.testing.assert_allclose(start, row_sum(users), rtol=1e-12)
        np.testing.assert_allclose(end, row_sum(new_users), rtol=1e-12)
        assert end <= start

    def test_combined_concatenates_row_values_in_shard_order(self):
        parts = [
            SweepStats(2, 1, 0, row_values=(np.array([1.0, 2.0]), np.array([0.5, 2.0]))),
            SweepStats(1, 1, 3, row_values=(np.array([3.0]), np.array([1.0]))),
        ]
        start, end = SweepStats.combined(parts).row_values
        assert np.array_equal(start, [1.0, 2.0, 3.0])
        assert np.array_equal(end, [0.5, 2.0, 1.0])
        parts.append(SweepStats(1, 0, 1))
        assert SweepStats.combined(parts).row_values is None
        assert SweepStats.combined([]).row_values is None


class TestExecutorIndependence:
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_objective_values_identical_to_vectorized(self, executor, n_shards):
        if executor == "process" and not os.path.isdir("/dev/shm"):
            pytest.skip("requires a /dev/shm mount")
        matrix, users, items = _problem()

        def fit(backend):
            trainer = BlockCoordinateTrainer(
                regularization=REGULARIZATION, max_iterations=3, tolerance=0.0,
                backend=backend,
            )  # fmt: skip
            return trainer.train(matrix, users, items)

        want_users, want_items, want = fit(VectorizedBackend())
        with ParallelBackend(n_workers=2, n_shards=n_shards, executor=executor) as backend:
            got_users, got_items, got = fit(backend)
        assert np.array_equal(want_users, got_users)
        assert np.array_equal(want_items, got_items)
        assert np.array_equal(want.objective_values, got.objective_values)
        assert np.array_equal(want.log_likelihoods, got.log_likelihoods)


class TestNoDriverPass:
    @staticmethod
    def _count_affinity_calls(monkeypatch):
        calls = []
        original = objective_module.entry_affinities

        def counting(*args, **kwargs):
            calls.append(os.getpid())
            return original(*args, **kwargs)

        monkeypatch.setattr(objective_module, "entry_affinities", counting)
        monkeypatch.setattr(vectorized_module, "entry_affinities", counting)
        return calls

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="requires /dev/shm")
    def test_process_fit_makes_no_affinity_pass_in_the_driver(self, monkeypatch):
        matrix, users, items = _problem()
        calls = self._count_affinity_calls(monkeypatch)
        # Control: an in-process fit's sweeps are counted.
        BlockCoordinateTrainer(max_iterations=2, tolerance=0.0).train(matrix, users, items)
        assert calls
        calls.clear()
        with ParallelBackend(n_workers=2, n_shards=2, executor="process") as backend:
            _, _, history = BlockCoordinateTrainer(
                max_iterations=2, tolerance=0.0, backend=backend
            ).train(matrix, users, items)
        assert history.n_iterations == 2 and len(history.objective_values) == 3
        assert calls == []

    def test_history_holds_no_per_row_arrays(self):
        matrix, users, items = _problem()
        with ParallelBackend(n_workers=2, n_shards=3, executor="thread") as backend:
            _, _, history = BlockCoordinateTrainer(
                max_iterations=3, tolerance=0.0, backend=backend, inner_sweeps=2
            ).train(matrix, users, items)
        stats = [*history.item_sweep_stats, *history.user_sweep_stats]
        assert len(stats) == 12
        for entry in stats:
            assert entry.row_values is None
            assert not any(isinstance(value, np.ndarray) for value in vars(entry).values())
            assert all(type(value) is float for value in entry.row_objective_sums)


class _SilentBackend(VectorizedBackend):
    """A backend whose sweeps report no row values."""

    name = "silent"

    def _sweep_rows(self, *args):
        factors, stats = super()._sweep_rows(*args)
        stats.row_values = None
        return factors, stats


class TestTrainerRejects:
    def test_backend_without_row_values(self):
        matrix, users, items = _problem()
        trainer = BlockCoordinateTrainer(max_iterations=2, backend=_SilentBackend())
        with pytest.raises(ConfigurationError, match="'silent' reported no row objective"):
            trainer.train(matrix, users, items)

    def test_count_valued_matrix(self):
        # A direct train on counts used to optimise an incoherent objective:
        # Q went 1,553 -> 5,477 -> 8.1e6 -> ... -> 3.1e60 in 15 iterations.
        rng = np.random.default_rng(0)
        mask = rng.random((80, 40)) < 0.15
        counts = sp.csr_matrix(np.where(mask, rng.integers(1, 6, (80, 40)), 0).astype(float))
        users, items = random_init(counts, 5, random_state=0)
        trainer = BlockCoordinateTrainer(regularization=0.1, max_iterations=15)
        with pytest.raises(ConfigurationError, match="InteractionMatrix"):
            trainer.train(counts, users, items)
        binary = counts.copy()
        binary.data[:] = 1.0
        _, _, history = trainer.train(binary, users, items)
        assert np.all(np.diff(history.objective_values) <= 0)

    def test_stored_zero(self):
        matrix = sp.csr_matrix(
            (np.array([0.0, 1.0, 1.0]), (np.array([0, 1, 1]), np.array([0, 1, 0]))),
            shape=(2, 2),
        )
        users = np.full((2, 2), 0.5)
        with pytest.raises(ConfigurationError, match="binary"):
            BlockCoordinateTrainer().train(matrix, users, users.copy())
