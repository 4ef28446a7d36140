"""Tests for the compute backends (reference vs vectorized sweeps)."""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import (
    ParallelBackend,
    ReferenceBackend,
    SweepSide,
    VectorizedBackend,
    get_backend,
)
from repro.core.objective import full_objective
from repro.exceptions import ConfigurationError

ALL_BACKENDS = ["reference", "vectorized", "parallel"]


@pytest.fixture
def sweep_problem():
    """A reproducible item-sweep problem: rows = items, cols = users."""
    rng = np.random.default_rng(1)
    dense = (rng.random((12, 20)) < 0.25).astype(float)  # items x users
    matrix = sp.csr_matrix(dense)
    row_factors = rng.uniform(0.05, 0.8, size=(12, 4))
    col_factors = rng.uniform(0.05, 0.8, size=(20, 4))
    return matrix, row_factors, col_factors


class TestRegistry:
    def test_get_backend_by_name(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)
        assert isinstance(get_backend("parallel"), ParallelBackend)

    def test_get_backend_passthrough_instance(self):
        backend = VectorizedBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_backend("cuda")

    def test_parallel_by_name_is_a_fresh_default_pool(self):
        # By name every call builds its own thread pool sized to the
        # machine; a sized or process pool is a ParallelBackend instance.
        first, second = get_backend("parallel"), get_backend("parallel")
        assert first is not second
        assert first.executor == "thread"
        assert first.n_workers == first.n_shards == (os.cpu_count() or 1)

    def test_n_workers_configures_parallel(self):
        backend = ParallelBackend(n_workers=3)
        assert backend.n_workers == 3
        assert backend.n_shards == 3

    def test_parallel_rejects_bad_worker_counts(self):
        with pytest.raises(ConfigurationError):
            ParallelBackend(n_workers=0)
        with pytest.raises(ConfigurationError):
            ParallelBackend(n_workers=2, n_shards=-1)


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestSweepBehaviour:
    def test_factors_stay_non_negative(self, backend_name, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        backend = get_backend(backend_name)
        updated, _ = backend.sweep(matrix, row_factors, col_factors, regularization=0.5)
        assert (updated >= 0).all()

    def test_input_factors_not_mutated(self, backend_name, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        original = row_factors.copy()
        get_backend(backend_name).sweep(matrix, row_factors, col_factors, regularization=0.5)
        np.testing.assert_array_equal(row_factors, original)

    def test_sweep_does_not_increase_block_objective(self, backend_name, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        backend = get_backend(backend_name)
        # The block objective here is the full objective of the transposed
        # problem with the column side held fixed.
        before = full_objective(matrix, row_factors, col_factors, 0.5)
        updated, _ = backend.sweep(matrix, row_factors, col_factors, regularization=0.5)
        after = full_objective(matrix, updated, col_factors, 0.5)
        assert after <= before + 1e-9

    def test_stats_fields(self, backend_name, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        _, stats = get_backend(backend_name).sweep(
            matrix, row_factors, col_factors, regularization=0.5
        )
        assert stats.n_rows == matrix.shape[0]
        assert 0 <= stats.n_accepted <= stats.n_rows
        assert stats.n_backtracks >= 0
        assert 0.0 <= stats.acceptance_rate <= 1.0

    def test_rows_without_positives_shrink(self, backend_name):
        # A row with no positive entries has gradient = unknown_sum + 2*lam*f,
        # so a projected step must not increase it.
        matrix = sp.csr_matrix(np.array([[1, 1, 0], [0, 0, 0]], dtype=float))
        row_factors = np.array([[0.5, 0.5], [0.8, 0.8]])
        col_factors = np.array([[0.4, 0.1], [0.2, 0.3], [0.1, 0.1]])
        updated, _ = get_backend(backend_name).sweep(
            matrix, row_factors, col_factors, regularization=0.1
        )
        assert np.all(updated[1] <= row_factors[1] + 1e-12)

    def test_sweep_accepts_list_factors(self, backend_name):
        # The backward-compatible path must coerce array-likes before
        # sniffing dtypes for the ephemeral plan.
        matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        updated, _ = get_backend(backend_name).sweep(
            matrix,
            [[0.4, 0.2], [0.3, 0.5]],
            [[0.2, 0.1], [0.4, 0.3]],
            regularization=0.2,
        )
        assert updated.shape == (2, 2)
        assert updated.dtype == np.float64

    def test_weighted_sweep_runs(self, backend_name, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        col_weights = np.linspace(0.5, 2.0, matrix.shape[1])
        side = SweepSide.build(matrix, col_positive_weights=col_weights)
        updated, _ = get_backend(backend_name).sweep(
            None, row_factors, col_factors, regularization=0.5, plan=side
        )
        assert updated.shape == row_factors.shape


class TestBackendEquivalence:
    """The two backends implement the same mathematics."""

    def test_single_sweep_results_match(self, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        reference, _ = ReferenceBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.3
        )
        vectorized, _ = VectorizedBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.3
        )
        np.testing.assert_allclose(reference, vectorized, rtol=1e-8, atol=1e-10)

    def test_weighted_sweep_results_match(self, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        col_weights = np.linspace(0.2, 3.0, matrix.shape[1])
        row_weights = np.linspace(0.5, 1.5, matrix.shape[0])
        side = SweepSide.build(
            matrix, row_positive_weights=row_weights, col_positive_weights=col_weights
        )
        reference, _ = ReferenceBackend().sweep(None, row_factors, col_factors, 0.3, plan=side)
        vectorized, _ = VectorizedBackend().sweep(None, row_factors, col_factors, 0.3, plan=side)
        np.testing.assert_allclose(reference, vectorized, rtol=1e-8, atol=1e-10)

    def test_sweep_stats_match(self, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        _, ref_stats = ReferenceBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.3
        )
        _, vec_stats = VectorizedBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.3
        )
        assert ref_stats.n_rows == vec_stats.n_rows
        assert ref_stats.n_accepted == vec_stats.n_accepted

    def test_equivalence_with_zero_regularization(self, sweep_problem):
        matrix, row_factors, col_factors = sweep_problem
        reference, _ = ReferenceBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.0
        )
        vectorized, _ = VectorizedBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.0
        )
        np.testing.assert_allclose(reference, vectorized, rtol=1e-8, atol=1e-10)


def _random_problem(seed, n_rows, n_cols, k, density=0.3, empty_rows=True):
    """A reproducible sweep problem, optionally with guaranteed empty rows."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density).astype(float)
    if empty_rows and n_rows > 2:
        dense[rng.integers(0, n_rows)] = 0.0
        dense[0] = 0.0
    matrix = sp.csr_matrix(dense)
    row_factors = rng.uniform(0.05, 0.9, size=(n_rows, k))
    col_factors = rng.uniform(0.05, 0.9, size=(n_cols, k))
    row_weights = rng.uniform(0.5, 2.5, n_rows)
    col_weights = rng.uniform(0.5, 2.5, n_cols)
    return matrix, row_factors, col_factors, row_weights, col_weights


class TestShardedParity:
    """Property-style: reference, vectorized and parallel agree on random
    matrices, for every shard count, with and without R-OCuLaR weights."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_parallel_exactly_matches_vectorized(self, seed, n_shards, weighted):
        matrix, row_factors, col_factors, row_weights, col_weights = _random_problem(
            seed, n_rows=11 + 7 * seed, n_cols=6 + 5 * seed, k=3 + seed
        )
        side = SweepSide.build(
            matrix,
            row_positive_weights=row_weights if weighted else None,
            col_positive_weights=col_weights if weighted else None,
        )
        kwargs = dict(regularization=0.4, plan=side)
        vectorized, vec_stats = VectorizedBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        parallel, par_stats = ParallelBackend(n_workers=2, n_shards=n_shards).sweep(
            None, row_factors, col_factors, **kwargs
        )
        assert np.array_equal(vectorized, parallel)
        assert vec_stats == par_stats

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_reference_agrees_numerically(self, seed, weighted):
        matrix, row_factors, col_factors, row_weights, col_weights = _random_problem(
            seed, n_rows=10 + seed, n_cols=8, k=4
        )
        side = SweepSide.build(
            matrix,
            row_positive_weights=row_weights if weighted else None,
            col_positive_weights=col_weights if weighted else None,
        )
        kwargs = dict(regularization=0.4, plan=side)
        reference, ref_stats = ReferenceBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        parallel, par_stats = ParallelBackend(n_workers=2, n_shards=3).sweep(
            None, row_factors, col_factors, **kwargs
        )
        np.testing.assert_allclose(reference, parallel, rtol=1e-8, atol=1e-10)
        assert ref_stats.n_rows == par_stats.n_rows
        assert ref_stats.n_accepted == par_stats.n_accepted

    @pytest.mark.parametrize("n_shards", [1, 3, 8])
    def test_more_shards_than_rows(self, n_shards):
        matrix, row_factors, col_factors, _, _ = _random_problem(5, 4, 6, 3)
        vectorized, _ = VectorizedBackend().sweep(matrix, row_factors, col_factors, 0.3)
        parallel, _ = ParallelBackend(n_workers=2, n_shards=n_shards).sweep(
            matrix, row_factors, col_factors, 0.3
        )
        assert np.array_equal(vectorized, parallel)

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_all_rows_empty(self, backend_name):
        matrix = sp.csr_matrix((4, 5))
        rng = np.random.default_rng(0)
        row_factors = rng.uniform(0.1, 0.5, (4, 3))
        col_factors = rng.uniform(0.1, 0.5, (5, 3))
        updated, stats = get_backend(backend_name).sweep(
            matrix, row_factors, col_factors, regularization=0.2
        )
        assert updated.shape == row_factors.shape
        assert (updated >= 0).all()
        assert stats.n_rows == 4

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_empty_matrix_zero_rows(self, backend_name):
        matrix = sp.csr_matrix((0, 5))
        col_factors = np.random.default_rng(0).uniform(0.1, 0.5, (5, 3))
        updated, stats = get_backend(backend_name).sweep(
            matrix, np.zeros((0, 3)), col_factors, regularization=0.2
        )
        assert updated.shape == (0, 3)
        assert stats.n_rows == 0
        assert stats.acceptance_rate == 0.0

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_empty_matrix_zero_cols(self, backend_name):
        matrix = sp.csr_matrix((4, 0))
        rng = np.random.default_rng(0)
        row_factors = rng.uniform(0.1, 0.5, (4, 3))
        updated, _ = get_backend(backend_name).sweep(
            matrix, row_factors, np.zeros((0, 3)), regularization=0.2
        )
        assert updated.shape == row_factors.shape
        # With no columns the objective is pure penalty; factors must shrink.
        assert np.all(updated <= row_factors + 1e-12)


class TestDtypeSupport:
    """float32 sweeps stay float32 end to end — no silent upcasting."""

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_float32_sweep_returns_float32(self, backend_name, weighted):
        matrix, row_factors, col_factors, row_weights, _ = _random_problem(1, 12, 8, 4)
        side = SweepSide.build(
            matrix, row_positive_weights=row_weights if weighted else None, dtype=np.float32
        )
        updated, _ = get_backend(backend_name).sweep(
            None,
            row_factors.astype(np.float32),
            col_factors.astype(np.float32),
            regularization=0.3,
            plan=side,
        )
        assert updated.dtype == np.float32

    def test_float32_close_to_float64(self):
        matrix, row_factors, col_factors, _, _ = _random_problem(2, 14, 9, 4)
        full, _ = VectorizedBackend().sweep(matrix, row_factors, col_factors, 0.3)
        half, _ = VectorizedBackend().sweep(
            matrix, row_factors.astype(np.float32), col_factors.astype(np.float32), 0.3
        )
        np.testing.assert_allclose(full, half, rtol=1e-3, atol=1e-4)

    def test_float32_parallel_matches_float32_vectorized(self):
        matrix, row_factors, col_factors, _, _ = _random_problem(3, 20, 10, 4)
        rf32, cf32 = row_factors.astype(np.float32), col_factors.astype(np.float32)
        vectorized, _ = VectorizedBackend().sweep(matrix, rf32, cf32, 0.3)
        parallel, _ = ParallelBackend(n_workers=2, n_shards=4).sweep(
            matrix, rf32, cf32, 0.3
        )
        assert parallel.dtype == np.float32
        assert np.array_equal(vectorized, parallel)
