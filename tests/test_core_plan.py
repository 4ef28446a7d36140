"""Tests for the precomputed sweep plans (SweepSide / SweepPlan)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import (
    SweepPlan,
    SweepSide,
    VectorizedBackend,
)
from repro.core.objective import row_objective
from repro.exceptions import ConfigurationError


@pytest.fixture
def matrix():
    rng = np.random.default_rng(3)
    dense = (rng.random((15, 9)) < 0.3).astype(float)
    dense[4] = 0.0  # an empty row
    return sp.csr_matrix(dense)


class TestSweepSide:
    def test_row_index_matches_tocoo(self, matrix):
        side = SweepSide.build(matrix)
        np.testing.assert_array_equal(side.row_index, matrix.tocoo().row)
        assert side.nnz == matrix.nnz
        assert side.n_rows == matrix.shape[0]
        assert side.n_cols == matrix.shape[1]

    def test_no_weights_means_none(self, matrix):
        assert SweepSide.build(matrix).entry_weights is None

    def test_entry_weights_are_products(self, matrix):
        rng = np.random.default_rng(0)
        row_weights = rng.uniform(0.5, 2.0, matrix.shape[0])
        col_weights = rng.uniform(0.5, 2.0, matrix.shape[1])
        side = SweepSide.build(
            matrix, row_positive_weights=row_weights, col_positive_weights=col_weights
        )
        coo = matrix.tocoo()
        np.testing.assert_allclose(
            side.entry_weights, row_weights[coo.row] * col_weights[coo.col]
        )

    def test_weight_length_validated(self, matrix):
        with pytest.raises(ConfigurationError):
            SweepSide.build(matrix, row_positive_weights=np.ones(3))
        with pytest.raises(ConfigurationError):
            SweepSide.build(matrix, col_positive_weights=np.ones(3))

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    @pytest.mark.parametrize("which", ["row_positive_weights", "col_positive_weights"])
    def test_negative_or_non_finite_weights_rejected(self, bad, which):
        # The pruned line search's lower bound needs every positive term >= 0.
        matrix = sp.csr_matrix(np.eye(4))
        weights = np.ones(4)
        weights[2] = bad
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            SweepSide.build(matrix, **{which: weights})
        weights[2] = 0.0  # zero is a legal weight
        assert SweepSide.build(matrix, **{which: weights}).entry_weights[2] == 0.0

    def test_dtype_cast(self, matrix):
        side = SweepSide.build(matrix, dtype=np.float32)
        assert side.dtype == np.float32
        assert side.matrix.data.dtype == np.float32
        weighted = SweepSide.build(
            matrix, row_positive_weights=np.ones(matrix.shape[0]), dtype=np.float32
        )
        assert weighted.entry_weights.dtype == np.float32

    def test_rejects_non_float_dtype(self, matrix):
        with pytest.raises(ConfigurationError):
            SweepSide.build(matrix, dtype=np.int32)

    def test_empty_matrix(self):
        side = SweepSide.build(sp.csr_matrix((0, 7)))
        assert side.n_rows == 0
        assert side.nnz == 0
        assert len(side.row_index) == 0


class TestSweepPlan:
    def test_sides_are_transposes(self, matrix):
        plan = SweepPlan.build(matrix)
        assert plan.n_users == matrix.shape[0]
        assert plan.n_items == matrix.shape[1]
        assert plan.nnz == matrix.nnz
        np.testing.assert_array_equal(
            plan.item_side.matrix.toarray(), plan.user_side.matrix.toarray().T
        )

    def test_user_weights_ride_the_right_side(self, matrix):
        weights = np.linspace(0.5, 3.0, matrix.shape[0])
        plan = SweepPlan.build(matrix, user_weights=weights)
        user_coo = plan.user_side.matrix.tocoo()
        np.testing.assert_allclose(
            plan.user_side.entry_weights, weights[user_coo.row]
        )
        item_coo = plan.item_side.matrix.tocoo()
        np.testing.assert_allclose(
            plan.item_side.entry_weights, weights[item_coo.col]
        )

    def test_plan_dtype(self, matrix):
        assert SweepPlan.build(matrix).dtype == np.float64
        assert SweepPlan.build(matrix, dtype="float32").dtype == np.float32


class TestPlanDrivenSweep:
    """Backend.sweep consumes a prebuilt plan identically to a raw matrix."""

    def _factors(self, matrix, k=4, seed=1):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(0.05, 0.8, size=(matrix.shape[0], k)),
            rng.uniform(0.05, 0.8, size=(matrix.shape[1], k)),
        )

    def test_plan_sweep_equals_matrix_sweep(self, matrix):
        row_factors, col_factors = self._factors(matrix)
        backend = VectorizedBackend()
        from_matrix, _ = backend.sweep(matrix, row_factors, col_factors, 0.5)
        side = SweepSide.build(matrix)
        from_plan, _ = backend.sweep(None, row_factors, col_factors, 0.5, plan=side)
        np.testing.assert_array_equal(from_matrix, from_plan)

    def test_row_range_returns_the_slice(self, matrix):
        row_factors, col_factors = self._factors(matrix)
        backend = VectorizedBackend()
        full, _ = backend.sweep(matrix, row_factors, col_factors, 0.5)
        side = SweepSide.build(matrix)
        partial, stats = backend.sweep(
            None, row_factors, col_factors, 0.5, plan=side, row_range=(3, 9)
        )
        assert partial.shape == (6, row_factors.shape[1])
        np.testing.assert_array_equal(partial, full[3:9])
        assert stats.n_rows == 6

    def test_missing_matrix_and_plan_raises(self, matrix):
        row_factors, col_factors = self._factors(matrix)
        with pytest.raises(ConfigurationError):
            VectorizedBackend().sweep(None, row_factors, col_factors, 0.5)

    def test_matrix_with_plan_raises(self, matrix):
        # A plan owns its matrix; a second one would be silently ignored.
        row_factors, col_factors = self._factors(matrix)
        side = SweepSide.build(matrix)
        with pytest.raises(ConfigurationError):
            VectorizedBackend().sweep(matrix, row_factors, col_factors, 0.5, plan=side)

    def test_plan_weights_reach_the_line_search(self, matrix):
        # Positive weights travel only in the plan: unit weights reproduce
        # the unweighted sweep, and other weights are the objective the
        # sweep reports for its start factors.
        row_factors, col_factors = self._factors(matrix)
        backend = VectorizedBackend()
        plain, _ = backend.sweep(
            None, row_factors, col_factors, 0.5, plan=SweepSide.build(matrix)
        )
        unit = SweepSide.build(matrix, col_positive_weights=np.ones(matrix.shape[1]))
        unit_sweep, _ = backend.sweep(None, row_factors, col_factors, 0.5, plan=unit)
        np.testing.assert_allclose(unit_sweep, plain, rtol=1e-12)
        col_weights = np.linspace(0.5, 2.0, matrix.shape[1])
        weighted = SweepSide.build(matrix, col_positive_weights=col_weights)
        weighted_sweep, stats = backend.sweep(
            None, row_factors, col_factors, 0.5, plan=weighted
        )
        assert not np.allclose(weighted_sweep, plain)
        total = col_factors.sum(axis=0)
        start = 0.0
        for row, factor in enumerate(row_factors):
            cols = matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]]
            start += row_objective(
                factor, col_factors[cols], col_weights[cols],
                total - col_factors[cols].sum(axis=0), 0.5,
            )
        np.testing.assert_allclose(stats.row_objective_sums[0], start, rtol=1e-12)

    def test_mismatched_factors_raise(self, matrix):
        row_factors, col_factors = self._factors(matrix)
        side = SweepSide.build(matrix)
        with pytest.raises(ConfigurationError):
            VectorizedBackend().sweep(
                None, row_factors[:-1], col_factors, 0.5, plan=side
            )
        with pytest.raises(ConfigurationError):
            VectorizedBackend().sweep(
                None, row_factors, col_factors[:-1], 0.5, plan=side
            )

    @pytest.mark.parametrize(
        "row_range", [(-1, 5), (5, 3), (0, 99), ("a", 2)]
    )
    def test_bad_row_range_raises(self, matrix, row_range):
        row_factors, col_factors = self._factors(matrix)
        side = SweepSide.build(matrix)
        with pytest.raises(ConfigurationError):
            VectorizedBackend().sweep(
                None, row_factors, col_factors, 0.5, plan=side, row_range=row_range
            )

    def test_no_tocoo_in_plan_driven_sweep(self, matrix, monkeypatch):
        """The hot path must not rebuild COO structure per sweep."""
        side = SweepSide.build(matrix)
        row_factors, col_factors = self._factors(matrix)

        def boom(self, *args, **kwargs):  # pragma: no cover - trap
            raise AssertionError("tocoo() called inside a plan-driven sweep")

        monkeypatch.setattr(sp.csr_matrix, "tocoo", boom)
        monkeypatch.setattr(sp.csr_array, "tocoo", boom, raising=False)
        VectorizedBackend().sweep(None, row_factors, col_factors, 0.5, plan=side)
