"""Tests for repro.core.objective: the regularised NLL and its gradients."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import objective as objective_module
from repro.core.objective import (
    armijo_accept,
    entry_affinities,
    full_objective,
    gradient_ratio,
    negative_log_likelihood,
    objective_from_entries,
    relative_user_weights,
    row_gradient,
    row_objective,
    safe_log1mexp,
)
from repro.exceptions import ConfigurationError


@pytest.fixture
def tiny_problem():
    """A 3x4 matrix with random non-negative factors (K=2)."""
    rng = np.random.default_rng(0)
    matrix = sp.csr_matrix(
        np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 0],
                [1, 1, 0, 1],
            ],
            dtype=float,
        )
    )
    user_factors = rng.uniform(0.1, 1.0, size=(3, 2))
    item_factors = rng.uniform(0.1, 1.0, size=(4, 2))
    return matrix, user_factors, item_factors


def brute_force_objective(matrix, user_factors, item_factors, lam, user_weights=None):
    """Direct O(n_users * n_items) evaluation of Q for cross-checking."""
    dense = matrix.toarray()
    total = 0.0
    for user in range(dense.shape[0]):
        weight = 1.0 if user_weights is None else user_weights[user]
        for item in range(dense.shape[1]):
            affinity = float(user_factors[user] @ item_factors[item])
            if dense[user, item] > 0:
                total -= weight * np.log(1.0 - np.exp(-max(affinity, 1e-10)))
            else:
                total += affinity
    total += lam * (np.sum(user_factors**2) + np.sum(item_factors**2))
    return total


class TestNumericalHelpers:
    def test_safe_log1mexp_matches_naive_for_moderate_values(self):
        x = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(safe_log1mexp(x), np.log(1 - np.exp(-x)), rtol=1e-10)

    def test_safe_log1mexp_finite_at_zero(self):
        assert np.isfinite(safe_log1mexp(np.array([0.0]))).all()

    def test_gradient_ratio_matches_naive(self):
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(
            gradient_ratio(x), np.exp(-x) / (1 - np.exp(-x)), rtol=1e-10
        )

    def test_gradient_ratio_finite_at_zero_and_large(self):
        values = gradient_ratio(np.array([0.0, 1e3]))
        assert np.all(np.isfinite(values))
        assert values[1] < 1e-10


class TestFullObjective:
    def test_matches_brute_force(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        for lam in (0.0, 0.5):
            fast = full_objective(matrix, user_factors, item_factors, lam)
            slow = brute_force_objective(matrix, user_factors, item_factors, lam)
            assert fast == pytest.approx(slow, rel=1e-8)

    def test_matches_brute_force_with_user_weights(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        weights = np.array([2.0, 0.5, 3.0])
        fast = full_objective(matrix, user_factors, item_factors, 0.3, user_weights=weights)
        slow = brute_force_objective(matrix, user_factors, item_factors, 0.3, user_weights=weights)
        assert fast == pytest.approx(slow, rel=1e-8)

    def test_regularization_increases_objective(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        without = full_objective(matrix, user_factors, item_factors, 0.0)
        with_reg = full_objective(matrix, user_factors, item_factors, 1.0)
        assert with_reg > without

    def test_negative_log_likelihood_is_unregularised(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        assert negative_log_likelihood(matrix, user_factors, item_factors) == pytest.approx(
            full_objective(matrix, user_factors, item_factors, 0.0)
        )

    def test_perfect_fit_has_small_objective(self):
        # A rank-1 all-ones matrix with large factors: all probabilities ~1.
        matrix = sp.csr_matrix(np.ones((3, 3)))
        factors = np.full((3, 1), 5.0)
        assert full_objective(matrix, factors, factors, 0.0) < 0.01


def fancy_index_objective(rows, cols, weights, user_factors, item_factors, lam):
    """``objective_from_entries`` as it was before blocking: full (nnz, K) gathers."""
    affinities = np.einsum("ij,ij->i", user_factors[rows], item_factors[cols])
    log_terms = safe_log1mexp(affinities)
    if weights is not None:
        log_terms = log_terms * weights
    positive_part = -float(np.sum(log_terms))
    total_affinity = float(user_factors.sum(axis=0) @ item_factors.sum(axis=0))
    likelihood = positive_part + (total_affinity - float(np.sum(affinities)))
    penalty = lam * (float(np.sum(user_factors**2)) + float(np.sum(item_factors**2)))
    return likelihood + penalty, likelihood


class TestBlockedEntryAffinities:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("block_entries", [1, 2, 1000])
    def test_objective_is_bitwise_the_fancy_index_form(
        self, tiny_problem, monkeypatch, weighted, block_entries
    ):
        matrix, user_factors, item_factors = tiny_problem
        monkeypatch.setattr(
            objective_module, "_AFFINITY_BLOCK_BYTES", block_entries * 2 * 2 * 8
        )
        coo = matrix.tocoo()
        weights = np.array([0.5, 1.5, 2.0])[coo.row] if weighted else None
        blocked = objective_from_entries(
            coo.row, coo.col, weights, user_factors, item_factors, 0.7
        )
        reference = fancy_index_objective(
            coo.row, coo.col, weights, user_factors, item_factors, 0.7
        )
        assert blocked == reference  # identical floats, not merely close

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_multi_block_affinities_match_one_shot_gather(self, dtype):
        rng = np.random.default_rng(3)
        k, n_entries = 50, 5000  # several default-sized blocks plus a ragged tail
        rows_src = rng.random((70, k)).astype(dtype)
        cols_src = rng.random((90, k)).astype(dtype)
        rows = rng.integers(0, 70, n_entries)
        cols = rng.integers(0, 90, n_entries)
        assert n_entries > 3 * objective_module.affinity_block_entries(k, dtype)
        out = np.empty(n_entries, dtype=dtype)
        entry_affinities(rows_src, rows, cols_src, cols, out=out)
        assert np.array_equal(
            out, np.einsum("ij,ij->i", rows_src[rows], cols_src[cols])
        )

    def test_empty_entry_list(self):
        out = entry_affinities(
            np.ones((2, 3)), np.empty(0, np.int64), np.ones((2, 3)),
            np.empty(0, np.int64), out=np.empty(0),
        )  # fmt: skip
        assert out.shape == (0,)

    def test_full_objective_rejects_mismatched_factor_shapes(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        with pytest.raises(ConfigurationError, match="does not match"):
            full_objective(matrix, user_factors[:2], item_factors, 0.1)


class TestRowObjectiveAndGradient:
    def test_row_objective_consistent_with_full(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        lam = 0.4
        # Sum of per-item row objectives + user penalty = full objective.
        matrix_t = sp.csr_matrix(matrix.T)
        total = lam * float(np.sum(user_factors**2))
        col_total = user_factors.sum(axis=0)
        for item in range(matrix.shape[1]):
            users = matrix_t.indices[matrix_t.indptr[item] : matrix_t.indptr[item + 1]]
            positive = user_factors[users]
            unknown = col_total - positive.sum(axis=0)
            total += row_objective(item_factors[item], positive, None, unknown, lam)
        assert total == pytest.approx(full_objective(matrix, user_factors, item_factors, lam))

    def test_row_gradient_matches_finite_differences(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        matrix_t = sp.csr_matrix(matrix.T)
        item = 0
        users = matrix_t.indices[matrix_t.indptr[item] : matrix_t.indptr[item + 1]]
        positive = user_factors[users]
        unknown = user_factors.sum(axis=0) - positive.sum(axis=0)
        factor = item_factors[item].copy()
        lam = 0.2

        analytic = row_gradient(factor, positive, None, unknown, lam)
        numeric = np.zeros_like(factor)
        epsilon = 1e-6
        for index in range(len(factor)):
            plus = factor.copy()
            plus[index] += epsilon
            minus = factor.copy()
            minus[index] -= epsilon
            numeric[index] = (
                row_objective(plus, positive, None, unknown, lam)
                - row_objective(minus, positive, None, unknown, lam)
            ) / (2 * epsilon)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_row_gradient_with_weights_matches_finite_differences(self, tiny_problem):
        matrix, user_factors, item_factors = tiny_problem
        matrix_t = sp.csr_matrix(matrix.T)
        item = 1
        users = matrix_t.indices[matrix_t.indptr[item] : matrix_t.indptr[item + 1]]
        positive = user_factors[users]
        weights = np.linspace(0.5, 2.0, len(users))
        unknown = user_factors.sum(axis=0) - positive.sum(axis=0)
        factor = item_factors[item].copy()
        lam = 0.1

        analytic = row_gradient(factor, positive, weights, unknown, lam)
        epsilon = 1e-6
        numeric = np.zeros_like(factor)
        for index in range(len(factor)):
            plus, minus = factor.copy(), factor.copy()
            plus[index] += epsilon
            minus[index] -= epsilon
            numeric[index] = (
                row_objective(plus, positive, weights, unknown, lam)
                - row_objective(minus, positive, weights, unknown, lam)
            ) / (2 * epsilon)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


class TestHelpers:
    def test_relative_user_weights_formula(self):
        matrix = sp.csr_matrix(np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], dtype=float))
        weights = relative_user_weights(matrix)
        assert weights[0] == pytest.approx(2 / 2)
        assert weights[1] == pytest.approx(3 / 1)
        assert weights[2] == pytest.approx(1.0)  # degenerate user gets finite weight

    def test_armijo_accept_rule(self):
        gradient = np.array([1.0, -2.0])
        step = np.array([-0.1, 0.2])
        predicted_decrease = float(gradient @ step)  # = -0.5
        # Accepted: the achieved decrease (0.6 * predicted) beats sigma * predicted.
        assert armijo_accept(10.0, 10.0 + 0.6 * predicted_decrease, gradient, step, sigma=0.5)
        # Rejected: a decrease of only 0.1 is weaker than sigma * predicted = -0.25.
        assert not armijo_accept(10.0, 10.0 - 0.1, gradient, step, sigma=0.5)
