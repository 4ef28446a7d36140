"""Property-based tests for the OCuLaR objective and backends (hypothesis)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.backends import ReferenceBackend, VectorizedBackend
from repro.core.objective import (
    full_objective,
    gradient_ratio,
    relative_user_weights,
    row_gradient,
    row_objective,
    safe_log1mexp,
)


@st.composite
def factor_problem(draw):
    """A random small one-class problem with non-negative factors."""
    n_users = draw(st.integers(min_value=2, max_value=8))
    n_items = draw(st.integers(min_value=2, max_value=8))
    n_coclusters = draw(st.integers(min_value=1, max_value=4))
    density_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(density_seed)
    dense = (rng.random((n_users, n_items)) < 0.4).astype(float)
    user_factors = rng.uniform(0.0, 1.5, size=(n_users, n_coclusters))
    item_factors = rng.uniform(0.0, 1.5, size=(n_items, n_coclusters))
    return sp.csr_matrix(dense), user_factors, item_factors


@given(hnp.arrays(np.float64, shape=st.integers(1, 20), elements=st.floats(0.0, 50.0)))
@settings(max_examples=60, deadline=None)
def test_safe_log1mexp_always_finite_and_non_positive(affinities):
    values = safe_log1mexp(affinities)
    assert np.all(np.isfinite(values))
    assert np.all(values <= 0.0)


@given(hnp.arrays(np.float64, shape=st.integers(1, 20), elements=st.floats(0.0, 50.0)))
@settings(max_examples=60, deadline=None)
def test_gradient_ratio_always_finite_and_non_negative(affinities):
    values = gradient_ratio(affinities)
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0)


@given(factor_problem())
@settings(max_examples=40, deadline=None)
def test_full_objective_finite_and_penalty_monotone(problem):
    matrix, user_factors, item_factors = problem
    base = full_objective(matrix, user_factors, item_factors, 0.0)
    regularised = full_objective(matrix, user_factors, item_factors, 2.0)
    assert np.isfinite(base) and np.isfinite(regularised)
    assert regularised >= base


@given(factor_problem())
@settings(max_examples=40, deadline=None)
def test_relative_weights_non_negative_and_finite(problem):
    matrix, _, _ = problem
    weights = relative_user_weights(matrix)
    assert weights.shape == (matrix.shape[0],)
    # w_u = #unknowns / #positives is zero only for users who already own the
    # whole catalogue, and must always be finite.
    assert np.all(weights >= 0)
    assert np.all(np.isfinite(weights))
    degrees = np.diff(matrix.indptr)
    saturated = degrees == matrix.shape[1]
    assert np.all(weights[~saturated & (degrees > 0)] > 0)


@given(factor_problem())
@settings(max_examples=30, deadline=None)
def test_backends_agree_on_random_problems(problem):
    """The reference and vectorized sweeps are interchangeable."""
    matrix, user_factors, item_factors = problem
    kwargs = dict(regularization=0.5, sigma=0.1, beta=0.5, max_backtracks=10)
    reference, _ = ReferenceBackend().sweep(matrix, user_factors, item_factors, **kwargs)
    vectorized, _ = VectorizedBackend().sweep(matrix, user_factors, item_factors, **kwargs)
    np.testing.assert_allclose(reference, vectorized, rtol=1e-7, atol=1e-9)


@given(factor_problem())
@settings(max_examples=30, deadline=None)
def test_sweep_never_increases_objective(problem):
    """A single projected-gradient sweep is a descent step for the block."""
    matrix, user_factors, item_factors = problem
    before = full_objective(matrix, user_factors, item_factors, 0.5)
    updated, _ = VectorizedBackend().sweep(
        matrix, user_factors, item_factors, regularization=0.5
    )
    after = full_objective(matrix, updated, item_factors, 0.5)
    assert after <= before + 1e-8


@given(factor_problem(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_row_gradient_is_gradient_of_row_objective(problem, row_seed):
    matrix, user_factors, item_factors = problem
    matrix_t = sp.csr_matrix(matrix.T)
    item = row_seed % matrix.shape[1]
    users = matrix_t.indices[matrix_t.indptr[item] : matrix_t.indptr[item + 1]]
    positive = user_factors[users]
    unknown = user_factors.sum(axis=0) - positive.sum(axis=0)
    factor = item_factors[item] + 0.05  # keep away from the log singularity
    lam = 0.3

    analytic = row_gradient(factor, positive, None, unknown, lam)
    epsilon = 1e-6
    for index in range(len(factor)):
        plus, minus = factor.copy(), factor.copy()
        plus[index] += epsilon
        minus[index] -= epsilon
        numeric = (
            row_objective(plus, positive, None, unknown, lam)
            - row_objective(minus, positive, None, unknown, lam)
        ) / (2 * epsilon)
        np.testing.assert_allclose(analytic[index], numeric, rtol=5e-3, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("regularization", [0.0, 1e-6, 10.0])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_positive=st.integers(min_value=0, max_value=12),
    scale=st.sampled_from([1e-6, 0.02, 1.0, 40.0]),
    weighted=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_line_search_bound_never_exceeds_the_candidate_value(
    dtype, regularization, seed, n_positive, scale, weighted
):
    """``fl(<f, unknown> + lambda ||f||^2) <= fl(row objective)``, in floating point.

    The pruned Armijo search rejects a candidate from this K-wide tail alone;
    that is exact only if the bound holds for the *rounded* values the kernel
    compares — the positive part is ``>= +0`` and IEEE addition is monotone.
    The grouping below is the kernel's: ``(positive + unknown) + penalty``.
    """
    rng = np.random.default_rng(seed)
    k = 5
    factor = rng.uniform(0.0, scale, size=k).astype(dtype)
    positives = rng.uniform(0.0, scale, size=(n_positive, k)).astype(dtype)
    weights = rng.uniform(0.0, 3.0, size=n_positive).astype(dtype)
    # Unknown sums are non-negative in exact arithmetic but carry rounding
    # noise of either sign in the kernel; the bound must not care.
    unknown = rng.uniform(-1e-3, 50.0 * scale, size=k).astype(dtype)
    lam = dtype(regularization)

    log_terms = safe_log1mexp(positives @ factor)
    if weighted:
        log_terms = log_terms * weights
    assert log_terms.dtype == dtype
    positive_part = -np.sum(log_terms, dtype=dtype)
    assert positive_part >= 0
    unknown_part = np.dot(factor, unknown)
    penalty = np.dot(factor, factor) * lam
    value = (positive_part + unknown_part) + penalty
    bound = unknown_part + penalty
    assert value.dtype == bound.dtype == dtype
    assert bound <= value
    # ... and the margins the Armijo test actually compares stay ordered.
    current = dtype(rng.uniform(-10.0, 1e4))
    assert bound - current <= value - current
