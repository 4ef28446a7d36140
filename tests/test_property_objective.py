"""Property-based tests for the OCuLaR objective and backends (hypothesis)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.backends import ReferenceBackend, VectorizedBackend
from repro.core.backends.plan import SweepSide
from repro.core.objective import (
    MIN_AFFINITY,
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
    reference, _ = ReferenceBackend().sweep(matrix, user_factors, item_factors, 0.5)
    vectorized, _ = VectorizedBackend().sweep(matrix, user_factors, item_factors, 0.5)
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


# --------------------------------------------------------------------------- #
# The Jensen bound of the pruned line search
# --------------------------------------------------------------------------- #
def _bounds_and_positive_parts(matrix, candidates, col_factors, **weights):
    """The kernel's Jensen bound and its positive part for every row's candidate.

    Runs the vectorized kernel's own helpers in a pooled workspace, in the
    order one sweep runs them: the ``positives`` product into the Jensen
    block, ``P / W`` from it (through the side's own weights when it needs
    them), then the bound and the nnz-wide evaluation of the same
    candidates.
    """
    dtype = candidates.dtype
    side = SweepSide.build(matrix, dtype=dtype, **weights)
    n_rows, k = candidates.shape
    ws = side.workspaces.acquire(side, 0, n_rows, k, dtype)
    try:
        ws.positives_matmul(col_factors, out=ws.jensen_means)
        ws.fill_jensen_means(col_factors)
        rows = np.arange(n_rows)
        bounds = VectorizedBackend._positive_bounds(
            ws, candidates, rows, out=np.empty(n_rows, dtype=dtype)
        )
        parts = VectorizedBackend._positive_parts(
            ws, candidates, rows, rows, col_factors
        ).copy()
    finally:
        side.workspaces.release(ws)
    assert bounds.dtype == parts.dtype == dtype
    return bounds, parts


#: Mean affinity each candidate row is scaled to: around the floor
#: ``MIN_AFFINITY`` (where the +eps shift matters), tiny, moderate, and past
#: the point where ``log(1 - exp(-a))`` rounds to 0.
_AFFINITY_SCALES = {"eps": MIN_AFFINITY, "tiny": 1e-4, "unit": 1.0, "large": 60.0}


@st.composite
def jensen_problem(draw):
    """One side's rows and candidates, drawn to corner the Jensen bound.

    Row 0 has no positives, row 1 exactly one, row 2 every column.
    ``zeros`` projects coordinates away so affinities are exactly 0 next to
    positive ones (the shape of the ``(0, 2 eps)`` counterexample);
    ``identical`` gives every column one factor, so every affinity of a row
    is equal and Jensen is tight.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.integers(min_value=1, max_value=48))
    n_cols = draw(st.sampled_from([1, 2, 3, 7, 40, 600]))
    scale = draw(st.sampled_from(sorted(_AFFINITY_SCALES)))
    zeros = draw(st.booleans())
    identical = draw(st.booleans())
    weighting = draw(st.sampled_from([None, "rows", "cols"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    n_rows = 6
    dense = rng.random((n_rows, n_cols)) < rng.uniform(0.1, 1.0)
    dense[0] = False
    dense[1] = False
    dense[1, rng.integers(n_cols)] = True
    dense[2] = True
    col_factors = rng.uniform(0.0, 3.0, size=(n_cols, k))
    candidates = rng.uniform(0.0, 3.0, size=(n_rows, k))
    if identical:
        col_factors[:] = col_factors[0]
    if zeros:
        kept = rng.random(k) < 0.5
        candidates[:, ~kept] = 0.0
        col_factors[np.ix_(rng.random(n_cols) < 0.5, kept)] = 0.0
    target = _AFFINITY_SCALES[scale] * rng.uniform(0.0, 4.0, size=(n_rows, 1))
    candidates *= target / (2.25 * k)

    weights = {}
    if weighting is not None:
        size = n_rows if weighting == "rows" else n_cols
        given = rng.uniform(0.0, 3.0, size=size)
        given[rng.random(size) < 0.2] = 0.0
        weights[f"{weighting[:-1]}_positive_weights"] = given
    matrix = sp.csr_matrix(dense.astype(float))
    return (
        matrix,
        candidates.astype(dtype),
        np.ascontiguousarray(col_factors.astype(dtype)),
        weights,
    )


@given(jensen_problem())
@settings(max_examples=300, deadline=None)
def test_jensen_bound_never_exceeds_the_positive_part(problem):
    """``L <= pos`` for the rounded values, slack included, on adversarial rows.

    The pruned line search rejects a candidate when ``L`` plus the K-wide
    tail already fails the Armijo test; that is exact only if ``L`` never
    exceeds the positive part the nnz-wide evaluation computes for the same
    candidate (``vectorized`` module docstring).
    """
    matrix, candidates, col_factors, weights = problem
    bounds, parts = _bounds_and_positive_parts(
        matrix, candidates, col_factors, **weights
    )
    assert np.all(bounds >= 0)
    assert np.all(bounds <= parts), (bounds, parts)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_jensen_bound_needs_the_eps_shift(dtype):
    """Affinities ``(0, 2 eps)``: plain Jensen under the floor overshoots.

    The positive part is ``f(eps) + f(2 eps) = 45.36`` while plain Jensen,
    ``2 f(max(mean, eps)) = 2 f(eps)``, claims 46.05; the shifted bound is
    ``2 f(2 eps) = 44.67``.
    """
    eps = MIN_AFFINITY
    matrix = sp.csr_matrix(np.ones((1, 2)))
    col_factors = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=dtype)
    candidates = np.array([[2.0 * eps, 0.0]], dtype=dtype)
    bounds, parts = _bounds_and_positive_parts(matrix, candidates, col_factors)

    def f(x):
        return -np.log(-np.expm1(-x))

    assert parts[0] == pytest.approx(f(eps) + f(2 * eps), rel=1e-5)
    assert 2 * f(eps) > parts[0]
    assert bounds[0] == pytest.approx(2 * f(2 * eps), rel=1e-5)
    assert bounds[0] <= parts[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_jensen_bound_is_tight_on_identical_columns(dtype):
    """Equal affinities make Jensen an equality: only the slack separates them."""
    rng = np.random.default_rng(0)
    matrix = sp.csr_matrix(np.ones((3, 200)))
    col_factors = np.tile(rng.uniform(0.0, 1.0, size=(1, 20)), (200, 1)).astype(dtype)
    candidates = rng.uniform(0.0, 0.1, size=(3, 20)).astype(dtype)
    bounds, parts = _bounds_and_positive_parts(matrix, candidates, col_factors)
    assert np.all(bounds <= parts)
    np.testing.assert_allclose(bounds, parts, rtol=1e-3 if dtype == np.float32 else 1e-9)
