"""The OCuLaR objective: regularised negative log-likelihood and its gradients.

Section IV-B of the paper defines, for a binary matrix ``R`` and non-negative
factors ``f_u``, ``f_i``:

    -log L = - sum_{(u,i): r=1} log(1 - exp(-<f_u, f_i>))
             + sum_{(u,i): r=0} <f_u, f_i>

    Q = -log L + lambda * (sum_u ||f_u||^2 + sum_i ||f_i||^2)

R-OCuLaR (Section V) multiplies each positive term by a per-user weight
``w_u = #unknowns(u) / #positives(u)``; the unknown term is unchanged.  This
module implements both through an optional per-positive weight.

Numerical care: ``log(1 - exp(-x))`` and ``exp(-x)/(1 - exp(-x))`` blow up as
``x -> 0``.  Affinities of positive pairs are therefore floored at
``MIN_AFFINITY`` before entering logs or ratios, the standard device used by
BIGCLAM-style fitters.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError

#: Smallest affinity used inside logarithms / gradient ratios.
MIN_AFFINITY = 1e-10

#: Largest affinity before ``exp(-x)`` underflows meaningfully; used to clip.
MAX_AFFINITY = 50.0


def safe_log1mexp(affinity: np.ndarray) -> np.ndarray:
    """Numerically safe ``log(1 - exp(-x))`` for non-negative ``x``.

    Uses ``log(-expm1(-x))`` which is accurate for small ``x`` and floors the
    input at :data:`MIN_AFFINITY` to avoid ``log(0)``.
    """
    clipped = np.clip(affinity, MIN_AFFINITY, None)
    return np.log(-np.expm1(-clipped))


def safe_log1mexp_into(affinity: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place :func:`safe_log1mexp` writing into a caller-owned buffer.

    Runs the identical elementwise sequence (clip, negate, ``expm1``,
    negate, ``log``) through ``out=``, so the result is bit-for-bit the
    allocating form — the property the pooled sweep kernels rely on.
    ``out`` may alias ``affinity``.
    """
    np.clip(affinity, MIN_AFFINITY, None, out=out)
    np.negative(out, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    return out


def gradient_ratio(affinity: np.ndarray) -> np.ndarray:
    """Numerically safe ``exp(-x) / (1 - exp(-x))`` for non-negative ``x``.

    This is the scalar the paper calls ``alpha(<f_u, f_i>)`` in the GPU
    kernel description (equation 11).
    """
    clipped = np.clip(affinity, MIN_AFFINITY, MAX_AFFINITY)
    return np.exp(-clipped) / (-np.expm1(-clipped))


def gradient_ratio_into(
    affinity: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """In-place :func:`gradient_ratio` writing into caller-owned buffers.

    Same elementwise operations as the allocating form, so the result is
    bitwise identical; ``scratch`` holds the ``-expm1(-x)`` denominator.
    ``out`` may alias ``affinity`` (clobbering it) but not ``scratch``.
    """
    np.clip(affinity, MIN_AFFINITY, MAX_AFFINITY, out=out)
    np.negative(out, out=out)
    np.expm1(out, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(out, out=out)
    np.divide(out, scratch, out=out)
    return out


#: Bytes the two gather blocks of :func:`entry_affinities` may hold together.
#: Half a MiB keeps both blocks (and the factor rows they are gathered from)
#: in a core's L2, so the ``einsum`` reads what ``take`` just wrote from cache
#: instead of streaming two ``(nnz, K)`` arrays through DRAM.
_AFFINITY_BLOCK_BYTES = 1 << 19


def affinity_block_entries(k: int, dtype) -> int:
    """Entries per :func:`entry_affinities` block for ``k``-wide factors."""
    return max(1, _AFFINITY_BLOCK_BYTES // (2 * k * np.dtype(dtype).itemsize))


def entry_affinities(
    row_src: np.ndarray,
    row_ids: np.ndarray,
    col_src: np.ndarray,
    col_ids: np.ndarray,
    out: np.ndarray,
    scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """``out[e] = <row_src[row_ids[e]], col_src[col_ids[e]]>``, cache-blocked.

    Runs take -> take -> ``einsum("ij,ij->i")`` over fixed blocks of
    :func:`affinity_block_entries` entries.  Every affinity is a reduction
    over its own entry's ``K`` products only, so blocking changes no bit of
    the result relative to gathering all entries at once.  ``scratch`` is a
    pair of ``(block, K)`` buffers in ``out``'s dtype (the sweep arena's);
    without it one pair is allocated per call.  Indices must be in range:
    ``take`` runs in clip mode so it can write straight into the blocks.
    """
    n_entries = row_ids.shape[0]
    if scratch is None:
        shape = (
            min(n_entries, affinity_block_entries(row_src.shape[1], out.dtype)),
            row_src.shape[1],
        )
        scratch = (np.empty(shape, dtype=out.dtype), np.empty(shape, dtype=out.dtype))
    rows_block, cols_block = scratch
    block = max(1, rows_block.shape[0])  # an empty entry list has empty blocks
    for lo in range(0, n_entries, block):
        hi = min(lo + block, n_entries)
        rows, cols = rows_block[: hi - lo], cols_block[: hi - lo]
        row_src.take(row_ids[lo:hi], axis=0, out=rows, mode="clip")
        col_src.take(col_ids[lo:hi], axis=0, out=cols, mode="clip")
        np.einsum("ij,ij->i", rows, cols, out=out[lo:hi])
    return out


def positive_affinities(
    matrix: sp.csr_matrix, row_factors: np.ndarray, col_factors: np.ndarray
) -> np.ndarray:
    """Affinities ``<f_row, f_col>`` for every positive entry of ``matrix``.

    ``matrix`` must be a CSR matrix of shape ``(n_rows, n_cols)``; the result
    is aligned with ``matrix.tocoo()`` order (row-major, which CSR guarantees).
    """
    coo = matrix.tocoo()
    return np.einsum("ij,ij->i", row_factors[coo.row], col_factors[coo.col])


def full_objective(
    matrix: sp.csr_matrix,
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    regularization: float,
    user_weights: Optional[np.ndarray] = None,
) -> float:
    """Evaluate the full regularised objective ``Q``.

    Parameters
    ----------
    matrix:
        CSR interaction matrix of shape ``(n_users, n_items)``.
    user_factors, item_factors:
        Current factors.
    regularization:
        The L2 penalty ``lambda``.
    user_weights:
        Optional per-user weights applied to the positive-example terms
        (R-OCuLaR); ``None`` means unit weights (OCuLaR).

    Notes
    -----
    The unknown-pair term ``sum_{(u,i): r=0} <f_u, f_i>`` is computed without
    materialising the dense matrix by using

        ``sum_{all pairs} <f_u, f_i> = <sum_u f_u, sum_i f_i>``

    and subtracting the affinities of the positive pairs.  This is a
    convenience wrapper over :func:`objective_from_entries` (the single
    implementation of the formula) that derives the entry list from the
    matrix on every call.
    """
    if matrix.shape != (user_factors.shape[0], item_factors.shape[0]):
        raise ConfigurationError(
            f"matrix shape {matrix.shape} does not match {user_factors.shape[0]} "
            f"user and {item_factors.shape[0]} item factor rows"
        )
    coo = matrix.tocoo()
    entry_weights = None if user_weights is None else user_weights[coo.row]
    objective, _ = objective_from_entries(
        coo.row, coo.col, entry_weights, user_factors, item_factors, regularization
    )
    return objective


def objective_from_entries(
    entry_rows: np.ndarray,
    entry_cols: np.ndarray,
    entry_weights: Optional[np.ndarray],
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    regularization: float,
) -> Tuple[float, float]:
    """``(Q, -log L)`` evaluated from a precomputed positive-entry list.

    One nnz-wide pass computes both the regularised objective and the raw
    likelihood from entry arrays (user-major: ``entry_rows`` index users,
    ``entry_cols`` index items, ``entry_weights`` is the per-entry R-OCuLaR
    weight or ``None``), such as a
    :class:`~repro.core.backends.plan.SweepSide`'s.  Its callers are
    :func:`full_objective` and the end-to-end benchmark's objective probe;
    the trainer no longer calls it — it records ``Q`` from the row values
    its sweeps evaluate (:mod:`repro.core.optimizer`), which agree with
    this function to a relative ``1e-12`` in float64.  The affinity pass is
    the cache-blocked :func:`entry_affinities`, so no ``(nnz, K)`` gather is
    materialised; the entry indices must be in range for the factors.
    """
    dtype = np.result_type(user_factors, item_factors, np.float32)
    user_factors = np.asarray(user_factors, dtype=dtype)
    item_factors = np.asarray(item_factors, dtype=dtype)
    affinities = entry_affinities(
        user_factors,
        entry_rows,
        item_factors,
        entry_cols,
        out=np.empty(len(entry_rows), dtype=dtype),
    )

    log_terms = safe_log1mexp(affinities)
    if entry_weights is not None:
        log_terms = log_terms * entry_weights
    positive_part = -float(np.sum(log_terms))

    total_affinity = float(user_factors.sum(axis=0) @ item_factors.sum(axis=0))
    unknown_part = total_affinity - float(np.sum(affinities))

    likelihood = positive_part + unknown_part
    penalty = regularization * (
        float(np.sum(user_factors**2)) + float(np.sum(item_factors**2))
    )
    return likelihood + penalty, likelihood


def negative_log_likelihood(
    matrix: sp.csr_matrix,
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    user_weights: Optional[np.ndarray] = None,
) -> float:
    """The unregularised negative log-likelihood ``-log L``.

    Used by the Figure 8 benchmark, which plots the distance to the optimal
    *likelihood* (not the penalised objective) against wall-clock time.
    """
    return full_objective(
        matrix, user_factors, item_factors, regularization=0.0, user_weights=user_weights
    )


def row_objective(
    factor: np.ndarray,
    positive_col_factors: np.ndarray,
    positive_weights: Optional[np.ndarray],
    unknown_sum: np.ndarray,
    regularization: float,
) -> float:
    """Objective restricted to one row factor (equation 5 of the paper).

    ``Q(f_i) = -sum_{u: r=1} w_u log(1 - exp(-<f_u, f_i>))
               + <f_i, sum_{u: r=0} f_u> + lambda ||f_i||^2``

    Parameters
    ----------
    factor:
        The row factor being optimised, shape ``(K,)``.
    positive_col_factors:
        Factors of the columns with a positive entry in this row,
        shape ``(n_positive, K)``.
    positive_weights:
        Optional per-positive weights (R-OCuLaR), shape ``(n_positive,)``.
    unknown_sum:
        Precomputed ``sum_{cols with r=0} f_col``, shape ``(K,)``.
    regularization:
        The L2 penalty ``lambda``.
    """
    affinities = positive_col_factors @ factor
    log_terms = safe_log1mexp(affinities)
    if positive_weights is not None:
        log_terms = log_terms * positive_weights
    positive_part = -float(np.sum(log_terms))
    unknown_part = float(factor @ unknown_sum)
    penalty = regularization * float(factor @ factor)
    return positive_part + unknown_part + penalty


def row_gradient(
    factor: np.ndarray,
    positive_col_factors: np.ndarray,
    positive_weights: Optional[np.ndarray],
    unknown_sum: np.ndarray,
    regularization: float,
) -> np.ndarray:
    """Gradient of :func:`row_objective` with respect to the row factor.

    Equation (6) of the paper:

    ``grad Q(f_i) = -sum_{u: r=1} w_u f_u exp(-x)/(1-exp(-x))
                    + sum_{u: r=0} f_u + 2 lambda f_i``
    """
    affinities = positive_col_factors @ factor
    ratios = gradient_ratio(affinities)
    if positive_weights is not None:
        ratios = ratios * positive_weights
    positive_part = -(ratios @ positive_col_factors)
    return positive_part + unknown_sum + 2.0 * regularization * factor


def relative_user_weights(matrix: sp.csr_matrix) -> np.ndarray:
    """R-OCuLaR per-user weights ``w_u = #unknowns(u) / #positives(u)``.

    Users with no positives receive weight 1 (they contribute no positive
    terms anyway, so the value is irrelevant but must be finite).
    """
    n_items = matrix.shape[1]
    positives = np.diff(matrix.indptr).astype(float)
    weights = np.ones_like(positives)
    nonzero = positives > 0
    weights[nonzero] = (n_items - positives[nonzero]) / positives[nonzero]
    return weights


def armijo_accept(
    old_value: float,
    new_value: float,
    gradient: np.ndarray,
    step_difference: np.ndarray,
    sigma: float,
) -> bool:
    """Armijo acceptance test along the projection arc (Section IV-D).

    Accept the candidate when
    ``Q(f_new) - Q(f_old) <= sigma * <grad Q(f_old), f_new - f_old>``.
    """
    return new_value - old_value <= sigma * float(gradient @ step_difference)


def split_known_unknown_sums(
    matrix: sp.csr_matrix, col_factors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row sums of column factors over positives, and over unknowns.

    Returns ``(positive_sums, unknown_sums)`` with shape ``(n_rows, K)``.
    Implements the paper's precomputation trick:
    ``sum_{c: r=0} f_c = sum_c f_c - sum_{c: r=1} f_c``.
    """
    positive_sums = matrix @ col_factors
    total = col_factors.sum(axis=0)
    unknown_sums = total[np.newaxis, :] - positive_sums
    return positive_sums, unknown_sums
