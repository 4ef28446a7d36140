"""Precomputed sweep plans — the static structure of a fit, built once.

Profiling the seed trainer showed that every projected-gradient sweep
re-derived structure that never changes during a fit: a ``sp.csr_matrix``
revalidation of the operand, a ``tocoo()`` to recover per-entry row indices,
and the per-entry R-OCuLaR weights — four times per outer iteration (two
sweep directions plus the objective bookkeeping).  A :class:`SweepPlan`
hoists all of that out of the hot loop: it is built once per ``fit`` and
owns, for both sweep directions, the CSR matrix in the training dtype, the
COO-style row index of every stored entry (aligned with CSR order), and the
per-entry positive-example weights.

Backends consume one :class:`SweepSide` at a time.  Because a side keeps the
global CSR ``indptr``/``indices``, a sweep restricted to the row range
``[a, b)`` needs nothing beyond the side and the fixed-side column sum — it
is a self-contained task, which is what makes the sharded parallel backend
possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.backends.workspace import SweepWorkspaceStore
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_float_dtype, check_positive_int


def _resolve_dtype(dtype, fallback=np.float64) -> np.dtype:
    """Normalise a dtype spec (``None`` → ``fallback``) to float32/float64."""
    return check_float_dtype(fallback if dtype is None else dtype, "dtype")


def nnz_balanced_ranges(
    indptr, start: int, stop: int, n_shards: int
) -> List[Tuple[int, int]]:
    """Split rows ``[start, stop)`` into shards of approximately equal nnz.

    Row-count sharding assigns every shard the same number of rows; on
    heavy-tailed corpora (a few rows own most of the positives — the shape
    of every real recommendation dataset) that leaves one worker grinding
    through the dense rows while the rest idle.  This split instead cuts the
    CSR ``indptr`` prefix sum into near-equal nnz portions, so each shard
    carries a similar amount of actual sweep work.

    The boundaries are a **pure function** of ``(indptr, start, stop,
    n_shards)`` — no timing, no worker state — which preserves the parallel
    engine's determinism guarantee: identical inputs shard identically, and
    stitched factors cannot depend on execution order.

    Every row is weighted as ``nnz + 1``, so empty rows still carry weight
    and the returned ranges are always non-empty, cover ``[start, stop)``
    exactly, and number at most ``min(n_shards, stop - start)``.
    """
    indptr = np.asarray(indptr)
    check_positive_int(n_shards, "n_shards")
    if not 0 <= start <= stop <= len(indptr) - 1:
        raise ConfigurationError(
            f"row range [{start}, {stop}) is not within [0, {len(indptr) - 1}]"
        )
    n_rows = stop - start
    n_ranges = min(n_shards, n_rows)
    if n_ranges <= 0:
        return []
    # Weight every row by nnz + 1: the +1 spreads empty rows across shards
    # instead of piling them onto whichever shard owns the last positive.
    weights = np.diff(indptr[start : stop + 1]).astype(np.int64) + 1
    cumulative = np.cumsum(weights)
    total = int(cumulative[-1])

    boundaries = [0]
    for shard in range(1, n_ranges):
        target = shard * total / n_ranges
        cut = int(np.searchsorted(cumulative, target, side="left")) + 1
        # The target usually lands inside a row; take whichever adjacent
        # boundary leaves the prefix weight closer to the target, so a heavy
        # row is not pulled into a shard that is already at quota.
        if cut >= 2 and target - cumulative[cut - 2] <= cumulative[cut - 1] - target:
            cut -= 1
        # Clamp so every shard (including the remaining ones) keeps >= 1 row.
        low = boundaries[-1] + 1
        high = n_rows - (n_ranges - shard)
        boundaries.append(min(max(cut, low), high))
    boundaries.append(n_rows)
    return [
        (start + left, start + right)
        for left, right in zip(boundaries, boundaries[1:])
    ]


@dataclass
class SweepSide:
    """Static structure for sweeping one side (rows) of the interaction matrix.

    Attributes
    ----------
    matrix:
        CSR matrix of shape ``(n_rows, n_cols)`` whose rows index the side
        being updated; its ``data`` is stored in the training dtype.
    row_index:
        Row index of every stored entry in CSR (row-major) order, shape
        ``(nnz,)`` — what ``matrix.tocoo().row`` would return, computed once.
        The matching column indices are ``matrix.indices``.
    entry_weights:
        Per-entry positive-example weights in the training dtype, or ``None``
        when every weight is 1 (plain OCuLaR).
    workspaces:
        The side's :class:`~repro.core.backends.workspace.SweepWorkspaceStore`
        — pooled sweep scratch arenas plus the plan-cached sparse operator
        structure (the fit-constant ``positives`` data rides the CSR this
        side already owns).  Hanging the store off the side gives workspaces
        exactly plan lifetime: reused across the sweeps of a fit, dropped
        with the plan, never leaked into the next fit.  It pickles to a
        fresh empty store, so process-executor workers (which cache attached
        sides) warm worker-local workspaces.
    """

    matrix: sp.csr_matrix
    row_index: np.ndarray
    entry_weights: Optional[np.ndarray]
    workspaces: SweepWorkspaceStore = field(
        default_factory=SweepWorkspaceStore, compare=False, repr=False
    )

    @property
    def n_rows(self) -> int:
        """Number of rows on the side being updated."""
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns (the fixed side)."""
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        """Number of positive entries."""
        return self.matrix.nnz

    @property
    def dtype(self) -> np.dtype:
        """Training dtype of the matrix data (and weights, when present)."""
        return self.matrix.data.dtype

    def shard_ranges(
        self, n_shards: int, row_range: Optional[Tuple[int, int]] = None
    ) -> List[Tuple[int, int]]:
        """nnz-balanced shard boundaries for (a row range of) this side.

        Delegates to :func:`nnz_balanced_ranges` on the side's CSR
        ``indptr`` — a pure function of the plan, shared by every executor.
        """
        start, stop = (0, self.n_rows) if row_range is None else row_range
        return nnz_balanced_ranges(self.matrix.indptr, start, stop, n_shards)

    @classmethod
    def build(
        cls,
        matrix,
        row_positive_weights: Optional[np.ndarray] = None,
        col_positive_weights: Optional[np.ndarray] = None,
        dtype=None,
    ) -> "SweepSide":
        """Precompute the sweep structure for one side.

        Parameters
        ----------
        matrix:
            Anything ``sp.csr_matrix`` accepts, shape ``(n_rows, n_cols)``
            with rows indexing the side to be updated.
        row_positive_weights, col_positive_weights:
            Optional per-row / per-column weights; the weight of a positive
            entry ``(r, c)`` is their product (1 when both are ``None``).
        dtype:
            Training dtype (``float32`` / ``float64``); defaults to float64.
        """
        csr = sp.csr_matrix(matrix)
        target = _resolve_dtype(dtype)
        if csr.data.dtype != target:
            csr = csr.astype(target)

        n_rows, n_cols = csr.shape
        row_index = np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(csr.indptr)
        )

        weights: Optional[np.ndarray] = None
        for name, given, size, entry_index in (
            ("row_positive_weights", row_positive_weights, n_rows, row_index),
            ("col_positive_weights", col_positive_weights, n_cols, csr.indices),
        ):
            if given is None:
                continue
            given = np.asarray(given)
            if given.shape != (size,):
                raise ConfigurationError(
                    f"{name} must have shape ({size},), got {given.shape}"
                )
            # The line search prunes candidates with a lower bound that holds
            # only when every positive term is >= 0, i.e. every weight is.
            if not np.all(np.isfinite(given) & (given >= 0)):
                raise ConfigurationError(f"{name} must be finite and non-negative")
            if weights is None:
                weights = np.ones(csr.nnz, dtype=target)
            weights *= given[entry_index].astype(target, copy=False)
        return cls(matrix=csr, row_index=row_index, entry_weights=weights)


class SweepPlan:
    """Both sweep directions of one training problem, precomputed once.

    The trainer builds a plan at the top of ``fit`` and drives every sweep
    through it: the item sweep uses :attr:`item_side` (rows = items, columns
    = users; the per-user R-OCuLaR weight rides on the column side) and the
    user sweep uses :attr:`user_side` (rows = users; the weight rides on the
    row side).
    """

    def __init__(self, user_side: SweepSide, item_side: SweepSide) -> None:
        if user_side.matrix.shape != item_side.matrix.shape[::-1]:
            raise ConfigurationError(
                "user_side and item_side must be transposes of each other, got "
                f"shapes {user_side.matrix.shape} and {item_side.matrix.shape}"
            )
        self.user_side = user_side
        self.item_side = item_side

    @classmethod
    def build(
        cls,
        matrix,
        user_weights: Optional[np.ndarray] = None,
        dtype=None,
    ) -> "SweepPlan":
        """Precompute both sweep directions for a user-by-item matrix.

        Parameters
        ----------
        matrix:
            Interaction matrix of shape ``(n_users, n_items)``.
        user_weights:
            Optional per-user positive-example weights (R-OCuLaR).
        dtype:
            Training dtype (``float32`` / ``float64``); defaults to float64.
        """
        target = _resolve_dtype(dtype)
        user_major = sp.csr_matrix(matrix)
        if user_major.data.dtype != target:
            user_major = user_major.astype(target)
        item_major = sp.csr_matrix(user_major.T)
        user_side = SweepSide.build(
            user_major, row_positive_weights=user_weights, dtype=target
        )
        item_side = SweepSide.build(
            item_major, col_positive_weights=user_weights, dtype=target
        )
        return cls(user_side=user_side, item_side=item_side)

    @property
    def n_users(self) -> int:
        """Number of users."""
        return self.user_side.n_rows

    @property
    def n_items(self) -> int:
        """Number of items."""
        return self.item_side.n_rows

    @property
    def nnz(self) -> int:
        """Number of positive interactions."""
        return self.user_side.nnz

    @property
    def dtype(self) -> np.dtype:
        """Training dtype shared by both sides."""
        return self.user_side.dtype
