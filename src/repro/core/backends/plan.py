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

**Carried affinities.**  Every sweep needs the affinity ``<f_u, f_i>`` of
each positive at its start point, and the sweep before it — over the same
positives from the other side — has just computed every one of them at
exactly that point: an accepted row's candidate affinities, which the line
search evaluated, or else the row's start values.  A plan therefore keeps
the item-major → user-major entry permutation, and the trainer sweeps
per-fit copies of the two sides (:meth:`SweepPlan.fit_sides`) that share
one nnz-long array of affinities in user-major order
(:class:`CarriedAffinities`), read their start affinities through their
map and write back those of the point they return.  Reading instead
of recomputing is exact: each affinity is the same ``einsum`` over the same
``K`` products, multiplied in the other order, and IEEE multiplication
commutes.  A side built any other way carries nothing, so direct
:meth:`~repro.core.backends.base.Backend.sweep` calls compute every sweep's
affinities as before.
"""

from __future__ import annotations

import copy
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Tuple

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
    carry:
        Not a field: ``None`` except on the per-fit copies
        :meth:`SweepPlan.fit_sides` hands the trainer, where it is the fit's
        :class:`FitCarry` on this side.  It never pickles.
    """

    matrix: sp.csr_matrix
    row_index: np.ndarray
    entry_weights: Optional[np.ndarray]
    workspaces: SweepWorkspaceStore = field(
        default_factory=SweepWorkspaceStore, compare=False, repr=False
    )
    carry = None  # a class attribute, not a field (see the docstring)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("carry", None)  # values written in another process are lost
        return state

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
        # In the CSR's own index dtype, like ``tocoo().row``: a plan kept
        # across fits holds one per side.
        row_index = np.repeat(
            np.arange(n_rows, dtype=csr.indices.dtype), np.diff(csr.indptr)
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


#: The place of carried affinities that live in the sweeping process.
IN_PROCESS = "in-process"


class CarriedAffinities:
    """One fit's affinity of every positive at the point its last sweep returned.

    ``values`` is nnz-long in user-major (CSR) order.  ``place`` says where
    the values of the fit's current point live — :data:`IN_PROCESS` for
    ``values`` itself, a publication's name for the shared segment pool
    workers write — or is ``None`` when no sweep left them (the fit's start,
    a sweep that failed, a point moved outside a sweep).  A fit's sweeps
    run one after another, so one fit's carry needs no lock; concurrent
    fits on one plan each have their own.
    """

    def __init__(self, nnz: int, dtype) -> None:
        self.values = np.empty(nnz, dtype=dtype)
        self.place: Optional[Hashable] = None


class FitCarry:
    """One side's handle on its fit's :class:`CarriedAffinities`.

    ``positions`` maps the side's entries into the user-major values
    (``None``: the user side, whose order it is).
    """

    def __init__(self, carried: CarriedAffinities, positions: Optional[np.ndarray]) -> None:
        self.carried = carried
        self.positions = positions

    @property
    def values(self) -> np.ndarray:
        """The user-major affinities this process reads and writes."""
        return self.carried.values

    @contextmanager
    def sweep(self, place: Hashable) -> Iterator[bool]:
        """One sweep that reads and writes the values at ``place``.

        Yields whether they hold the sweep's start affinities (else the
        sweep computes them); once the sweep completes they hold the
        affinities at the point it returned.
        """
        carried = self.carried
        read, carried.place = carried.place == place, None
        yield read
        carried.place = place

    def drop(self) -> None:
        """The fit's point moved outside a sweep (or in one that carried nothing)."""
        self.carried.place = None


def _transposed_positions(user_major: sp.csr_matrix) -> sp.csr_matrix:
    """``csr_matrix(user_major.T)`` with each entry's user-major position as data."""
    positions = sp.csr_matrix(
        (np.arange(user_major.nnz, dtype=np.int64), user_major.indices, user_major.indptr),
        shape=user_major.shape,
    )
    return sp.csr_matrix(positions.T)


class SweepPlan:
    """Both sweep directions of one training problem, precomputed once.

    The trainer obtains a plan at the top of ``fit`` and drives every sweep
    through it: the item sweep uses :attr:`item_side` (rows = items, columns
    = users; the per-user R-OCuLaR weight rides on the column side) and the
    user sweep uses :attr:`user_side` (rows = users; the weight rides on the
    row side) — each through the per-fit copy :meth:`fit_sides` makes, which
    carries the affinities from one sweep to the next.
    """

    def __init__(self, user_side: SweepSide, item_side: SweepSide) -> None:
        if user_side.matrix.shape != item_side.matrix.shape[::-1]:
            raise ConfigurationError(
                "user_side and item_side must be transposes of each other, got "
                f"shapes {user_side.matrix.shape} and {item_side.matrix.shape}"
            )
        self.user_side = user_side
        self.item_side = item_side
        self._item_positions: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    @property
    def item_positions(self) -> np.ndarray:
        """The user-major position of every item-major entry.

        :meth:`build` sets it; a plan assembled from two sides derives it
        on first use, which assumes the item side is the transposition of
        the user side that :meth:`build` makes.
        """
        with self._lock:
            if self._item_positions is None:
                self._item_positions = _transposed_positions(self.user_side.matrix).data
            return self._item_positions

    def fit_sides(self) -> Tuple[SweepSide, SweepSide]:
        """``(item_side, user_side)`` copies for one fit's sweeps.

        They share every array and workspace store with the plan's sides
        and carry the fit's own :class:`CarriedAffinities`, so the fit's
        first sweep computes its affinities and no other fit — nor a direct
        sweep of the plan's own sides — reads or writes the values its
        sweeps leave.
        """
        carried = CarriedAffinities(self.nnz, self.dtype)
        sides = []
        for side, positions in ((self.item_side, self.item_positions), (self.user_side, None)):
            fit_side = copy.copy(side)
            fit_side.carry = FitCarry(carried, positions)
            sides.append(fit_side)
        return sides[0], sides[1]

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
        # One transposition, of the entries' user-major positions: it yields
        # the item-major structure and the permutation the fit's carried
        # affinities are read through; the values follow by a gather.
        transposed = _transposed_positions(user_major)
        item_major = sp.csr_matrix(
            (user_major.data[transposed.data], transposed.indices, transposed.indptr),
            shape=transposed.shape,
        )
        user_side = SweepSide.build(
            user_major, row_positive_weights=user_weights, dtype=target
        )
        item_side = SweepSide.build(
            item_major, col_positive_weights=user_weights, dtype=target
        )
        plan = cls(user_side=user_side, item_side=item_side)
        plan._item_positions = transposed.data
        return plan

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
