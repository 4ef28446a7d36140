"""Pooled scratch arenas for the vectorized projected-gradient sweeps.

PR 8 pooled the *serving* hot path's score blocks; this module pools the
*training* hot path's float blocks.  Profiling the vectorized kernel showed
every sweep rebuilding structure that is constant for a fit — two
``sp.csr_matrix`` constructions (validation included) and the shard-local
entry row index — and churning nnz-sized float temporaries (affinities,
gradient ratios, log terms) and K-wide gathers on every call.

A :class:`SweepWorkspace` owns all of that for one ``(row range, k, dtype)``
shard of one :class:`~repro.core.backends.plan.SweepSide`:

* the **plan-cached sparse operators** — the rebased int64 CSR skeleton
  shared by the fit-constant ``positives`` operator (its data is a view of
  the plan's CSR data, never copied or revalidated again) and the
  ``scatter`` operator, whose data buffer (the per-entry gradient ratios)
  is overwritten in place each sweep;
* every float block the kernel computes in: the three nnz-wide entry
  vectors, the ``(n, k)`` row blocks, the per-row vectors and the Jensen
  bound's fit-constant vectors, so gathers run through ``take(out=)``,
  sparse products through scipy's raw ``csr_matvecs`` kernel into pooled
  blocks, and the gradient / objective / Armijo arithmetic in place.  The
  per-entry factor gathers go through one cache-sized ``(block, k)`` pair
  (:func:`repro.core.objective.entry_affinities`), never an ``(nnz, k)``
  array, so an arena is O(nnz + n*k + block*k) bytes.

The arena holds no boolean and no per-sweep integer array: the line
search's index bookkeeping (the active rows, the rows the bound lets
through, the accepted ones, the entries of the rows it evaluates) is plain
NumPy temporaries, made fresh in each backtrack level.  Besides the
returned factors and row values, a warm sweep therefore allocates per-row
index vectors and, in a level that evaluates a subset of the rows, three
int64 arrays as long as those rows' entries, so its transient memory grows
with nnz, never with nnz*k (``tests/test_training_workspace.py`` bounds a
warm sweep's peak at the returned ``(n, k)`` block plus ``4 * nnz * 8``
bytes).  The arenas themselves are built once per shard and reused, which
the store's stats counters prove and the training benchmark asserts.

A :class:`SweepWorkspaceStore` hangs off every ``SweepSide`` and hands
workspaces out *exclusively* (take/release free list, at most
:data:`MAX_CACHED_WORKSPACES` free arenas per key): concurrent sweeps
over the same cached side — serving threads folding in an identical
cold-start batch — each get their own arena.  The store lives and dies
with the plan, so workspaces survive across the sweeps of a fit but never
leak across fits; it pickles to a fresh empty store, so process-executor
workers (which rebuild sides from shared-memory descriptors) warm their own
worker-local workspaces, mirroring the serving pool's behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.objective import affinity_block_entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backends.plan import SweepSide

__all__ = [
    "SweepWorkspace",
    "SweepWorkspaceStore",
    "WorkspaceStats",
    "csr_matmul_into",
    "csr_row_sums_into",
]

#: Free workspaces a store keeps per ``(row range, k, dtype)`` key.  One is
#: enough for serial training; eight leave headroom for concurrent fold-ins
#: through one cached side.
MAX_CACHED_WORKSPACES = 8

try:  # scipy's raw CSR kernels accept caller-owned output buffers
    from scipy.sparse import _sparsetools as _sparsetools

    _CSR_MATVEC = _sparsetools.csr_matvec
    _CSR_MATVECS = _sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - future scipy
    _CSR_MATVEC = None
    _CSR_MATVECS = None


def csr_matmul_into(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    shape: Tuple[int, int],
    dense: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out <- CSR(indptr, indices, data) @ dense`` without allocating.

    Bit-identical to scipy's ``csr_matrix @ dense``: scipy zero-fills the
    result and hands it to the same ``csr_matvecs`` kernel, which
    accumulates each row's products sequentially in CSR entry order — so
    calling the kernel directly against a pooled, zeroed output reproduces
    the product exactly while skipping the matrix construction, validation,
    and result allocation.
    """
    n_rows, n_cols = shape
    if (
        _CSR_MATVECS is not None
        and dense.flags.c_contiguous
        and out.flags.c_contiguous
        and dense.dtype == data.dtype == out.dtype
    ):
        out[...] = 0
        _CSR_MATVECS(
            n_rows,
            n_cols,
            dense.shape[1],
            indptr,
            indices,
            data,
            dense.reshape(-1),
            out.reshape(-1),
        )
    else:  # pragma: no cover - only without scipy's private kernels
        matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
        out[...] = matrix @ dense
    return out


def csr_row_sums_into(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    shape: Tuple[int, int],
    ones: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Per-row sums of ``data`` through a CSR structure, into ``out``.

    Replaces ``np.bincount(entry_rows, weights=data, minlength=n_rows)`` on
    the hot path: ``csr_matvec`` against a ones vector accumulates each
    row's entries sequentially in the same left-to-right order as
    ``bincount``'s C loop (and ``data[e] * 1.0 == data[e]`` bitwise), so
    float64 results are bit-identical — while float32 data now reduces in
    float32 instead of ``bincount``'s silent float64 upcast (the
    training-dtype consistency rule; see the README's training-performance
    section).
    """
    n_rows, n_cols = shape
    if _CSR_MATVEC is not None and data.dtype == ones.dtype == out.dtype:
        out[...] = 0
        _CSR_MATVEC(n_rows, n_cols, indptr, indices, data, ones, out)
    else:  # pragma: no cover - only without scipy's private kernels
        matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
        out[...] = matrix @ ones
    return out


class SweepWorkspace:
    """Scratch arena for sweeping rows ``[start, stop)`` of one plan side.

    Construction gathers the *fit-constant* operator structure once — the
    rebased int64 CSR pointers/indices, the shard-local entry row ids, views
    of the plan's positive data and entry weights — and allocates every
    float block the vectorized kernel computes in, sized exactly for this
    shard.  After that, sweeps reuse the arena: the only thing that changes
    between sweeps is the bytes written into it.

    Obtain workspaces from a :class:`SweepWorkspaceStore`; they are not
    thread-safe individually (exclusivity is the store's job).
    """

    def __init__(
        self, side: "SweepSide", start: int, stop: int, k: int, dtype
    ) -> None:
        dtype = np.dtype(dtype)
        indptr = side.matrix.indptr
        first, last = int(indptr[start]), int(indptr[stop])
        n = stop - start
        nnz = last - first

        self.start, self.stop = int(start), int(stop)
        #: Offset of the shard's first entry in the side's CSR order.
        self.first = first
        self.n_local, self.nnz_local, self.k = n, nnz, int(k)
        self.n_cols = side.n_cols
        self.dtype = dtype
        #: Set by the store on acquire: ``False`` when served from the free
        #: list — the per-sweep allocations-vs-reuses signal in SweepStats.
        self.fresh = True

        # ---- plan-cached operator structure (constant for the fit) ---- #
        # The rebased int64 CSR skeleton is shared by the ``positives``
        # operator, the ``scatter`` operator, and the per-backtrack sub-CSR
        # of the evaluated rows.  int64 copies once here beat per-call casts
        # inside scipy's kernels.
        row_starts = indptr[start : stop + 1].astype(np.int64)
        row_starts -= first
        self.row_starts = row_starts
        self.indices = side.matrix.indices[first:last].astype(np.int64)
        entry_rows = side.row_index[first:last].astype(np.int64)
        entry_rows -= start
        self.entry_rows = entry_rows
        # Views (no copies) into the side's arrays: the fit-constant data of
        # the ``positives`` operator and the per-entry R-OCuLaR weights.
        self.positives_data = side.matrix.data[first:last]
        self.entry_weights = (
            None if side.entry_weights is None else side.entry_weights[first:last]
        )
        self.ones_cols = np.ones(side.n_cols, dtype=dtype)
        # The Jensen bound of the line search (``vectorized`` module
        # docstring) needs ``P / W`` per row, ``P = sum_e w_e h_e`` and
        # ``W = sum_e w_e``.  On a plain binary side ``P`` is the
        # ``positives`` product the sweep computes anyway and ``W`` the entry
        # count; otherwise ``P`` runs through its own weights (the R-OCuLaR
        # entry weights, or ones when the plan data is not all ones).
        counts = np.diff(row_starts)
        if self.entry_weights is not None:
            self.jensen_weights = self.entry_weights
        elif np.all(self.positives_data == 1):
            self.jensen_weights = None
        else:
            self.jensen_weights = np.ones(nnz, dtype=dtype)
        mass = counts.astype(dtype)
        if self.entry_weights is not None:
            csr_row_sums_into(
                row_starts, self.indices, self.entry_weights, (n, self.n_cols),
                self.ones_cols, mass,
            )  # fmt: skip
        # The divisor is negated (the bound needs ``-x``); a row without
        # weight divides by -1, so its ``-P/W`` is 0 and its bound 0.
        self.jensen_div = -np.where(mass > 0, mass, 1).astype(dtype)
        # The relative rounding slack s = 2 (n_r + K + 8) eps; past 1/8 the
        # first-order error analysis stops holding, and s = 1 turns the
        # row's bound off.  The bound is
        # W f (1 - s) - W s = log(1 - e^-x) * jensen_scale - jensen_offset.
        slack = 2.0 * (counts + k + 8) * np.finfo(dtype).eps
        slack = np.where(slack <= 0.125, slack, 1.0)
        self.jensen_scale = (-(mass * (1.0 - slack))).astype(dtype)
        self.jensen_offset = (mass * slack).astype(dtype)

        # ---- per-entry scratch ---- #
        self.entry_a = np.empty(nnz, dtype=dtype)  # affinities -> log terms
        self.entry_b = np.empty(nnz, dtype=dtype)  # ratios == scatter data
        self.entry_c = np.empty(nnz, dtype=dtype)  # expm1 scratch, candidate logs
        # The one (block, k) pair every entry-affinity pass gathers through.
        block = min(nnz, affinity_block_entries(k, dtype))
        self.gather_rows = np.empty((block, k), dtype=dtype)
        self.gather_cols = np.empty((block, k), dtype=dtype)

        # ---- per-row (n, k) blocks ---- #
        self.grad_rows = np.empty((n, k), dtype=dtype)
        self.unknown_rows = np.empty((n, k), dtype=dtype)
        self.scratch_rows = np.empty((n, k), dtype=dtype)
        self.lf_rows = np.empty((n, k), dtype=dtype)
        self.cand_rows = np.empty((n, k), dtype=dtype)
        self.diff_rows = np.empty((n, k), dtype=dtype)
        self.grad_gather = np.empty((n, k), dtype=dtype)
        self.jensen_means = np.empty((n, k), dtype=dtype)  # -P / W of every row

        # ---- per-row vectors ---- #
        self.current_values = np.empty(n, dtype=dtype)
        self.candidate_values = np.empty(n, dtype=dtype)
        self.armijo_rhs = np.empty(n, dtype=dtype)
        self.row_tmp = np.empty(n, dtype=dtype)
        self.tail_unknown = np.empty(n, dtype=dtype)  # <cand, unknown sums>
        self.tail_penalty = np.empty(n, dtype=dtype)  # lambda * ||cand||^2
        self.tail_positive = np.empty(n, dtype=dtype)  # Jensen bound of pos

        owned = (
            self.row_starts, self.indices, self.entry_rows, self.ones_cols,
            self.entry_a, self.entry_b, self.entry_c,
            self.gather_rows, self.gather_cols,
            self.grad_rows, self.unknown_rows, self.scratch_rows,
            self.lf_rows, self.cand_rows, self.diff_rows, self.grad_gather,
            self.jensen_means, self.jensen_div, self.jensen_scale, self.jensen_offset,
            self.current_values, self.candidate_values, self.armijo_rhs,
            self.row_tmp, self.tail_unknown, self.tail_penalty, self.tail_positive,
        )  # fmt: skip
        #: Total scratch bytes this arena owns (views of plan arrays excluded).
        self.nbytes = int(sum(array.nbytes for array in owned))
        if self.jensen_weights is not None and self.entry_weights is None:
            self.nbytes += self.jensen_weights.nbytes

    @property
    def local_shape(self) -> Tuple[int, int]:
        """Shape of the shard-local sparse operators."""
        return (self.n_local, self.n_cols)

    def scatter_matmul(self, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The ``scatter`` operator: per-entry ratios (``entry_b``) ``@ dense``.

        The operator's data buffer is overwritten in place each sweep; its
        structure is the cached plan skeleton, so no scipy matrix is ever
        rebuilt or revalidated.
        """
        return csr_matmul_into(
            self.row_starts, self.indices, self.entry_b, self.local_shape, dense, out
        )

    def positives_matmul(self, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The fit-constant ``positives`` operator: plan data ``@ dense``."""
        return csr_matmul_into(
            self.row_starts,
            self.indices,
            self.positives_data,
            self.local_shape,
            dense,
            out,
        )

    def fill_jensen_means(self, dense: np.ndarray) -> np.ndarray:
        """``-P / W`` of every row, ``P = sum_e w_e dense[c_e]``, in place.

        Call after :meth:`positives_matmul` wrote into ``jensen_means``: on
        a plain binary side that product already is ``P``.
        """
        means = self.jensen_means
        if self.jensen_weights is not None:
            csr_matmul_into(
                self.row_starts,
                self.indices,
                self.jensen_weights,
                self.local_shape,
                dense,
                means,
            )
        return np.divide(means, self.jensen_div[:, np.newaxis], out=means)


@dataclass(frozen=True)
class WorkspaceStats:
    """Counters of one :class:`SweepWorkspaceStore`.

    ``allocations`` staying flat across sweeps while ``reuses`` grows is the
    arena reuse the training hot path claims; the benchmark suite asserts
    it, mirroring PR 8's serving pool stats.
    """

    allocations: int
    reuses: int
    outstanding: int
    cached: int
    bytes_in_use: int
    peak_bytes: int


class SweepWorkspaceStore:
    """Lock-guarded free list of sweep workspaces, keyed by range, k, dtype.

    One store hangs off every :class:`~repro.core.backends.plan.SweepSide`
    (see its ``workspaces`` field), so workspace lifetime tracks plan
    lifetime exactly: sweeps of one fit reuse them, the fit's end drops
    them, and nothing leaks into the next fit.  ``acquire`` hands a
    workspace out *exclusively* — concurrent sweeps over the same side and
    row range (two serving threads folding in one cached batch) each build
    or reuse their own arena.  At most :data:`MAX_CACHED_WORKSPACES`
    free workspaces are kept per key; extras are dropped to the allocator so
    a long-lived side cannot hoard scratch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[Tuple[int, int, int, str], List[SweepWorkspace]] = {}
        self._allocations = 0
        self._reuses = 0
        self._outstanding = 0
        self._bytes_in_use = 0
        self._peak_bytes = 0

    def acquire(
        self, side: "SweepSide", start: int, stop: int, k: int, dtype
    ) -> SweepWorkspace:
        """An exclusive workspace for ``[start, stop)`` at ``(k, dtype)``.

        Served from the free list when a matching arena exists; built from
        the side otherwise (construction happens outside the lock).
        """
        key = (int(start), int(stop), int(k), np.dtype(dtype).str)
        with self._lock:
            cached = self._free.get(key)
            if cached:
                workspace = cached.pop()
                self._reuses += 1
                self._outstanding += 1
                workspace.fresh = False
                return workspace
        workspace = SweepWorkspace(side, start, stop, k, dtype)
        with self._lock:
            self._allocations += 1
            self._outstanding += 1
            self._bytes_in_use += workspace.nbytes
            self._peak_bytes = max(self._peak_bytes, self._bytes_in_use)
        workspace.fresh = True
        return workspace

    def release(self, workspace: SweepWorkspace) -> None:
        """Return a workspace obtained from :meth:`acquire` to the free list."""
        key = (workspace.start, workspace.stop, workspace.k, workspace.dtype.str)
        with self._lock:
            self._outstanding = max(0, self._outstanding - 1)
            cached = self._free.setdefault(key, [])
            cached.append(workspace)
            if len(cached) > MAX_CACHED_WORKSPACES:
                dropped = cached.pop(0)
                self._bytes_in_use -= dropped.nbytes

    def stats(self) -> WorkspaceStats:
        """A consistent snapshot of the store's counters."""
        with self._lock:
            return WorkspaceStats(
                allocations=self._allocations,
                reuses=self._reuses,
                outstanding=self._outstanding,
                cached=sum(len(cached) for cached in self._free.values()),
                bytes_in_use=self._bytes_in_use,
                peak_bytes=self._peak_bytes,
            )

    def clear(self) -> None:
        """Drop every cached workspace (counters are preserved)."""
        with self._lock:
            for cached in self._free.values():
                for workspace in cached:
                    self._bytes_in_use -= workspace.nbytes
            self._free.clear()

    def __reduce__(self):
        # Plan sides travel to process-pool workers (and through model
        # pickles); scratch arenas and lock state do not — every process
        # warms its own worker-local workspaces, like the serving pool.
        return (type(self), ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snapshot = self.stats()
        return (
            f"SweepWorkspaceStore(allocations={snapshot.allocations}, "
            f"reuses={snapshot.reuses}, cached={snapshot.cached})"
        )
