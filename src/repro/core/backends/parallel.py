"""Sharded parallel backend: row shards of one sweep fanned across workers.

The paper's central scalability argument (Sections IV/VI) is that every row
subproblem of a block sweep is independent, so a sweep parallelises across
cores with near-linear scaling.  This backend realises that claim on the
CPU: a sweep over rows ``[0, n)`` is split into nnz-balanced contiguous
shards (:func:`~repro.core.backends.plan.nnz_balanced_ranges`), each shard
runs the vectorized kernel over its row range, and the shards execute
concurrently on an executor selected by name from the
:class:`~repro.parallel.scheduler.ShardScheduler` registry:

* ``"thread"`` (default) — NumPy and BLAS release the GIL inside their
  kernels, so threads give real concurrency with zero serialisation cost.
* ``"process"`` — a
  :class:`~repro.parallel.shared_memory.SharedMemoryProcessExecutor`.  The
  plan's CSR arrays are placed in shared memory once per fit and the factor
  matrices once per sweep; tasks carry only ``(row_range, shm descriptors)``,
  so worker processes sidestep the GIL entirely without per-task pickling of
  large arrays.
* ``"serial"`` — shards run inline; useful in tests and as the baseline.

Determinism: the factors are **bit-identical** to a single-threaded
:class:`~repro.core.backends.vectorized.VectorizedBackend` sweep regardless
of executor, shard count, or the order in which shards finish.  Two
properties guarantee it:

* every vectorized kernel is row-local and accumulates row reductions in
  CSR entry order, so a shard computes exactly the row-slice of the full
  sweep's result, and
* shard results are stitched in shard (submission) order, never completion
  order, and the shard boundaries are a pure function of the plan.

Workspace locality: each shard's pooled scratch arena lives on the plan
side's :class:`~repro.core.backends.workspace.SweepWorkspaceStore`, keyed by
row range — so under threads the shards of one sweep draw disjoint arenas
from one store, and under the process executor each worker's cached
attached side (the worker cache of :mod:`repro.parallel.shared_memory`)
carries its own store (stores pickle to empty), making workspaces
worker-local exactly like the serving pool's buffers.  Reuse across the
sweeps of a fit is preserved in both cases because shard boundaries are
deterministic per plan.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.backends.base import Backend, SweepStats
from repro.core.backends.plan import SweepSide
from repro.core.backends.vectorized import VectorizedBackend
from repro.exceptions import ConfigurationError
from repro.parallel.publication import (
    PublishedKeys,
    SharedArraySpec,
    SharedCsrSpec,
    supports_publication,
)
from repro.parallel.scheduler import ShardScheduler
from repro.parallel.shared_memory import (
    attach_shared_array,
    attach_shared_csr,
    cached_attach,
)
from repro.utils.validation import check_positive_int


# --------------------------------------------------------------------------- #
# Shared-memory shard execution (worker side)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedSideSpec:
    """Shared-memory descriptors of one :class:`SweepSide` (picklable).

    Composes the system-wide :class:`SharedCsrSpec` for the matrix, plus the
    side's per-entry arrays.
    """

    csr: SharedCsrSpec
    row_index: SharedArraySpec
    entry_weights: Optional[SharedArraySpec]

    def array_specs(self) -> List[SharedArraySpec]:
        """Every array descriptor the rebuilt side views."""
        extra = [] if self.entry_weights is None else [self.entry_weights]
        return [*self.csr.array_specs(), self.row_index, *extra]


#: How many sweep sides one worker keeps rebuilt: two per fit, so fits that
#: share one warm pool do not thrash.
MAX_CACHED_SIDES = 8


def _build_side(spec: SharedSideSpec) -> SweepSide:
    return SweepSide(
        matrix=attach_shared_csr(spec.csr),
        row_index=attach_shared_array(spec.row_index),
        entry_weights=(
            None if spec.entry_weights is None else attach_shared_array(spec.entry_weights)
        ),
    )


def _attach_side(spec: SharedSideSpec) -> SweepSide:
    """Rebuild a :class:`SweepSide` over shared-memory buffers (worker side).

    The plan of a fit is static, so every shard task of every sweep presents
    the same descriptors and the side is rebuilt once per worker; the first
    task of a new fit drops the sides of plans the publisher has released.
    """
    return cached_attach(spec, _build_side, MAX_CACHED_SIDES)


def _sweep_shard_shared(
    side_spec: SharedSideSpec,
    row_spec: SharedArraySpec,
    col_spec: SharedArraySpec,
    regularization: float,
    start: int,
    stop: int,
    total_col_sum: np.ndarray,
) -> Tuple[np.ndarray, SweepStats]:
    """Run one row shard of a sweep from shared-memory descriptors.

    Module-level so the process pool can pickle it; everything large arrives
    as a descriptor and is attached zero-copy inside the worker.
    """
    plan = _attach_side(side_spec)
    row_factors = attach_shared_array(row_spec)
    col_factors = attach_shared_array(col_spec)
    return VectorizedBackend()._sweep_rows(
        plan,
        row_factors,
        col_factors,
        regularization,
        start,
        stop,
        total_col_sum,
    )


class ParallelBackend(Backend):
    """Sharded sweeps with vectorized kernels per shard.

    Parameters
    ----------
    n_workers:
        Size of the worker pool (default: the machine's CPU count).
    n_shards:
        Number of row shards per sweep (default: ``n_workers``).  More shards
        than workers gives finer-grained load balancing at slightly higher
        scheduling overhead; the factors are identical either way.
    executor:
        Name from the :mod:`repro.parallel.scheduler` registry — ``"thread"``
        (default), ``"process"`` (shared-memory worker processes), or
        ``"serial"`` — or a prebuilt executor instance (the caller then owns
        its lifecycle; :meth:`shutdown` will not touch it).
    """

    name = "parallel"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        n_shards: Optional[int] = None,
        executor: object = "thread",
    ) -> None:
        if n_workers is not None and not isinstance(executor, str):
            raise ConfigurationError(
                "n_workers cannot be combined with an executor instance (the "
                "instance's own pool size would silently win); size the "
                "instance at construction time and pass n_shards here instead"
            )
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        self.n_workers = check_positive_int(n_workers, "n_workers")
        if n_shards is None:
            n_shards = self.n_workers
        self.n_shards = check_positive_int(n_shards, "n_shards")
        self.executor = executor
        self._inner = VectorizedBackend()
        self._scheduler = ShardScheduler(
            executor, max_workers=self.n_workers if isinstance(executor, str) else None
        )
        # What this backend published on a publishing executor, so a
        # backend borrowing someone else's executor (e.g. the runtime's warm
        # pool) can remove exactly its own footprint on shutdown.  Bound to
        # the executor on the first descriptor sweep.
        self._published: Optional[PublishedKeys] = None
        # Shared-memory sweeps publish into slots keyed by (name, shape,
        # dtype): two concurrent sweeps through one backend (two fits that
        # borrow the runtime's warm backend) would overwrite each other's
        # factor bytes mid-task.  The lock serialises publish+dispatch of
        # the shared-memory path; the thread/serial paths pass arrays by
        # reference and need no serialisation.
        self._sweep_lock = threading.Lock()

    def _sweep_rows(
        self,
        plan: SweepSide,
        row_factors: np.ndarray,
        col_factors: np.ndarray,
        regularization: float,
        start: int,
        stop: int,
        total_col_sum: np.ndarray,
    ) -> Tuple[np.ndarray, SweepStats]:
        shards = plan.shard_ranges(self.n_shards, (start, stop))
        if len(shards) <= 1:
            return self._inner._sweep_rows(
                plan,
                row_factors,
                col_factors,
                regularization,
                start,
                stop,
                total_col_sum,
            )
        executor = self._scheduler.executor
        if supports_publication(executor):
            with self._sweep_lock:
                if self._published is None:
                    self._published = PublishedKeys(executor)
                published = self._published
                # Every plan array is static, so re-presenting the same plan
                # side on later sweeps returns the existing descriptors
                # without copying (copy-once per fit).
                side_spec = SharedSideSpec(
                    csr=published.static_csr(plan.matrix),
                    row_index=published.static(plan.row_index),
                    entry_weights=(
                        None
                        if plan.entry_weights is None
                        else published.static(plan.entry_weights)
                    ),
                )
                row_spec = published.slot(
                    ("row_factors", row_factors.shape, row_factors.dtype.str),
                    row_factors,
                )
                col_spec = published.slot(
                    ("col_factors", col_factors.shape, col_factors.dtype.str),
                    col_factors,
                )
                tasks = [
                    (side_spec, row_spec, col_spec, regularization, *shard, total_col_sum)
                    for shard in shards
                ]
                # starmap returns results in submission (= shard) order, so
                # stitching is deterministic no matter which shard finishes
                # first.  Dispatch stays under the lock: the slots must not
                # be refreshed by another sweep while workers read them.
                results = executor.starmap(_sweep_shard_shared, tasks)
        else:
            tasks = [
                (plan, row_factors, col_factors, regularization, *shard, total_col_sum)
                for shard in shards
            ]
            results = executor.starmap(self._inner._sweep_rows, tasks)
        factors = np.concatenate([shard_factors for shard_factors, _ in results], axis=0)
        stats = SweepStats.combined(shard_stats for _, shard_stats in results)
        return factors, stats

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def release_published(self) -> None:
        """Unpublish every segment this backend placed on the executor.

        Scoped to the backend's own keys — never executor-wide — so a
        backend sharing a warm executor with serving publications removes
        only its plan arrays and factor slots.  Taken under the sweep lock:
        an in-flight sweep's workers keep their segments until the sweep
        completes, and the next sweep simply republishes.  Long-lived
        holders (the runtime) call this between fits so dead plans do not
        ride the executor's LRU.
        """
        with self._sweep_lock:
            if self._published is not None:
                self._published.release()
                self._published = None

    def shutdown(self) -> None:
        """Release what this backend holds (a later sweep recreates it all).

        An *owned* (name-configured) executor is torn down with everything
        it contains.  A *borrowed* executor is left running — but the
        segments this backend published on it (plan arrays, factor slots)
        are unpublished first, so the borrower's footprint disappears while
        the owner's pool and other publications survive.
        """
        self.release_published()
        self._scheduler.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_workers={self.n_workers}, "
            f"n_shards={self.n_shards}, "
            f"executor={self._scheduler.executor_name!r})"
        )
