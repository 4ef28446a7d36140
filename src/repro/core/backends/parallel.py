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
  plan's CSR arrays are placed in shared memory once per training matrix
  and the factor matrices once per sweep; tasks carry only ``(row_range,
  shm descriptors)``, so worker processes sidestep the GIL entirely without
  per-task pickling of large arrays.  The backend keeps the plan of its last
  fit (:meth:`ParallelBackend._fit_sides`): the next fit on an equal matrix
  builds, publishes and attaches nothing new, and a fit on another matrix,
  or :meth:`~ParallelBackend.shutdown`, unpublishes it.  A fit's carried
  affinities (:mod:`repro.core.backends.plan`) are one more segment, the
  only one workers write, each shard its own entries; it goes, with the
  fit's factor slots, when the fit ends.  A cluster node would write a
  fetched copy, so sweeps on the ``"cluster"`` executor compute their start
  affinities instead.
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
deterministic per plan.  A worker keeps its attached sides between the
fits on one matrix, but their arenas only until it runs a task of another
kind (:meth:`SharedSideSpec.free_scratch`), and a fit's end drops the free
arenas in the driver.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.backends.base import Backend, SweepStats
from repro.core.backends.plan import IN_PROCESS, CarriedAffinities, SweepPlan, SweepSide
from repro.core.backends.vectorized import VectorizedBackend
from repro.exceptions import ConfigurationError
from repro.parallel.executor import SerialExecutor, ThreadExecutor
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
    close_retired_attachments,
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

    @staticmethod
    def free_scratch(side: SweepSide) -> None:
        """Drop a rebuilt side's free training arenas.

        A worker does this when it next runs a task of another kind
        (:func:`cached_attach`), so the arenas a side keeps between the fits
        on one matrix never sit beside serving memory.
        """
        side.workspaces.clear()

    def array_specs(self) -> List[SharedArraySpec]:
        """Every array descriptor the rebuilt side views."""
        extra = [] if self.entry_weights is None else [self.entry_weights]
        return [*self.csr.array_specs(), self.row_index, *extra]


#: How many sweep sides one worker keeps rebuilt: two per training matrix,
#: so backends that share one warm pool across matrices do not thrash.
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

    A plan is static, so every shard task of every sweep of every fit on one
    matrix presents the same descriptors and the side is rebuilt once per
    worker (until the worker serves); the first task of a new plan drops
    the sides of plans the publisher has released.
    """
    return cached_attach(spec, _build_side, MAX_CACHED_SIDES)


class _KeptPlan:
    """The plan of a backend's last fit and the matrix it was built from.

    The matrix is a private copy, so a caller editing a fitted matrix (or
    its user weights) in place cannot reach the kept plan.
    """

    def __init__(self, matrix, user_weights: Optional[np.ndarray], dtype) -> None:
        self.matrix = matrix.copy()
        self.weights = None if user_weights is None else np.array(user_weights, copy=True)
        self.dtype = np.dtype(dtype)
        self.plan = SweepPlan.build(self.matrix, user_weights=self.weights, dtype=self.dtype)

    def matches(self, matrix, user_weights: Optional[np.ndarray], dtype) -> bool:
        """Whether a fit of ``matrix`` sweeps this plan.

        A trainer's matrix is binary, so its shape, ``indptr`` and
        ``indices`` are all of it.
        """
        mine = self.matrix
        if user_weights is None or self.weights is None:
            weights_match = user_weights is None and self.weights is None
        else:
            weights_match = np.array_equal(user_weights, self.weights)
        return (
            weights_match
            and np.dtype(dtype) == self.dtype
            and matrix.shape == mine.shape
            and np.array_equal(matrix.indptr, mine.indptr)
            and np.array_equal(matrix.indices, mine.indices)
        )

    def holds(self, side: SweepSide) -> bool:
        """Whether ``side`` (a fit's copy) is one of this plan's sides."""
        plan = self.plan
        return side.row_index is plan.item_side.row_index or side.row_index is plan.user_side.row_index


#: A sweep's carried affinities as shard tasks see them: ``(values,
#: positions, read)`` descriptors (see :class:`~repro.core.backends.plan.FitCarry`).
CarriedSpecs = Tuple[SharedArraySpec, Optional[SharedArraySpec], bool]


def _sweep_shard_shared(
    side_spec: SharedSideSpec,
    row_spec: SharedArraySpec,
    col_spec: SharedArraySpec,
    regularization: float,
    start: int,
    stop: int,
    total_col_sum: np.ndarray,
    carried: Optional[CarriedSpecs] = None,
) -> Tuple[np.ndarray, SweepStats]:
    """Run one row shard of a sweep from shared-memory descriptors.

    Module-level so the process pool can pickle it; everything large arrives
    as a descriptor and is attached zero-copy inside the worker.  The
    carried affinities are the one publication a worker writes: each shard
    only its own entries.
    """
    plan = _attach_side(side_spec)
    close_retired_attachments()  # an ended fit's slots and carried values
    row_factors = attach_shared_array(row_spec)
    col_factors = attach_shared_array(col_spec)
    if carried is not None:
        values, positions, read = carried
        carried = (
            attach_shared_array(values),
            None if positions is None else attach_shared_array(positions),
            read,
        )
    return VectorizedBackend()._sweep_range(
        plan,
        row_factors,
        col_factors,
        regularization,
        start,
        stop,
        total_col_sum,
        carried,
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
        # reference and need no serialisation.  It also guards the kept
        # plan and the running fits' own publications.
        self._sweep_lock = threading.Lock()
        self._plan: Optional[_KeptPlan] = None
        # What each running fit published for itself — its factor slots,
        # carried affinities, and its plan's arrays once that plan is no
        # longer the kept one — by the fit's carried affinities; ``None``
        # until its first publication.
        self._fit_keys: Dict[CarriedAffinities, Optional[PublishedKeys]] = {}

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
        carry = plan.carry
        executor = self._scheduler.executor
        if supports_publication(executor):
            with self._sweep_lock:
                if self._published is None:
                    self._published = PublishedKeys(executor)
                # The kept plan's arrays stay published across fits; a fit's
                # factor slots and carried affinities, and the arrays of a
                # plan no longer kept, go when the fit ends.
                published = statics = self._published
                if carry is not None and carry.carried in self._fit_keys:
                    published = self._fit_keys[carry.carried]
                    if published is None:
                        published = self._fit_keys[carry.carried] = PublishedKeys(executor)
                    if self._plan is None or not self._plan.holds(plan):
                        statics = published
                # Every plan array is static, so re-presenting the same plan
                # side on later sweeps returns the existing descriptors
                # without copying (copy-once per plan).
                side_spec = SharedSideSpec(
                    csr=statics.static_csr(plan.matrix),
                    row_index=statics.static(plan.row_index),
                    entry_weights=(
                        None
                        if plan.entry_weights is None
                        else statics.static(plan.entry_weights)
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
                # The workers write the fit's carried affinities into a
                # segment of their own, whose name is where they live (a
                # segment evicted and republished is a new place).  A cluster
                # node writes a fetched copy the driver never sees, so sweeps
                # there compute them.
                carried = place = None
                if carry is not None and side_spec.row_index.remote:
                    carry.drop()
                elif carry is not None:
                    values = published.static(carry.values)
                    positions = (
                        None if carry.positions is None else statics.static(carry.positions)
                    )
                    place = values.shm_name
                with nullcontext() if place is None else carry.sweep(place) as read:
                    if read is not None:
                        carried = (values, positions, read)
                    tasks = [
                        (side_spec, row_spec, col_spec, regularization, *shard,
                         total_col_sum, carried)
                        for shard in shards
                    ]  # fmt: skip
                    # starmap returns results in submission (= shard) order,
                    # so stitching is deterministic no matter which shard
                    # finishes first.  Dispatch stays under the lock: the
                    # slots must not be refreshed by another sweep while
                    # workers read them.
                    results = executor.starmap(_sweep_shard_shared, tasks)
        else:
            # Serial and thread shards share this process's carried values;
            # an executor that pickles its tasks would write copies.
            shares = isinstance(executor, (SerialExecutor, ThreadExecutor))
            if carry is not None and not shares:
                carry.drop()
            with carry.sweep(IN_PROCESS) if carry is not None and shares else nullcontext() as read:
                carried = None if read is None else (carry.values, carry.positions, read)
                tasks = [
                    (plan, row_factors, col_factors, regularization, *shard,
                     total_col_sum, carried)
                    for shard in shards
                ]  # fmt: skip
                results = executor.starmap(self._inner._sweep_range, tasks)
        factors = np.concatenate([shard_factors for shard_factors, _ in results], axis=0)
        stats = SweepStats.combined(shard_stats for _, shard_stats in results)
        return factors, stats

    # ------------------------------------------------------------------ #
    # Plan and pool lifecycle
    # ------------------------------------------------------------------ #
    @contextmanager
    def _fit_sides(
        self, matrix, user_weights: Optional[np.ndarray], dtype
    ) -> Iterator[Tuple[SweepSide, SweepSide]]:
        """One fit's sides of the plan this backend keeps for ``matrix``.

        The backend keeps the plan of its last fit — what it published of it
        and the sides its workers attached too — for the next fit on an
        equal matrix: the same shape and positives, equal user weights and
        the same dtype.  A fit on another matrix unpublishes the kept plan
        first; a fit still sweeping it republishes what it needs as its own.
        When a fit ends, what it published for itself goes (its factor
        slots, carried affinities, an unkept plan's arrays), and so do the
        free sweep arenas it left in this process.
        """
        with self._sweep_lock:
            kept = self._plan
        if kept is None or not kept.matches(matrix, user_weights, dtype):
            kept = _KeptPlan(matrix, user_weights, dtype)
            with self._sweep_lock:
                self._release_kept()
                self._plan = kept
        item_side, user_side = kept.plan.fit_sides()
        carried = item_side.carry.carried
        with self._sweep_lock:
            self._fit_keys[carried] = None
        try:
            yield item_side, user_side
        finally:
            with self._sweep_lock:
                own = self._fit_keys.pop(carried)
                if own is not None:
                    own.release()
            for side in (item_side, user_side):
                side.workspaces.clear()

    def _release_kept(self) -> None:
        """Forget the kept plan and unpublish what is not a running fit's own.

        Sweep lock held.  Scoped to the backend's own keys — never
        executor-wide — so a backend sharing a warm executor with serving
        publications removes only its plan arrays (and whatever direct
        sweeps published).
        """
        self._plan = None
        if self._published is not None:
            self._published.release()
            self._published = None

    def release_published(self) -> None:
        """Unpublish every segment this backend placed on the executor.

        Its kept plan's arrays and every running fit's own publications;
        taken under the sweep lock, so an in-flight sweep's workers keep
        their segments until it completes, and a running fit's next sweep
        republishes (and computes its start affinities).
        """
        with self._sweep_lock:
            self._release_kept()
            for carried, own in self._fit_keys.items():
                if own is not None:
                    own.release()
                    self._fit_keys[carried] = None

    def shutdown(self) -> None:
        """Release what this backend holds (a later sweep recreates it all).

        An *owned* (name-configured) executor is torn down with everything
        it contains.  A *borrowed* executor is left running — but the
        segments this backend published on it (its kept plan's arrays, and
        a running fit's carried affinities and factor slots) are
        unpublished first, so the borrower's footprint disappears while the
        owner's pool and other publications survive.
        """
        self.release_published()
        self._scheduler.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_workers={self.n_workers}, "
            f"n_shards={self.n_shards}, "
            f"executor={self._scheduler.executor_name!r})"
        )
