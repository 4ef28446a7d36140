"""Shared-memory process execution: the publication protocol over ``/dev/shm``.

A plain :class:`~repro.parallel.executor.ProcessExecutor` pickles every task's
arguments into the worker — for a sharded sweep that means serialising the
CSR plan and both factor matrices once *per shard per sweep*, which swamps
the kernel time on anything but tiny problems.  The
:class:`SharedMemoryProcessExecutor` removes that cost by composing the
:class:`~repro.parallel.publication.PublicationTable` with a POSIX
shared-memory store: write-once data (the sweep plan's CSR arrays) is copied
into a segment once per fit, per-sweep data (the factor matrices) refreshes
its slot's segment in place, and tasks carry only
:class:`~repro.parallel.publication.SharedArraySpec` descriptors.

This module is also the **worker side of every descriptor**:
:func:`attach_shared_array` maps a segment by name (zero-copy, cached per
worker process) or, for a ``remote`` descriptor, asks the cluster agent's
object cache, which fetches the bytes from the driver once per node — so
worker functions run unchanged on local processes and on remote nodes.

Lifecycle: the executor owns every segment it created and unlinks them all
in :meth:`~SharedMemoryProcessExecutor.shutdown` — after shutdown there are
no leaked ``/dev/shm`` entries, which the test-suite verifies.  Workers only
ever *attach*; their mappings die with the worker processes when the pool is
shut down.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Collection, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.parallel.executor import _PoolExecutor, _resolve_workers
from repro.parallel.publication import PublicationTable, SharedArraySpec, SharedCsrSpec


def _unregister_attachment(segment: shared_memory.SharedMemory) -> None:
    """Undo the resource-tracker registration of an *attaching* process.

    CPython registers a segment with the resource tracker on attach as well
    as on create (bpo-38119); a worker with its *own* tracker (spawn /
    forkserver start methods) would then unlink the segment when it exits,
    destroying it under the owner's feet — so such attachments are
    unregistered.  Forked workers are left alone, on the condition that
    they share the creator's tracker: their attach-registration is then an
    idempotent re-add, and unregistering would strip the creator's own
    entry.  They share it only if it was running when they were forked —
    a worker forked earlier starts a tracker of its own on its first attach,
    which at exit reports every segment the worker ever attached as leaked
    and tries to unlink it — so :class:`SharedMemoryProcessExecutor` starts
    the tracker before it builds its pool.  Python 3.13+ exposes
    ``track=False`` for this; this helper covers the older releases the
    project supports.
    """
    try:
        if multiprocessing.get_start_method() == "fork":
            return
        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


#: Worker-process-local cache of attached segments, keyed by segment name and
#: ordered by recency of use (least recently attached first), so the byte
#: budget of :func:`close_stale_attachments` can evict in LRU order.
#: Attachments are kept open for the worker's lifetime: repeated tasks of one
#: fit hit the same plan segments, and the mappings are released by the OS
#: when the pool's processes exit.
_ATTACHMENTS: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


def _remote_cache():
    """The cluster agent's object cache (late import: cluster imports this module)."""
    from repro.parallel.cluster import node_runtime

    return node_runtime()


def attach_shared_array(spec: SharedArraySpec) -> np.ndarray:
    """Materialise an array descriptor as an ndarray (worker side).

    A shared-memory descriptor is backed directly by its segment — reading
    it is zero-copy.  A ``remote`` descriptor is served from the cluster
    agent's object cache, which fetches the bytes from the driver's store
    the first time the name reaches the node.  Callers must treat the result
    as read-only: it is shared with the publishing process and every sibling
    worker.
    """
    if spec.remote:
        return _remote_cache().fetch(spec)
    segment = _ATTACHMENTS.get(spec.shm_name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=spec.shm_name)
        _unregister_attachment(segment)
        _ATTACHMENTS[spec.shm_name] = segment
    else:
        _ATTACHMENTS.move_to_end(spec.shm_name)
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)


def spec_is_live(spec: SharedArraySpec) -> bool:
    """Whether the publication behind one array descriptor is still live.

    Worker-side caches use this to prune entries whose backing publication
    the driver has retired: a remote name the node was told to evict, or a
    segment that is no longer linked.  On Linux a segment is a file under
    ``/dev/shm``; on hosts without that mount (macOS) a probe attach answers
    the same question — opened and closed immediately, with the attach-side
    resource-tracker registration undone so the probe can never unlink the
    segment at exit.
    """
    if spec.remote:
        return _remote_cache().is_live(spec.shm_name)
    if os.path.isdir("/dev/shm"):
        return os.path.exists(os.path.join("/dev/shm", spec.shm_name))
    try:
        probe = shared_memory.SharedMemory(name=spec.shm_name)
    except FileNotFoundError:
        return False
    _unregister_attachment(probe)
    probe.close()
    return True


def touch_attachments(names: Collection[str]) -> None:
    """Refresh the LRU recency of already-mapped segments (worker side).

    Caches that serve from rebuilt objects (an engine-cache hit) never call
    :func:`attach_shared_array` again, so without this their hottest
    segments would look least-recently-used to the byte budget and be
    evicted first.
    """
    for name in names:
        if name in _ATTACHMENTS:
            _ATTACHMENTS.move_to_end(name)


def attach_shared_csr(spec: SharedCsrSpec) -> sp.csr_matrix:
    """Rebuild a CSR matrix over shared buffers (worker side, zero-copy).

    The arrays are assigned directly — they are already a canonical CSR from
    the publisher, and the constructor's validation pass would copy them out
    of shared memory.  Callers must treat the result as read-only.
    """
    matrix = sp.csr_matrix(spec.shape, dtype=np.dtype(spec.data.dtype))
    matrix.data = attach_shared_array(spec.data)
    matrix.indices = attach_shared_array(spec.indices)
    matrix.indptr = attach_shared_array(spec.indptr)
    return matrix


#: Worker-side caches that hold NumPy views over attached segments register a
#: provider of the segment names they currently reference.  Closing a mapping
#: that a cached object still views is a **use-after-unmap segfault** —
#: ``SharedMemory.close()`` does NOT fail while ndarray views exist — so
#: :func:`close_stale_attachments` may only close names no provider claims.
#: A holder may also register an ``evict`` callback that *drops* the cached
#: objects viewing one segment name; only holders with such a callback can
#: participate in byte-budget eviction (their claim becomes releasable).
_ATTACHMENT_HOLDERS: List[Tuple[Callable[[], Collection[str]], Optional[Callable[[str], None]]]] = []


def register_attachment_holder(
    provider: Callable[[], Collection[str]],
    evict: Optional[Callable[[str], None]] = None,
) -> None:
    """Register a provider of segment names a worker-side cache references.

    ``evict``, when given, is called with a segment name to ask the cache to
    drop every object viewing that segment (after which the provider must no
    longer claim it).  Caches without an ``evict`` callback are simply never
    evicted by the byte budget — their claims are permanent protection.
    """
    _ATTACHMENT_HOLDERS.append((provider, evict))


def _holder_claims() -> set:
    """The union of every registered holder's currently claimed names."""
    claimed = set()
    for provider, _evict in _ATTACHMENT_HOLDERS:
        claimed.update(provider())
    return claimed


def evict_holder_claims(name: str) -> None:
    """Ask every evict-capable holder to drop cached objects viewing ``name``.

    Used when the publisher retires a publication out from under a worker
    (a cluster node told to evict a retired generation): caches built over
    the named descriptor — worker engines, sweep sides — are dropped so the
    next task rebuilds from live publications instead of serving stale data.
    """
    for provider, evict in list(_ATTACHMENT_HOLDERS):
        if evict is None:
            continue
        try:
            if name in set(provider()):
                evict(name)
        except Exception:  # pragma: no cover - a broken holder must not block
            pass


def attached_bytes() -> int:
    """Total size of this process's currently mapped attachments."""
    return sum(segment.size for segment in _ATTACHMENTS.values())


def close_stale_attachments(
    active: Collection[str], max_bytes: Optional[int] = None
) -> int:
    """Close cached attachments outside ``active`` + every holder's claims.

    A long-lived worker that serves successive model generations would
    otherwise keep every old segment mapped forever — the publisher's
    unlink removes the ``/dev/shm`` *name*, not existing mappings.  Only
    run between tasks of the single-threaded worker
    loop: names claimed by a registered holder (cached sweep sides, cached
    engines) are never touched, because closing a mapped view segfaults on
    the next read.  Returns the number of attachments closed.

    ``max_bytes`` additionally bounds the worker's total mapped bytes: while
    the remaining attachments exceed the budget, the least-recently-used
    names outside ``active`` are evicted — holders that registered an
    ``evict`` callback are asked to drop their cached objects first, so a
    worker A/B-serving two model generations keeps the recent one mapped and
    releases the older.  The ``active`` set is never evicted (the current
    task views it), so the budget is best-effort: a single live generation
    larger than ``max_bytes`` stays fully mapped.
    """
    protected = set(active)
    claimed = _holder_claims()
    closed = 0
    for name in list(_ATTACHMENTS):
        if name in protected or name in claimed:
            continue
        if not _close_attachment(name):
            continue
        closed += 1
    if max_bytes is None:
        return closed
    # Budget pass, LRU first: ask evict-capable holders to release their
    # cached objects for a segment, then close it once nothing claims it.
    evicted = False
    for name in list(_ATTACHMENTS):
        if attached_bytes() <= max_bytes:
            break
        if name in protected:
            continue
        for provider, evict in _ATTACHMENT_HOLDERS:
            if evict is not None and name in set(provider()):
                evict(name)
                evicted = True
        if name in _holder_claims():
            continue  # an evict-less holder still views this mapping
        if _close_attachment(name):
            closed += 1
    if evicted:
        # Evicting a cached object (an engine spanning several segments)
        # orphans its sibling mappings; close them now instead of letting
        # them ride until the next stale pass.
        claimed = _holder_claims()
        for name in list(_ATTACHMENTS):
            if name in protected or name in claimed:
                continue
            if _close_attachment(name):
                closed += 1
    return closed


def _close_attachment(name: str) -> bool:
    """Close and forget one cached attachment; False on platform close errors."""
    try:
        _ATTACHMENTS[name].close()
    except Exception:  # pragma: no cover - platform-specific close errors
        return False
    del _ATTACHMENTS[name]
    return True


class _SegmentStore:
    """The POSIX shared-memory store behind a :class:`PublicationTable`."""

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def write(
        self, array: np.ndarray, previous: Optional[SharedArraySpec], pinned: bool
    ) -> SharedArraySpec:
        """Copy ``array`` into ``previous``'s segment when it fits, else a new one."""
        spec = previous
        if spec is None or (spec.shape, spec.dtype) != (array.shape, array.dtype.str):
            # Zero-size arrays (empty matrices) still need a valid segment.
            memory = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
            spec = SharedArraySpec(memory.name, tuple(array.shape), array.dtype.str)
            self._segments[spec.shm_name] = memory
        buffer = self._segments[spec.shm_name].buf
        np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=buffer)[...] = array
        return spec

    def retire(self, specs: List[SharedArraySpec]) -> None:
        """Close and unlink the segments behind ``specs``."""
        for spec in specs:
            memory = self._segments.pop(spec.shm_name)
            try:
                memory.close()
                memory.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class SharedMemoryProcessExecutor(_PoolExecutor):
    """Process-pool executor with shared-memory array publication.

    Behaves exactly like :class:`~repro.parallel.executor.ProcessExecutor`
    for plain ``map``/``starmap`` (tasks and arguments are pickled), and
    additionally lets tasks reference large arrays by :class:`SharedArraySpec`
    instead of by value: ``publish``, ``publish_static`` and ``unpublish``
    are the methods of a :class:`~repro.parallel.publication.PublicationTable`
    over ``/dev/shm``.  A slot keeps its segment (bytes rewritten in place)
    while the published shape and dtype stay the same.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count.
    max_segments:
        Soft cap on concurrently owned segments.  Publishing beyond it
        evicts (unlinks) the least recently used segments, which bounds
        shared-memory usage for callers that never call :meth:`shutdown`
        between unrelated publications.
    """

    def __init__(self, max_workers: Optional[int] = None, max_segments: int = 64) -> None:
        self.max_workers = _resolve_workers(max_workers)
        if max_segments < 1:
            raise ValueError("max_segments must be at least 1")
        self._publications = PublicationTable(_SegmentStore(), max_segments)
        self.publish = self._publications.publish
        self.publish_static = self._publications.publish_static
        self.unpublish = self._publications.unpublish
        #: Names of every segment this executor currently owns (for tests).
        self.active_segment_names = self._publications.names
        # Workers forked before the first segment exists (a warm-up task)
        # must inherit this process's tracker; see _unregister_attachment.
        resource_tracker.ensure_running()
        super().__init__(
            concurrent.futures.ProcessPoolExecutor(max_workers=self.max_workers)
        )

    def shutdown(self) -> None:
        """Drain the worker pool, then unlink every owned segment.

        The pool is shut down first (waiting for in-flight tasks) so a task
        that has not yet attached its descriptors never races a disappearing
        segment; only then are the segments unlinked.  Idempotent, like the
        base executor's shutdown.
        """
        if self.is_shut_down:
            return
        super().shutdown()
        self._publications.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(max_workers={self.max_workers}, "
            f"segments={len(self._publications.names())})"
        )
