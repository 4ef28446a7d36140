"""Shared-memory process execution: the publication protocol over ``/dev/shm``.

A plain process pool pickles every task's arguments into the worker — for a
sharded sweep that means serialising the CSR plan and both factor matrices
once *per shard per sweep*, which swamps the kernel time on anything but
tiny problems.  The :class:`SharedMemoryProcessExecutor` removes that cost
by composing the
:class:`~repro.parallel.publication.PublicationTable` with a POSIX
shared-memory store: write-once data (the sweep plan's CSR arrays) is copied
into a segment once per fit, per-sweep data (the factor matrices) refreshes
its slot's segment in place, and tasks carry only
:class:`~repro.parallel.publication.SharedArraySpec` descriptors.

This module is also the **worker side of every descriptor**:
:func:`attach_shared_array` maps a segment by name (zero-copy, one mapping
per worker process) or, for a ``remote`` descriptor, asks the cluster
agent's object cache, which fetches the bytes from the driver once per node
— so worker functions run unchanged on local processes and on remote nodes.
What workers rebuild over descriptors (serving engines, sweep sides) lives
in one spec-keyed cache, :func:`cached_attach`, which also decides when a
mapping may close: once no cached entry views it.

Lifecycle: the executor owns every segment it created and unlinks them all
in :meth:`~SharedMemoryProcessExecutor.shutdown` — after shutdown there are
no leaked ``/dev/shm`` entries, which the test-suite verifies.  Workers only
ever *attach*; a cache miss drops the entries whose publications the
publisher has retired and closes their mappings, and whatever is left dies
with the worker processes when the pool is shut down.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Collection, Dict, List, Optional

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


#: Worker-process-local mappings of attached segments, keyed by segment name.
#: The publisher's unlink removes a ``/dev/shm`` name, not existing mappings,
#: so :func:`cached_attach` closes the mappings no cached entry views.
_ATTACHMENTS: Dict[str, shared_memory.SharedMemory] = {}


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
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)


def spec_is_live(spec: SharedArraySpec) -> bool:
    """Whether the publication behind one array descriptor is still live.

    The worker cache uses this to drop entries whose backing publication
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


#: Worker-process-local cache of objects rebuilt over attached descriptors —
#: serving engines and sweep sides — keyed by their spec (whose
#: ``array_specs()`` are the publications the object views), least recently
#: used first.  Closing a mapping a cached object still views is a
#: **use-after-unmap segfault** — ``SharedMemory.close()`` does NOT fail while
#: ndarray views exist — so a mapping is closed only once no entry views it.
_CACHE: "OrderedDict[Any, Any]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def cached_attach(spec: Any, build: Callable[[Any], Any], limit: int) -> Any:
    """The object ``build(spec)`` rebuilt in this worker, cached per spec.

    A hit is a dict lookup.  A miss marks a new publication reaching the
    worker: entries viewing a publication the publisher has retired are
    dropped (:func:`spec_is_live`), then the least recently used entries of
    ``spec``'s kind (its type) beyond ``limit`` — one kind never evicts
    another — then the new entry is built and every mapping no entry views
    is closed.  So a worker's mapped memory tracks the live publications,
    not every publication it ever served.  Closing is safe only because the
    worker loop is single-threaded: no task holds a view across this call.
    """
    with _CACHE_LOCK:
        value = _CACHE.get(spec)
        if value is not None:
            _CACHE.move_to_end(spec)
            return value
        for key in list(_CACHE):
            if not all(spec_is_live(array) for array in key.array_specs()):
                del _CACHE[key]
        same_kind = [key for key in _CACHE if type(key) is type(spec)]
        for key in same_kind[: max(len(same_kind) + 1 - limit, 0)]:
            del _CACHE[key]
        value = _CACHE[spec] = build(spec)
        viewed = {array.shm_name for key in _CACHE for array in key.array_specs()}
        for name in [name for name in _ATTACHMENTS if name not in viewed]:
            _close_attachment(name)
    return value


def drop_cached(names: Collection[str]) -> None:
    """Drop every cached entry that views one of the publications ``names``.

    A cluster node calls this when the driver retires publications, so the
    next task rebuilds from live ones instead of serving stale data.  It
    closes no mapping: a node's arrays are fetched copies.
    """
    names = set(names)
    with _CACHE_LOCK:
        for key in list(_CACHE):
            if names.intersection(array.shm_name for array in key.array_specs()):
                del _CACHE[key]


def _close_attachment(name: str) -> None:
    """Close and forget one mapping; kept on platform close errors."""
    try:
        _ATTACHMENTS[name].close()
    except Exception:  # pragma: no cover - platform-specific close errors
        return
    del _ATTACHMENTS[name]


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

    Behaves like a plain process pool for ``map``/``starmap`` (tasks and
    arguments are pickled, so they must be module-level functions and plain
    data), and additionally lets tasks reference large arrays by :class:`SharedArraySpec`
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
