"""The publication protocol: ship descriptors, not arrays.

The paper's scalability argument is that row subproblems and serving shards
are independent, so work fans out as long as workers receive *descriptors*
of the large arrays instead of the arrays.  This module implements that idea
once, and every publishing executor composes it: one descriptor
(:class:`SharedArraySpec`, attached worker-side by
:func:`~repro.parallel.shared_memory.attach_shared_array`), one key →
publication table (:class:`PublicationTable`, over a two-method *store* that
says where the bytes live), and one spelling of the key layout
(:func:`csr_keys`, :class:`PublishedKeys`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ExecutorShutDownError


@dataclass(frozen=True)
class SharedArraySpec:
    """Descriptor of one published NumPy array (small and picklable).

    This is what task arguments carry instead of the array itself.
    ``shm_name`` names the publication: a ``/dev/shm`` segment, or — when
    ``remote`` is true — a key of the cluster driver's object store, whose
    bytes a worker fetches over RPC (once per node) instead of mapping.
    """

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str
    remote: bool = False

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


#: The arrays of a CSR matrix, in the order every CSR publication lists them
#: — as key suffixes, as :class:`SharedCsrSpec` fields and as attribute names.
CSR_FIELDS = ("data", "indices", "indptr")


@dataclass(frozen=True)
class SharedCsrSpec:
    """Descriptors of one published CSR matrix (picklable).

    The three-array form every CSR publication in the system uses — the
    training plan sides and the serving seen-mask both compose it.
    """

    shape: Tuple[int, int]
    data: SharedArraySpec
    indices: SharedArraySpec
    indptr: SharedArraySpec

    def array_specs(self) -> List[SharedArraySpec]:
        """The three array descriptors, in :data:`CSR_FIELDS` order."""
        return [self.data, self.indices, self.indptr]


def supports_publication(executor: object) -> bool:
    """Whether ``executor`` offers the array-publication capability.

    The descriptor fast paths (training sweeps and serving shipping
    ``(row_range, spec)`` tasks instead of arrays) are gated on this rather
    than on a concrete class: any executor exposing ``publish``,
    ``publish_static`` and ``unpublish`` qualifies.
    """
    return all(
        callable(getattr(executor, method, None))
        for method in ("publish", "publish_static", "unpublish")
    )


def _static_key(array: np.ndarray) -> Tuple[str, int]:
    """The table key of a ``publish_static`` publication: the array's identity."""
    return ("static", id(array))


def csr_keys(key_prefix: Tuple) -> List[Tuple]:
    """The three slot keys a CSR matrix published under ``key_prefix`` occupies."""
    return [key_prefix + (field,) for field in CSR_FIELDS]


class PublishedKeys:
    """What one client published on an executor it may only borrow.

    Publishes through to a publication-capable ``executor`` and records
    every key, so :meth:`release` retires exactly the client's own footprint
    — a training backend's plan arrays and factor slots — and nothing of
    the executor's other users.
    """

    def __init__(self, executor: Any) -> None:
        self._executor = executor
        self._keys: set = set()

    def slot(self, key: Hashable, array: np.ndarray) -> SharedArraySpec:
        """:meth:`PublicationTable.publish` on the executor, key recorded."""
        self._keys.add(key)
        return self._executor.publish(key, array)

    def static(self, array: np.ndarray) -> SharedArraySpec:
        """:meth:`PublicationTable.publish_static` on the executor, key recorded."""
        spec = self._executor.publish_static(array)
        self._keys.add(_static_key(array))
        return spec

    def static_csr(self, matrix: sp.csr_matrix) -> SharedCsrSpec:
        """Publish a CSR matrix's three arrays as write-once static data."""
        specs = (self.static(getattr(matrix, field)) for field in CSR_FIELDS)
        return SharedCsrSpec(tuple(matrix.shape), *specs)

    def release(self) -> None:
        """Unpublish every recorded key (already-retired ones are no-ops)."""
        for key in self._keys:
            self._executor.unpublish(key)
        self._keys.clear()


class _Publication(NamedTuple):
    spec: SharedArraySpec
    pinned: Optional[np.ndarray]
    evictable: bool


class PublicationTable:
    """Key → publication bookkeeping shared by every publishing executor.

    Parameters
    ----------
    store:
        Where the bytes live.  ``store.write(array, previous, pinned)``
        places ``array`` and returns its descriptor: ``previous`` is the
        descriptor the key holds now (or ``None``), returned again when the
        store refreshed it in place; ``pinned`` says the table keeps
        ``array`` alive, so the store may serve it without a snapshot.
        ``store.retire(specs)`` destroys publications the table dropped; it
        runs outside the table lock, so a store that tells remote nodes to
        evict does not stall other publishers.
    capacity:
        Soft cap on live publications.  Publishing past it retires the
        least recently used *evictable* entries (never the one just
        written); non-evictable ones are never sacrificed — the cap is
        exceeded rather than a live model generation silently unpublished.
    """

    def __init__(self, store: Any, capacity: int) -> None:
        self._store = store
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, _Publication]" = OrderedDict()
        # Shared by every publisher thread: a serving runtime publishes a
        # new generation from one thread while a refit publishes its plan
        # and factor slots from the training thread.
        self._lock = threading.Lock()
        self._closed = False

    def publish(
        self, key: Hashable, array: np.ndarray, evictable: bool = True
    ) -> SharedArraySpec:
        """Place (or refresh) the slot ``key``: one memcpy, not one pickle per task.

        Whether a refresh keeps the slot's descriptor is the store's call;
        a replaced publication is retired.  ``evictable=False`` exempts the
        slot from the LRU cap — for publications that must stay attachable
        until explicitly unpublished (a live model generation), where a
        silent eviction would surface as a failed attach in a worker.
        """
        return self._write(key, np.ascontiguousarray(array), None, evictable)

    def publish_static(self, array: np.ndarray) -> SharedArraySpec:
        """Place write-once data, copying at most once.

        Keyed on the identity of ``array``, which the table pins (holds a
        reference to) so the key stays valid: republishing the same array
        object returns the existing descriptor without touching the bytes.
        A fit's plan arrays are presented every sweep and copied — or sent
        to each cluster node — once.
        """
        array = np.asarray(array)
        if not array.flags.c_contiguous:
            raise ValueError(
                "publish_static requires a C-contiguous array; copy it first "
                "(a non-contiguous source would silently republish every call)"
            )
        return self._write(_static_key(array), array, array, True)

    def unpublish(self, key: Hashable) -> bool:
        """Retire one publication; returns whether the key was live.

        Safe under in-flight tasks: a worker already attached to a
        shared-memory segment keeps a valid mapping (unlink removes the
        name, not existing maps), and a cluster node serves the copy it
        fetched until the eviction reaches it.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._store.retire([entry.spec])
        return True

    def names(self) -> List[str]:
        """Names of every live publication, least recently used first."""
        with self._lock:
            return [entry.spec.shm_name for entry in self._entries.values()]

    def close(self) -> None:
        """Retire everything and refuse further publications; idempotent."""
        with self._lock:
            self._closed = True
            retired = [entry.spec for entry in self._entries.values()]
            self._entries.clear()
        self._store.retire(retired)

    def _write(
        self,
        key: Hashable,
        array: np.ndarray,
        pinned: Optional[np.ndarray],
        evictable: bool,
    ) -> SharedArraySpec:
        with self._lock:
            if self._closed:
                raise ExecutorShutDownError(
                    "cannot publish on a shut-down executor; the publication "
                    "would never be retired"
                )
            previous = self._entries.get(key)
            if previous is not None and pinned is not None:
                # A pinned array's identity cannot be reused while the entry
                # lives, so this is the same array: nothing to write.
                self._entries.move_to_end(key)
                return previous.spec
            spec = self._store.write(
                array, None if previous is None else previous.spec, pinned is not None
            )
            self._entries[key] = _Publication(spec, pinned, evictable)
            self._entries.move_to_end(key)
            retired = [] if previous is None or previous.spec == spec else [previous.spec]
            while len(self._entries) > self._capacity:
                victim = next(
                    (k for k, e in self._entries.items() if e.evictable and k != key),
                    None,
                )
                if victim is None:
                    break
                retired.append(self._entries.pop(victim).spec)
        self._store.retire(retired)
        return spec
