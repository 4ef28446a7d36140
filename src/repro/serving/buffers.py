"""Reusable score-block buffers for the serving hot path.

Every chunk the :class:`~repro.serving.engine.TopNEngine` scores needs one
dense ``(chunk, n_items)`` block.  Allocating it fresh per chunk means the
nightly batch pays an allocator round-trip and a page-fault sweep per BLAS
call — pure overhead once the block size stabilises, which it does
immediately (every chunk of a call is the same shape, and successive calls
reuse the same catalogue width).  :class:`ScoreBufferPool` keeps released
blocks on a small free list keyed by ``(n_columns, dtype)`` and hands them
back out, so steady-state serving performs **zero** score-block allocations
— the pool's :meth:`~ScoreBufferPool.stats` counter proves it, and the
benchmark suite asserts it.

Each engine owns one pool.  In-process that makes the pool per-thread in
the common case (one engine per serving thread) while still being safe for
shared engines: the free list is lock-guarded, and the pipelined scoring
path deliberately *takes* a buffer on the prefetch thread and *releases* it
on the caller thread.  Under the process executor the pool is worker-local
for free: the engines a worker rebuilds (and caches) from the shared
descriptors share one pool of that worker (:mod:`repro.serving.shared`).

The engine's chunk-size autotuner caps ``chunk × n_items × itemsize`` at
:data:`SCORE_BUFFER_BUDGET_BYTES`, so a 100k-item catalogue automatically
serves in smaller row chunks instead of allocating multi-gigabyte blocks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "SCORE_BUFFER_BUDGET_BYTES",
    "BufferPoolStats",
    "ScoreBufferPool",
]

#: Byte budget of one chunk's score block (128 MiB): a float64 chunk against
#: a 100k-item catalogue autotunes to ~160 rows instead of the 800 MB block a
#: 1024-row chunk would need.
SCORE_BUFFER_BUDGET_BYTES = 128 * 1024 * 1024

#: Free blocks kept per ``(cols, dtype)`` key; pipelining needs two in flight.
MAX_CACHED_BLOCKS = 4


@dataclass(frozen=True)
class BufferPoolStats:
    """Counters of one :class:`ScoreBufferPool`.

    ``allocations`` not growing across serving calls is the zero-allocation
    property the hot path claims; ``reuses`` growing instead proves the
    blocks actually cycle through the free list.
    """

    allocations: int
    reuses: int
    outstanding: int
    bytes_allocated: int
    cached_blocks: int


class ScoreBufferPool:
    """Lock-guarded free list of dense score blocks, keyed by ``(cols, dtype)``.

    :meth:`take` returns a C-contiguous ``(rows, cols)`` view into a cached
    (or freshly allocated) block; :meth:`release` returns the block for
    reuse.  Take and release may happen on different threads — the
    pipelined engine scores chunk ``k+1`` on a prefetch thread while the
    caller consumes chunk ``k`` — so the free list is guarded rather than
    thread-local.  At most :data:`MAX_CACHED_BLOCKS` blocks are kept per
    key; extras are dropped to the allocator.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[Tuple[int, str], List[np.ndarray]] = {}
        self._allocations = 0
        self._reuses = 0
        self._outstanding = 0
        self._bytes_allocated = 0

    def take(self, rows: int, cols: int, dtype) -> np.ndarray:
        """A writable C-contiguous ``(rows, cols)`` block of ``dtype``.

        Reuses any cached block of the same key with at least ``rows``
        capacity (the last chunk of a call is shorter; it reuses the full
        block through a leading-row view).
        """
        rows, cols = int(rows), int(cols)
        dtype = np.dtype(dtype)
        key = (cols, dtype.str)
        base = None
        with self._lock:
            candidates = self._free.get(key)
            if candidates:
                for position, block in enumerate(candidates):
                    if block.shape[0] >= rows:
                        base = candidates.pop(position)
                        self._reuses += 1
                        break
            if base is None:
                self._allocations += 1
                self._bytes_allocated += rows * cols * dtype.itemsize
            self._outstanding += 1
        if base is None:
            base = np.empty((rows, cols), dtype=dtype)
        return base[:rows]

    def release(self, buffer: np.ndarray) -> None:
        """Return a block obtained from :meth:`take` to the free list."""
        base = buffer.base if buffer.base is not None else buffer
        base = np.asarray(base)
        if base.ndim != 2:
            raise ValueError("released buffer must be a 2-D score block")
        key = (base.shape[1], base.dtype.str)
        with self._lock:
            self._outstanding = max(0, self._outstanding - 1)
            candidates = self._free.setdefault(key, [])
            candidates.append(base)
            if len(candidates) > MAX_CACHED_BLOCKS:
                candidates.pop(0)

    def stats(self) -> BufferPoolStats:
        """A consistent snapshot of the pool's counters."""
        with self._lock:
            return BufferPoolStats(
                allocations=self._allocations,
                reuses=self._reuses,
                outstanding=self._outstanding,
                bytes_allocated=self._bytes_allocated,
                cached_blocks=sum(len(blocks) for blocks in self._free.values()),
            )

    def clear(self) -> None:
        """Drop every cached block (counters are preserved)."""
        with self._lock:
            self._free.clear()

    def __reduce__(self):
        # Engines pickle to process-pool workers; buffers and lock state do
        # not travel — each process warms its own pool.
        return (type(self), ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snapshot = self.stats()
        return (
            f"ScoreBufferPool(allocations={snapshot.allocations}, "
            f"reuses={snapshot.reuses}, cached={snapshot.cached_blocks})"
        )
