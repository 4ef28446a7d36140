"""Equal-share tenant fairness for the serving gateway.

Under backpressure a plain FIFO admission queue lets one chatty tenant
inflate every other tenant's queue latency: a client that pipelines 10k
requests puts 10k entries in front of the next tenant's single request.
:class:`WeightedFairQueue` arbitrates instead with round-robin over the
tenants holding backlog — deficit round-robin with every tenant at weight
1: each visit credits the tenant at the ring head with one admission, and a
credited head dequeues one request.  Admissions interleave one per tenant
no matter how deep any tenant's backlog is.

The queue is a plain synchronous, lock-protected data structure — it never
blocks.  ``pop()`` returns ``None`` when empty; whoever owns the queue (the
gateway's admission pump) decides how to wait.  Fairness only matters when
there *is* a backlog: while the system has capacity for every arrival, the
queue stays empty and admission is effectively FIFO.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict

from repro.exceptions import ConfigurationError


class WeightedFairQueue:
    """Round-robin queue over per-tenant sub-queues, one share per tenant.

    Every tenant has the same share; the name is kept because the
    end-to-end benchmark's fairness probe builds ``WeightedFairQueue()``.
    """

    def __init__(self) -> None:
        self._queues: Dict[str, Deque] = {}
        # Round-robin ring of tenants with backlog, plus a membership set
        # for O(1) "already in the ring" checks on push.
        self._ring: Deque[str] = deque()
        self._ringed: set = set()
        # Ringed tenants holding one admission's credit from a past visit.
        self._credited: set = set()
        self._size = 0
        self._lock = threading.Lock()

    def push(self, tenant: str, item) -> None:
        """Enqueue ``item`` for ``tenant``."""
        if not isinstance(tenant, str) or not tenant:
            raise ConfigurationError("tenant must be a non-empty string")
        with self._lock:
            self._queues.setdefault(tenant, deque()).append(item)
            self._size += 1
            if tenant not in self._ringed:
                self._ring.append(tenant)
                self._ringed.add(tenant)

    def pop(self):
        """Dequeue the next item in round-robin order; ``None`` when empty.

        A credited tenant at the ring head spends its credit on one item
        and stays at the head; an uncredited head is credited and moves to
        the back of the ring, so every tenant with backlog is admitted once
        per round.
        """
        with self._lock:
            if self._size == 0:
                return None
            while True:
                tenant = self._ring[0]
                if tenant in self._credited:
                    self._credited.discard(tenant)
                    queue = self._queues[tenant]
                    item = queue.popleft()
                    self._size -= 1
                    if not queue:
                        self._ring.popleft()
                        self._ringed.discard(tenant)
                    return item
                self._credited.add(tenant)
                self._ring.rotate(-1)

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            backlog = {t: len(q) for t, q in self._queues.items() if q}
        return f"{type(self).__name__}(pending={backlog})"
