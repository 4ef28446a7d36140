"""Published model generations and the references serving holds on them.

A :class:`~repro.runtime.service.RecommenderRuntime` serves from one
*current* generation while older ones may still be answering requests that
pinned them before a swap.  This module is the only place that knows the
rule that makes swaps safe: **a retired generation is released when its
last holder lets go** — at once when nobody holds it, so a swap (or a close
on a borrowed executor) never pulls segments out from under a worker that
has yet to attach them, and never rewrites them under one.

What a generation publishes, and when each part goes:

* **its factor pair**, the only copy a generation makes.  It goes into a
  *factor slot*: the one a released generation left free when there is one
  (rewritten in place when the shapes and dtype match — on the cluster the
  rewrite is a new object and the old one is evicted), else a new slot.
  Releasing a generation frees its slot; the table keeps one free slot and
  unpublishes any other, and unpublishes every slot on :meth:`close`;
* **the seen mask of its training matrix**, published once per matrix and
  shared by every generation built on that matrix (the same
  ``InteractionMatrix`` object).  It unpublishes when the last generation on
  it is released.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.exceptions import ConfigurationError, NotFittedError
from repro.parallel import supports_publication
from repro.parallel.publication import SharedCsrSpec
from repro.serving.engine import TopNEngine
from repro.serving.shared import (
    _GENERATIONS,
    SharedEngineSpec,
    _engine_spec,
    _factor_keys,
    _publish_factors,
    _publish_seen,
    _seen_keys,
    _unpublish_all,
)


@dataclass(eq=False)
class _SeenMask:
    """One training matrix's published seen mask, shared by its generations."""

    #: The matrix it was published from; the table looks masks up by identity.
    matrix: Any
    token: int
    spec: SharedCsrSpec
    #: Generations on this mask not yet released (and publishes under way).
    generations: int = 1


@dataclass(eq=False)
class _Generation:
    """One published model version, and how many requests and sessions hold it."""

    engine: TopNEngine
    #: Descriptors of the published arrays; ``None`` where nothing was
    #: published (thread / serial executors, model-path engines).
    spec: Optional[SharedEngineSpec]
    #: Publish-time fold-in solver snapshot (``None`` for non-factor models).
    solver: Any
    number: int
    #: The factor slot and seen mask behind ``spec`` (``None`` without one).
    slot: Optional[int] = None
    seen: Optional[_SeenMask] = None
    holders: int = 0
    retired: bool = False


class GenerationTable:
    """The current generation of one runtime, plus the retired ones still held.

    ``executor`` is where the generations' arrays are published; the table
    publishes each generation there and unpublishes what no generation
    needs any more.
    """

    def __init__(self, executor: Any) -> None:
        self._executor = executor
        self._lock = threading.Lock()
        # One publish at a time: two on one matrix share one seen mask.
        self._publishing = threading.Lock()
        #: The generation new requests pin (``None`` before the first install).
        self.current: Optional[_Generation] = None
        #: How many generations were installed — the newest one's number.
        self.number = 0
        self._seen_masks: List[_SeenMask] = []
        self._free_slot: Optional[int] = None
        self._closed = False

    def install(self, engine: TopNEngine, solver: Any) -> int:
        """Publish ``engine``, make it the current generation, retire the previous one.

        A publish that fails leaves the current generation as it was.
        """
        with self._publishing:
            generation = self._publish(engine, solver)
            with self._lock:
                self.number += 1
                generation.number = self.number
                previous, self.current = self.current, generation
                unheld = self._retire(previous)
        if unheld:
            self._release(previous)
        return generation.number

    def pin(self, held: Optional[_Generation] = None) -> _Generation:
        """Take one reference on the current generation, or on ``held``.

        ``held`` is a generation the caller already references through a
        session; if that session was released and the generation has gone
        since, the call is refused instead of serving from released arrays.
        """
        with self._lock:
            generation = self.current if held is None else held
            if generation is None:
                raise NotFittedError(
                    "no model version is published; call runtime.publish() first"
                )
            if generation.retired and not generation.holders:
                raise ConfigurationError("the serving session has been released")
            generation.holders += 1
        return generation

    def unpin(self, generation: _Generation) -> None:
        """Drop one reference; the last one off a retired generation releases it."""
        with self._lock:
            generation.holders -= 1
            unheld = generation.retired and not generation.holders
        if unheld:
            self._release(generation)

    def close(self) -> None:
        """Retire the current generation and accept no request for it.

        The free factor slot unpublishes now; so does everything of the
        current generation unless someone holds it, and a generation
        released later keeps no slot.
        """
        with self._lock:
            self._closed = True
            previous, self.current = self.current, None
            free, self._free_slot = self._free_slot, None
            unheld = self._retire(previous)
        if free is not None:
            _unpublish_all(self._executor, _factor_keys(free))
        if unheld:
            self._release(previous)

    def _publish(self, engine: TopNEngine, solver: Any) -> _Generation:
        """A generation for ``engine``, its arrays published when the executor can."""
        if not (supports_publication(self._executor) and engine.factors is not None):
            return _Generation(engine, None, solver, 0)
        matrix = engine.train_matrix
        with self._lock:
            seen = next((mask for mask in self._seen_masks if mask.matrix is matrix), None)
            if seen is not None:
                seen.generations += 1
            slot, self._free_slot = self._free_slot, None
        if slot is None:
            slot = next(_GENERATIONS)
        shared = seen is not None
        try:
            if not shared:
                token = next(_GENERATIONS)
                seen = _SeenMask(matrix, token, _publish_seen(self._executor, token, matrix))
            factors = _publish_factors(self._executor, slot, engine)
        except BaseException:
            # Nothing of a failed publish stays: not the slot (free or new),
            # not a seen mask it made, not the use it took of a shared one.
            _unpublish_all(self._executor, _factor_keys(slot))
            if shared:
                self._drop_seen_use(seen)
            elif seen is not None:
                _unpublish_all(self._executor, _seen_keys(seen.token))
            raise
        if not shared:
            with self._lock:
                self._seen_masks.append(seen)
        spec = _engine_spec(next(_GENERATIONS), engine, factors, seen.spec)
        return _Generation(engine, spec, solver, 0, slot=slot, seen=seen)

    @staticmethod
    def _retire(generation: Optional[_Generation]) -> bool:
        """Mark ``generation`` retired (lock held); whether it can be released now."""
        if generation is None:
            return False
        generation.retired = True
        return not generation.holders

    def _release(self, generation: _Generation) -> None:
        """Free a retired, unheld generation's factor slot and drop its seen-mask use."""
        if generation.spec is None:
            return
        with self._lock:
            if self._closed:
                unpublished = generation.slot
            else:
                unpublished, self._free_slot = self._free_slot, generation.slot
        if unpublished is not None:
            _unpublish_all(self._executor, _factor_keys(unpublished))
        self._drop_seen_use(generation.seen)

    def _drop_seen_use(self, seen: _SeenMask) -> None:
        """One generation (or failed publish) less on ``seen``; the last unpublishes it."""
        with self._lock:
            seen.generations -= 1
            unused = not seen.generations
            if unused:
                self._seen_masks.remove(seen)
        if unused:
            _unpublish_all(self._executor, _seen_keys(seen.token))
