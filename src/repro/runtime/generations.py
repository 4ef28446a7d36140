"""Published model generations and the references serving holds on them.

A :class:`~repro.runtime.service.RecommenderRuntime` serves from one
*current* generation while older ones may still be answering requests that
pinned them before a swap.  This module is the only place that knows the
rule that makes swaps safe: **a retired generation unlinks when its last
holder lets go** — at once when nobody holds it, so a swap (or a close on a
borrowed executor) never pulls segments out from under a worker that has
yet to attach them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.exceptions import ConfigurationError, NotFittedError
from repro.serving.engine import TopNEngine
from repro.serving.shared import SharedEngineSpec, unpublish_engine


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
    holders: int = 0
    retired: bool = False


class GenerationTable:
    """The current generation of one runtime, plus the retired ones still held.

    ``executor`` is where the generations' arrays were published; the table
    unpublishes a generation from it once it is retired and unheld.
    """

    def __init__(self, executor: Any) -> None:
        self._executor = executor
        self._lock = threading.Lock()
        #: The generation new requests pin (``None`` before the first install).
        self.current: Optional[_Generation] = None
        #: How many generations were installed — the newest one's number.
        self.number = 0

    def install(self, engine: TopNEngine, spec: Optional[SharedEngineSpec], solver: Any) -> int:
        """Make a new generation current and retire the previous one."""
        with self._lock:
            self.number += 1
            number = self.number
            previous, self.current = self.current, _Generation(engine, spec, solver, number)
            unheld = self._retire(previous)
        if unheld:
            self._unlink(previous)
        return number

    def pin(self, held: Optional[_Generation] = None) -> _Generation:
        """Take one reference on the current generation, or on ``held``.

        ``held`` is a generation the caller already references through a
        session; if that session was released and the generation has gone
        since, the call is refused instead of serving from unlinked arrays.
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
        """Drop one reference; the last one off a retired generation unlinks it."""
        with self._lock:
            generation.holders -= 1
            unheld = generation.retired and not generation.holders
        if unheld:
            self._unlink(generation)

    def close(self) -> None:
        """Retire the current generation and accept no request for it."""
        with self._lock:
            previous, self.current = self.current, None
            unheld = self._retire(previous)
        if unheld:
            self._unlink(previous)

    @staticmethod
    def _retire(generation: Optional[_Generation]) -> bool:
        """Mark ``generation`` retired (lock held); whether it can unlink now."""
        if generation is None:
            return False
        generation.retired = True
        return not generation.holders

    def _unlink(self, generation: _Generation) -> None:
        if generation.spec is not None:
            unpublish_engine(self._executor, generation.spec)
