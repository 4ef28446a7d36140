"""In-memory spans and counters for the benchmark's traced run.

The harness wraps the public calls it makes into each layer; nothing under
``src/`` is instrumented (that is ROADMAP item 1).  Spans live in a list and
are written once, when the run ends.  End-to-end metrics never come from a
traced run: the untraced run passes :data:`OFF`, whose methods do nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """A span list (``name, start, end, parent, request_id``) plus counters."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request_id=None) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": request_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_span(
        self, name: str, start: float, end: float, parent: Optional[int] = None, request_id=None
    ) -> int:
        """Record a span whose boundaries were measured elsewhere."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "request_id": request_id}
        )
        return len(self.spans) - 1

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def merge(self, spans: List[dict], counters: Dict[str, float], prefix: str) -> None:
        """Append another process's spans (its parent indices are rebased)."""
        offset = len(self.spans)
        for record in spans:
            record = dict(record)
            record["name"] = prefix + record["name"]
            if record["parent"] is not None:
                record["parent"] += offset
            self.spans.append(record)
        for name, value in counters.items():
            self.count(prefix + name, value)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus what children cover."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None and record["end"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = {}
        for index, record in enumerate(self.spans):
            if record["end"] is None:
                continue
            own = max(0.0, record["end"] - record["start"] - covered[index])
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["counters"] = self.counters
        payload["self_seconds_by_name"] = self.self_times()
        payload["spans"] = self.spans
        path.write_text(json.dumps(payload))


class _Off:
    """The untraced run's tracer: same surface, no work, no memory."""

    enabled = False
    spans: List[dict] = []
    counters: Dict[str, float] = {}

    @contextmanager
    def span(self, name: str, request_id=None) -> Iterator[None]:
        yield

    def add_span(self, *args, **kwargs) -> int:
        return -1

    def count(self, name: str, value: float = 1) -> None:
        pass

    def merge(self, spans, counters, prefix) -> None:
        pass


OFF = _Off()
