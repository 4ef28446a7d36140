"""Unit tests for the gateway's equal-share fair queue.

The queue is deliberately synchronous, so these tests drive it directly —
no sleeping, no jitter, fully deterministic."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.fairness import WeightedFairQueue


class TestWeightedFairQueue:
    def test_backlogged_tenants_share_equally(self):
        queue = WeightedFairQueue()
        for i in range(9):
            queue.push("a", f"a{i}")
            queue.push("b", f"b{i}")
            queue.push("c", f"c{i}")
        order = [queue.pop() for _ in range(27)]
        # Every window of three admissions serves each tenant once.
        for start in range(0, 27, 3):
            assert sorted(item[0] for item in order[start : start + 3]) == ["a", "b", "c"]
        assert [item for item in order if item[0] == "a"] == [f"a{i}" for i in range(9)]

    def test_fifo_for_single_tenant(self):
        queue = WeightedFairQueue()
        for i in range(5):
            queue.push("a", i)
        assert [queue.pop() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert queue.pop() is None

    def test_equal_weights_interleave_one_per_tenant(self):
        queue = WeightedFairQueue()
        for i in range(6):
            queue.push("flood", f"f{i}")
        queue.push("quiet", "q0")
        queue.push("quiet", "q1")
        order = [queue.pop() for _ in range(8)]
        # The quiet tenant's two items are served within the first four
        # pops despite arriving behind six flooding items.
        assert "q0" in order[:4] and "q1" in order[:4]
        assert len(queue) == 0

    def test_validation(self):
        queue = WeightedFairQueue()
        with pytest.raises(ConfigurationError):
            queue.push("", 1)
        with pytest.raises(ConfigurationError):
            queue.push(7, 1)
        assert len(queue) == 0

    def test_drained_tenant_leaves_ring(self):
        queue = WeightedFairQueue()
        queue.push("a", 1)
        assert queue.pop() == 1
        queue.push("b", 2)
        assert queue.pop() == 2
        assert len(queue) == 0 and queue.pop() is None
