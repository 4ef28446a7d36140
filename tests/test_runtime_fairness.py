"""Unit tests for the weighted fair queue.

The queue is deliberately synchronous, so these tests drive it directly —
no sleeping, no jitter, fully deterministic."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.fairness import WeightedFairQueue


class TestWeightedFairQueue:
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

    def test_integer_weight_grants_multiple_per_cycle(self):
        queue = WeightedFairQueue(weights={"gold": 3.0})
        for i in range(9):
            queue.push("gold", f"g{i}")
            queue.push("base", f"b{i}")
        first_cycle = [queue.pop() for _ in range(8)]
        gold = sum(1 for item in first_cycle if item.startswith("g"))
        base = sum(1 for item in first_cycle if item.startswith("b"))
        assert gold == pytest.approx(3 * base, abs=1)

    def test_fractional_weight_admits_every_other_cycle(self):
        queue = WeightedFairQueue(weights={"slow": 0.5})
        for i in range(4):
            queue.push("slow", f"s{i}")
            queue.push("base", f"b{i}")
        order = [queue.pop() for _ in range(8)]
        # Base gets roughly two admissions per slow admission.
        assert order.index("s0") > order.index("b0")
        assert sorted(order) == sorted(f"{t}{i}" for t in "sb" for i in range(4))

    def test_pending_and_tenants(self):
        queue = WeightedFairQueue()
        queue.push("a", 1)
        queue.push("a", 2)
        queue.push("b", 3)
        assert len(queue) == 3
        assert queue.pending("a") == 2
        assert queue.pending("b") == 1
        assert queue.pending("missing") == 0
        assert set(queue.tenants()) == {"a", "b"}

    def test_drain_empties_everything(self):
        queue = WeightedFairQueue()
        queue.push("a", 1)
        queue.push("b", 2)
        assert sorted(queue.drain()) == [1, 2]
        assert len(queue) == 0
        assert queue.pop() is None

    def test_set_weight_applies_later(self):
        queue = WeightedFairQueue()
        queue.set_weight("vip", 2.0)
        assert queue.weight("vip") == 2.0
        assert queue.weight("other") == 1.0

    def test_validation(self):
        queue = WeightedFairQueue()
        with pytest.raises(ConfigurationError):
            queue.push("", 1)
        with pytest.raises(ConfigurationError):
            queue.set_weight("a", 0.0)
        with pytest.raises(ConfigurationError):
            WeightedFairQueue(default_weight=-1.0)
        with pytest.raises(ConfigurationError):
            WeightedFairQueue(weights={"a": 0.0})

    def test_drained_tenant_leaves_ring(self):
        queue = WeightedFairQueue()
        queue.push("a", 1)
        assert queue.pop() == 1
        queue.push("b", 2)
        assert queue.pop() == 2
        assert queue.tenants() == ()
