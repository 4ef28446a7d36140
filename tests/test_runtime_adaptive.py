"""Unit tests for the adaptive-delay controller and the weighted fair queue.

Both components are deliberately clock-free / synchronous so these tests
can drive them with synthetic timestamps and queues — no sleeping, no
jitter, fully deterministic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.adaptive import AdaptiveDelayController
from repro.runtime.fairness import WeightedFairQueue


def make_controller(**overrides):
    settings = dict(
        floor_ms=1.0,
        ceiling_ms=16.0,
        slo_p95_ms=20.0,
        window_s=2.0,
        adjust_interval_s=0.01,
        grow=2.0,
        shrink=0.5,
        min_companions=2.0,
        slo_fraction=0.5,
    )
    settings.update(overrides)
    return AdaptiveDelayController(**settings)


def feed_arrivals(controller, now, rate_rps, duration=2.0):
    """Fill the arrival window ending at ``now`` with a steady ``rate_rps``."""
    n = max(1, int(rate_rps * duration))
    step = duration / n
    for i in range(n):
        controller.observe_arrival(now - duration + (i + 1) * step)


class TestAdaptiveDelayController:
    def test_starts_at_ceiling(self):
        assert make_controller().delay_ms == 16.0

    def test_light_load_shrinks_to_floor(self):
        controller = make_controller()
        # A trickle of lone requests: companions << min_companions every
        # control period, so the delay halves down to the floor.
        for step in range(8):
            now = 100.0 + step * 0.05
            controller.observe_arrival(now)
            controller.observe_batch(now, [0.001])
        assert controller.delay_ms == controller.floor_ms
        assert controller.adjustments >= 4

    def test_heavy_load_with_headroom_grows(self):
        controller = make_controller()
        # One light observation shrinks 16 -> 8 (room to grow back).
        controller.observe_batch(100.0, [0.001])
        assert controller.delay_ms == 8.0
        # 2000 rps with tiny waits: companions = 2000 * 8 ms = 16 >> 2 and
        # the p95 sits far under slo_fraction * SLO, so the delay doubles.
        feed_arrivals(controller, 100.2, rate_rps=2000)
        controller.observe_batch(100.2, [0.002] * 8)
        assert controller.delay_ms == controller.ceiling_ms

    def test_slo_breach_shrinks_even_under_heavy_load(self):
        controller = make_controller()
        feed_arrivals(controller, 100.0, rate_rps=2000)
        # Plenty of companions, but the p95 blows through the 20 ms SLO:
        # SLO pressure must win and shrink 16 -> 8.
        controller.observe_batch(100.0, [0.050] * 8)
        assert controller.delay_ms == 8.0

    def test_in_band_p95_holds_delay_steady(self):
        controller = make_controller()
        controller.observe_batch(100.0, [0.001])
        assert controller.delay_ms == 8.0
        # Heavy load with the p95 between slo_fraction*SLO (10 ms) and the
        # SLO (20 ms): neither shrink nor grow fires.
        feed_arrivals(controller, 100.2, rate_rps=2000)
        controller.observe_batch(100.2, [0.015] * 76)
        assert controller.delay_ms == 8.0

    def test_adjusts_at_most_once_per_interval(self):
        controller = make_controller(adjust_interval_s=10.0)
        controller.observe_arrival(100.0)
        for step in range(50):
            controller.observe_batch(100.0 + step * 0.01, [0.001])
        assert controller.adjustments == 1

    def test_windowed_signals(self):
        controller = make_controller(window_s=1.0)
        for i in range(10):
            controller.observe_arrival(100.0 + i * 0.1)
        controller.observe_batch(100.9, [0.005, 0.010])
        assert controller.arrival_rate(100.9) == pytest.approx(10.0, abs=2.0)
        assert controller.queue_p95_ms(100.9) >= 5.0
        # Far in the future the window is empty again.
        assert controller.arrival_rate(200.0) == 0.0
        assert controller.queue_p95_ms(200.0) == 0.0

    def test_hold_is_the_ceiling_before_the_first_control_period(self):
        controller = make_controller()
        controller.observe_arrival(100.0)
        assert controller.hold_ms == controller.delay_ms == 16.0

    def test_light_load_holds_nothing_while_delay_rests_at_floor(self):
        controller = make_controller()
        for step in range(8):
            now = 100.0 + step * 0.05
            controller.observe_arrival(now)
            controller.observe_batch(now, [0.001])
            # 20 arrivals/s can bring nobody inside 16 ms, let alone 1 ms.
            assert controller.hold_ms == 0.0
        assert controller.delay_ms == controller.floor_ms

    def test_expected_company_holds_for_the_delay(self):
        controller = make_controller()
        feed_arrivals(controller, 100.0, rate_rps=2000)
        controller.observe_batch(100.0, [0.002] * 8)
        # 2000/s x 16 ms = 32 companions: hold for the whole delay.
        assert controller.hold_ms == controller.delay_ms == 16.0

    def test_hold_flips_with_the_load_within_one_control_period(self):
        controller = make_controller(window_s=0.5)
        now = 100.0
        for step in range(6):  # light: the delay walks down to the floor
            now += 0.05
            controller.observe_arrival(now)
            controller.observe_batch(now, [0.001])
        assert (controller.delay_ms, controller.hold_ms) == (1.0, 0.0)
        now += 0.5
        feed_arrivals(controller, now, rate_rps=4000, duration=0.5)
        controller.observe_batch(now, [0.002] * 8)  # heavy: one period
        assert controller.hold_ms == controller.delay_ms == 2.0
        now += 1.0  # the heavy arrivals have left the window
        controller.observe_arrival(now)
        controller.observe_batch(now, [0.001])  # light again: one period
        assert controller.hold_ms == 0.0
        assert controller.delay_ms == 1.0

    def test_hold_follows_the_delay_down_on_an_slo_breach(self):
        controller = make_controller()
        feed_arrivals(controller, 100.0, rate_rps=2000)
        controller.observe_batch(100.0, [0.050] * 8)
        assert controller.hold_ms == controller.delay_ms == 8.0

    def test_hold_needs_company_at_the_delay_in_force(self):
        controller = make_controller()
        # 200/s x 16 ms = 3.2 companions, but the SLO breach halves the
        # delay and 200/s x 8 ms = 1.6 is nobody worth waiting for.
        feed_arrivals(controller, 100.0, rate_rps=200)
        controller.observe_batch(100.0, [0.050] * 8)
        assert (controller.delay_ms, controller.hold_ms) == (8.0, 0.0)

    def test_windows_keep_the_newest_samples_and_expire_the_old(self):
        from repro.runtime.adaptive import _WINDOW, SlidingWindow

        stamps = SlidingWindow(window_s=1.0)
        stamps.add(10.0)
        stamps.add(10.5, count=3)
        assert stamps.count(10.9) == 4 and stamps.rate(10.9) == 4.0
        assert stamps.count(11.0) == 3  # 10.0 is exactly window_s old: gone
        assert stamps.count(11.5) == 0
        values = SlidingWindow(window_s=1.0)
        # Wrap the ring: the window holds the newest _WINDOW values, in order.
        values.extend(20.0, np.arange(_WINDOW - 2.0))
        values.extend(20.5, [-1.0, -2.0, -3.0, -4.0, -5.0])
        recent = values.values(20.9)
        assert len(recent) == _WINDOW
        assert recent[0] == 3.0 and list(recent[-5:]) == [-1.0, -2.0, -3.0, -4.0, -5.0]
        assert list(values.values(21.2)) == [-1.0, -2.0, -3.0, -4.0, -5.0]
        assert len(values.values(21.5)) == 0
        values.extend(30.0, np.arange(3.0 * _WINDOW))  # one batch beyond the ring
        assert list(values.values(30.0)[[0, -1]]) == [2.0 * _WINDOW, 3.0 * _WINDOW - 1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_controller(floor_ms=10.0, ceiling_ms=5.0)
        with pytest.raises(ConfigurationError):
            make_controller(grow=0.9)
        with pytest.raises(ConfigurationError):
            make_controller(shrink=1.5)
        with pytest.raises(ConfigurationError):
            make_controller(slo_fraction=0.0)


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
