"""Adaptive micro-batch delay: tune ``max_delay_ms`` against a queue SLO.

The micro-batcher's ``max_delay_ms`` is a static bet about traffic: a large
delay buys occupancy under heavy load (more requests gather per batch, so
dispatch overhead amortises) but under light load it is pure added latency —
a lone request sits out the full window with nobody joining it.  No single
constant is right on both sides of a diurnal traffic curve.

:class:`AdaptiveDelayController` replaces the constant with a feedback loop
driven by two signals the front-end already measures:

* **arrival rate** — submissions per second over a sliding window.  The
  product ``rate x delay`` estimates how much *company* a request that
  waits the full window can expect.  While that estimate is below
  :attr:`min_companions`, waiting cannot buy occupancy: the delay shrinks
  toward :attr:`floor_ms` and :attr:`~AdaptiveDelayController.hold_ms` —
  the hold the front-end applies — is ``0.0``, so a request nobody is
  expected to join is sealed at once, without a timed wait.
* **queue-wait p95** — the tail of submission-to-dispatch waits.  While the
  p95 is comfortably inside the SLO target (below ``slo_fraction`` of it)
  *and* traffic is heavy enough to fill batches, the delay grows toward
  :attr:`ceiling_ms` (occupancy mode) and the hold is the delay.  The
  moment the p95 crosses :attr:`slo_p95_ms`, the delay shrinks
  multiplicatively — the SLO is a hard bound the controller backs away
  from, whatever the load.

Multiplicative-increase / multiplicative-decrease keeps the loop stable:
the delay moves a bounded factor per adjustment, adjustments happen at most
once per :attr:`adjust_interval_s`, and the value is always clamped to
``[floor_ms, ceiling_ms]`` — :attr:`floor_ms` is the smallest *non-zero*
hold, the point the delay can only grow from once company is expected.

The controller is deliberately clock-free: every observation carries an
explicit ``now`` timestamp (the front-end passes ``time.monotonic()``), so
tests can drive synthetic traffic through it deterministically.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive_float

#: Samples retained for the rate / percentile windows.
_WINDOW = 4096


class SlidingWindow:
    """Samples of the last ``window_s`` seconds, the newest ``_WINDOW`` kept.

    Timestamps arrive (near-)monotonic, so old ones leave from the left and
    the rate is a length, not a scan; :meth:`extend` also keeps one float per
    timestamp, in a flat ring.  Not thread-safe: the owner locks.
    """

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self._stamps: Deque[float] = deque(maxlen=_WINDOW)
        self._ring = np.zeros(_WINDOW)
        self._end = 0  # ring position after the newest value

    def add(self, now: float, count: int = 1) -> None:
        self._stamps.extend((now,) * count)

    def extend(self, now: float, values: Sequence[float]) -> None:
        self.add(now, len(values))
        self._ring.put(np.arange(self._end, self._end + len(values)), values, mode="wrap")
        self._end = (self._end + len(values)) % _WINDOW

    def count(self, now: float) -> int:
        """Samples younger than ``window_s`` at ``now`` (older ones are dropped)."""
        stamps, horizon = self._stamps, now - self.window_s
        while stamps and stamps[0] <= horizon:
            stamps.popleft()
        return len(stamps)

    def rate(self, now: float) -> float:
        return self.count(now) / self.window_s

    def values(self, now: float) -> np.ndarray:
        """The :meth:`extend` values younger than ``window_s``, oldest first."""
        start = self._end - self.count(now)
        if start >= 0:
            return self._ring[start : self._end]
        return np.concatenate((self._ring[start:], self._ring[: self._end]))


class AdaptiveDelayController:
    """SLO-bounded controller for the micro-batcher's accumulation delay.

    Parameters
    ----------
    floor_ms / ceiling_ms:
        Hard bounds for the delay.  The ceiling is the occupancy mode (heavy
        load, SLO permitting); the floor is the smallest non-zero hold —
        under light load the delay rests there and the hold itself is 0.
    slo_p95_ms:
        Queue-latency SLO target: whenever the observed queue-wait p95
        exceeds it, the delay shrinks — regardless of load.
    window_s:
        Sliding window for the arrival rate and the wait percentiles.
    adjust_interval_s:
        Minimum time between delay adjustments (the control period).
    grow / shrink:
        Multiplicative step factors (``grow > 1``, ``0 < shrink < 1``).
    min_companions:
        Minimum expected batch company (``arrival rate x delay``) for
        holding the window open to be worth anything; below it the
        controller treats the load as light: it shrinks and does not hold.
    slo_fraction:
        Growth only happens while the p95 is below this fraction of the
        SLO, leaving headroom so one growth step cannot overshoot the
        target it is bounded by.
    """

    def __init__(
        self,
        floor_ms: float = 0.5,
        ceiling_ms: float = 25.0,
        slo_p95_ms: float = 20.0,
        window_s: float = 2.0,
        adjust_interval_s: float = 0.05,
        grow: float = 1.25,
        shrink: float = 0.6,
        min_companions: float = 2.0,
        slo_fraction: float = 0.6,
    ) -> None:
        self.floor_ms = check_positive_float(floor_ms, "floor_ms")
        self.ceiling_ms = check_positive_float(ceiling_ms, "ceiling_ms")
        if self.ceiling_ms < self.floor_ms:
            raise ConfigurationError(
                f"ceiling_ms ({ceiling_ms}) must be >= floor_ms ({floor_ms})"
            )
        self.slo_p95_ms = check_positive_float(slo_p95_ms, "slo_p95_ms")
        self.window_s = check_positive_float(window_s, "window_s")
        self.adjust_interval_s = check_positive_float(
            adjust_interval_s, "adjust_interval_s"
        )
        if grow <= 1.0:
            raise ConfigurationError(f"grow must be > 1, got {grow}")
        if not 0.0 < shrink < 1.0:
            raise ConfigurationError(f"shrink must be in (0, 1), got {shrink}")
        self.grow = float(grow)
        self.shrink = float(shrink)
        self.min_companions = check_positive_float(min_companions, "min_companions")
        if not 0.0 < slo_fraction <= 1.0:
            raise ConfigurationError(
                f"slo_fraction must be in (0, 1], got {slo_fraction}"
            )
        self.slo_fraction = float(slo_fraction)
        # Start at the ceiling: before any evidence arrives the safe bet is
        # the occupancy bound the operator configured; the first light-load
        # observations walk it down within a few control periods.
        self._delay_ms = self._hold_ms = self.ceiling_ms
        self._arrivals = SlidingWindow(self.window_s)
        self._waits = SlidingWindow(self.window_s)
        self._last_adjust: float = float("-inf")
        self._adjustments = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Signals in
    # ------------------------------------------------------------------ #
    def observe_arrival(self, now: float) -> None:
        """Record one request submission at monotonic time ``now``."""
        with self._lock:
            self._arrivals.add(now)

    def observe_batch(self, now: float, queue_waits_s: Sequence[float]) -> float:
        """Record a dispatched batch's queue waits; maybe adjust; return delay.

        Called by the front-end once per sealed batch with the waits
        (submission to dispatch, seconds) of every request in it.  At most
        once per :attr:`adjust_interval_s` the controller re-evaluates the
        delay from the windowed signals.
        """
        with self._lock:
            self._waits.extend(now, np.asarray(queue_waits_s, dtype=float) * 1000.0)
            if now - self._last_adjust < self.adjust_interval_s:
                return self._delay_ms
            self._last_adjust = now
            self._adjust(now)
            return self._delay_ms

    # ------------------------------------------------------------------ #
    # Signals out
    # ------------------------------------------------------------------ #
    @property
    def delay_ms(self) -> float:
        """The control variable: how long a hold lasts when there is one."""
        with self._lock:
            return self._delay_ms

    @property
    def hold_ms(self) -> float:
        """The hold to apply: :attr:`delay_ms` while ``arrival rate x delay_ms``
        reaches :attr:`min_companions` (and before the first control period:
        no evidence yet), ``0.0`` once nobody is expected."""
        with self._lock:
            return self._hold_ms

    @property
    def adjustments(self) -> int:
        """How many control periods have re-evaluated the delay."""
        with self._lock:
            return self._adjustments

    def arrival_rate(self, now: float) -> float:
        """Arrivals per second over the sliding window ending at ``now``."""
        with self._lock:
            return self._arrivals.rate(now)

    def queue_p95_ms(self, now: float) -> float:
        """Windowed queue-wait p95 in milliseconds (0 with no samples)."""
        with self._lock:
            return self._p95(now)

    # ------------------------------------------------------------------ #
    # Control law
    # ------------------------------------------------------------------ #
    def _p95(self, now: float) -> float:
        waits = self._waits.values(now)
        return float(np.percentile(waits, 95)) if len(waits) else 0.0

    def _adjust(self, now: float) -> None:
        self._adjustments += 1
        rate = self._arrivals.rate(now)
        p95 = self._p95(now)
        companions = rate * (self._delay_ms / 1000.0)
        if p95 > self.slo_p95_ms:
            # SLO pressure wins over everything: back off.
            delay = self._delay_ms * self.shrink
        elif companions < self.min_companions:
            # Light load: holding the window open buys no occupancy.
            delay = self._delay_ms * self.shrink
        elif p95 < self.slo_fraction * self.slo_p95_ms:
            # Heavy load with SLO headroom: trade latency for occupancy.
            delay = self._delay_ms * self.grow
        else:
            delay = self._delay_ms
        self._delay_ms = float(min(self.ceiling_ms, max(self.floor_ms, delay)))
        expected = rate * (self._delay_ms / 1000.0)
        self._hold_ms = self._delay_ms if expected >= self.min_companions else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(delay_ms={self._delay_ms:.3f}, "
            f"floor_ms={self.floor_ms}, ceiling_ms={self.ceiling_ms}, "
            f"slo_p95_ms={self.slo_p95_ms})"
        )
