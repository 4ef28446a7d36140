"""How fast the host is while a run measures, from a fixed numpy kernel.

The benchmark runs on a few cores of a shared host whose speed wanders by a
quarter and more over minutes (neighbours on the same caches and hardware
threads; the guest sees no steal time).  Every program time wanders with it:
as measured, medians of identical 20 s runs spread by 13-38% in a bad hour,
and no bound the contract allows could tell a regression from the weather.

So a run measures the weather too.  Between the program's operations (or, for
the wire workloads, every 50 ms on a thread of the load generator) it times
one small, fixed piece of numpy work that touches nothing under ``src/``: a
row gather, a matrix product, an exponential and a partial sort, the
instruction mix of the program's own hot paths, on arrays that fit in cache.
The median of those times over a timed region, divided by :data:`NOMINAL_MS`,
is the region's *slowdown*; the end-to-end times are divided by it and the
rates multiplied, which states them at nominal host speed.  Over 600 s of
back-to-back ``batch-topn`` passes the kernel's time followed the pass time
with a correlation of 0.99, and the spread of 20 s medians fell from 13.5% to
3.3% (``train-cold`` fits: 11.3% to 4.2%).  ``run.py`` prints the value as
measured beside every calibrated one, and a traced run reports
``host.slowdown``; per-layer metrics are as measured.

Where it is only approximate: a wire latency is partly a timer (the batcher's
delay), which does not scale with the host, and partly queueing, which scales
faster than the host slows.  Dividing still narrowed every wire time in the
validation runs (for example reader latency under refresh from 23% to 10%),
so all times are treated alike.  Shares (SLO-ok, recall) and memory have no
speed to scale and are reported as measured.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

import numpy as np

#: What one kernel call takes on the host this benchmark was written on when
#: nothing disturbs it.  Only a scale: it makes a slowdown of 1.0 mean "as
#: fast as there", so that calibrated values still read as ms and rows/s.
NOMINAL_MS = 2.5
#: Sampling period of the background sampler the wire workloads use.
PERIOD_SECONDS = 0.05


class HostSpeed:
    """Times the reference kernel on request and answers ``slowdown(window)``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._factors = rng.random((200, 50))
        self._items = rng.random((50, 1200))
        self._rows = rng.integers(0, 200, size=200)
        #: (when it ended, seconds it took), in order
        self.samples: List[Tuple[float, float]] = []
        for _ in range(20):  # first calls pay for page faults and BLAS set-up
            self._kernel()

    def _kernel(self) -> None:
        scores = np.take(self._factors, self._rows, axis=0) @ self._items
        np.exp(scores, out=scores)
        np.argpartition(scores, 50, axis=1)

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            started = time.perf_counter()
            self._kernel()
            ended = time.perf_counter()
            self.samples.append((ended, ended - started))

    @contextmanager
    def sampling(self, period: float = PERIOD_SECONDS) -> Iterator[None]:
        """Sample on a thread every ``period`` seconds while the block runs.

        For regions in which this process only waits (the load generator's
        event loop): numpy releases the interpreter lock inside the kernel, so
        the loop keeps sending and receiving, and at 2.5 ms in every 50 the
        kernel leaves the two cores to the server.
        """
        stop = threading.Event()

        def loop() -> None:
            self.sample()  # however short the block, its window has a sample
            while not stop.wait(period):
                self.sample()

        thread = threading.Thread(target=loop, name="host-speed", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def kernel_ms(self, since: float = 0.0, until: float = float("inf")) -> np.ndarray:
        return np.asarray([took * 1000.0 for when, took in self.samples if since <= when <= until])

    def slowdown(self, since: float = 0.0, until: float = float("inf")) -> float:
        """Median kernel time in the window over the nominal one (1.0: as fast)."""
        window = self.kernel_ms(since, until)
        if len(window) == 0:
            raise ValueError("no reference-kernel sample in the window")
        return float(np.median(window)) / NOMINAL_MS
