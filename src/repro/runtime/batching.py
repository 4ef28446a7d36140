"""Micro-batching request front-end for the long-lived runtime.

The paper's deployment serves many concurrent B2B clients, each asking for
recommendations for a handful of users at a time.  A request that small
makes one shard, which the runtime serves on the caller's thread (no
executor round-trip — see :mod:`repro.runtime.service`), but it still pays
the fixed cost of a whole engine call for four rows of BLAS work — one
known user, top-50 of 1,200 items at K = 50, is ~61 µs in
:meth:`~repro.runtime.service.RecommenderRuntime.recommend` on a 2-core host
(~93 µs before the known-user path shed its per-call overhead), of which
~24 µs is arithmetic — so under high request concurrency that per-call
overhead, not the scoring, bounds users/s.

:class:`BatchingFrontEnd` closes that gap with classic micro-batching:

* **accumulate** — :meth:`submit_request` enqueues a
  :class:`~repro.api.RecommendRequest` and returns a
  :class:`~concurrent.futures.Future` immediately; a dispatcher thread
  (:class:`~repro.parallel.executor.DispatcherThread`) holds the queue open
  until ``max_batch_users`` rows have gathered or the *oldest* request has
  waited the hold — whichever comes first, so a lone request is never held
  past it;
* **merge** — the sealed batch is grouped by
  :attr:`~repro.api.RecommendRequest.options` (known-user top-N vs fold-in
  cold-start, and by serving options), each group's rows are flattened by
  :func:`~repro.serving.batch.merge_request_lists` into one merged request,
  and a single runtime call serves it — in process while the merged rows
  fit one shard (``max_batch_users`` below the engine's chunk size, the
  usual case), through the sharded descriptor path beyond — the batch
  rides the same machinery, just with real occupancy;
* **scatter** — the merged rankings (their scores included, when asked)
  are sliced back per request (:func:`~repro.serving.batch.scatter_results`)
  and delivered through the futures as :class:`~repro.api.RecommendResponse`
  objects.

There is one sealing rule with one number in it, the hold: ``max_delay_ms``
— an operator's promise to hold, always kept — or ``0`` with
``adaptive=True``: seal whatever is queued the moment the dispatcher is
free.  With no hold, occupancy follows load through the queue — a batch is
what arrived while the previous one was being served — and a lone
``submit_request(r).result()`` costs ``runtime.recommend(r)`` plus the
hand-off to the dispatcher thread and back.  A lone wire frame does not
pay them: the gateway serves it on its own thread, as a batch of one,
when the front-end is idle (see :mod:`repro.runtime.gateway`).

Generation safety: every batch is sealed against one
:class:`~repro.runtime.service.ServingSession`, pinned at dispatch time, so
all requests in a batch are answered by a single model version even when
:meth:`~repro.runtime.RecommenderRuntime.update` lands mid-flight — the
response records which generation served it.  Rankings are exactly the
unbatched per-request rankings (merging never changes per-row math; the
test-suite asserts ``np.array_equal`` request by request).

The front-end *borrows* the runtime: closing the front-end drains every
pending request and stops the dispatcher, but never closes the runtime —
close the front-end first, the runtime second (nested ``with`` blocks give
that order for free).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import RecommendRequest, RecommendResponse
from repro.exceptions import ConfigurationError
from repro.parallel.executor import DispatcherThread
from repro.serving.batch import merge_request_lists, scatter_results
from repro.serving.engine import DEFAULT_CHUNK_SIZE
from repro.utils.validation import check_non_negative_float, check_positive_int

__all__ = [
    "BatchingFrontEnd",
    "BatchingStats",
]


@dataclass(frozen=True)
class BatchingStats:
    """One consistent snapshot of the front-end's behaviour.

    Attributes
    ----------
    batches:
        Micro-batches dispatched so far.
    requests:
        Requests coalesced into those batches.
    users:
        Total merged rows served (occupancy numerator).
    mean_occupancy:
        Mean merged rows per batch — the lever micro-batching exists to
        raise; 1.0 means batching bought nothing.
    mean_requests_per_batch:
        Mean requests coalesced per batch.
    queue_p50_ms / queue_p95_ms / queue_max_ms:
        Percentiles of request queue latency (submission to dispatch) over
        the recent-request window, in milliseconds.
    current_delay_ms:
        The accumulation delay batches are held open for — ``max_delay_ms``,
        or ``0`` with ``adaptive=True``.
    pending_requests:
        Requests queued at snapshot time (not yet sealed into a batch).
    arrival_rate_rps:
        Request submissions per second over the recent sliding window.
    """

    batches: int
    requests: int
    users: int
    mean_occupancy: float
    mean_requests_per_batch: float
    queue_p50_ms: float
    queue_p95_ms: float
    queue_max_ms: float
    current_delay_ms: float
    pending_requests: int
    arrival_rate_rps: float

    def as_dict(self) -> dict:
        """JSON-ready mapping (the gateway's ``stats`` frame embeds it)."""
        return asdict(self)


class _Pending:
    """One enqueued request with its future and submission timestamp."""

    __slots__ = ("request", "future", "enqueued")

    def __init__(self, request: RecommendRequest, future: Future) -> None:
        self.request = request
        self.future = future
        self.enqueued = time.monotonic()


#: Queue-latency samples and arrival stamps retained for the windowed stats.
_LATENCY_WINDOW = 4096

#: Sliding window (seconds) for the arrival-rate estimate in :meth:`stats`.
_RATE_WINDOW_S = 2.0


def _arrival_rate(stamps: Sequence[float], now: float) -> float:
    """Arrivals per second over the ``_RATE_WINDOW_S`` seconds before ``now``.

    ``stamps`` are the newest ``_LATENCY_WINDOW`` arrival times, oldest
    first.  When every one of them is inside the window, older arrivals may
    have been pushed out, so the rate is taken over the span the kept ones
    cover instead of the whole window.
    """
    recent = len(stamps) - bisect_right(stamps, now - _RATE_WINDOW_S)
    if recent == _LATENCY_WINDOW:
        return recent / max(now - stamps[0], 1e-9)
    return recent / _RATE_WINDOW_S


class BatchingFrontEnd:
    """Coalesce concurrent small serving requests into micro-batches.

    Parameters
    ----------
    runtime:
        The :class:`~repro.runtime.RecommenderRuntime` to serve through
        (borrowed — never closed by the front-end).  It must have a
        published model version by the time requests are dispatched.
    max_delay_ms:
        The hold: how long a batch's *oldest* request waits for company
        before the batch is sealed.  ``0`` seals whatever is queued the
        moment the dispatcher is free (batching then coalesces the requests
        that arrived while the previous batch was being served).
    max_batch_users:
        Size cap: a batch is sealed as soon as this many merged rows have
        gathered.  A single request larger than the cap is dispatched alone
        (requests are never split).
    adaptive:
        ``True`` is the same policy as ``max_delay_ms=0``, whatever
        ``max_delay_ms`` says; ``None``/``False`` holds for ``max_delay_ms``.
        The flag survives only because the frozen end-to-end benchmark
        builds ``BatchingFrontEnd(runtime, max_delay_ms=5.0,
        max_batch_users=256, adaptive=True)`` and must keep getting no hold
        from exactly those arguments.

    Use as a context manager; :meth:`close` drains pending requests::

        with RecommenderRuntime(executor="process") as runtime:
            runtime.fit(model, matrix)
            runtime.publish()
            with BatchingFrontEnd(runtime, max_delay_ms=5) as front:
                futures = [front.submit_request(req) for req in requests]
                lists = [f.result().rankings for f in futures]
    """

    def __init__(
        self,
        runtime,
        max_delay_ms: float = 5.0,
        max_batch_users: int = 256,
        adaptive=None,
    ) -> None:
        self.max_delay_ms = check_non_negative_float(max_delay_ms, "max_delay_ms")
        self.max_batch_users = check_positive_int(max_batch_users, "max_batch_users")
        if adaptive is not None and not isinstance(adaptive, bool):
            raise ConfigurationError("adaptive must be True, False or None")
        self._delay_ms = 0.0 if adaptive else self.max_delay_ms
        self._runtime = runtime
        self._cond = threading.Condition()
        self._pending: Deque[_Pending] = deque()
        self._pending_rows = 0
        self._in_service = 0  # sealed batches not yet served
        self._closed = False
        self._draining = False
        self._batches = 0
        self._requests = 0
        self._rows = 0
        self._queue_seconds: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._arrivals: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        # Assign before starting: the loop's first step may run before
        # start() returns and reads self._dispatcher.
        self._dispatcher = DispatcherThread(
            self._dispatch_once,
            name="batching-dispatcher",
            wake=self._wake,
            on_failure=self._fail_pending,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def runtime(self):
        """The borrowed runtime requests are served through."""
        return self._runtime

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def pending_requests(self) -> int:
        """Requests currently queued (not yet sealed into a batch)."""
        with self._cond:
            return len(self._pending)

    @property
    def current_delay_ms(self) -> float:
        """The accumulation delay batches are held open for."""
        return self._delay_ms

    def stats(self) -> BatchingStats:
        """A consistent snapshot of the front-end's aggregate behaviour."""
        now = time.monotonic()
        with self._cond:
            batches = self._batches
            requests = self._requests
            rows = self._rows
            waits = list(self._queue_seconds)
            pending = len(self._pending)
            arrivals = list(self._arrivals)
        if waits:
            p50, p95 = np.percentile(waits, [50, 95])
            worst = max(waits)
        else:
            p50 = p95 = worst = 0.0
        return BatchingStats(
            batches=batches,
            requests=requests,
            users=rows,
            mean_occupancy=rows / batches if batches else 0.0,
            mean_requests_per_batch=requests / batches if batches else 0.0,
            queue_p50_ms=float(p50) * 1000.0,
            queue_p95_ms=float(p95) * 1000.0,
            queue_max_ms=float(worst) * 1000.0,
            current_delay_ms=self.current_delay_ms,
            pending_requests=pending,
            arrival_rate_rps=_arrival_rate(arrivals, now),
        )

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit_request(
        self, request: RecommendRequest
    ) -> "Future[RecommendResponse]":
        """Enqueue one request; returns the future of its response.

        The future resolves to a :class:`~repro.api.RecommendResponse`
        whose rankings are ``np.array_equal`` to
        ``runtime.recommend(request)`` run unbatched against the same model
        version.  Duplicate users — within the request or across
        concurrently queued requests — are fine; every request receives
        rankings for exactly the rows it asked for.
        """
        if not isinstance(request, RecommendRequest):
            raise ConfigurationError(
                f"submit_request takes a RecommendRequest, got {type(request).__name__}"
            )
        future: Future = Future()
        pending = _Pending(request, future)
        with self._cond:
            if self._closed:
                raise ConfigurationError("the batching front-end is closed")
            failure = self._dispatcher.failure
            if failure is not None:  # pragma: no cover - defensive
                raise ConfigurationError(
                    "the batching dispatcher died; the front-end cannot accept "
                    "requests"
                ) from failure
            self._pending.append(pending)
            self._pending_rows += request.n_rows
            self._arrivals.append(pending.enqueued)
            self._cond.notify_all()
        return future

    def recommend(
        self, request: RecommendRequest, timeout: Optional[float] = None
    ) -> RecommendResponse:
        """Submit one request and block for its response (client shape)."""
        return self.submit_request(request).result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Dispatcher side
    # ------------------------------------------------------------------ #
    def _wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _dispatch_once(self) -> None:
        """One dispatcher-loop iteration: seal a batch (or idle) and serve it."""
        batch = self._collect_batch()
        if not batch:
            return
        try:
            self._dispatch(batch)
        except BaseException as error:  # pragma: no cover - defensive
            # A sealed batch is no longer in the queue, so the loop-death
            # cleanup (_fail_pending) cannot see it: resolve its futures
            # here, then let the failure propagate to kill the loop.
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            raise
        finally:
            with self._cond:
                self._in_service -= 1

    def _serve_if_idle(self, request: RecommendRequest) -> Optional[Future]:
        """Serve ``request`` on the caller's thread as a batch of one, if idle.

        Only known users making one shard, a ``DEFAULT_CHUNK_SIZE`` engine chunk,
        qualify: the runtime serves those in process, not on the executor.  Idle is
        no hold, nothing queued and no batch in service, checked and claimed under
        the lock; the batch then goes through :meth:`_dispatch` like any other (same
        session pin, stats and errors) without the hand-offs.  Returns the resolved
        future, or ``None``: use :meth:`submit_request`.
        """
        if request.kind != "topn" or request.n_rows > DEFAULT_CHUNK_SIZE:
            return None
        pending = _Pending(request, Future())
        with self._cond:
            if self._delay_ms or self._pending or self._in_service or self._closed:
                return None
            self._in_service += 1
            self._arrivals.append(pending.enqueued)
        try:
            self._dispatch([pending], dispatch_start=pending.enqueued)
        finally:
            with self._cond:
                self._in_service -= 1
        return pending.future

    def _collect_batch(self) -> List[_Pending]:
        """Block until a batch is due, then seal and return it.

        A batch is due when ``max_batch_users`` merged rows are pending,
        when the oldest pending request has waited the hold
        (:attr:`current_delay_ms`), or immediately when draining.  Returns
        ``[]`` on idle polls so the dispatcher loop stays responsive to stop
        requests.
        """
        hold = self._delay_ms / 1000.0
        with self._cond:
            while not self._pending:
                if self._draining or self._dispatcher.stop_requested:
                    return []
                self._cond.wait(timeout=0.05)
            while (
                not self._draining
                and not self._dispatcher.stop_requested
                and self._pending_rows < self.max_batch_users
            ):
                remaining = self._pending[0].enqueued + hold - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            batch: List[_Pending] = []
            rows = 0
            while self._pending:
                head = self._pending[0]
                if batch and rows + head.request.n_rows > self.max_batch_users:
                    break  # leave for the next batch; never split a request
                self._pending.popleft()
                batch.append(head)
                rows += head.request.n_rows
            self._pending_rows -= rows
            self._in_service += 1
            return batch

    def _dispatch(self, batch: List[_Pending], dispatch_start: Optional[float] = None) -> None:
        """Serve one sealed batch against a single pinned model version.

        Queueing ends at ``dispatch_start``, by default now.
        """
        # Transition every future to RUNNING now: a client may have
        # cancelled while its request was queued (the future was PENDING),
        # and set_result on a cancelled future raises — which would kill the
        # dispatcher and strand every other waiter.  Cancelled requests are
        # simply dropped; the survivors can no longer be cancelled.
        batch = [
            pending
            for pending in batch
            if pending.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        dispatch_start = time.monotonic() if dispatch_start is None else dispatch_start
        waits = [dispatch_start - pending.enqueued for pending in batch]
        batch_rows = sum(pending.request.n_rows for pending in batch)
        with self._cond:
            self._batches += 1
            batch_id = self._batches
            self._requests += len(batch)
            self._rows += batch_rows
            self._queue_seconds.extend(waits)
        try:
            session = self._runtime.serving_session()
        except Exception as error:
            # No published model version (or a closed runtime): the whole
            # batch fails with the runtime's own diagnostic.
            for pending in batch:
                pending.future.set_exception(error)
            return
        with session:
            groups: Dict[Tuple, List[_Pending]] = {}
            for pending in batch:
                groups.setdefault(pending.request.options, []).append(pending)
            for group in groups.values():
                self._serve_group(
                    session, group, batch_id, len(batch), batch_rows, dispatch_start
                )

    def _serve_group(
        self,
        session,
        group: List[_Pending],
        batch_id: int,
        batch_requests: int,
        batch_users: int,
        dispatch_start: float,
    ) -> None:
        """Merge one option-group, serve it in a single runtime call, scatter.

        The whole body — merge, serve, scatter, delivery — is guarded: any
        exception resolves the group's futures instead of escaping into the
        dispatcher loop, where it would kill the thread and strand every
        other waiter.  A request fails only on its own account: when a
        merged call raises, its requests are served one by one against the
        same pinned session, so only the offender keeps its error.
        """
        try:
            merged_rows, spans = merge_request_lists(
                [pending.request.rows for pending in group]
            )
            merged = group[0].request.merged_with_rows(merged_rows)
            response = session.recommend(merged)
            # Each slice is a view of the merged result, scores included.
            for pending, rankings in zip(group, scatter_results(response.rankings, spans)):
                pending.future.set_result(
                    RecommendResponse(
                        rankings=rankings,
                        generation=response.generation,
                        queue_ms=(dispatch_start - pending.enqueued) * 1000.0,
                        serve_ms=response.serve_ms,
                        batch_id=batch_id,
                        batch_requests=batch_requests,
                        batch_users=batch_users,
                    )
                )
        except Exception as error:
            for pending in group:
                if pending.future.done():
                    continue
                if len(group) == 1:
                    pending.future.set_exception(error)
                else:
                    self._serve_group(
                        session, [pending], batch_id, batch_requests, batch_users,
                        dispatch_start,
                    )

    def _fail_pending(self, cause: BaseException) -> None:
        """Resolve every queued future after the dispatcher loop died.

        Without this, requests already in the queue would keep PENDING
        futures forever — a client blocked in ``future.result()`` with no
        timeout would hang while only *new* submits learned of the failure.
        """
        with self._cond:
            leftovers = list(self._pending)
            self._pending.clear()
            self._pending_rows = 0
        for pending in leftovers:  # pragma: no cover - requires a dead dispatcher
            if not pending.future.done():
                failure = ConfigurationError(
                    "the batching dispatcher died before this request could "
                    "be dispatched"
                )
                failure.__cause__ = cause
                pending.future.set_exception(failure)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain pending requests, stop the dispatcher; idempotent.

        New submissions are rejected immediately; every request already
        queued is dispatched (without further accumulation delay) and its
        future resolved before the dispatcher stops.  The runtime is
        untouched — it is borrowed.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            self._cond.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._dispatcher.is_alive:
            with self._cond:
                if not self._pending:
                    break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.002)
        # Share the remaining budget with the join: close(timeout=T) bounds
        # the WHOLE close at ~T, not drain-T plus another join-T.
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        self._dispatcher.stop(timeout=remaining)
        # Only reachable if the dispatcher died or the drain timed out:
        # fail any stragglers rather than leaving their futures hanging.
        with self._cond:
            leftovers = list(self._pending)
            self._pending.clear()
            self._pending_rows = 0
        for pending in leftovers:  # pragma: no cover - requires a dead dispatcher
            if not pending.future.done():
                pending.future.set_exception(
                    ConfigurationError(
                        "the batching front-end closed before this request "
                        "could be dispatched"
                    )
                )

    def __enter__(self) -> "BatchingFrontEnd":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"pending={len(self._pending)}"
        return (
            f"{type(self).__name__}(max_delay_ms={self.max_delay_ms}, "
            f"max_batch_users={self.max_batch_users}, {state})"
        )
