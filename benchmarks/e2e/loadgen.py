"""The load generator: one process, one asyncio thread, ``<= nproc`` connections.

Two shapes of traffic over the gateway's NDJSON protocol:

* :func:`closed_loop` — ``depth`` callers per connection, each sending its
  next frame only after the previous reply; a slow server receives less load.
* :func:`open_loop` — Poisson arrivals at a fixed rate regardless of replies;
  every latency is timed from the frame's *due* time, so a stall is charged to
  every request it delays, and the generator's own lateness is reported.

Every frame carries an ``id``; the recorder counts replies per id so "exactly
one reply per frame" is checked, not assumed.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Users per known-user request (the issue's mix: mostly singles, some bulk).
KNOWN_SIZES = (1, 1, 1, 4, 4, 16, 64)
N_TENANTS = 8
#: Replies per phase whose full rankings are kept for the correctness replay:
#: every ``stride``-th frame, the stride doubling whenever more than twice this
#: many are held, so the sample always spans the whole phase.
CHECK_SAMPLE = 200
#: On top of that, the first replies of every (generation, kind, with scores)
#: combination, so that no generation and no rare kind goes unchecked.
CHECK_QUOTA = 4
#: How long after a phase's deadline an unanswered frame still counts.
GRACE_SECONDS = 5.0


@dataclass
class Frame:
    """One request as generated; ``body`` is the JSON without its ``id``."""

    kind: str  # "known", "cold" or "new" (post-ingest user ids)
    rows: tuple  # user ids, or item tuples for a cold-start frame
    body: bytes
    tenant: int


class RequestMix:
    """Seeded generator of request frames."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_users: int,
        n_items: int,
        sizes: Sequence[int] = KNOWN_SIZES,
        cold_share: float = 0.0,
        scores_share: float = 0.0,
        n_tenants: int = N_TENANTS,
    ) -> None:
        self.rng = rng
        self.n_users = n_users
        self.n_items = n_items
        self.sizes = tuple(sizes)
        self.cold_share = cold_share
        self.scores_share = scores_share
        self.n_tenants = n_tenants

    def _encode(self, kind, rows, payload, tenant, with_scores) -> Frame:
        payload["n_items"] = 10
        if with_scores:
            payload["with_scores"] = True
        if self.n_tenants > 1:
            payload["tenant"] = f"tenant-{tenant}"
        body = json.dumps(payload, separators=(",", ":")).encode()[1:]
        return Frame(kind, rows, body, tenant)

    def known(self, users: Optional[Sequence[int]] = None, kind: str = "known") -> Frame:
        rng = self.rng
        if users is None:
            size = self.sizes[int(rng.integers(len(self.sizes)))]
            users = rng.integers(0, self.n_users, size=size).tolist()
        tenant = int(rng.integers(self.n_tenants))
        with_scores = bool(rng.random() < self.scores_share)
        return self._encode(kind, tuple(users), {"users": list(users)}, tenant, with_scores)

    def cold(self) -> Frame:
        rng = self.rng
        count = int(rng.integers(5, 41))
        items = rng.choice(self.n_items, size=min(count, self.n_items), replace=False).tolist()
        tenant = int(rng.integers(self.n_tenants))
        with_scores = bool(rng.random() < self.scores_share)
        payload = {"interactions": [items], "n_sweeps": 30}
        return self._encode("cold", (tuple(items),), payload, tenant, with_scores)

    def next(self) -> Frame:
        if self.cold_share and self.rng.random() < self.cold_share:
            return self.cold()
        return self.known()


@dataclass
class Recorder:
    """Everything one phase observed, one list entry per frame sent."""

    kind: List[str] = field(default_factory=list)
    tenant: List[int] = field(default_factory=list)
    n_rows: List[int] = field(default_factory=list)
    conn: List[int] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)  # nan until answered
    ok: List[bool] = field(default_factory=list)
    generation: List[int] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)
    serve_ms: List[float] = field(default_factory=list)
    batch_requests: List[int] = field(default_factory=list)
    batch_users: List[int] = field(default_factory=list)
    replies: List[int] = field(default_factory=list)
    #: (frame index, Frame, rankings as lists, scores or None) for the replay check
    checked: List[Tuple[int, Frame, list, Optional[list]]] = field(default_factory=list)
    error_frames: int = 0
    errors: List[str] = field(default_factory=list)
    _stride: int = 1
    _per_key: Dict[tuple, int] = field(default_factory=dict)
    _by_quota: set = field(default_factory=set)

    def open(self, frame: Frame, conn: int, due: float, sent: float) -> int:
        index = len(self.kind)
        self.kind.append(frame.kind)
        self.tenant.append(frame.tenant)
        self.n_rows.append(len(frame.rows))
        self.conn.append(conn)
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(float("nan"))
        self.ok.append(False)
        self.generation.append(-1)
        self.queue_ms.append(float("nan"))
        self.serve_ms.append(float("nan"))
        self.batch_requests.append(0)
        self.batch_users.append(0)
        self.replies.append(0)
        return index

    def close(self, index: int, frame: Frame, reply: dict, done: float) -> None:
        self.replies[index] += 1
        if self.replies[index] > 1:
            return
        self.done[index] = done
        if reply.get("ok"):
            self.ok[index] = True
            # A ``stats`` reply (sent through ``send_raw``) has none of these.
            self.generation[index] = reply.get("generation", -1)
            self.queue_ms[index] = reply.get("queue_ms", float("nan"))
            self.serve_ms[index] = reply.get("serve_ms", float("nan"))
            self.batch_requests[index] = reply.get("batch_requests", 0)
            self.batch_users[index] = reply.get("batch_users", 0)
            if "rankings" in reply:
                self._sample(index, frame, reply)
        else:
            self.error_frames += 1
            if len(self.errors) < 5:
                self.errors.append(json.dumps(reply.get("error")))

    def _sample(self, index: int, frame: Frame, reply: dict) -> None:
        """Keep this reply for the replay check if the sampling plan wants it."""
        key = (self.generation[index], frame.kind, "scores" in reply)
        count = self._per_key.get(key, 0)
        if count >= CHECK_QUOTA and index % self._stride:
            return
        self._per_key[key] = count + 1
        if count < CHECK_QUOTA:
            self._by_quota.add(index)
        self.checked.append((index, frame, reply["rankings"], reply.get("scores")))
        if len(self.checked) - len(self._by_quota) > 2 * CHECK_SAMPLE:
            self._stride *= 2
            self.checked = [
                kept for kept in self.checked
                if kept[0] in self._by_quota or kept[0] % self._stride == 0
            ]

    # -- summaries ---------------------------------------------------------- #
    @property
    def attempted(self) -> int:
        return len(self.kind)

    @property
    def failed(self) -> int:
        """Frames refused, failed, unanswered or answered more than once."""
        bad = sum(
            1 for ok, replies in zip(self.ok, self.replies) if not ok or replies != 1
        )
        return bad

    def latencies_ms(self, kinds: Sequence[str] = (), since: str = "sent") -> np.ndarray:
        """Latency of every answered ok frame, from ``sent`` or from ``due``."""
        start = np.asarray(self.sent if since == "sent" else self.due)
        done = np.asarray(self.done)
        keep = np.asarray(self.ok, dtype=bool)
        if kinds:
            keep &= np.isin(np.asarray(self.kind), list(kinds))
        return (done[keep] - start[keep]) * 1000.0


class Connection:
    """One pipelined gateway connection with replies matched by id."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.stray_replies = 0
        self._pending: Dict[int, Tuple[int, Frame, asyncio.Future, Recorder]] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None
        self._next_id = 0

    async def connect(self, host: str, port: int) -> float:
        """Open the socket; returns the connect time in milliseconds."""
        started = time.perf_counter()
        self._reader, self._writer = await asyncio.open_connection(host, port, limit=1 << 24)
        elapsed = (time.perf_counter() - started) * 1000.0
        self._task = asyncio.get_running_loop().create_task(self._read_loop())
        return elapsed

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                done = time.perf_counter()
                reply = json.loads(line)
                entry = self._pending.pop(reply.get("id"), None)
                if entry is None:
                    self.stray_replies += 1
                    continue
                index, frame, future, recorder = entry
                recorder.close(index, frame, reply, done)
                if not future.done():
                    future.set_result(reply)
        except (ConnectionError, OSError):
            pass
        finally:
            for _index, _frame, future, _recorder in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("the gateway closed the connection"))
            self._pending.clear()

    def send(self, frame: Frame, recorder: Recorder, due: Optional[float] = None) -> asyncio.Future:
        """Write one frame now; the future resolves with its reply."""
        rid = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        sent = time.perf_counter()
        index = recorder.open(frame, self.index, sent if due is None else due, sent)
        self._pending[rid] = (index, frame, future, recorder)
        self._writer.write(b'{"id":%d,' % rid + frame.body + b"\n")
        return future

    def send_raw(self, payload: dict) -> asyncio.Future:
        """One frame outside the request mix (``stats`` op, oversize probe)."""
        body = json.dumps(payload, separators=(",", ":")).encode()[1:]
        return self.send(Frame("raw", (), body, 0), Recorder())

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._task is not None:
            try:
                await asyncio.wait_for(self._task, timeout=GRACE_SECONDS)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                self._task.cancel()


async def _reap(tasks: Sequence[asyncio.Future], timeout: float) -> None:
    """Wait for ``tasks`` at most ``timeout`` seconds; never raise their errors.

    A frame the server never answers, or a connection it drops, is counted as
    failed by the recorder; the phase itself must still end.
    """
    pending = [task for task in tasks if not task.done()]
    if pending:
        _done, stuck = await asyncio.wait(pending, timeout=timeout)
        for task in stuck:
            task.cancel()
    for task in tasks:
        if task.done() and not task.cancelled():
            task.exception()


async def closed_loop(
    connections: Sequence[Connection],
    mixes: Sequence[RequestMix],
    recorder: Recorder,
    depth: int,
    seconds: float,
    stop: Optional[asyncio.Event] = None,
) -> float:
    """``depth`` callers per connection until ``seconds`` pass (or ``stop``).

    ``mixes`` holds one request generator per connection.  Returns the
    phase's wall-clock duration.
    """
    started = time.perf_counter()
    deadline = started + seconds

    async def caller(connection: Connection, mix: RequestMix) -> None:
        while time.perf_counter() < deadline and not (stop and stop.is_set()):
            await connection.send(mix.next(), recorder)

    tasks = [
        asyncio.ensure_future(caller(connection, mix))
        for connection, mix in zip(connections, mixes)
        for _ in range(depth)
    ]
    await _reap(tasks, seconds + GRACE_SECONDS)
    return time.perf_counter() - started


async def open_loop(
    connections: Sequence[Connection],
    mix: RequestMix,
    recorder: Recorder,
    rate: float,
    seconds: float,
) -> float:
    """Poisson arrivals at ``rate`` per second for ``seconds``.

    The schedule is drawn up front from the mix's generator: exactly
    ``rate * seconds`` arrival times, uniform over the interval (a Poisson
    process conditioned on its count, so runs differ in when frames arrive but
    not in how many).  Frames go out round-robin over the connections at their
    due times whether or not earlier replies have arrived.  Returns the
    wall-clock duration.
    """
    offsets = np.sort(mix.rng.random(max(1, round(rate * seconds)))) * seconds
    frames = [mix.next() for _ in offsets]
    if mix.cold_share and not any(frame.kind == "cold" for frame in frames):
        frames[len(frames) // 2] = mix.cold()  # a short phase still reports a cold-start latency
    futures: List[asyncio.Future] = []
    started = time.perf_counter()
    for position, (offset, frame) in enumerate(zip(offsets, frames)):
        due = started + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        connection = connections[position % len(connections)]
        futures.append(connection.send(frame, recorder, due=due))
    await _reap(futures, GRACE_SECONDS)
    return time.perf_counter() - started
