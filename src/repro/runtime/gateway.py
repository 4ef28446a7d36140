"""Async serving gateway: thousands of connections, one micro-batcher.

The :class:`~repro.runtime.batching.BatchingFrontEnd` coalesces concurrent
requests, but its callers are threads — and a thread per network client
does not scale to the paper's B2B deployment shape, where many tenants hold
long-lived connections and fire small requests at arbitrary times.
:class:`ServingGateway` puts an asyncio front door on the batcher: one
event loop multiplexes every connection, each parsed request becomes a
``front.submit_request()`` future whose result reaches the loop through a
mailbox (one loop wake-up per batch, not per response), and the response
travels back down the same connection.  The expensive work (merging,
sharded scoring) stays exactly where it was — on the batcher's dispatcher
and the runtime's executor — so the gateway adds concurrency without adding
a serving path.  One exception: a frame with no company — the gateway's
only live frame, known users making one shard, an idle front-end that does
not hold — is served on the loop thread as the front-end's batch of one,
skipping the two thread hand-offs that would be all its queueing.

Wire protocol — newline-delimited JSON, one frame per line:

* request frame: a :meth:`RecommendRequest.to_dict` payload, optionally
  extended with ``"id"`` (any JSON value, echoed back verbatim so clients
  can pipeline) and ``"op"`` (``"recommend"``, the default, or
  ``"stats"``);
* success frame: ``{"id": ..., "ok": true, ...response.to_dict()}``;
* error frame: ``{"id": ..., "ok": false, "error": {"code": ..., "message":
  ...}}`` with codes ``bad-json``, ``bad-request``, ``unknown-op``,
  ``frame-too-large``, ``not-fitted``, ``closing`` and ``server-error``.
  Errors are per-frame: a malformed request never kills its connection,
  let alone the server — a frame over ``max_frame_bytes`` is discarded up
  to its newline, answered (with ``"id": null``; it was never parsed) and
  the connection reads on.

Admission control and fairness: at most ``max_inflight`` requests are
inside the batcher at a time.  Arrivals beyond that park in a
:class:`~repro.runtime.fairness.WeightedFairQueue` keyed by the request's
``tenant``, so a tenant flooding the gateway with a deep pipeline queues
behind itself while other tenants' requests keep being admitted at their
fair share — round-robin, one admission per tenant per round.

Failure modes are contained per connection: a client that disconnects
mid-flight has exactly its own frames cancelled (pending batcher futures
are dropped by the dispatcher's ``set_running_or_notify_cancel``; already
running ones complete and are discarded), and :meth:`close` stops accepting
new frames with a ``closing`` error while every in-flight frame resolves
and is written out before the sockets shut — drain-on-close, same contract
as the batcher beneath.

:class:`GatewayThread` runs the event loop in a daemon thread so
synchronous applications (and the test-suite) can host a gateway next to a
runtime; :class:`GatewayClient` is the matching blocking socket client.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import Future
from typing import Dict, List, Optional, Set, Tuple

from repro.api import RecommendRequest, RecommendResponse
from repro.exceptions import ConfigurationError, DataError, NotFittedError, ReproError
from repro.runtime.fairness import WeightedFairQueue
from repro.serving.buffers import SCORE_BUFFER_BUDGET_BYTES
from repro.utils.validation import check_positive_int

__all__ = ["GatewayClient", "GatewayError", "GatewayThread", "ServingGateway"]


class GatewayError(ReproError):
    """A gateway error frame, surfaced client-side with its wire code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


def _error_frame(rid, code: str, message: str) -> dict:
    return {"id": rid, "ok": False, "error": {"code": code, "message": message}}


async def _read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next newline-terminated frame; ``b""`` at EOF.

    ``None`` stands for a frame longer than the reader's limit: its bytes are
    dropped as they arrive, up to and including its newline, so the stream
    is back on a frame boundary and memory stays bounded by the limit.
    """
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:  # EOF
            return None if oversized else error.partial
        except asyncio.LimitOverrunError as error:
            oversized = True
            await reader.readexactly(error.consumed)
            continue
        return None if oversized else line


class ServingGateway:
    """Asyncio front door bridging socket clients onto a batching front-end.

    Parameters
    ----------
    front:
        The :class:`~repro.runtime.batching.BatchingFrontEnd` to serve
        through (borrowed — closing the gateway never closes it).
    host / port:
        Bind address.  ``port=0`` picks a free port; read :attr:`address`
        after :meth:`start`.
    max_inflight:
        Admission cap: requests inside the batcher at once, across all
        connections.  Arrivals beyond it park in the fair queue.
    max_connection_inflight:
        Pipelining bound per connection: a connection with this many frames
        outstanding is not read from until one resolves, so one client
        cannot queue unbounded memory server-side.
    max_frame_bytes:
        Longest request frame accepted (default 1 MiB — a cold-start
        payload of thousands of interactions fits); a longer one is
        answered with a ``frame-too-large`` error frame.

    All state is owned by the event loop thread — the class is not
    thread-safe by itself; cross-thread use goes through
    :class:`GatewayThread`.
    """

    def __init__(
        self,
        front,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        max_connection_inflight: int = 256,
        max_frame_bytes: int = 1 << 20,
    ) -> None:
        self._front = front
        self.host = host
        self.port = port
        self.max_inflight = check_positive_int(max_inflight, "max_inflight")
        self.max_connection_inflight = check_positive_int(
            max_connection_inflight, "max_connection_inflight"
        )
        self.max_frame_bytes = check_positive_int(max_frame_bytes, "max_frame_bytes")
        self._queue = WeightedFairQueue()
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._inflight = 0
        self._connections: Set[asyncio.StreamWriter] = set()
        self._tasks: Set[asyncio.Task] = set()
        # Resolved batcher futures on their way to the loop (see _submit).
        self._mailbox: List[Tuple[Future, asyncio.Future]] = []
        self._mailbox_lock = threading.Lock()
        # Counters for the stats frame.
        self._accepted = 0
        self._frames = 0
        self._responses = 0
        self._served_on_loop = 0
        self._errors: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def front(self):
        """The borrowed batching front-end."""
        return self._front

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ConfigurationError("the gateway is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def connections(self) -> int:
        """Connections currently open."""
        return len(self._connections)

    @property
    def inflight(self) -> int:
        """Requests currently admitted into the batcher."""
        return self._inflight

    @property
    def queued(self) -> int:
        """Requests parked in the fair queue awaiting admission."""
        return len(self._queue)

    def stats_payload(self) -> dict:
        """JSON-ready gateway + batcher + serving + model state for the stats frame."""
        payload = {
            "gateway": {
                "connections": len(self._connections),
                "connections_accepted": self._accepted,
                "frames": self._frames,
                "responses": self._responses,
                "served_on_loop": self._served_on_loop,
                "errors": dict(self._errors),
                "inflight": self._inflight,
                "queued": len(self._queue),
                "max_inflight": self.max_inflight,
                "closing": self._closing,
            },
            "batching": self._front.stats().as_dict(),
            "generation": getattr(self._front.runtime, "generation", 0),
        }
        engine = getattr(self._front.runtime, "engine", None)
        if engine is not None:
            # Operational visibility into the serving hot path: what dtype
            # and chunk the engine actually runs, and the buffer pool's
            # allocation counters (allocations flat + reuses growing is the
            # steady-state zero-allocation signature).
            pool = engine.pool.stats()
            payload["serving"] = {
                "dtype": engine.serving_dtype.name,
                "chunk_size": engine.chunk_size,
                "effective_chunk_size": engine.effective_chunk_size(),
                "buffer_budget_bytes": SCORE_BUFFER_BUDGET_BYTES,
                "pool": {
                    "allocations": pool.allocations,
                    "reuses": pool.reuses,
                    "outstanding": pool.outstanding,
                    "bytes_allocated": pool.bytes_allocated,
                    "cached_blocks": pool.cached_blocks,
                },
            }
        model = getattr(self._front.runtime, "model", None)
        history = getattr(model, "history_", None)
        if history is not None and getattr(history, "item_sweep_stats", None):
            # The training-side mirror of the pool counters above: the sweep
            # workspaces' footprint and allocation-vs-reuse balance of the
            # model's last (re)fit.
            payload["training"] = {
                "iterations": history.n_iterations,
                "peak_workspace_bytes": history.peak_workspace_bytes,
                "workspace_allocations": history.total_workspace_allocations,
                "workspace_reuses": history.total_workspace_reuses,
                "evaluated_rows": history.total_evaluated_rows,
            }
        return payload

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "ServingGateway":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ConfigurationError("the gateway is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=self.max_frame_bytes
        )
        return self

    async def close(self) -> None:
        """Drain in-flight frames, then close every connection; idempotent.

        New frames arriving during the drain are answered with a
        ``closing`` error; frames already admitted (or parked in the fair
        queue) resolve and are written out before the sockets close.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for writer in list(self._connections):
            writer.close()
        for writer in list(self._connections):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
        self._connections.clear()

    async def __aenter__(self) -> "ServingGateway":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    async def _admit(self, tenant: str) -> None:
        """Take one admission slot, parking in the fair queue when full.

        Fairness engages exactly when it matters: with a free slot and an
        empty queue the request is admitted immediately (FIFO behaviour
        under light load); otherwise it parks under its tenant and the DRR
        queue decides whose parked request the next free slot admits.
        """
        if self._inflight < self.max_inflight and not len(self._queue):
            self._inflight += 1
            return
        gate = asyncio.get_running_loop().create_future()
        self._queue.push(tenant, gate)
        try:
            await gate
        except asyncio.CancelledError:
            # Cancelled after the pump granted the slot: hand it back, or
            # the slot leaks and the gateway strangles to max_inflight - 1.
            if gate.done() and not gate.cancelled():
                self._release()
            raise

    def _release(self) -> None:
        """Free one admission slot and admit the fairest parked request."""
        self._inflight -= 1
        self._pump()

    def _pump(self) -> None:
        while self._inflight < self.max_inflight:
            gate = self._queue.pop()
            if gate is None:
                return
            if gate.cancelled():
                continue  # its connection died while parked
            self._inflight += 1
            gate.set_result(None)

    def _serve_alone(self, request: RecommendRequest) -> Optional[RecommendResponse]:
        """Serve a frame with no company on the loop thread; ``None`` otherwise.

        Only the gateway's one live frame qualifies: a frame served here
        leaves the loop's next frames unread, and frames with company must
        still meet in the batcher.  The front-end checks the rest.
        """
        if len(self._tasks) != 1:
            return None
        future = self._front._serve_if_idle(request)
        if future is None:
            return None
        self._served_on_loop += 1
        return future.result()

    def _submit(self, request: RecommendRequest) -> asyncio.Future:
        """Submit to the batcher; the loop-side future of the response.

        The dispatcher mails each resolved future and only the first into an
        empty mailbox wakes the loop (one self-pipe write per batch); a
        cancelled loop future (disconnect, shutdown) cancels the batcher's.
        """
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        future = self._front.submit_request(request)
        waiter.add_done_callback(lambda w: w.cancelled() and future.cancel())

        def post(done: Future) -> None:
            if waiter.cancelled():
                return  # nobody to tell, and the loop may be gone
            with self._mailbox_lock:
                first = not self._mailbox
                self._mailbox.append((done, waiter))
            if first:
                loop.call_soon_threadsafe(self._drain)

        future.add_done_callback(post)
        return waiter

    def _drain(self) -> None:
        """Resolve every loop future mailed since the last wake-up."""
        with self._mailbox_lock:
            mail, self._mailbox = self._mailbox, []
        for future, waiter in mail:
            if waiter.done():
                continue  # cancelled on the loop side meanwhile
            if future.cancelled():
                waiter.cancel()
            elif future.exception() is not None:
                waiter.set_exception(future.exception())
            else:
                waiter.set_result(future.result())

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._accepted += 1
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        frames: Set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await _read_frame(reader)
                except (ConnectionError, OSError):
                    break
                if line is None:
                    self._frames += 1
                    await self._send_error(
                        writer, write_lock, None, "frame-too-large",
                        f"frame exceeds max_frame_bytes={self.max_frame_bytes}",
                    )
                    continue
                if not line:
                    break  # EOF: client closed its write side
                line = line.strip()
                if not line:
                    continue
                if len(frames) >= self.max_connection_inflight:
                    await asyncio.wait(frames, return_when=asyncio.FIRST_COMPLETED)
                task = loop.create_task(self._serve_frame(line, writer, write_lock))
                frames.add(task)
                self._tasks.add(task)
                task.add_done_callback(frames.discard)
                task.add_done_callback(self._tasks.discard)
        finally:
            # The reader is gone: whatever this connection still has in
            # flight can never be delivered.  Cancel exactly these frames —
            # their pending batcher futures are dropped by the dispatcher,
            # every other connection is untouched.
            for task in list(frames):
                task.cancel()
            if frames:
                await asyncio.gather(*list(frames), return_exceptions=True)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_frame(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        """Parse, admit, serve and answer one frame; errors stay per-frame."""
        self._frames += 1
        rid = None
        try:
            try:
                payload = json.loads(line.decode("utf-8", errors="replace"))
            except json.JSONDecodeError as error:
                await self._send_error(
                    writer, write_lock, rid, "bad-json", f"frame is not valid JSON: {error}"
                )
                return
            if not isinstance(payload, dict):
                await self._send_error(
                    writer, write_lock, rid, "bad-json", "a frame must be a JSON object"
                )
                return
            rid = payload.pop("id", None)
            op = payload.pop("op", "recommend")
            if self._closing:
                await self._send_error(
                    writer, write_lock, rid, "closing", "the gateway is shutting down"
                )
                return
            if op == "stats":
                await self._send(
                    writer, write_lock, {"id": rid, "ok": True, "stats": self.stats_payload()}
                )
                return
            if op != "recommend":
                await self._send_error(
                    writer, write_lock, rid, "unknown-op",
                    f"unknown op {op!r} (accepted: recommend, stats)",
                )
                return
            try:
                request = RecommendRequest.from_dict(payload)
            except ConfigurationError as error:
                await self._send_error(writer, write_lock, rid, "bad-request", str(error))
                return
            await self._admit(request.tenant)
            try:
                response = self._serve_alone(request)
                if response is None:
                    response = await self._submit(request)
            finally:
                self._release()
            self._responses += 1
            await self._send(writer, write_lock, {"id": rid, "ok": True, **response.to_dict()})
        except asyncio.CancelledError:
            raise  # disconnect / shutdown: nobody left to answer
        except NotFittedError as error:
            await self._send_error(writer, write_lock, rid, "not-fitted", str(error))
        except (ConfigurationError, DataError) as error:
            # The runtime refused the request's own rows (an id past the corpus
            # or the catalogue).  A closed front-end refuses valid requests
            # too: lifecycle, not client.
            code = "closing" if self._front.closed else "bad-request"
            await self._send_error(writer, write_lock, rid, code, str(error))
        except Exception as error:  # noqa: BLE001 - the connection must survive
            await self._send_error(
                writer, write_lock, rid, "server-error",
                f"{type(error).__name__}: {error}",
            )

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, frame: dict
    ) -> None:
        data = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client is gone; its reader loop will clean up

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        rid,
        code: str,
        message: str,
    ) -> None:
        self._errors[code] = self._errors.get(code, 0) + 1
        await self._send(writer, write_lock, _error_frame(rid, code, message))


class GatewayThread:
    """Host a :class:`ServingGateway` on a daemon event-loop thread.

    The synchronous twin of ``async with ServingGateway(...)`` — start
    binds the socket before returning, close drains before returning, and
    the context-manager form gives both for free::

        with BatchingFrontEnd(runtime) as front:
            with GatewayThread(front) as gateway:
                host, port = gateway.address
                ...  # connect GatewayClients
    """

    def __init__(self, front, **gateway_kwargs) -> None:
        self.gateway = ServingGateway(front, **gateway_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[Tuple[str, int]] = None
        self._started = False
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise ConfigurationError("the gateway is not started")
        return self._address

    def start(self) -> "GatewayThread":
        if self._started:
            raise ConfigurationError("the gateway thread is already started")
        self._started = True
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            ready.set()
            self._loop.run_forever()
            # run_forever returned: cancel stragglers and close the loop in
            # its own thread, where loop methods are legal.
            self._loop.close()

        self._thread = threading.Thread(target=run, name="serving-gateway", daemon=True)
        self._thread.start()
        ready.wait()
        future = asyncio.run_coroutine_threadsafe(self.gateway.start(), self._loop)
        try:
            future.result(timeout=30)
            self._address = self.gateway.address
        except BaseException:
            self.close()
            raise
        return self

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain the gateway and stop the loop thread; idempotent."""
        if self._closed or self._loop is None:
            return
        self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(self.gateway.close(), self._loop).result(
                timeout=timeout
            )
        except Exception:  # pragma: no cover - drain timeout / loop death
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class GatewayClient:
    """Blocking NDJSON client for a :class:`ServingGateway`.

    One socket, synchronous request/response; ``send_frame`` /
    ``recv_frame`` expose the raw protocol for pipelined use (responses to
    pipelined frames are matched by the echoed ``id``).
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    def send_frame(self, frame: dict) -> None:
        """Write one raw frame (no waiting)."""
        self._file.write(json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n")
        self._file.flush()

    def recv_frame(self) -> dict:
        """Read one raw frame; raises :class:`GatewayError` on EOF."""
        line = self._file.readline()
        if not line:
            raise GatewayError("connection-closed", "the gateway closed the connection")
        return json.loads(line)

    def request(self, frame: dict) -> dict:
        """One frame round-trip, with an auto-assigned ``id``."""
        frame = dict(frame)
        frame.setdefault("id", self._assign_id())
        self.send_frame(frame)
        return self.recv_frame()

    def _assign_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        """Serve one :class:`RecommendRequest` over the wire.

        Raises :class:`GatewayError` with the wire code when the gateway
        answers with an error frame.
        """
        frame = self.request(request.to_dict())
        if not frame.get("ok"):
            error = frame.get("error") or {}
            raise GatewayError(
                error.get("code", "unknown"), error.get("message", "unknown error")
            )
        return RecommendResponse.from_dict(frame)

    def stats(self) -> dict:
        """The gateway's stats payload."""
        frame = self.request({"op": "stats"})
        if not frame.get("ok"):  # pragma: no cover - stats cannot fail today
            error = frame.get("error") or {}
            raise GatewayError(
                error.get("code", "unknown"), error.get("message", "unknown error")
            )
        return frame["stats"]

    def close(self) -> None:
        try:
            self._file.close()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
        self._sock.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
