"""Multi-machine RPC execution: N agent nodes serving shards of one model.

The paper deploys grid search and serving "using Apache Spark across a
cluster of 8 machines" (Section VII-E).  This module reproduces that shape
natively on the stdlib: a :class:`ClusterExecutor` registered in the
scheduler registry as ``"cluster"`` fans ``starmap`` tasks out over
``multiprocessing.connection`` sockets to N agent processes — loopback
agents it spawns itself, or agents started on other machines with
``python -m repro.parallel.cluster``.

Three ideas carry the design:

* **Descriptors, not arrays.**  The executor composes the same
  :class:`~repro.parallel.publication.PublicationTable` as the
  shared-memory process pool, so the training backend and the serving
  runtime ship ``(row_range, spec)`` tasks unchanged.  Only the store
  differs: published arrays live in a driver-side object store and tasks
  carry ``remote`` :class:`~repro.parallel.publication.SharedArraySpec`
  descriptors.  A node fetches each key **once**, on its connection, while
  the task that needs it runs, caches the array, and is told to evict it
  when the driver retires the publication (a model-generation swap, the end
  of a fit) — so one model version crosses the wire to each node one time,
  not once per shard, and agents never connect back to the driver.
* **Fault tolerance is first-class.**  Each node runs its tasks over its
  one connection with a per-task reply timeout.  A task that *raises*
  propagates its exception (first failure in submission order, remote
  traceback attached) exactly like the local pools.  A node that *dies* —
  killed, crashed, or silent past the timeout — has its in-flight task
  re-dispatched to a surviving node (bounded by ``max_task_retries``); the
  merged results are indistinguishable from a run without the failure.
  Only when the retry budget or the nodes themselves are exhausted does the
  caller see a typed :class:`~repro.exceptions.WorkerCrashError` naming the
  failed task.
* **One lifecycle contract.**  Like every registered executor, work
  submitted after :meth:`ClusterExecutor.shutdown` raises
  :class:`~repro.exceptions.ExecutorShutDownError`; shutdown itself is
  idempotent, drains in-flight work, stops the agents it spawned and
  retires every publication.

Wire protocol: pickled tuples over one authenticated
``multiprocessing.connection`` channel per agent.  Only the driver opens
it, and its first frame is ``("hello",)``.  The agent runs the
frames in order on one thread and keeps one object cache per connection:

=========================================  ================================
driver -> agent                            agent -> driver
=========================================  ================================
``("task", function, args)``               ``("ok", result)`` or
                                           ``("error", pickled, repr,
                                           traceback)``
the array, or ``None`` once retired        ``("get", key)``, while a task
                                           runs
``("evict", keys)``                        nothing
``("ping",)`` ``("stats",)``               ``("ok", payload)``
``("die_after", n)`` ``("shutdown",)``
=========================================  ================================

The driver sends ``evict`` just before the next frame after a retire, so a
node never evicts in the middle of a task and a publisher never waits on
the network.  ``shutdown`` ends the agent process (exit code 0) after the
reply.  ``die_after`` is a deterministic fault-injection hook: the agent
executes ``n`` more tasks, then exits hard *before* replying to the next
one — exactly the mid-call crash the re-dispatch tests need, without racing
a signal against task boundaries.

Trust boundary: frames are pickles authenticated only by the HMAC
``authkey``, so whoever holds the key can run arbitrary code on an agent.
Spawned agents bind ``127.0.0.1``, by default with a fresh random key;
external agents require an explicit key and belong on trusted networks
only.
"""

from __future__ import annotations

import argparse
import itertools
import os
import pickle
import queue
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import AuthenticationError, get_context
from multiprocessing.connection import Client, Connection, Listener
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ExecutorShutDownError, WorkerCrashError
from repro.parallel.publication import PublicationTable, SharedArraySpec
from repro.parallel.shared_memory import drop_cached
from repro.utils.validation import check_positive_int

#: Node count when ``"cluster"`` is resolved by name without ``max_workers``.
DEFAULT_CLUSTER_NODES = 2

#: Fault-injection knob (milliseconds): every agent sleeps this long before
#: executing each task, widening the window in which a test can kill a node
#: mid-``serve_sharded``.  Read agent-side per task; unset means no delay.
TASK_DELAY_ENV = "REPRO_CLUSTER_TASK_DELAY_MS"

#: Exit code of an agent killed by the ``die_after`` fault-injection hook.
EXIT_INJECTED_DEATH = 17

_AGENT_START_TIMEOUT = 30.0

#: Seconds a node may take to answer a control request once it is sent.
_CTRL_TIMEOUT = 30.0


# --------------------------------------------------------------------------- #
# Agent (node) side
# --------------------------------------------------------------------------- #
class _NodeRuntime:
    """One driver connection's object cache plus fault-injection and telemetry state.

    Built per connection and used only by the thread serving it, so it takes
    no lock; a second driver on a standalone agent gets its own.
    """

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._objects: Dict[str, np.ndarray] = {}
        self._evicted: set = set()
        self.fetch_counts: Dict[str, int] = {}
        self.tasks_executed = 0
        self.die_after: Optional[int] = None

    def fetch(self, spec: SharedArraySpec) -> np.ndarray:
        """The node-local array for ``spec``, fetched from the driver at most once.

        The driver's runner for this node is waiting on the connection for
        the task's reply, and answers the ``("get", key)`` in between.
        """
        key = spec.shm_name
        cached = self._objects.get(key)
        if cached is not None:
            return cached
        self.connection.send(("get", key))
        array = self.connection.recv()
        if array is None:
            raise KeyError(
                f"cluster object {key!r} is not in the driver store "
                "(retired or never published)"
            )
        array = np.asarray(array).reshape(spec.shape)
        self._objects[key] = array
        self.fetch_counts[key] = self.fetch_counts.get(key, 0) + 1
        self._evicted.discard(key)
        return array

    def is_live(self, key: str) -> bool:
        """Whether the driver has not (yet) told this node to evict ``key``."""
        return key not in self._evicted

    def evict(self, keys: Iterable[str]) -> None:
        """Drop cached arrays for retired publications.

        Worker-side caches built over the arrays (rebuilt engines, sweep
        sides) are asked to drop their entries too, so the next task
        rebuilds from live publications instead of serving stale data.
        """
        keys = list(keys)
        for key in keys:
            self._objects.pop(key, None)
            self._evicted.add(key)
        drop_cached(keys)

    def stats(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "tasks_executed": self.tasks_executed,
            "store_keys": sorted(self._objects),
            "fetch_counts": dict(self.fetch_counts),
            "evicted": sorted(self._evicted),
        }


#: ``runtime`` is the :class:`_NodeRuntime` of the connection this thread
#: serves; unset outside agent connection threads, where attaching a remote
#: descriptor is a programming error and raises.
_LOCAL = threading.local()


def node_runtime() -> _NodeRuntime:
    """The object cache remote descriptors attach through, on this thread."""
    runtime = getattr(_LOCAL, "runtime", None)
    if runtime is None:
        raise RuntimeError(
            "no cluster node runtime in this process; a remote array "
            "descriptor can only be attached inside a cluster agent "
            "executing a task"
        )
    return runtime


def _pickle_or_none(error: BaseException) -> Optional[bytes]:
    try:
        return pickle.dumps(error)
    except Exception:
        return None


def _run_task(runtime: _NodeRuntime, function: Callable[..., Any], args: Tuple) -> None:
    """Execute one task and send its reply."""
    connection = runtime.connection
    delay = os.environ.get(TASK_DELAY_ENV)
    if delay:
        try:
            time.sleep(float(delay) / 1000.0)
        except ValueError:
            pass
    if runtime.die_after is not None:
        if runtime.die_after <= 0:
            # Injected crash: exit hard before replying, so the driver sees
            # exactly what a dead machine looks like — an in-flight task
            # whose reply never comes.
            os._exit(EXIT_INJECTED_DEATH)
        runtime.die_after -= 1
    try:
        result = function(*args)
    except BaseException as error:
        connection.send(
            ("error", _pickle_or_none(error), repr(error), traceback.format_exc())
        )
    else:
        try:
            connection.send(("ok", result))
        except (EOFError, OSError):
            raise
        except Exception as error:
            # The pickling failure happened before any bytes hit the
            # wire (Connection.send serialises first), so the channel
            # is intact — report it as a task error, not a node death.
            connection.send(("error", None, repr(error), traceback.format_exc()))
    runtime.tasks_executed += 1


def _serve_connection(connection: Connection) -> None:
    """Run every frame of one driver connection, in order, until it closes."""
    try:
        if connection.recv() != ("hello",):
            return
        runtime = _LOCAL.runtime = _NodeRuntime(connection)
        while True:
            message = connection.recv()
            op = message[0]
            if op == "task":
                _run_task(runtime, message[1], message[2])
            elif op == "evict":
                runtime.evict(message[1])
            elif op == "ping":
                connection.send(("ok", "pong"))
            elif op == "stats":
                connection.send(("ok", runtime.stats()))
            elif op == "die_after":
                runtime.die_after = int(message[1])
                connection.send(("ok", None))
            elif op == "shutdown":
                connection.send(("ok", None))
                os._exit(0)
            else:
                connection.send(("error", None, f"unknown op {op!r}", ""))
    except (EOFError, OSError):
        # The driver went away; a standalone agent stays up for the next one.
        pass
    finally:
        _close(connection)


def _serve_agent(listener: Listener) -> None:
    """Accept loop of one agent: a thread per driver connection, forever.

    The process ends on a driver's ``("shutdown",)``; a peer that fails or
    abandons the handshake costs only its own connection.
    """
    while True:
        try:
            connection = listener.accept()
        except (AuthenticationError, EOFError, ConnectionError):
            continue
        threading.Thread(
            target=_serve_connection,
            args=(connection,),
            daemon=True,
            name="repro-cluster-connection",
        ).start()


def _agent_main(
    host: str, port: int, authkey: bytes, ready: Optional[Connection] = None
) -> None:
    """Entry point of a spawned loopback agent process."""
    listener = Listener((host, port), authkey=bytes(authkey))
    if ready is not None:
        ready.send(listener.address)
        ready.close()
    _serve_agent(listener)


# --------------------------------------------------------------------------- #
# Driver-side object store
# --------------------------------------------------------------------------- #
class _ObjectStore:
    """The driver's object store: published arrays by key.

    This is the ``write``/``retire`` store of the executor's
    :class:`~repro.parallel.publication.PublicationTable`, which owns the
    policy (keys, LRU cap, generation retirement); ``evict`` receives the
    names of retired publications so the executor can tell its nodes.
    Nodes read it through :meth:`get`, which the driver calls when a node
    asks for a key while a task runs.
    """

    def __init__(self, evict: Callable[[List[str]], None]) -> None:
        self._objects: Dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self._evict = evict
        #: Prefix of every key: random, so drivers on different machines
        #: never share one.
        self.uid = os.urandom(8).hex()
        self._serials = itertools.count(1)

    def get(self, key: str) -> Optional[np.ndarray]:
        """The array published under ``key``, or ``None`` once retired."""
        with self._lock:
            return self._objects.get(key)

    def write(
        self, array: np.ndarray, previous: Optional[SharedArraySpec], pinned: bool
    ) -> SharedArraySpec:
        """Store ``array`` under a fresh name (``previous`` is never reused).

        Node caches hold fetched *copies*, so rewriting a slot in place could
        never reach them — a new name forces exactly one re-fetch per node.
        An unpinned array is snapshotted, like the shared-memory memcpy:
        later caller mutations must not leak into what nodes fetch.
        """
        name = f"repro-cluster-{self.uid}-{next(self._serials)}"
        spec = SharedArraySpec(name, tuple(array.shape), array.dtype.str, remote=True)
        with self._lock:
            self._objects[spec.shm_name] = array if pinned else array.copy()
        return spec

    def retire(self, specs: List[SharedArraySpec]) -> None:
        """Drop retired publications here and queue their eviction on every node."""
        if not specs:
            return
        names = [spec.shm_name for spec in specs]
        with self._lock:
            for name in names:
                self._objects.pop(name, None)
        self._evict(names)


# --------------------------------------------------------------------------- #
# Driver-side executor
# --------------------------------------------------------------------------- #
@dataclass
class _NodeHandle:
    """Driver-side view of one agent node.

    ``lock`` is held for one exchange on ``conn``: a task round trip with
    the fetches it makes, or one control request.  ``evictions`` holds the
    retired keys the node has not been sent yet.
    """

    node_id: int
    process: Optional[Any]  # multiprocessing.Process for spawned agents
    conn: Connection
    lock: threading.Lock = field(default_factory=threading.Lock)
    evictions: List[str] = field(default_factory=list)
    alive: bool = True


class _Call:
    """One map/starmap invocation: slot-addressed results plus a countdown."""

    __slots__ = ("results", "errors", "done", "remaining", "condition")

    def __init__(self, n_tasks: int) -> None:
        self.results: List[Any] = [None] * n_tasks
        self.errors: List[Optional[BaseException]] = [None] * n_tasks
        self.done = [False] * n_tasks
        self.remaining = n_tasks
        self.condition = threading.Condition()

    def complete(
        self, index: int, result: Any = None, error: Optional[BaseException] = None
    ) -> None:
        with self.condition:
            if self.done[index]:
                return
            self.done[index] = True
            self.results[index] = result
            self.errors[index] = error
            self.remaining -= 1
            if self.remaining == 0:
                self.condition.notify_all()


@dataclass
class _QueuedTask:
    call: _Call
    index: int
    function: Callable[..., Any]
    args: Tuple
    attempts: int = 0


class _RemoteTraceback(Exception):
    """Carrier of a remote task's traceback text, attached as ``__cause__``."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return self.text


def _rebuild_remote_error(reply: Tuple) -> BaseException:
    _op, payload, text, remote_traceback = reply
    error: Optional[BaseException] = None
    if payload is not None:
        try:
            error = pickle.loads(payload)
        except Exception:
            error = None
    if error is None:
        error = RuntimeError(f"cluster task failed with an unpicklable exception: {text}")
    error.__cause__ = _RemoteTraceback(
        f"\n--- remote traceback (cluster agent) ---\n{remote_traceback}"
    )
    return error


def _close(connection: Connection) -> None:
    try:
        connection.close()
    except Exception:
        pass


def _parse_address(address: Any) -> Tuple[str, int]:
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(
                f"cluster agent address must be 'host:port' or (host, port), got {address!r}"
            )
        return (host, int(port))
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return (str(address[0]), int(address[1]))
    raise ConfigurationError(
        f"cluster agent address must be 'host:port' or (host, port), got {address!r}"
    )


class ClusterExecutor:
    """RPC executor over N agent nodes with fault-tolerant re-dispatch.

    Registered in the scheduler registry as ``"cluster"``; every consumer of
    the executor protocol (training sweeps, ``serve_sharded``, the serving
    runtime, grid search) can select it by name.  Implements the full
    executor contract — order-stable ``map``/``starmap``, first-failure
    propagation with the remote traceback attached, idempotent
    ``shutdown``, :class:`~repro.exceptions.ExecutorShutDownError` on
    post-shutdown submission — plus the array-publication capability,
    which is what lets the descriptor fast paths treat "8 machines" and
    "8 local processes" as the same shape: ``publish``, ``publish_static``
    and ``unpublish`` are the methods of a
    :class:`~repro.parallel.publication.PublicationTable` over the driver's
    object store.  Refreshing a slot mints a fresh store key (one re-fetch
    per node); on ``unpublish`` every node drops the retired arrays, and any
    engine rebuilt over them, before the next frame the driver sends it.

    Parameters
    ----------
    n_nodes:
        How many loopback agent processes to spawn (default
        :data:`DEFAULT_CLUSTER_NODES`).  Ignored when ``addresses`` is given.
    addresses:
        Addresses (``"host:port"`` or ``(host, port)``) of externally
        started agents (``python -m repro.parallel.cluster --authkey ...``).
        Requires ``authkey``.
    authkey:
        Shared HMAC secret for every channel.  Defaults to a fresh random
        key for spawned agents; mandatory for external ones.
    task_timeout:
        Seconds a node may stay silent on an in-flight task before the
        driver declares it dead and re-dispatches the task.
    max_task_retries:
        How many times one task may be re-dispatched after node deaths
        before it fails with :class:`~repro.exceptions.WorkerCrashError`.
    max_objects:
        Soft LRU cap on concurrently published objects — the table
        capacity the shared-memory executor calls ``max_segments``
        (non-evictable publications are never silently dropped).
    """

    def __init__(
        self,
        n_nodes: Optional[int] = None,
        *,
        addresses: Optional[Sequence[Any]] = None,
        authkey: Optional[bytes] = None,
        task_timeout: float = 120.0,
        max_task_retries: int = 3,
        max_objects: int = 256,
    ) -> None:
        if task_timeout <= 0:
            raise ConfigurationError("task_timeout must be positive")
        if max_task_retries < 0:
            raise ConfigurationError("max_task_retries must be non-negative")
        if max_objects < 1:
            raise ConfigurationError("max_objects must be at least 1")
        self._task_timeout = float(task_timeout)
        self._max_task_retries = int(max_task_retries)
        self._tasks: "queue.Queue[_QueuedTask]" = queue.Queue()
        self._nodes: List[_NodeHandle] = []
        self._nodes_lock = threading.Lock()
        self._runners: List[threading.Thread] = []
        self._shut_down = False
        self._stopping = False
        self._lifecycle_lock = threading.Lock()

        if addresses is not None:
            if authkey is None:
                raise ConfigurationError(
                    "connecting to externally started agents requires their authkey"
                )
            self._authkey = bytes(authkey)
            agent_plan = [(_parse_address(address), None) for address in addresses]
            if not agent_plan:
                raise ConfigurationError("addresses must name at least one agent")
        else:
            if n_nodes is None:
                n_nodes = DEFAULT_CLUSTER_NODES
            n_nodes = check_positive_int(n_nodes, "n_nodes")
            self._authkey = bytes(authkey) if authkey is not None else os.urandom(16)
            agent_plan = []

        self._store = _ObjectStore(self._queue_evictions)
        self._publications = PublicationTable(self._store, int(max_objects))
        self.publish = self._publications.publish
        self.publish_static = self._publications.publish_static
        self.unpublish = self._publications.unpublish
        #: Store keys of every live publication (for tests).
        self.active_store_keys = self._publications.names
        try:
            if not agent_plan:
                agent_plan = [self._spawn_local_agent(i) for i in range(n_nodes)]
            for node_id, (address, process) in enumerate(agent_plan):
                self._nodes.append(self._connect_node(node_id, address, process))
            for node in self._nodes:
                self._request(node, ("ping",))
        except BaseException:
            self._emergency_teardown()
            raise
        #: Executor-protocol attribute: consumers size their shard counts on
        #: it (one shard wave spans the nodes), exactly like the pools.
        self.max_workers = len(self._nodes)
        for node in self._nodes:
            runner = threading.Thread(
                target=self._node_loop,
                args=(node,),
                daemon=True,
                name=f"repro-cluster-node-{node.node_id}",
            )
            runner.start()
            self._runners.append(runner)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _spawn_local_agent(self, node_id: int) -> Tuple[Tuple[str, int], Any]:
        # Spawn (not fork): agents must not inherit the driver's threads,
        # locks or BLAS state — they are stand-ins for other machines.
        context = get_context("spawn")
        parent, child = context.Pipe(duplex=False)
        process = context.Process(
            target=_agent_main,
            args=("127.0.0.1", 0, self._authkey, child),
            daemon=True,
            name=f"repro-cluster-agent-{node_id}",
        )
        process.start()
        child.close()
        if not parent.poll(_AGENT_START_TIMEOUT):
            process.kill()
            raise RuntimeError(
                f"cluster agent {node_id} did not report its address within "
                f"{_AGENT_START_TIMEOUT:.0f}s"
            )
        address = tuple(parent.recv())
        parent.close()
        return address, process

    def _connect_node(
        self, node_id: int, address: Tuple[str, int], process: Any
    ) -> _NodeHandle:
        conn = Client(address, authkey=self._authkey)
        # Evictions go out right before the next frame; with Nagle's algorithm
        # that second write would wait for the agent's delayed ACK (~40 ms).
        with socket.fromfd(conn.fileno(), socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.send(("hello",))
        return _NodeHandle(node_id, process, conn)

    def _emergency_teardown(self) -> None:
        self._stopping = True
        for node in self._nodes:
            _close(node.conn)
            if node.process is not None and node.process.is_alive():
                node.process.kill()

    # ------------------------------------------------------------------ #
    # Task execution
    # ------------------------------------------------------------------ #
    def map(self, function: Callable[..., Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``function`` to each item across the nodes, order-stable."""
        return self.starmap(function, [(item,) for item in items])

    def starmap(
        self, function: Callable[..., Any], argument_tuples: Iterable[Sequence[Any]]
    ) -> List[Any]:
        """Apply ``function(*args)`` across the nodes; results keep input order.

        Tasks are pulled round-robin by one runner thread per node (a
        work-sharing queue: a slow or dead node never strands more than its
        in-flight task).  The first task *exception* in submission order
        propagates with the remote traceback attached; node *deaths*
        re-dispatch transparently until the retry budget or the nodes run
        out, then raise :class:`~repro.exceptions.WorkerCrashError`.
        """
        self._check_active()
        tasks = [tuple(args) for args in argument_tuples]
        if not tasks:
            return []
        if not self._live_nodes():
            raise WorkerCrashError(
                "cannot dispatch: every cluster node is dead",
                executor=type(self).__name__,
            )
        call = _Call(len(tasks))
        for index, args in enumerate(tasks):
            self._tasks.put(_QueuedTask(call=call, index=index, function=function, args=args))
        self._await_call(call)
        for error in call.errors:
            if error is not None:
                raise error
        return list(call.results)

    def _await_call(self, call: _Call) -> None:
        while True:
            with call.condition:
                if call.remaining == 0:
                    return
                call.condition.wait(timeout=0.25)
                if call.remaining == 0:
                    return
            # Safety net for the all-nodes-dead races: any task still queued
            # can never run, so fail it now instead of waiting forever.
            if not self._live_nodes():
                self._drain_queue(RuntimeError("every cluster node is dead"))

    def _node_loop(self, node: _NodeHandle) -> None:
        while True:
            try:
                task = self._tasks.get(timeout=0.2)
            except queue.Empty:
                if self._stopping or not node.alive:
                    return
                continue
            if not node.alive:
                # This runner's node was killed between polls; hand the task
                # to a surviving runner.
                self._tasks.put(task)
                return
            try:
                with node.lock:
                    self._send(node, ("task", task.function, task.args))
                    reply = self._await_reply(node)
            except (EOFError, OSError, TimeoutError) as error:
                self._on_node_death(node, error)
                self._requeue(task, node, error)
                return
            except Exception as error:
                # An unpicklable task fails before any bytes hit the wire, and
                # a reply that will not deserialise arrived whole: either way
                # the channel framing is intact, so the node stays live.
                task.call.complete(task.index, error=error)
                continue
            if reply[0] == "ok":
                task.call.complete(task.index, result=reply[1])
            else:
                task.call.complete(task.index, error=_rebuild_remote_error(reply))

    def _await_reply(self, node: _NodeHandle) -> Tuple:
        """The in-flight task's reply, serving the node's fetches meanwhile."""
        while True:
            if not node.conn.poll(self._task_timeout):
                raise TimeoutError(
                    f"cluster node {node.node_id} gave no reply within "
                    f"{self._task_timeout:.1f}s"
                )
            reply = node.conn.recv()
            if reply[0] != "get":
                return reply
            node.conn.send(self._store.get(reply[1]))

    def _requeue(
        self, task: _QueuedTask, node: _NodeHandle, cause: BaseException
    ) -> None:
        task.attempts += 1
        if task.attempts > self._max_task_retries:
            task.call.complete(
                task.index,
                error=WorkerCrashError(
                    f"cluster node {node.node_id} died while executing task "
                    f"{task.index} ({cause!r}); retry budget "
                    f"({self._max_task_retries}) exhausted",
                    executor=type(self).__name__,
                    task_index=task.index,
                ),
            )
            return
        if not self._live_nodes():
            task.call.complete(
                task.index,
                error=WorkerCrashError(
                    f"cluster node {node.node_id} died while executing task "
                    f"{task.index} ({cause!r}); no surviving node to re-dispatch to",
                    executor=type(self).__name__,
                    task_index=task.index,
                ),
            )
            return
        self._tasks.put(task)

    def _on_node_death(self, node: _NodeHandle, cause: BaseException) -> None:
        with self._nodes_lock:
            if not node.alive:
                return
            node.alive = False
        _close(node.conn)
        if node.process is not None and node.process.is_alive():
            # A *hung* (timed-out) local agent is reaped, not abandoned.
            node.process.kill()
        if not self._live_nodes():
            self._drain_queue(cause)

    def _drain_queue(self, cause: BaseException) -> None:
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                return
            task.call.complete(
                task.index,
                error=WorkerCrashError(
                    f"task {task.index} could not run: every cluster node is dead "
                    f"({cause!r})",
                    executor=type(self).__name__,
                    task_index=task.index,
                ),
            )

    def _live_nodes(self) -> List[_NodeHandle]:
        return [node for node in self._nodes if node.alive]

    # ------------------------------------------------------------------ #
    # Evictions and control requests
    # ------------------------------------------------------------------ #
    def _queue_evictions(self, keys: List[str]) -> None:
        """Queue retired keys for every live node; no frame is sent here."""
        with self._nodes_lock:
            for node in self._nodes:
                if node.alive:
                    node.evictions.extend(keys)

    def _send(self, node: _NodeHandle, message: Tuple) -> None:
        """Send ``message`` to ``node``, after its queued evictions (lock held)."""
        with self._nodes_lock:
            keys, node.evictions = node.evictions, []
        if keys:
            node.conn.send(("evict", keys))
        node.conn.send(message)

    def _request(
        self, node: _NodeHandle, message: Tuple, timeout: float = _CTRL_TIMEOUT
    ) -> Any:
        """One control exchange; it waits for a task in flight on ``node``.

        A node that fails the exchange is declared dead: a late reply would
        otherwise be read as the answer to the next frame.
        """
        try:
            with node.lock:
                self._send(node, message)
                if not node.conn.poll(timeout):
                    raise TimeoutError(
                        f"cluster node {node.node_id} gave no reply to "
                        f"{message[0]!r} within {timeout:.1f}s"
                    )
                reply = node.conn.recv()
        except (EOFError, OSError, TimeoutError) as error:
            self._on_node_death(node, error)
            raise
        if reply[0] != "ok":
            raise RuntimeError(
                f"request {message[0]!r} failed on node {node.node_id}: {reply!r}"
            )
        return reply[1]

    def node_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-node telemetry: pid, tasks executed, cached keys, fetch counts.

        Each node answers after the task it is running, if any.
        """
        stats = {}
        for node in self._live_nodes():
            try:
                stats[node.node_id] = self._request(node, ("stats",))
            except Exception:
                pass
        return stats

    # ------------------------------------------------------------------ #
    # Fault injection (tests and drills)
    # ------------------------------------------------------------------ #
    def kill_node(self, node_id: int) -> None:
        """SIGKILL one locally spawned agent, exactly like a machine loss.

        The node is *not* marked dead here — the dispatch path must discover
        the death itself (EOF or task timeout) and re-dispatch, which is the
        behaviour under test.
        """
        node = self._nodes[node_id]
        if node.process is None:
            raise ConfigurationError(
                "kill_node only works on locally spawned agents; stop external "
                "agents at their own host"
            )
        node.process.kill()

    def inject_death_after(self, node_id: int, n_tasks: int) -> None:
        """Arm a node to exit hard right before replying to its (n+1)-th task."""
        self._request(self._nodes[node_id], ("die_after", int(n_tasks)))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _check_active(self) -> None:
        if self._shut_down:
            raise ExecutorShutDownError(
                f"cannot submit work to {type(self).__name__} after shutdown()"
            )

    @property
    def is_shut_down(self) -> bool:
        """Whether :meth:`shutdown` has completed."""
        return self._shut_down

    def shutdown(self) -> None:
        """Drain in-flight work, stop the agents, retire every publication.

        Idempotent.  New submissions are rejected immediately; queued and
        in-flight tasks finish first (like the pools' drain-on-shutdown),
        then spawned agents are asked to exit (and reaped if they will not),
        connections are closed, and the publication table is dropped.
        """
        with self._lifecycle_lock:
            if self._shut_down:
                return
            self._shut_down = True
        self._stopping = True
        for runner in self._runners:
            runner.join()
        for node in self._nodes:
            if node.alive:
                try:
                    self._request(node, ("shutdown",), timeout=5.0)
                except Exception:
                    pass
            node.alive = False
            _close(node.conn)
        for node in self._nodes:
            if node.process is not None:
                node.process.join(timeout=5.0)
                if node.process.is_alive():
                    node.process.kill()
                    node.process.join(timeout=5.0)
        self._publications.close()

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "shut down" if self._shut_down else f"{len(self._live_nodes())} live"
        return f"{type(self).__name__}(nodes={len(self._nodes)}, {state})"


# --------------------------------------------------------------------------- #
# Standalone agent CLI
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    """Run one agent in the foreground: ``python -m repro.parallel.cluster``.

    Start one per machine, then point the driver at them — the driver opens
    every connection, so agents need no route back to it::

        # on each worker machine
        python -m repro.parallel.cluster --host 0.0.0.0 --port 9410 --authkey <hex>

        # on the driver
        ClusterExecutor(addresses=["node1:9410", "node2:9410"],
                        authkey=bytes.fromhex("<hex>"))
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.cluster",
        description="Run one repro cluster agent node in the foreground.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    parser.add_argument(
        "--port", type=int, default=0, help="port to bind (0 picks a free one)"
    )
    parser.add_argument(
        "--authkey",
        required=True,
        help="hex-encoded shared secret; the driver must use the same bytes",
    )
    args = parser.parse_args(argv)
    try:
        authkey = bytes.fromhex(args.authkey)
    except ValueError:
        parser.error("--authkey must be a hex string (e.g. from os.urandom(16).hex())")
    listener = Listener((args.host, args.port), authkey=authkey)
    host, port = listener.address
    print(f"repro cluster agent listening on {host}:{port}", flush=True)
    _serve_agent(listener)
    return 0


if __name__ == "__main__":
    # Under ``python -m repro.parallel.cluster`` this file runs as the
    # ``__main__`` module while task payloads unpickle against the canonical
    # ``repro.parallel.cluster`` instance — two copies of the module-level
    # runtime registry.  Delegate to the canonical instance so the runtime the
    # serving loop installs is the one attached descriptors resolve.
    from repro.parallel.cluster import main as _canonical_main

    sys.exit(_canonical_main())
