"""Tests for the multi-machine RPC cluster executor.

Covers the acceptance criteria of the cluster tentpole: serving and
training parity with the single-process paths at 1/2/3 nodes, fault
injection (a node dying mid-``serve_sharded`` and mid-sweep re-dispatches
its in-flight shards with no duplicated or missing users), the per-node
object store's fetch-once-per-generation guarantee, eviction on
retirement, and the executor lifecycle contract (typed post-shutdown
errors, :class:`~repro.exceptions.WorkerCrashError` when every node is
gone).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from multiprocessing import get_context

import numpy as np
import pytest

from repro.api import RecommendRequest
from repro.core.backends import ParallelBackend
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import (
    ConfigurationError,
    ExecutorShutDownError,
    WorkerCrashError,
)
from repro.parallel import ClusterExecutor, attach_shared_array
from repro.parallel.cluster import TASK_DELAY_ENV, _agent_main
from repro.runtime import RecommenderRuntime
from repro.serving.batch import serve_sharded
from repro.serving.engine import TopNEngine

N_ITEMS = 10
MODEL_KWARGS = dict(
    n_coclusters=6, regularization=5.0, max_iterations=3, tolerance=0.0, random_state=0
)


def slow_square(value: int) -> int:
    """Slow enough that a mid-call kill lands while shards are in flight."""
    time.sleep(0.05)
    return value * value


def boom(tag: str) -> None:
    raise ValueError(f"task failed: {tag}")


def sleep_forever() -> None:  # pragma: no cover - killed by the timeout path
    time.sleep(3600)


def fetch_sum(ref) -> float:
    """Attach a published ref inside the agent and reduce it."""
    return float(attach_shared_array(ref).sum())


def fetch_sum_then_sleep(ref, seconds: float, marker: str | None = None) -> float:
    """Fetch ``ref``, touch ``marker`` (if given), then stay busy so the
    driver can act mid-task."""
    total = fetch_sum(ref)
    if marker is not None:
        open(marker, "w").close()
    time.sleep(seconds)
    return total


def fetch_on_every_node(executor, ref) -> None:
    """Run fetch tasks until each node has fetched ``ref``."""
    for _ in range(20):
        stats = executor.node_stats()
        if all(ref.shm_name in node["fetch_counts"] for node in stats.values()):
            return
        executor.starmap(fetch_sum_then_sleep, [(ref, 0.1)] * len(stats))
    pytest.fail("a node never fetched the published array")


def assert_evicted_everywhere(executor, ref) -> None:
    """Every node that fetched ``ref`` has evicted it and stores it no more."""
    stats = executor.node_stats()
    fetched = [node for node in stats.values() if ref.shm_name in node["fetch_counts"]]
    assert fetched, "no node fetched the array"
    for node in fetched:
        assert ref.shm_name in node["evicted"]
        assert ref.shm_name not in node["store_keys"]


@pytest.fixture(scope="module")
def corpus():
    matrix, _ = make_netflix_like(n_users=150, n_items=60, random_state=0)
    return matrix


@pytest.fixture(scope="module")
def model(corpus):
    return OCuLaR(**MODEL_KWARGS).fit(corpus)


@pytest.fixture(scope="module")
def reference(corpus, model):
    """Single-process ground truth: the engine's own rankings."""
    engine = TopNEngine.from_model(model)
    users = list(range(corpus.shape[0]))
    return engine, users, engine.topn(users, n_items=N_ITEMS)


def assert_rankings_equal(result, users, expected):
    """Exact-parity check: every user present once, every list identical."""
    assert result.users == users
    assert len(result.rankings) == len(users)
    for got, want in zip(result.rankings, expected):
        assert np.array_equal(got, want)


class TestClusterBasics:
    def test_map_and_starmap_roundtrip(self):
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            assert executor.map(slow_square, range(8)) == [v * v for v in range(8)]
            assert executor.max_workers == 2

    def test_task_exception_propagates_and_nodes_survive(self):
        # A failing *task* is the task's problem, not the node's: the error
        # arrives as itself (remote traceback attached as the cause) and
        # both nodes keep serving.
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            with pytest.raises(ValueError, match="task failed: a") as excinfo:
                executor.starmap(boom, [("a",), ("b",)])
            assert excinfo.value.__cause__ is not None
            assert len(executor._live_nodes()) == 2
            assert executor.map(slow_square, [3]) == [9]

    def test_publish_after_shutdown_raises_typed_error(self):
        executor = ClusterExecutor(n_nodes=1, task_timeout=60)
        executor.shutdown()
        with pytest.raises(ExecutorShutDownError):
            executor.publish("slot", np.ones(3))
        assert executor.unpublish("slot") is False

    def test_agent_processes_are_reaped_on_shutdown(self):
        executor = ClusterExecutor(n_nodes=2, task_timeout=60)
        processes = [node.process for node in executor._nodes]
        assert all(process.is_alive() for process in processes)
        started = time.perf_counter()
        executor.shutdown()
        elapsed = time.perf_counter() - started
        assert all(not process.is_alive() for process in processes)
        # The agents exit on the ("shutdown",) request itself (exit code 0),
        # not by the SIGKILL that follows each 5 s join timeout.
        assert [process.exitcode for process in processes] == [0, 0]
        assert elapsed < 1.0, f"shutdown took {elapsed:.2f} s"


class TestServingParity:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3])
    def test_serve_sharded_matches_single_process_engine(self, reference, n_nodes):
        # The acceptance criterion: rankings through executor="cluster" at
        # 1/2/3 nodes are np.array_equal to the single-process TopNEngine.
        engine, users, expected = reference
        with ClusterExecutor(n_nodes=n_nodes, task_timeout=60) as executor:
            result = serve_sharded(
                engine, users, n_items=N_ITEMS, executor=executor, shard_size=16
            )
        assert_rankings_equal(result, users, expected)
        assert result.n_shards == 10

    def test_node_death_mid_serve_redispatches_shards(self, reference, monkeypatch):
        # Deterministic machine loss: node 0 exits hard right before
        # replying to its first shard (the per-task delay keeps the other
        # nodes busy long enough that node 0 is guaranteed to draw work).
        # The driver must re-dispatch that shard (and anything else queued
        # on the node) to the survivors — identical rankings, no duplicated
        # or missing users.
        monkeypatch.setenv(TASK_DELAY_ENV, "50")
        engine, users, expected = reference
        with ClusterExecutor(n_nodes=3, task_timeout=30) as executor:
            executor.inject_death_after(0, 0)
            result = serve_sharded(
                engine, users, n_items=N_ITEMS, executor=executor, shard_size=16
            )
            assert len(executor._live_nodes()) == 2
        assert_rankings_equal(result, users, expected)

    def test_sigkill_mid_call_redispatches(self, monkeypatch):
        # The undeterministic variant: SIGKILL one agent while a starmap is
        # in flight; the driver discovers the death organically (EOF on the
        # task channel) and re-dispatches.
        monkeypatch.setenv(TASK_DELAY_ENV, "30")
        executor = ClusterExecutor(n_nodes=2, task_timeout=30)
        try:
            outcome = {}

            def run():
                outcome["results"] = executor.starmap(
                    slow_square, [(i,) for i in range(40)]
                )

            worker = threading.Thread(target=run)
            worker.start()
            time.sleep(0.3)
            executor.kill_node(0)
            worker.join(timeout=90)
            assert not worker.is_alive()
            assert outcome["results"] == [i * i for i in range(40)]
            assert len(executor._live_nodes()) == 1
        finally:
            executor.shutdown()


class TestTrainingParity:
    def test_node_death_mid_sweep_matches_vectorized_factors(self, corpus, monkeypatch):
        # Training sweeps fan shards over the same executor; killing a node
        # mid-fit must leave the learned factors bit-identical to the
        # single-process backend (shards re-dispatch, order-stable stitch).
        # The per-task delay guarantees node 1 draws work before dying.
        monkeypatch.setenv(TASK_DELAY_ENV, "30")
        expected = OCuLaR(**MODEL_KWARGS).fit(corpus).factors_
        with ClusterExecutor(n_nodes=2, task_timeout=30) as executor:
            executor.inject_death_after(1, 0)
            backend = ParallelBackend(n_shards=4, executor=executor)
            model = OCuLaR(**MODEL_KWARGS).fit(corpus, backend=backend)
            assert len(executor._live_nodes()) == 1
        assert np.array_equal(model.factors_.user_factors, expected.user_factors)
        assert np.array_equal(model.factors_.item_factors, expected.item_factors)


class TestObjectStore:
    def test_each_node_fetches_a_generation_once(self, corpus, reference):
        # The acceptance criterion on the store: for one published
        # generation, every node pulls each descriptor's bytes at most once
        # no matter how many shards reference it.
        engine, users, expected = reference
        runtime = RecommenderRuntime(executor="cluster", max_workers=2)
        try:
            runtime.fit(OCuLaR(**MODEL_KWARGS), corpus)
            runtime.publish()
            for _ in range(2):  # repeat calls must hit the node caches
                response = runtime.recommend(
                    RecommendRequest(users=users, n_items=N_ITEMS)
                )
                for got, want in zip(response.rankings, expected):
                    assert np.array_equal(got, want)
            stats = runtime._executor.node_stats()
            assert len(stats) == 2
            for node_stats in stats.values():
                assert node_stats["fetch_counts"], "node never fetched anything"
                assert all(
                    count == 1 for count in node_stats["fetch_counts"].values()
                ), node_stats["fetch_counts"]
        finally:
            runtime.close()

    def test_refresh_mints_new_key_and_retires_old(self):
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            first = executor.publish("slot", np.arange(6, dtype=np.float64))
            total = executor.starmap(fetch_sum, [(first,), (first,)])
            assert total == [15.0, 15.0]
            second = executor.publish("slot", np.arange(8, dtype=np.float64))
            assert second.shm_name != first.shm_name
            assert executor.active_store_keys() == [second.shm_name]
            # Every node that cached the old generation evicted it.
            for node_stats in executor.node_stats().values():
                if first.shm_name in node_stats["fetch_counts"]:
                    assert first.shm_name in node_stats["evicted"]
                assert first.shm_name not in node_stats["store_keys"]

    def test_unpublish_evicts_node_caches(self):
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            ref = executor.publish("slot", np.ones(4))
            executor.starmap(fetch_sum, [(ref,), (ref,)])
            assert executor.unpublish("slot") is True
            assert executor.active_store_keys() == []
            for node_stats in executor.node_stats().values():
                if ref.shm_name in node_stats["fetch_counts"]:
                    assert ref.shm_name in node_stats["evicted"]

    def test_publish_snapshots_the_array(self):
        # Mutating the source after publish must not leak into what nodes
        # fetch — same snapshot semantics as the shared-memory memcpy.
        with ClusterExecutor(n_nodes=1, task_timeout=60) as executor:
            source = np.ones(5)
            ref = executor.publish("slot", source)
            source[:] = 99.0
            assert executor.map(fetch_sum, [ref]) == [5.0]

    def test_unpublish_mid_task_returns_at_once_and_evicts_in_band(self, tmp_path):
        # Evictions travel in band: unpublish only queues the key, so it
        # returns while the tasks that fetched it are still running, and
        # each node evicts before the next frame it is sent.
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            ref = executor.publish("slot", np.ones(4))
            outcome = {}
            markers = [tmp_path / "fetched-0", tmp_path / "fetched-1"]

            def run():
                outcome["results"] = executor.starmap(
                    fetch_sum_then_sleep, [(ref, 1.0, str(marker)) for marker in markers]
                )

            worker = threading.Thread(target=run)
            worker.start()
            # Unpublish only once both tasks hold their copy: an agent's
            # first task may still be importing this module when a fixed
            # pause runs out, and its fetch would then miss the key.
            deadline = time.monotonic() + 30
            while not all(marker.exists() for marker in markers):
                assert time.monotonic() < deadline, "the tasks never fetched the key"
                time.sleep(0.01)
            started = time.perf_counter()
            assert executor.unpublish("slot") is True
            elapsed = time.perf_counter() - started
            assert worker.is_alive(), "the tasks ended before unpublish returned"
            assert elapsed < 0.1, f"unpublish took {elapsed:.3f} s"
            worker.join(timeout=30)
            assert outcome["results"] == [4.0, 4.0]
            assert_evicted_everywhere(executor, ref)

    def test_frame_after_a_retire_is_not_delayed(self):
        # The queued eviction and the next frame are two back-to-back writes;
        # without TCP_NODELAY the second waits ~40 ms for a delayed ACK.
        with ClusterExecutor(n_nodes=1, task_timeout=60) as executor:
            timings = []
            for _ in range(5):
                ref = executor.publish("slot", np.ones(4))
                assert executor.map(fetch_sum, [ref]) == [4.0]
                executor.unpublish("slot")
                started = time.perf_counter()
                (stats,) = executor.node_stats().values()
                timings.append(time.perf_counter() - started)
                assert ref.shm_name in stats["evicted"]
            assert min(timings) < 0.02, [f"{t * 1e3:.1f} ms" for t in timings]

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_stopped_node_does_not_block_unpublish(self):
        # A publisher never waits on the network: with one agent stopped,
        # unpublish returns at once, and the node, once resumed, is still
        # live, evicts the key and runs tasks.
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            ref = executor.publish("slot", np.ones(4))
            fetch_on_every_node(executor, ref)
            stopped = executor._nodes[0].process.pid
            os.kill(stopped, signal.SIGSTOP)
            try:
                started = time.perf_counter()
                assert executor.unpublish("slot") is True
                elapsed = time.perf_counter() - started
            finally:
                os.kill(stopped, signal.SIGCONT)
            assert elapsed < 1.0, f"unpublish took {elapsed:.2f} s"
            assert len(executor._live_nodes()) == 2
            before = {i: node["tasks_executed"] for i, node in executor.node_stats().items()}
            assert executor.map(slow_square, range(8)) == [v * v for v in range(8)]
            after = executor.node_stats()
            assert all(after[i]["tasks_executed"] > before[i] for i in (0, 1))
            assert_evicted_everywhere(executor, ref)


class TestFaultExhaustion:
    def test_all_nodes_dead_raises_worker_crash_with_index(self):
        executor = ClusterExecutor(n_nodes=1, task_timeout=30, max_task_retries=2)
        try:
            executor.inject_death_after(0, 0)
            with pytest.raises(WorkerCrashError) as excinfo:
                executor.starmap(slow_square, [(i,) for i in range(4)])
            assert excinfo.value.executor == "ClusterExecutor"
            assert excinfo.value.task_index == 0
        finally:
            executor.shutdown()

    def test_hung_node_is_declared_dead_by_timeout(self):
        # A node that accepts a task and never replies must not hang the
        # driver: task_timeout declares it dead; with no survivors the call
        # fails fast with the typed crash error.
        executor = ClusterExecutor(n_nodes=1, task_timeout=1.0, max_task_retries=1)
        try:
            start = time.monotonic()
            with pytest.raises(WorkerCrashError):
                executor.starmap(sleep_forever, [()])
            assert time.monotonic() - start < 20.0
        finally:
            executor.shutdown()

    def test_retry_budget_exhaustion_raises(self):
        # Two nodes, zero retries allowed: the first death immediately
        # fails its in-flight task instead of silently re-dispatching.
        executor = ClusterExecutor(n_nodes=2, task_timeout=30, max_task_retries=0)
        try:
            executor.inject_death_after(0, 0)
            executor.inject_death_after(1, 0)
            with pytest.raises(WorkerCrashError):
                executor.starmap(slow_square, [(i,) for i in range(6)])
        finally:
            executor.shutdown()


class TestExternalAgents:
    def test_connects_to_externally_started_agents(self):
        # The true multi-machine path: agents started out-of-band (here: a
        # spawn-context process running the module entry point), the driver
        # given only addresses + authkey.
        authkey = b"repro-test-authkey"
        context = get_context("spawn")
        parent, child = context.Pipe(duplex=False)
        agent = context.Process(
            target=_agent_main, args=("127.0.0.1", 0, authkey, child), daemon=True
        )
        agent.start()
        child.close()
        assert parent.poll(30), "external agent never reported its address"
        address = tuple(parent.recv())
        parent.close()
        try:
            with ClusterExecutor(
                addresses=[address], authkey=authkey, task_timeout=60
            ) as executor:
                assert executor.max_workers == 1
                assert executor.map(slow_square, [7]) == [49]
                with pytest.raises(ConfigurationError):
                    executor.kill_node(0)  # not ours to SIGKILL
        finally:
            agent.terminate()
            agent.join(timeout=10)

    def test_wildcard_bound_agent_exits_on_shutdown(self):
        # Started as documented (``--host 0.0.0.0``): the shutdown wake-up
        # must reach the listener through loopback, not the wildcard address.
        authkey = b"repro-test-authkey"
        context = get_context("spawn")
        parent, child = context.Pipe(duplex=False)
        agent = context.Process(
            target=_agent_main, args=("0.0.0.0", 0, authkey, child), daemon=True
        )
        agent.start()
        child.close()
        try:
            assert parent.poll(30), "external agent never reported its address"
            _host, port = parent.recv()
            ClusterExecutor(
                addresses=[("127.0.0.1", port)], authkey=authkey, task_timeout=60
            ).shutdown()
            agent.join(timeout=5)
            assert agent.exitcode == 0
        finally:
            parent.close()
            agent.kill()
            agent.join(timeout=10)

    def test_standalone_agent_fetches_and_serves_a_second_driver(self):
        # Arrays reach an external agent on its task channel, once; a second
        # driver on the same agent starts from an empty node cache.
        authkey = b"repro-test-authkey"
        context = get_context("spawn")
        parent, child = context.Pipe(duplex=False)
        agent = context.Process(
            target=_agent_main, args=("127.0.0.1", 0, authkey, child), daemon=True
        )
        agent.start()
        child.close()
        try:
            assert parent.poll(30), "external agent never reported its address"
            address = tuple(parent.recv())
            first = ClusterExecutor(addresses=[address], authkey=authkey, task_timeout=60)
            ref = first.publish("slot", np.arange(6, dtype=np.float64))
            assert first.starmap(fetch_sum, [(ref,), (ref,)]) == [15.0, 15.0]
            (stats,) = first.node_stats().values()
            assert stats["fetch_counts"] == {ref.shm_name: 1}
            # Tear down without the ("shutdown",) op: the agent stays up.
            first._emergency_teardown()

            with ClusterExecutor(
                addresses=[address], authkey=authkey, task_timeout=60
            ) as second:
                (stats,) = second.node_stats().values()
                assert stats["store_keys"] == [] and stats["fetch_counts"] == {}
                ref = second.publish("slot", np.ones(4))
                assert second.map(fetch_sum, [ref]) == [4.0]
                (stats,) = second.node_stats().values()
                assert stats["fetch_counts"] == {ref.shm_name: 1}
        finally:
            parent.close()
            agent.kill()
            agent.join(timeout=10)

    def test_abandoned_handshake_does_not_stop_the_agent(self):
        # A peer that connects and hangs up before authenticating (a port
        # scan, a health check) costs its own connection, not the agent.
        authkey = b"repro-test-authkey"
        context = get_context("spawn")
        parent, child = context.Pipe(duplex=False)
        agent = context.Process(
            target=_agent_main, args=("127.0.0.1", 0, authkey, child), daemon=True
        )
        agent.start()
        child.close()
        try:
            assert parent.poll(30), "external agent never reported its address"
            address = tuple(parent.recv())
            socket.create_connection(address, timeout=5).close()
            with ClusterExecutor(
                addresses=[address], authkey=authkey, task_timeout=60
            ) as executor:
                assert executor.map(slow_square, [6]) == [36]
        finally:
            parent.close()
            agent.kill()
            agent.join(timeout=10)

    def test_external_addresses_require_authkey(self):
        with pytest.raises(ConfigurationError, match="authkey"):
            ClusterExecutor(addresses=["127.0.0.1:1"])
