"""Executor-contract conformance suite, run against every registered name.

Every executor in the scheduler registry — serial, thread, process
(shared-memory), cluster, and whatever gets registered next — must honour
one contract: order-stable ``map``/``starmap``, deterministic first-failure
propagation in submission order, idempotent ``shutdown``, a typed
:class:`~repro.exceptions.ExecutorShutDownError` on post-shutdown
submission, and context-manager teardown.  Parameterizing over
:func:`~repro.parallel.available_executors` means a future executor
inherits the whole suite by being registered.

Executors that also *publish* arrays (``supports_publication``) honour a
second contract — the one :class:`~repro.parallel.publication.PublicationTable`
behind ``publish`` / ``publish_static`` / ``unpublish`` — which
:class:`TestPublicationContract` runs against each of them, observing
publications the way a task does: by attaching the descriptor in a worker.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import ExecutorShutDownError, ReproError
from repro.parallel import (
    ClusterExecutor,
    SharedMemoryProcessExecutor,
    attach_shared_array,
    available_executors,
    resolve_executor,
    supports_publication,
)


def square(value: int) -> int:
    """Module-level helper (picklable for process/cluster substrates)."""
    return value * value


def add(left: int, right: int) -> int:
    """Module-level helper (picklable for process/cluster substrates)."""
    return left + right


def fail_tagged(tag: str, delay: float = 0.0) -> None:
    """Raise a tagged error after an optional delay (picklable)."""
    if delay:
        time.sleep(delay)
    raise ValueError(f"worker failed: {tag}")


@pytest.fixture(params=sorted(available_executors()))
def executor_name(request) -> str:
    return request.param


def build(name: str):
    """One small instance of the named executor (2 workers/nodes)."""
    return resolve_executor(name, max_workers=2)


class TestExecutorContract:
    def test_map_preserves_submission_order(self, executor_name):
        with build(executor_name) as executor:
            assert executor.map(square, range(7)) == [v * v for v in range(7)]

    def test_starmap_preserves_submission_order(self, executor_name):
        with build(executor_name) as executor:
            pairs = [(i, 2 * i) for i in range(7)]
            assert executor.starmap(add, pairs) == [a + b for a, b in pairs]

    def test_empty_input(self, executor_name):
        with build(executor_name) as executor:
            assert executor.map(square, []) == []
            assert executor.starmap(add, []) == []

    def test_first_failure_in_submission_order_wins(self, executor_name):
        # The first-submitted task fails slowly, the second instantly; the
        # propagated error must deterministically be the first task's.
        with build(executor_name) as executor:
            with pytest.raises(ValueError, match="worker failed: first"):
                executor.starmap(fail_tagged, [("first", 0.3), ("second", 0.0)])

    def test_executor_survives_a_task_failure(self, executor_name):
        # A failing *task* must not poison the executor: workers/nodes stay
        # alive and the next call succeeds.
        with build(executor_name) as executor:
            with pytest.raises(ValueError):
                executor.map(fail_tagged, ["once"])
            assert executor.map(square, [4]) == [16]

    def test_shutdown_is_idempotent(self, executor_name):
        executor = build(executor_name)
        executor.shutdown()
        executor.shutdown()
        assert executor.is_shut_down

    def test_post_shutdown_submission_raises_typed_error(self, executor_name):
        executor = build(executor_name)
        executor.shutdown()
        with pytest.raises(ExecutorShutDownError) as excinfo:
            executor.map(square, [1])
        assert isinstance(excinfo.value, ReproError)
        with pytest.raises(ExecutorShutDownError):
            executor.starmap(add, [(1, 2)])

    def test_context_manager_exit_shuts_down(self, executor_name):
        with build(executor_name) as executor:
            assert executor.starmap(add, [(2, 3)]) == [5]
        assert executor.is_shut_down
        with pytest.raises(ExecutorShutDownError):
            executor.map(square, [1])


# --------------------------------------------------------------------------- #
# The publication contract (publishing executors only)
# --------------------------------------------------------------------------- #
#: Registry name -> builder taking the publication-table capacity, the one
#: knob the two constructors spell differently.
PUBLISHERS = {
    "process": lambda capacity: SharedMemoryProcessExecutor(
        max_workers=2, max_segments=capacity
    ),
    "cluster": lambda capacity: ClusterExecutor(n_nodes=2, max_objects=capacity),
}


def read_sum(spec) -> float:
    """Attach a descriptor inside a worker and reduce it (picklable)."""
    return float(attach_shared_array(spec).sum())


def test_every_publishing_executor_is_under_contract():
    publishing = set()
    for name in available_executors():
        with build(name) as executor:
            if supports_publication(executor):
                publishing.add(name)
    assert publishing == set(PUBLISHERS)


@pytest.fixture(params=sorted(PUBLISHERS))
def publisher(request):
    """Builder of the parametrised publishing executor: ``publisher(capacity)``."""
    return PUBLISHERS[request.param]


class TestPublicationContract:
    def test_slot_refresh_reaches_workers(self, publisher):
        with publisher(8) as executor:
            array = np.arange(12, dtype=np.float64).reshape(3, 4)
            first = executor.publish("slot", array)
            assert (first.shape, first.dtype) == ((3, 4), array.dtype.str)
            assert executor.starmap(read_sum, [(first,)] * 4) == [66.0] * 4
            # Same shape and dtype: whether the descriptor survives is the
            # store's call — shared memory rewrites the segment in place,
            # the RPC store must mint a fresh key to get past node caches —
            # but workers attaching the returned descriptor see the new bytes.
            second = executor.publish("slot", array * 2)
            assert (second == first) == (not second.remote)
            assert executor.starmap(read_sum, [(second,)] * 4) == [132.0] * 4
            # A shape change always replaces the descriptor.
            third = executor.publish("slot", np.ones((5, 2)))
            assert third != second and third.shape == (5, 2)
            assert executor.starmap(read_sum, [(third,)] * 4) == [10.0] * 4

    def test_publish_snapshots_the_array(self, publisher):
        with publisher(8) as executor:
            source = np.ones(5)
            spec = executor.publish("slot", source)
            source[:] = 99.0
            assert executor.map(read_sum, [spec]) == [5.0]

    def test_publish_static_is_keyed_by_identity(self, publisher):
        with publisher(8) as executor:
            array = np.arange(6, dtype=np.float64)
            first = executor.publish_static(array)
            assert executor.publish_static(array) == first
            assert executor.starmap(read_sum, [(first,)] * 4) == [15.0] * 4
            # An equal but distinct array is a different publication.
            assert executor.publish_static(array.copy()) != first
            with pytest.raises(ValueError, match="C-contiguous"):
                executor.publish_static(np.zeros((4, 4))[:, ::2])

    def test_cap_evicts_oldest_evictable_only(self, publisher):
        with publisher(3) as executor:
            pinned = executor.publish("model", np.full(4, 7.0), evictable=False)
            oldest = executor.publish("a", np.ones(4))
            executor.publish("b", np.ones(4))
            executor.publish("c", np.ones(4))  # 4 live > cap 3: "a" goes
            newest = executor.publish("d", np.full(4, 2.0))  # then "b"
            assert executor.unpublish("a") is False
            assert executor.unpublish("b") is False
            assert executor.starmap(read_sum, [(pinned,), (newest,)]) == [28.0, 8.0]
            # The evicted publication is gone for workers too: no segment to
            # map, no object in the driver store to fetch.
            with pytest.raises((FileNotFoundError, KeyError)):
                executor.map(read_sum, [oldest])
            # Non-evictable entries leave only by explicit unpublish.
            assert executor.unpublish("model") is True

    def test_cap_is_soft_for_non_evictable_entries(self, publisher):
        with publisher(2) as executor:
            specs = [
                executor.publish(("pin", index), np.full(2, float(index)), evictable=False)
                for index in range(4)
            ]
            # Over the cap with nothing evictable: the entry just written is
            # never its own eviction victim; the next evictable one displaces it.
            call = executor.publish("call", np.full(2, 5.0))
            reads = executor.starmap(read_sum, [(spec,) for spec in (*specs, call)])
            assert reads == [0.0, 2.0, 4.0, 6.0, 10.0]
            executor.publish("next-call", np.zeros(2))
            assert executor.unpublish("call") is False

    def test_unpublish_reports_whether_the_key_was_live(self, publisher):
        with publisher(8) as executor:
            assert executor.unpublish("never-published") is False
            executor.publish("slot", np.zeros(8))
            assert executor.unpublish("slot") is True
            assert executor.unpublish("slot") is False

    def test_publish_after_shutdown_raises_typed_error(self, publisher):
        executor = publisher(8)
        executor.publish("slot", np.zeros(4))
        executor.shutdown()
        with pytest.raises(ExecutorShutDownError):
            executor.publish("slot", np.zeros(4))
        with pytest.raises(ExecutorShutDownError):
            executor.publish_static(np.zeros(4))
        assert executor.unpublish("slot") is False
