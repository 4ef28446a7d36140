"""Tests for the shard-scheduler layer: nnz-balanced boundaries, the executor
registry, shared-memory process execution, and cross-executor factor parity."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import (
    ParallelBackend,
    VectorizedBackend,
    get_backend,
    nnz_balanced_ranges,
)
from repro.core.backends.plan import SweepSide
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import ConfigurationError
from repro.parallel import (
    SerialExecutor,
    ShardScheduler,
    SharedArraySpec,
    SharedMemoryProcessExecutor,
    ThreadExecutor,
    attach_shared_array,
    available_executors,
    resolve_executor,
)
from repro.parallel import scheduler as scheduler_module


# --------------------------------------------------------------------------- #
# nnz-balanced shard boundaries (pure function of the plan)
# --------------------------------------------------------------------------- #
class TestNnzBalancedRanges:
    def test_deterministic_pure_function(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=200)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        first = nnz_balanced_ranges(indptr, 10, 180, 7)
        second = nnz_balanced_ranges(indptr, 10, 180, 7)
        assert first == second

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
    def test_exact_cover_without_gaps(self, n_shards):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 20, size=37)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        ranges = nnz_balanced_ranges(indptr, 0, 37, n_shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 37
        for (_, left_stop), (right_start, _) in zip(ranges, ranges[1:]):
            assert left_stop == right_start
        assert all(stop > start for start, stop in ranges)

    def test_balances_nnz_not_rows(self):
        # 4 heavy rows followed by 60 empty rows: row-count sharding would
        # give one worker all the nnz; nnz balancing spreads the heavy rows.
        counts = np.array([100] * 4 + [0] * 60)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        ranges = nnz_balanced_ranges(indptr, 0, 64, 4)
        per_shard_nnz = [int(indptr[stop] - indptr[start]) for start, stop in ranges]
        assert max(per_shard_nnz) <= 200  # never more than 2 heavy rows together
        assert min(per_shard_nnz) >= 100  # every shard gets at least 1 heavy row

    def test_all_nnz_in_one_row(self):
        indptr = np.array([0, 1000, 1000, 1000, 1000, 1000])
        ranges = nnz_balanced_ranges(indptr, 0, 5, 3)
        assert ranges[0] == (0, 1)  # the giant row is isolated
        assert ranges[-1][1] == 5
        assert len(ranges) == 3

    def test_empty_rows_only(self):
        indptr = np.zeros(11, dtype=np.int64)
        ranges = nnz_balanced_ranges(indptr, 0, 10, 4)
        assert len(ranges) == 4
        assert ranges[0][0] == 0 and ranges[-1][1] == 10

    def test_more_shards_than_rows(self):
        indptr = np.array([0, 2, 4, 6])
        ranges = nnz_balanced_ranges(indptr, 0, 3, 10)
        assert ranges == [(0, 1), (1, 2), (2, 3)]

    def test_empty_row_range(self):
        indptr = np.array([0, 2, 4, 6])
        assert nnz_balanced_ranges(indptr, 2, 2, 3) == []

    def test_sub_range_offsets(self):
        indptr = np.array([0, 5, 6, 7, 8, 30])
        ranges = nnz_balanced_ranges(indptr, 1, 5, 2)
        assert ranges[0][0] == 1 and ranges[-1][1] == 5

    def test_invalid_inputs_rejected(self):
        indptr = np.array([0, 1, 2])
        with pytest.raises(ConfigurationError):
            nnz_balanced_ranges(indptr, 0, 3, 2)
        with pytest.raises(ConfigurationError):
            nnz_balanced_ranges(indptr, -1, 2, 2)
        with pytest.raises(ConfigurationError):
            nnz_balanced_ranges(indptr, 0, 2, 0)

    def test_sweep_side_method_matches_function(self):
        matrix = sp.csr_matrix((np.random.default_rng(2).random((9, 6)) < 0.4).astype(float))
        side = SweepSide.build(matrix)
        assert side.shard_ranges(3) == nnz_balanced_ranges(matrix.indptr, 0, 9, 3)
        assert side.shard_ranges(2, (1, 7)) == nnz_balanced_ranges(matrix.indptr, 1, 7, 2)

    @staticmethod
    def _assert_partition(ranges, start, stop):
        """Every result must tile [start, stop) with non-empty ranges."""
        assert ranges[0][0] == start and ranges[-1][1] == stop
        for (_, left_stop), (right_start, _) in zip(ranges, ranges[1:]):
            assert left_stop == right_start
        assert all(range_stop > range_start for range_start, range_stop in ranges)

    def test_giant_row_in_the_middle_with_many_shards(self):
        # One row owns all the weight, surrounded by empties; the clamping
        # must still hand every shard at least one row on both sides of it.
        counts = np.array([0] * 5 + [10_000] + [0] * 5)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        ranges = nnz_balanced_ranges(indptr, 0, 11, 8)
        self._assert_partition(ranges, 0, 11)
        assert len(ranges) == 8

    def test_all_empty_rows_with_more_shards_than_rows(self):
        indptr = np.zeros(5, dtype=np.int64)
        ranges = nnz_balanced_ranges(indptr, 0, 4, 9)
        assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_single_row_any_shard_count(self):
        indptr = np.array([0, 123])
        for n_shards in (1, 2, 16):
            assert nnz_balanced_ranges(indptr, 0, 1, n_shards) == [(0, 1)]

    def test_giant_row_inside_a_sub_range(self):
        # Sub-range sharding around a giant row: the offsets must hold and
        # the giant row may not leak rows from outside [start, stop).
        counts = np.array([3, 0, 5_000, 0, 0, 2, 1])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        ranges = nnz_balanced_ranges(indptr, 1, 6, 3)
        self._assert_partition(ranges, 1, 6)
        assert len(ranges) == 3
        # The giant row (index 2) is isolated in its own shard.
        giant = [r for r in ranges if r[0] <= 2 < r[1]]
        assert giant == [(2, 3)] or giant[0][1] - giant[0][0] <= 2


# --------------------------------------------------------------------------- #
# Executor registry and scheduler
# --------------------------------------------------------------------------- #
class TestExecutorRegistry:
    def test_builtin_executors_registered(self):
        assert {"serial", "thread", "process"} <= set(available_executors())

    def test_resolve_by_name(self):
        serial = resolve_executor("serial")
        assert isinstance(serial, SerialExecutor)
        with resolve_executor("thread", max_workers=2) as threads:
            assert isinstance(threads, ThreadExecutor)

    def test_resolve_passthrough_instance(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_executor("spark")
        # The error teaches: every registered name is listed.
        for name in available_executors():
            assert name in str(excinfo.value)

    def test_non_executor_error_lists_registered_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_executor(object())
        assert "serial" in str(excinfo.value)
        assert "process" in str(excinfo.value)

    def test_instance_with_max_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(SerialExecutor(), max_workers=2)

    def test_non_executor_object_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(42)

    def test_register_custom_executor(self, monkeypatch):
        monkeypatch.setitem(
            scheduler_module._EXECUTOR_FACTORIES,
            "inline-test",
            lambda max_workers: SerialExecutor(),
        )
        assert "inline-test" in available_executors()
        assert isinstance(resolve_executor("inline-test"), SerialExecutor)


class TestShardScheduler:
    def test_lazy_construction_and_reuse_after_shutdown(self):
        scheduler = ShardScheduler("serial")
        assert scheduler.executor_name == "serial"
        assert scheduler.starmap(divmod, [(7, 3), (9, 2)]) == [(2, 1), (4, 1)]
        scheduler.shutdown()
        # A shut-down scheduler transparently rebuilds its executor.
        assert scheduler.map(abs, [-1, -2]) == [1, 2]
        scheduler.shutdown()

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            ShardScheduler("gpu")

    def test_borrowed_instance_not_shut_down(self):
        with ThreadExecutor(max_workers=2) as executor:
            scheduler = ShardScheduler(executor)
            assert scheduler.executor is executor
            assert not scheduler.owns_executor
            scheduler.shutdown()
            scheduler.shutdown()  # idempotent on a borrowed instance too
            # The borrowed executor must survive the scheduler's shutdown.
            assert executor.map(abs, [-3]) == [3]

    def test_owned_scheduler_reports_ownership_and_live_executor(self):
        scheduler = ShardScheduler("serial")
        assert scheduler.owns_executor
        assert scheduler.live_executor is None  # lazy: nothing built yet
        scheduler.map(abs, [-1])
        assert scheduler.live_executor is not None
        scheduler.shutdown()
        assert scheduler.live_executor is None
        scheduler.shutdown()  # double shutdown is a no-op

    def test_context_manager(self):
        with ShardScheduler("thread", max_workers=2) as scheduler:
            assert scheduler.starmap(max, [(1, 2)]) == [2]

    def test_max_workers_with_instance_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardScheduler(SerialExecutor(), max_workers=2)


class TestGetBackendExecutor:
    def test_executor_configures_parallel(self):
        # By name the backend is a thread pool; any other is an instance.
        assert get_backend("parallel").executor == "thread"
        backend = ParallelBackend(n_workers=2, executor="serial")
        assert get_backend(backend) is backend
        assert backend.executor == "serial"

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelBackend(n_workers=1, executor="spark")

    def test_n_workers_with_executor_instance_rejected(self):
        # The instance's own pool size would silently win otherwise.
        with pytest.raises(ConfigurationError):
            ParallelBackend(n_workers=2, executor=SerialExecutor())

    def test_executor_instance_without_n_workers_accepted(self):
        matrix, row_factors, col_factors = _sweep_problem(3)
        vectorized, _ = VectorizedBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.4
        )
        with ThreadExecutor(max_workers=2) as executor:
            backend = ParallelBackend(n_shards=3, executor=executor)
            sharded, _ = backend.sweep(matrix, row_factors, col_factors, regularization=0.4)
            backend.shutdown()  # borrowed: must leave the instance running
            assert executor.map(abs, [-1]) == [1]
        assert np.array_equal(vectorized, sharded)


# --------------------------------------------------------------------------- #
# Shared-memory executor mechanics
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ArraysSpec:
    """A worker-cache key viewing ``arrays`` (the shape of an engine spec)."""

    arrays: tuple

    def array_specs(self):
        return list(self.arrays)


def _attach_all(spec):
    return [attach_shared_array(array) for array in spec.arrays]


class TestSharedMemoryPublication:
    def test_publish_roundtrip_and_slot_reuse(self):
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            array = np.arange(12, dtype=np.float64).reshape(3, 4)
            spec = executor.publish("slot", array)
            assert spec.shape == (3, 4)
            np.testing.assert_array_equal(attach_shared_array(spec), array)

            # Same key and shape: the segment is reused, the bytes refreshed.
            refreshed = executor.publish("slot", array * 2)
            assert refreshed.shm_name == spec.shm_name
            np.testing.assert_array_equal(attach_shared_array(refreshed), array * 2)

            # A shape change reallocates under the same key.
            regrown = executor.publish("slot", np.ones((5, 2)))
            assert regrown.shm_name != spec.shm_name
            assert len(executor.active_segment_names()) == 1

    def test_publish_static_copies_once(self):
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            array = np.arange(6, dtype=np.float64)
            first = executor.publish_static(array)
            second = executor.publish_static(array)
            assert first == second
            assert len(executor.active_segment_names()) == 1
            # Copy-once semantics: later in-place mutation of the source is
            # deliberately not propagated (plan arrays never mutate in a fit).
            array[0] = 99.0
            assert attach_shared_array(first)[0] == 0.0

    def test_publish_static_requires_contiguous(self):
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            with pytest.raises(ValueError):
                executor.publish_static(np.zeros((4, 4))[:, ::2])

    def test_shutdown_unlinks_all_segments(self, shm_ledger):
        executor = SharedMemoryProcessExecutor(max_workers=1)
        executor.publish("a", np.zeros(1000))
        executor.publish_static(np.ones(1000))
        assert len(executor.active_segment_names()) == 2
        executor.shutdown()
        assert executor.active_segment_names() == []
        shm_ledger.assert_gone()

    def test_segment_cap_evicts_oldest(self):
        with SharedMemoryProcessExecutor(max_workers=1, max_segments=2) as executor:
            executor.publish("a", np.zeros(4))
            executor.publish("b", np.zeros(4))
            executor.publish("c", np.zeros(4))
            assert len(executor.active_segment_names()) == 2

    def test_non_evictable_segments_survive_lru_churn(self):
        with SharedMemoryProcessExecutor(max_workers=1, max_segments=3) as executor:
            pinned = executor.publish("model", np.arange(4.0), evictable=False)
            for call in range(6):  # churn past the cap with per-call slots
                executor.publish(("call", call), np.zeros(4))
            # The pinned publication is never the eviction victim...
            assert pinned.shm_name in executor.active_segment_names()
            np.testing.assert_array_equal(attach_shared_array(pinned), np.arange(4.0))
            # ...but an explicit unpublish still removes it.
            assert executor.unpublish("model") is True

    def test_all_non_evictable_exceeds_soft_cap(self):
        with SharedMemoryProcessExecutor(max_workers=1, max_segments=2) as executor:
            for index in range(4):
                executor.publish(("pin", index), np.zeros(2), evictable=False)
            # max_segments is a soft cap: pinned slots are not sacrificed.
            assert len(executor.active_segment_names()) == 4

    def test_cache_hit_skips_build_and_refreshes_lru_order(self, worker_cache):
        # A hit is a lookup, not a rebuild, and it makes its entry the most
        # recently used: the cap then evicts the entry not served since.
        builds = []

        def build(spec):
            builds.append(spec)
            return _attach_all(spec)

        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            specs = [
                _ArraysSpec((executor.publish(("lru", index), np.zeros(2)),))
                for index in range(3)
            ]
            first = worker_cache.cached_attach(specs[0], build, 2)
            worker_cache.cached_attach(specs[1], build, 2)
            assert worker_cache.cached_attach(specs[0], build, 2) is first
            assert builds == specs[:2]
            worker_cache.cached_attach(specs[2], build, 2)
            assert list(worker_cache._CACHE) == [specs[0], specs[2]]
            assert specs[1].arrays[0].shm_name not in worker_cache._ATTACHMENTS
            assert specs[0].arrays[0].shm_name in worker_cache._ATTACHMENTS

    def test_mapping_shared_by_two_entries_closes_with_the_last(self, worker_cache):
        # Two entries may view one publication (two engine generations over
        # one seen-mask): evicting one leaves the mapping to the other.
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            shared = executor.publish("shared", np.arange(3.0))
            own = [executor.publish(("own", index), np.zeros(2)) for index in range(3)]
            first = _ArraysSpec((shared, own[0]))
            second = _ArraysSpec((shared, own[1]))
            worker_cache.cached_attach(first, _attach_all, 1)
            views = worker_cache.cached_attach(second, _attach_all, 1)  # evicts first
            assert list(worker_cache._CACHE) == [second]
            assert own[0].shm_name not in worker_cache._ATTACHMENTS
            assert shared.shm_name in worker_cache._ATTACHMENTS
            np.testing.assert_array_equal(views[0], np.arange(3.0))
            del views

            worker_cache.cached_attach(_ArraysSpec((own[2],)), _attach_all, 1)
            assert shared.shm_name not in worker_cache._ATTACHMENTS
            assert own[1].shm_name not in worker_cache._ATTACHMENTS

    def test_drop_cached_leaves_mappings_to_the_next_miss(self, worker_cache):
        # A cluster node's control thread drops entries beside its task
        # thread, so it closes nothing; the next miss closes what the
        # dropped entry alone viewed.
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            arrays = [executor.publish(("drop", index), np.zeros(2)) for index in range(3)]
            dropped = _ArraysSpec((arrays[0],))
            kept = _ArraysSpec((arrays[1],))
            worker_cache.cached_attach(dropped, _attach_all, 4)
            worker_cache.cached_attach(kept, _attach_all, 4)
            worker_cache.drop_cached([arrays[0].shm_name])
            assert list(worker_cache._CACHE) == [kept]
            assert arrays[0].shm_name in worker_cache._ATTACHMENTS

            worker_cache.cached_attach(_ArraysSpec((arrays[2],)), _attach_all, 4)
            assert arrays[0].shm_name not in worker_cache._ATTACHMENTS
            assert arrays[1].shm_name in worker_cache._ATTACHMENTS

    def test_remote_entry_dropped_once_the_node_evicts_it(self, worker_cache, monkeypatch):
        # Remote descriptors are live until the driver tells the node to
        # evict them; the first miss after that drops their entries.
        class Node:
            def __init__(self):
                self.evicted = set()

            def fetch(self, spec):
                return np.zeros(spec.shape, dtype=np.dtype(spec.dtype))

            def is_live(self, key):
                return key not in self.evicted

        node = Node()
        monkeypatch.setattr(worker_cache, "_remote_cache", lambda: node)
        remote = [
            _ArraysSpec((SharedArraySpec(f"remote-{index}", (2,), "<f8", remote=True),))
            for index in range(3)
        ]
        worker_cache.cached_attach(remote[0], _attach_all, 4)
        worker_cache.cached_attach(remote[1], _attach_all, 4)
        assert list(worker_cache._CACHE) == remote[:2]  # live entries survive a miss
        node.evicted = {"remote-0"}
        worker_cache.cached_attach(remote[2], _attach_all, 4)
        assert list(worker_cache._CACHE) == remote[1:]

    def test_plain_starmap_still_works(self):
        # The process entry of the registry doubles as an ordinary process
        # pool for pickled tasks (serving shards, grid-search combinations).
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            assert executor.starmap(divmod, [(7, 3), (9, 2)]) == [(2, 1), (4, 1)]

    def test_unpublish_single_slot(self, shm_ledger):
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            spec = executor.publish("slot", np.zeros(8))
            assert spec.shm_name in shm_ledger.entries()
            assert executor.unpublish("slot") is True
            assert spec.shm_name not in shm_ledger.entries()
            assert executor.active_segment_names() == []
            # Unknown keys report False instead of raising.
            assert executor.unpublish("slot") is False
            assert executor.unpublish("never-published") is False
        shm_ledger.assert_gone()

    def test_double_shutdown_is_idempotent(self):
        executor = SharedMemoryProcessExecutor(max_workers=1)
        executor.publish("slot", np.zeros(4))
        executor.shutdown()
        assert executor.is_shut_down
        executor.shutdown()  # second call must be a no-op, not an error
        assert executor.active_segment_names() == []

    def test_publish_after_shutdown_rejected(self):
        executor = SharedMemoryProcessExecutor(max_workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.publish("slot", np.zeros(4))
        with pytest.raises(RuntimeError):
            executor.publish_static(np.zeros(4))


# --------------------------------------------------------------------------- #
# Cross-executor factor parity (the acceptance criterion)
# --------------------------------------------------------------------------- #
def _sweep_problem(seed, n_rows=23, n_cols=11, k=4):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < 0.3).astype(float)
    if n_rows > 2:
        dense[0] = 0.0  # keep an empty row in play
    matrix = sp.csr_matrix(dense)
    row_factors = rng.uniform(0.05, 0.9, size=(n_rows, k))
    col_factors = rng.uniform(0.05, 0.9, size=(n_cols, k))
    return matrix, row_factors, col_factors


class TestThreeWayExecutorParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_single_sweep_parity(self, n_shards):
        matrix, row_factors, col_factors = _sweep_problem(n_shards)
        vectorized, vec_stats = VectorizedBackend().sweep(
            matrix, row_factors, col_factors, regularization=0.4
        )
        for executor in ("serial", "thread", "process"):
            with ParallelBackend(n_workers=2, n_shards=n_shards, executor=executor) as backend:
                sharded, stats = backend.sweep(
                    matrix, row_factors, col_factors, regularization=0.4
                )
            assert np.array_equal(vectorized, sharded), executor
            assert stats == vec_stats, executor

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_process_training_parity(self, dtype, n_shards):
        matrix = make_netflix_like(n_users=120, n_items=50, random_state=0)

        def fit(backend):
            model = OCuLaR(
                n_coclusters=6,
                regularization=5.0,
                max_iterations=2,
                tolerance=0.0,
                backend=backend,
                dtype=dtype,
                random_state=0,
            )
            with pytest.warns(Warning):
                model.fit(matrix)
            return model

        vectorized = fit("vectorized")
        with ParallelBackend(n_workers=2, n_shards=n_shards, executor="process") as backend:
            process = fit(backend)

        assert process.factors_.user_factors.dtype == np.dtype(dtype)
        assert np.array_equal(
            vectorized.factors_.user_factors, process.factors_.user_factors
        )
        assert np.array_equal(
            vectorized.factors_.item_factors, process.factors_.item_factors
        )
        np.testing.assert_array_equal(
            vectorized.history_.objective_values, process.history_.objective_values
        )

    def test_weighted_sweep_process_parity(self):
        # R-OCuLaR weights are baked into the plan; the shared-memory path
        # must ship them too.
        matrix, row_factors, col_factors = _sweep_problem(7)
        rng = np.random.default_rng(7)
        side = SweepSide.build(
            matrix,
            row_positive_weights=rng.uniform(0.5, 2.0, matrix.shape[0]),
            col_positive_weights=rng.uniform(0.5, 2.0, matrix.shape[1]),
        )
        kwargs = dict(regularization=0.4, plan=side)
        vectorized, _ = VectorizedBackend().sweep(None, row_factors, col_factors, **kwargs)
        with ParallelBackend(n_workers=2, n_shards=3, executor="process") as backend:
            sharded, _ = backend.sweep(None, row_factors, col_factors, **kwargs)
        assert np.array_equal(vectorized, sharded)


# --------------------------------------------------------------------------- #
# Shared-memory lifecycle across a fit (no /dev/shm leaks)
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="requires a /dev/shm mount")
class TestSharedMemoryFitLifecycle:
    def test_ledger_sees_a_segment_until_its_owner_unlinks_it(self, shm_ledger):
        # The hygiene assertions below are only as good as the ledger.
        with pytest.raises(AssertionError, match="published no segment"):
            shm_ledger.assert_gone()
        executor = SharedMemoryProcessExecutor(max_workers=1)
        try:
            executor.publish("slot", np.zeros(10))
            with pytest.raises(AssertionError, match="segments left"):
                shm_ledger.assert_gone()
        finally:
            executor.shutdown()
        shm_ledger.assert_gone()

    def test_name_configured_fit_unlinks_everything(self, shm_ledger):
        # A fit's process pool is an instance: leaving its with-block
        # unlinks every segment the fit published.
        matrix = make_netflix_like(n_users=100, n_items=40, random_state=1)
        with ParallelBackend(n_workers=2, executor="process") as backend:
            model = OCuLaR(
                n_coclusters=5,
                regularization=5.0,
                max_iterations=2,
                tolerance=0.0,
                backend=backend,
                random_state=0,
            )
            with pytest.warns(Warning):
                model.fit(matrix)
        shm_ledger.assert_gone()

    def test_borrowed_backend_cleans_up_on_exit(self, shm_ledger):
        matrix = make_netflix_like(n_users=100, n_items=40, random_state=1)
        with ParallelBackend(n_workers=2, n_shards=2, executor="process") as backend:
            model = OCuLaR(
                n_coclusters=5,
                regularization=5.0,
                max_iterations=2,
                tolerance=0.0,
                backend=backend,
                random_state=0,
            )
            with pytest.warns(Warning):
                model.fit(matrix)
            # The fit borrowed the backend, so its segments live until the
            # owner releases them...
            assert shm_ledger.live()
        # ...which the context exit just did.
        shm_ledger.assert_gone()
