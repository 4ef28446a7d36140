"""Tests for the parallel executors."""

from __future__ import annotations

import os
import time
import traceback

import pytest

from repro.exceptions import (
    ConfigurationError,
    ExecutorShutDownError,
    ReproError,
    WorkerCrashError,
)
from repro.parallel import SerialExecutor, SharedMemoryProcessExecutor, ThreadExecutor


def square(value: int) -> int:
    """Module-level helper (picklable for the process pool)."""
    return value * value


def exit_hard(code: int) -> None:
    """Module-level helper that kills its worker process outright."""
    os._exit(code)


def add(left: int, right: int) -> int:
    """Module-level helper (picklable for the process pool)."""
    return left + right


def fail_tagged(tag: str, delay: float = 0.0) -> None:
    """Module-level helper that raises a tagged error after an optional delay."""
    if delay:
        time.sleep(delay)
    raise ValueError(f"worker failed: {tag}")


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(square, [1, 2, 3]) == [1, 4, 9]

    def test_starmap(self):
        assert SerialExecutor().starmap(add, [(1, 2), (3, 4)]) == [3, 7]

    def test_shutdown_is_idempotent(self):
        executor = SerialExecutor()
        executor.shutdown()
        executor.shutdown()
        assert executor.is_shut_down

    def test_rejects_work_after_shutdown(self):
        # The serial executor used to keep accepting work after shutdown(),
        # diverging from the pooled executors; the contract is now uniform.
        executor = SerialExecutor()
        executor.shutdown()
        with pytest.raises(ExecutorShutDownError):
            executor.map(square, [1])
        with pytest.raises(ExecutorShutDownError):
            executor.starmap(add, [(1, 2)])

    def test_context_manager_protocol(self):
        # Interchangeable with the pooled executors in ``with`` blocks.
        with SerialExecutor() as executor:
            assert executor.map(square, [3]) == [9]
        with pytest.raises(ValueError, match="worker failed: ctx"):
            with SerialExecutor() as executor:
                executor.starmap(fail_tagged, [("ctx",)])


class TestThreadExecutor:
    def test_map_matches_serial(self):
        with ThreadExecutor(max_workers=3) as executor:
            assert executor.map(square, range(6)) == [square(v) for v in range(6)]

    def test_starmap(self):
        with ThreadExecutor(max_workers=2) as executor:
            assert executor.starmap(add, [(1, 1), (2, 2), (3, 3)]) == [2, 4, 6]

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ThreadExecutor(max_workers=0)


class TestProcessExecutor:
    def test_map_matches_serial(self):
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            assert executor.map(square, [2, 3, 4]) == [4, 9, 16]

    def test_starmap(self):
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            assert executor.starmap(add, [(10, 5), (1, 1)]) == [15, 2]

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            SharedMemoryProcessExecutor(max_workers=-1)


class TestWorkerDefaults:
    def test_thread_default_workers_is_cpu_count(self):
        with ThreadExecutor() as executor:
            assert executor._pool._max_workers == (os.cpu_count() or 1)

    def test_process_default_workers_is_cpu_count(self):
        with SharedMemoryProcessExecutor() as executor:
            assert executor._pool._max_workers == (os.cpu_count() or 1)
            executor.map(square, [1])  # the pool is actually usable


class TestFailurePropagation:
    def test_first_submitted_failure_wins(self):
        # The second-submitted task fails immediately; the first fails after a
        # delay.  The propagated error must deterministically be the first
        # task's (submission order), not whichever failed first in time.
        with ThreadExecutor(max_workers=2) as executor:
            with pytest.raises(ValueError, match="worker failed: first"):
                executor.starmap(fail_tagged, [("first", 0.2), ("second", 0.0)])

    def test_traceback_reaches_the_worker_frame(self):
        with ThreadExecutor(max_workers=2) as executor:
            with pytest.raises(ValueError) as excinfo:
                executor.starmap(fail_tagged, [("traced", 0.0)])
        frames = traceback.extract_tb(excinfo.value.__traceback__)
        assert any(frame.name == "fail_tagged" for frame in frames)

    def test_process_pool_propagates_failure(self):
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            with pytest.raises(ValueError, match="worker failed: only"):
                executor.starmap(fail_tagged, [("only", 0.0)])


class TestLifecycleContract:
    """The post-shutdown and worker-death bugfixes (typed errors everywhere)."""

    @pytest.mark.parametrize("build", [ThreadExecutor, SharedMemoryProcessExecutor])
    def test_pooled_submission_after_shutdown_raises_typed_error(self, build):
        # Used to leak concurrent.futures' raw RuntimeError("cannot schedule
        # new futures after shutdown"); now a typed repro error.
        executor = build(max_workers=2)
        executor.shutdown()
        with pytest.raises(ExecutorShutDownError):
            executor.map(square, [1])
        with pytest.raises(ExecutorShutDownError):
            executor.starmap(add, [(1, 2)])

    def test_shutdown_error_is_repro_and_runtime_error(self):
        # ReproError so library callers catch one base class; RuntimeError so
        # pre-existing code written against the pools' raw error keeps working.
        executor = ThreadExecutor(max_workers=1)
        executor.shutdown()
        with pytest.raises(ReproError):
            executor.map(square, [1])
        executor = ThreadExecutor(max_workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.map(square, [1])

    def test_worker_death_is_translated_with_task_index(self):
        # A dying worker process used to surface as a bare BrokenProcessPool
        # with no context; now WorkerCrashError names the executor and the
        # submission index of the task whose worker died.
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            with pytest.raises(WorkerCrashError) as excinfo:
                executor.starmap(exit_hard, [(3,)])
        assert excinfo.value.executor == "SharedMemoryProcessExecutor"
        assert excinfo.value.task_index == 0
        assert isinstance(excinfo.value, ReproError)

    def test_task_exception_is_not_a_worker_crash(self):
        # The distinction runtime callers rely on: "node died" (retryable on
        # cluster) arrives as WorkerCrashError, a plain task failure as itself.
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            with pytest.raises(ValueError, match="worker failed: plain"):
                executor.starmap(fail_tagged, [("plain", 0.0)])
