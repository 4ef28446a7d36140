"""Executors for embarrassingly parallel work.

The paper distributes the (K, lambda) grid search "using Apache Spark across
a cluster of 8 machines, each fitted with a GPU" (Section VII-E).  The
reproduction offers the same scale-out shape on a single machine: a
:class:`ThreadExecutor` fans independent hyper-parameter evaluations out to
a thread pool (useful when the work releases the GIL), and a
:class:`SerialExecutor` runs everything inline — handy in tests and the
baseline against which the parallel speed-up is measured.  The process pool
is :class:`~repro.parallel.shared_memory.SharedMemoryProcessExecutor`, built
on this module's :class:`_PoolExecutor`.

Every executor exposes the same two methods (``map`` and ``starmap``), so
the grid search code is agnostic to which one it receives.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.exceptions import ExecutorShutDownError, WorkerCrashError
from repro.utils.validation import check_positive_int


def _resolve_workers(max_workers: Optional[int]) -> int:
    """Default the pool size to the machine's CPU count."""
    if max_workers is None:
        return os.cpu_count() or 1
    return check_positive_int(max_workers, "max_workers")


class SerialExecutor:
    """Run tasks sequentially in the calling process.

    Even though there is no pool to release, :meth:`shutdown` still flips
    the executor into a terminal state: every registered executor rejects
    work after shutdown with :class:`ExecutorShutDownError`, so lifecycle
    bugs (a component using an executor its owner already tore down) fail
    identically whether the configured executor happens to be serial,
    pooled, or remote.
    """

    def __init__(self) -> None:
        self._shut_down = False

    def map(self, function: Callable[..., Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``function`` to each item, in order."""
        self._check_active()
        return [function(item) for item in items]

    def starmap(self, function: Callable[..., Any], argument_tuples: Iterable[Sequence[Any]]) -> List[Any]:
        """Apply ``function(*args)`` to each argument tuple, in order."""
        self._check_active()
        return [function(*args) for args in argument_tuples]

    def _check_active(self) -> None:
        if self._shut_down:
            raise ExecutorShutDownError(
                f"cannot submit work to {type(self).__name__} after shutdown()"
            )

    def shutdown(self) -> None:
        """Mark the executor terminal (idempotent); later submissions raise."""
        self._shut_down = True

    @property
    def is_shut_down(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        return self._shut_down

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class _PoolExecutor:
    """Common implementation for process- and thread-backed executors."""

    def __init__(self, pool: concurrent.futures.Executor) -> None:
        self._pool = pool
        self._shut_down = False

    def map(self, function: Callable[..., Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``function`` to each item concurrently; results keep input order."""
        self._check_active()
        futures = [self._pool.submit(function, item) for item in items]
        return self._gather(futures)

    def starmap(self, function: Callable[..., Any], argument_tuples: Iterable[Sequence[Any]]) -> List[Any]:
        """Apply ``function(*args)`` concurrently; results keep input order."""
        self._check_active()
        futures = [self._pool.submit(function, *args) for args in argument_tuples]
        return self._gather(futures)

    def _check_active(self) -> None:
        if self._shut_down:
            raise ExecutorShutDownError(
                f"cannot submit work to {type(self).__name__} after shutdown()"
            )

    def _gather(self, futures: List[concurrent.futures.Future]) -> List[Any]:
        """Collect results in submission order once every worker has finished.

        Waiting for *all* futures first (instead of calling ``result()`` on
        each in turn) means no worker is left running when an error
        propagates, and the raised exception is deterministically the first
        failure in submission order, re-raised with the worker's original
        traceback attached rather than whichever future happened to be
        awaited first.  A dead *worker* (as opposed to a failing task) is
        translated from the pool's bare ``BrokenExecutor`` into
        :class:`WorkerCrashError` naming this executor and the submission
        index of the task whose worker died, so callers can tell "retryable
        infrastructure failure" from "the task itself raised".
        """
        concurrent.futures.wait(futures)
        for index, future in enumerate(futures):
            error = future.exception()
            if error is None:
                continue
            if isinstance(error, concurrent.futures.BrokenExecutor):
                raise WorkerCrashError(
                    f"a worker of {type(self).__name__} died while executing task "
                    f"{index} ({error!r}); the pool is broken and must be rebuilt",
                    executor=type(self).__name__,
                    task_index=index,
                ) from error
            raise error.with_traceback(error.__traceback__)
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        """Release the worker pool.

        Waits for in-flight tasks, then tears the pool down.  Idempotent:
        lifecycle code (trainer ``finally`` blocks, context exits, a runtime
        ``close``) may run more than once and a second call is a no-op.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self._pool.shutdown()

    @property
    def is_shut_down(self) -> bool:
        """Whether :meth:`shutdown` has completed."""
        return self._shut_down

    def __enter__(self) -> "_PoolExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class DispatcherThread:
    """A named daemon thread that runs ``step()`` in a loop until stopped.

    The building block for accumulating front-ends (the runtime's
    micro-batching dispatcher): ``step`` is expected to block on its own
    condition variable or queue — with a timeout, so the loop stays
    responsive — and return when it has processed one unit of work.
    :meth:`stop` flips :attr:`stop_requested`, invokes the optional ``wake``
    callable (typically ``condition.notify_all`` under the condition's lock,
    to unblock a waiting ``step``) and joins the thread.

    The thread is a daemon: a crashed owner that never calls :meth:`stop`
    cannot keep the interpreter alive, which is exactly the failure mode a
    deadlocked test-suite guard needs.
    """

    def __init__(
        self,
        step: Callable[[], Any],
        name: str = "dispatcher",
        wake: Optional[Callable[[], None]] = None,
        on_failure: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        if not callable(step):
            raise TypeError("step must be callable")
        self._step = step
        self._wake = wake
        self._on_failure = on_failure
        self._stop_event = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._failure: Optional[BaseException] = None

    def _run(self) -> None:
        while not self._stop_event.is_set():
            try:
                self._step()
            except BaseException as error:  # pragma: no cover - defensive
                # A dispatcher that dies silently turns every later submit
                # into a hang; record the error, let the owner fail whatever
                # work is already queued behind the dead loop, and stop.
                self._failure = error
                if self._on_failure is not None:
                    try:
                        self._on_failure(error)
                    except Exception:
                        pass
                return

    def start(self) -> "DispatcherThread":
        """Start the loop; returns self for one-line construction."""
        self._thread.start()
        return self

    @property
    def stop_requested(self) -> bool:
        """Whether :meth:`stop` has been called (``step`` should return soon)."""
        return self._stop_event.is_set()

    @property
    def failure(self) -> Optional[BaseException]:
        """The exception that killed the loop, if any (``None`` while healthy)."""
        return self._failure

    @property
    def is_alive(self) -> bool:
        """Whether the loop thread is still running."""
        return self._thread.is_alive()

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Request the loop to exit and join it; returns whether it ended.

        Idempotent.  ``wake`` is called after the stop flag is set so a
        ``step`` blocked on its condition variable observes the request.
        """
        self._stop_event.set()
        if self._wake is not None:
            self._wake()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)
        return not self._thread.is_alive()


class ThreadExecutor(_PoolExecutor):
    """Executor backed by a thread pool.

    NumPy releases the GIL inside its kernels, so thread pools provide real
    concurrency for the vectorised backend without any pickling constraints.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__(
            concurrent.futures.ThreadPoolExecutor(max_workers=_resolve_workers(max_workers))
        )
