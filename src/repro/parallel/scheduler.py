"""The shard-scheduler layer: one registry for every fan-out in the system.

Before this layer existed, each parallel consumer hard-wired its own
executor: the training backend built a ``ThreadExecutor``, batch serving
defaulted to ``SerialExecutor``, and the grid search took whatever instance
it was handed.  The scheduler unifies them: executors are registered by name
(``"serial"``, ``"thread"``, ``"process"``, ``"cluster"``),
:func:`resolve_executor` turns
a name *or* an instance into a ready executor, and :class:`ShardScheduler`
adds lazy construction plus lifecycle so a component can declare "I fan out
on <name>" without paying for a pool until the first shard runs.

The ``"process"`` entry resolves to
:class:`~repro.parallel.shared_memory.SharedMemoryProcessExecutor`, which is
a drop-in process pool for pickled tasks *and* offers shared-memory array
publication — the training backend detects that capability and ships
``(row_range, shm_names)`` descriptors instead of arrays.

The ``"cluster"`` entry resolves to
:class:`~repro.parallel.cluster.ClusterExecutor` — the same publication
capability over RPC agent nodes, loopback-spawned or remote.  Every
consumer — training, serving, grid search — selects among them by name, or
takes a prebuilt instance.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.parallel.cluster import ClusterExecutor
from repro.parallel.executor import SerialExecutor, ThreadExecutor
from repro.parallel.shared_memory import SharedMemoryProcessExecutor

#: An executor factory: ``factory(max_workers)`` -> executor instance.
ExecutorFactory = Callable[[Optional[int]], Any]

_EXECUTOR_FACTORIES: Dict[str, ExecutorFactory] = {
    "serial": lambda max_workers: SerialExecutor(),
    "thread": lambda max_workers: ThreadExecutor(max_workers=max_workers),
    "process": lambda max_workers: SharedMemoryProcessExecutor(max_workers=max_workers),
    # max_workers maps onto the node count: "fan out on cluster at width 3"
    # spawns (or, with explicit addresses, expects) three agent nodes.
    "cluster": lambda max_workers: ClusterExecutor(n_nodes=max_workers),
}


def available_executors() -> List[str]:
    """Names of the registered executors."""
    return sorted(_EXECUTOR_FACTORIES)


def resolve_executor(executor: Any, max_workers: Optional[int] = None) -> Any:
    """Turn an executor name into an instance; pass instances through.

    Parameters
    ----------
    executor:
        A registered name (``"serial"``, ``"thread"``, ``"process"``,
        ``"cluster"``), or an already-built executor instance (returned
        unchanged).
    max_workers:
        Pool size handed to the factory when ``executor`` is a name.  It is
        an error to combine it with an instance — the instance's own pool
        size would silently win otherwise.

    Notes
    -----
    When given a *name*, the caller owns the returned executor and should
    shut it down; when given an instance, the original owner keeps that
    responsibility.
    """
    if isinstance(executor, str):
        try:
            factory = _EXECUTOR_FACTORIES[executor]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown executor {executor!r}; available: {available_executors()}"
            ) from exc
        return factory(max_workers)
    if not hasattr(executor, "starmap"):
        raise ConfigurationError(
            f"executor must be a registered name ({available_executors()}) or an "
            f"instance exposing starmap, got {executor!r}"
        )
    if max_workers is not None:
        raise ConfigurationError(
            "max_workers cannot be combined with an executor instance; "
            "size the instance at construction time"
        )
    return executor


class ShardScheduler:
    """A named executor with lazy construction and owned lifecycle.

    Components that fan shards out hold one scheduler instead of a concrete
    executor: the scheduler resolves the configured name through the
    registry on first use, exposes order-stable ``map``/``starmap``, and
    tears the executor down on :meth:`shutdown` (after which the next use
    transparently builds a fresh one).  Passing an existing executor
    instance is also supported; the scheduler then delegates without taking
    ownership — :meth:`shutdown` leaves a borrowed executor running.
    """

    def __init__(self, executor: Any = "thread", max_workers: Optional[int] = None) -> None:
        self._owns_executor = isinstance(executor, str)
        if self._owns_executor:
            if executor not in _EXECUTOR_FACTORIES:
                raise ConfigurationError(
                    f"unknown executor {executor!r}; available: {available_executors()}"
                )
            self._spec = executor
            self._executor: Any = None
        else:
            if max_workers is not None:
                raise ConfigurationError(
                    "max_workers cannot be combined with an executor instance; "
                    "size the instance at construction time"
                )
            self._spec = getattr(type(executor), "__name__", str(executor))
            self._executor = resolve_executor(executor)
        self._max_workers = max_workers

    @property
    def executor_name(self) -> str:
        """The configured executor name (or the instance's type name)."""
        return self._spec

    @property
    def owns_executor(self) -> bool:
        """Whether :meth:`shutdown` tears the executor down.

        True iff the scheduler was configured with a *name* (it builds and
        owns the executor); a borrowed instance is never shut down here.
        """
        return self._owns_executor

    @property
    def executor(self) -> Any:
        """The live executor, constructing it on first access."""
        if self._executor is None:
            self._executor = _EXECUTOR_FACTORIES[self._spec](self._max_workers)
        return self._executor

    @property
    def live_executor(self) -> Any:
        """The executor if one is currently built, else ``None``.

        Unlike :attr:`executor` this never constructs — cleanup paths use it
        to avoid spinning up a pool just to shut it down.
        """
        return self._executor

    def map(self, function: Callable[..., Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``function`` to each item through the executor, order-stable."""
        return self.executor.map(function, items)

    def starmap(
        self, function: Callable[..., Any], argument_tuples: Iterable[Sequence[Any]]
    ) -> List[Any]:
        """Apply ``function(*args)`` through the executor, order-stable."""
        return self.executor.starmap(function, argument_tuples)

    def shutdown(self) -> None:
        """Release the owned executor (a later use recreates it).

        Idempotent — a second call (or a call on a scheduler that never
        built its executor) is a no-op — and never touches a borrowed
        instance: the owner that passed it in keeps its lifecycle.
        """
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ShardScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self._executor is not None else "lazy"
        return f"{type(self).__name__}(executor={self._spec!r}, {state})"
