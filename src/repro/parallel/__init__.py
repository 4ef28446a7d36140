"""Parallel execution helpers (stand-in for the paper's Spark/GPU grid search).

The package is organised as a scheduler layer: concrete executors live in
:mod:`repro.parallel.executor`, :mod:`repro.parallel.shared_memory` and
:mod:`repro.parallel.cluster` (the latter two publish arrays through the one
protocol of :mod:`repro.parallel.publication`), and
:mod:`repro.parallel.scheduler` maps names onto them so every fan-out in the
system — training sweeps, batch serving, the hyper-parameter grid — selects
its execution substrate the same way.
"""

from repro.parallel.cluster import ClusterExecutor
from repro.parallel.executor import SerialExecutor, ThreadExecutor
from repro.parallel.scheduler import (
    ShardScheduler,
    available_executors,
    resolve_executor,
)
from repro.parallel.publication import SharedArraySpec, supports_publication
from repro.parallel.shared_memory import SharedMemoryProcessExecutor, attach_shared_array

__all__ = [
    "ClusterExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ShardScheduler",
    "SharedArraySpec",
    "SharedMemoryProcessExecutor",
    "attach_shared_array",
    "available_executors",
    "resolve_executor",
    "supports_publication",
]
