"""Compute backends for the OCuLaR block-coordinate sweeps.

Three backends implement identical mathematics:

* ``"reference"`` — a per-row Python loop, the direct transcription of the
  paper's Section IV-D pseudocode.  It plays the role of the paper's CPU
  implementation in the Figure 8 experiment.
* ``"vectorized"`` — batched NumPy/SciPy kernels that update every row of a
  side at once, the role of the paper's CUDA implementation.  The gradient
  of all rows is assembled with one sparse matrix product over the positive
  examples, which is exactly the parallel-over-positive-ratings structure of
  the paper's GPU kernel.
* ``"parallel"`` — the vectorized kernels sharded by row range and fanned
  across a worker pool, realising the paper's rows-are-independent
  parallelism argument on the CPU.  By name it is a thread pool of the CPU
  count; a sized or process pool is an instance,
  ``ParallelBackend(n_workers=..., executor=...)``.  Its factors are
  bit-identical to ``"vectorized"`` for any shard count.

All backends consume a precomputed :class:`~repro.core.backends.plan.SweepSide`
(built once per fit by the trainer through :class:`SweepPlan`), run the line
search with the Armijo constants of :mod:`repro.core.objective`, and return
bit-for-bit comparable factors when run with the same inputs; the test-suite
asserts their agreement.
"""

from repro.core.backends.base import Backend, SweepStats
from repro.core.backends.plan import SweepPlan, SweepSide, nnz_balanced_ranges
from repro.core.backends.reference import ReferenceBackend
from repro.core.backends.vectorized import VectorizedBackend
from repro.core.backends.parallel import ParallelBackend
from repro.core.backends.workspace import SweepWorkspace, SweepWorkspaceStore, WorkspaceStats

from repro.exceptions import ConfigurationError

_BACKENDS = {
    "reference": ReferenceBackend,
    "vectorized": VectorizedBackend,
    "parallel": ParallelBackend,
}


def get_backend(name) -> Backend:
    """Instantiate a backend by name, or pass an instance through.

    ``name`` is ``"reference"``, ``"vectorized"``, ``"parallel"`` (built at
    its defaults), or a :class:`Backend` instance, returned unchanged.
    """
    if isinstance(name, Backend):
        return name
    try:
        backend_cls = _BACKENDS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from exc
    return backend_cls()


__all__ = [
    "Backend",
    "SweepStats",
    "SweepPlan",
    "SweepSide",
    "ReferenceBackend",
    "VectorizedBackend",
    "ParallelBackend",
    "SweepWorkspace",
    "SweepWorkspaceStore",
    "WorkspaceStats",
    "get_backend",
    "nnz_balanced_ranges",
]
