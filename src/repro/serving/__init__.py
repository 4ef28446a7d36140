"""Batch serving: chunked top-N ranking, fold-in cold-start, sharded fan-out.

The production shape of the paper's Section VIII deployment: a
:class:`TopNEngine` scores users in chunks (one BLAS call per chunk) and
selects top-N with ``argpartition``; :func:`fold_in_users` computes factors
for unseen users against the fixed item factors so cold-start clients can be
served without refitting; :func:`serve_sharded` fans user shards across the
executors of :mod:`repro.parallel`.  New items are folded in by
:func:`extend_factors` alone, against the grown corpus's extended user
factors.
"""

from repro.serving.batch import BatchServingResult, serve_sharded
from repro.serving.buffers import BufferPoolStats, ScoreBufferPool
from repro.serving.engine import TopNEngine
from repro.serving.fold_in import (
    clear_fold_in_plan_cache,
    extend_factors,
    fold_in_factors,
    fold_in_users,
    recommend_folded,
)
from repro.serving.results import TopNResult
from repro.serving.shared import (
    SharedCsrSpec,
    SharedEngineSpec,
    attach_engine,
    publish_engine,
    unpublish_engine,
)

__all__ = [
    "TopNEngine",
    "TopNResult",
    "BatchServingResult",
    "serve_sharded",
    "BufferPoolStats",
    "ScoreBufferPool",
    "clear_fold_in_plan_cache",
    "extend_factors",
    "fold_in_factors",
    "fold_in_users",
    "recommend_folded",
    "SharedCsrSpec",
    "SharedEngineSpec",
    "attach_engine",
    "publish_engine",
    "unpublish_engine",
]
