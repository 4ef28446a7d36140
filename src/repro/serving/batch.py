"""Sharded batch serving: fan user chunks across an executor.

The nightly job of Section VIII serves every client.  On one machine the
chunked :class:`~repro.serving.engine.TopNEngine` already removes the
per-user Python overhead; this module adds the scale-out axis.
:func:`fan_out_topn` is the one place that cuts users into shards — slices
of one int64 index array — and decides how a shard travels, for
:func:`serve_sharded` and for the runtime's ``recommend`` alike:

* one shard runs here, on the caller's thread and engine — no fan-out
  without a fan, so a small call builds no pool and publishes nothing
  (:func:`serve_sharded` still hands a lone shard to an executor
  *instance*: passing one in asks for the shards to run on it);
* a factor-path engine on a publication-capable executor (``"process"``,
  ``"cluster"``) is **published, not pickled** — by the runtime once per
  generation, otherwise for the one call — and each task carries only a
  :class:`~repro.serving.shared.SharedEngineSpec`, no factor bytes;
* anything else ships the engine by value, so it must be picklable on a
  process executor.

Executors return results in submission order, so the rankings are aligned
with the input users no matter which executor ran the shards — the
test-suite asserts all of them agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel import ShardScheduler, supports_publication
from repro.serving.engine import TopNEngine
from repro.serving.results import TopNResult
from repro.serving.shared import (
    SharedEngineSpec,
    _topn_shard,
    publish_engine,
    unpublish_engine,
)
from repro.utils.validation import check_positive_int


def merge_request_lists(
    lists: Sequence[Sequence[Any]],
) -> Tuple[List[Any], List[Tuple[int, int]]]:
    """Flatten per-request item lists into one batch, remembering each span.

    The gather half of micro-batching: many small requests become one merged
    list the serving engine can process in a single sharded call, plus one
    ``(start, stop)`` span per request for :func:`scatter_results` to slice
    the merged output back apart.  Duplicates across requests are fine —
    each request keeps its own span, so two requests asking for the same
    user each receive that user's ranking.
    """
    merged: List[Any] = []
    spans: List[Tuple[int, int]] = []
    for request in lists:
        start = len(merged)
        merged.extend(request)
        spans.append((start, len(merged)))
    return merged, spans


def scatter_results(
    results: Sequence[Any], spans: Sequence[Tuple[int, int]]
) -> List[Sequence[Any]]:
    """Slice a merged batch's per-row results back apart, one slice per request.

    Inverse of :func:`merge_request_lists`: ``results`` must be aligned with
    the merged list (one entry per merged row, in order), which every
    serving path guarantees — executors return shard results in submission
    order.  A flat :class:`~repro.serving.results.TopNResult` slices into
    zero-copy block views, its scores included.
    """
    if spans and len(results) < spans[-1][1]:
        raise ValueError(
            f"merged results cover {len(results)} rows but the request spans "
            f"extend to {spans[-1][1]}"
        )
    return [results[start:stop] for start, stop in spans]


@dataclass
class BatchServingResult:
    """Outcome of a sharded serving run.

    Attributes
    ----------
    users:
        The users served, in input order.
    rankings:
        Flat :class:`~repro.serving.results.TopNResult` aligned with
        ``users``.
    n_shards:
        Number of shards the users were split into.
    """

    users: List[int]
    rankings: TopNResult
    n_shards: int

    def as_dict(self) -> dict[int, np.ndarray]:
        """Mapping form (user -> ranked items)."""
        return dict(zip(self.users, self.rankings))


def fan_out_topn(
    scheduler: ShardScheduler,
    engine: TopNEngine,
    users: np.ndarray,
    n_items: int,
    exclude_seen: bool,
    shard_size: Optional[int] = None,
    with_scores: bool = False,
    spec: Optional[SharedEngineSpec] = None,
    min_fan: int = 2,
) -> Tuple[TopNResult, int, Optional[tuple]]:
    """Cut ``users`` into shards and serve them by the module's three rules.

    ``spec`` is ``engine``'s standing publication on the scheduler's
    executor, when the caller holds one; without it a fan-out that
    publishes does so for this call only, leaving a borrowed executor as it
    was handed in.  ``shard_size`` defaults to the engine's chunk size, so a
    shard is one BLAS call in its worker.  Fewer than ``min_fan`` shards run
    here.

    Returns the rankings (aligned with ``users``), the number of shards, and
    the first task shipped with descriptors — a largest one, every shard but
    the last being full — or ``None`` when no descriptors travelled.
    """
    if shard_size is None:
        shard_size = engine.chunk_size
    check_positive_int(shard_size, "shard_size")
    shards = [users[start : start + shard_size] for start in range(0, len(users), shard_size)]
    if len(shards) < min_fan:
        results = [
            _topn_shard(engine, shard, n_items, exclude_seen, with_scores) for shard in shards
        ]
        return TopNResult.concat(results), len(shards), None
    executor = scheduler.executor
    per_call = spec is None and supports_publication(executor) and engine.factors is not None
    if per_call:
        spec = publish_engine(executor, engine)
    try:
        tasks = [
            (engine if spec is None else spec, shard, n_items, exclude_seen, with_scores)
            for shard in shards
        ]
        results = executor.starmap(_topn_shard, tasks)
    finally:
        if per_call:
            unpublish_engine(executor, spec)
    # Shards of one call share a width, so flattening is one vstack of the
    # flat blocks — no per-user list rebuilding.
    return TopNResult.concat(results), len(shards), None if spec is None else tasks[0]


def serve_sharded(
    engine: TopNEngine,
    users: Sequence[int],
    n_items: int = 10,
    exclude_seen: bool = True,
    executor=None,
    shard_size: Optional[int] = None,
) -> BatchServingResult:
    """Serve top-N lists for many users, sharded across an executor.

    Parameters
    ----------
    engine:
        The scoring engine.  When the users make two or more shards, a
        factor-path engine on a publication-capable executor (the
        shared-memory process pool, the cluster executor) is published once
        for the call — descriptors per task, zero factor bytes; on any
        other process executor — or for model-path engines — the engine is
        pickled per shard, so it must be picklable there.
    users:
        Users to serve, any order, duplicates allowed; a sequence or an
        integer array.
    n_items:
        List length per user.
    exclude_seen:
        Mask training positives (the deployment default).
    executor:
        A name from the :mod:`repro.parallel.scheduler` registry
        (``"serial"``, ``"thread"``, ``"process"``, ``"cluster"``) — the
        executor is then built only if the users make two or more shards
        (one shard is served on the calling thread), and shut down
        afterwards — or any prebuilt instance with ``starmap``, which runs
        every shard, a lone one included (the caller keeps its lifecycle).
        Defaults to ``"serial"``.
    shard_size:
        Users per shard; defaults to the engine's chunk size.
    """
    user_array = np.asarray(
        users if isinstance(users, np.ndarray) else list(users), dtype=np.int64
    )
    # The scheduler owns a name-built executor (built on first use, shut
    # down on exit) and borrows an instance (left running for its owner).
    with ShardScheduler("serial" if executor is None else executor) as scheduler:
        rankings, n_shards, _shipped = fan_out_topn(
            scheduler,
            engine,
            user_array,
            n_items,
            exclude_seen,
            shard_size,
            # A name only says what to build if the call fans out; an
            # instance was handed in to run the shards (the benchmark's
            # executor probes and the cluster drills count tasks on it).
            min_fan=2 if scheduler.owns_executor else 1,
        )
    return BatchServingResult(users=user_array.tolist(), rankings=rankings, n_shards=n_shards)
