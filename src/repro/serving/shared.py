"""Descriptor serving: publish a ``TopNEngine`` once, ship a few names per task.

``serve_sharded(executor="process")`` originally pickled the whole
:class:`~repro.serving.engine.TopNEngine` — factor matrices and training CSR
included — into every shard task, which swamps task dispatch for any model
worth sharding.  This module removes that cost with the same publication
protocol (:mod:`repro.parallel.publication`) the training engine uses: the
engine's factor matrices and the training-CSR seen-mask are published on
any publication-capable executor — into ``/dev/shm`` by the process pool,
into the driver's object store by the cluster — and shard tasks carry only
a :class:`SharedEngineSpec` — five
:class:`~repro.parallel.publication.SharedArraySpec` descriptors — plus
their user lists.  Workers attach the descriptors (mapped zero-copy, or
fetched once per node) and rebuild an engine whose rankings are
byte-identical to the publishing process's engine (the arrays are the same
bytes and the kernels are the same code).

Producers: :func:`publish_engine` / :func:`unpublish_engine` publish and
retire all five arrays of one engine; :func:`~repro.serving.batch.serve_sharded`
does so per call when it fans out.  A
:class:`~repro.runtime.RecommenderRuntime` publishes per model *generation*
through the same helpers, but copies only the two factor arrays each time:
its generation table (:mod:`repro.runtime.generations`) publishes a
training matrix's seen mask once and shares it across the generations
built on that matrix, and rewrites the factor slot a released generation
left free instead of making new segments.  Only known-user top-N travels
this way: cold-start rows are ranked in the process that folded and scored
them.

Workers: :func:`_topn_shard` is the one shard worker — it takes an engine as
it is and attaches a spec.  :func:`attach_engine` keeps the rebuilt engine
in the worker cache of :mod:`repro.parallel.shared_memory`, which it shares
with the training sweep sides: when a new generation arrives, engines (and
sides) of unpublished arrays are dropped and their mappings closed, so a
long-lived worker maps the live publications and nothing else.  A seen mask
or factor slot the new generation shares with an older one stays mapped:
the new engine views the same segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.data.interactions import InteractionMatrix
from repro.core.factors import FactorModel
from repro.parallel.publication import (
    CSR_FIELDS,
    SharedArraySpec,
    SharedCsrSpec,
    csr_keys,
)
from repro.parallel.shared_memory import (
    attach_shared_array,
    attach_shared_csr,
    cached_attach,
)
from repro.serving.buffers import ScoreBufferPool
from repro.serving.engine import TopNEngine
from repro.serving.results import TopNResult


@dataclass(frozen=True)
class SharedEngineSpec:
    """Everything a worker needs to rebuild a factor-path ``TopNEngine``.

    Pickles to a few hundred bytes regardless of model size — this is the
    entire per-task payload of descriptor-based sharded serving, next to the
    shard's user list.
    """

    generation: int
    chunk_size: int
    user_factors: SharedArraySpec
    item_factors: SharedArraySpec
    seen: SharedCsrSpec
    #: Serving dtype string (e.g. ``"float32"``); ``None`` means the
    #: published arrays' native dtype.  The published arrays are already in
    #: this dtype, so workers never cast — publisher and worker score the
    #: same bytes.
    dtype: Optional[str] = None

    def array_specs(self) -> List[SharedArraySpec]:
        """The five component array descriptors, in key-layout order."""
        return [self.user_factors, self.item_factors, *self.seen.array_specs()]

    def segment_names(self) -> List[str]:
        """Names of every publication backing this engine."""
        return [spec.shm_name for spec in self.array_specs()]


#: Process-wide source of unique publication tokens (engine generations,
#: seen masks and factor slots alike).  ``itertools.count`` is atomic under
#: the GIL, so concurrent publishers never collide on keys.
_GENERATIONS = itertools.count(1)


def _factor_keys(token: int) -> List[Tuple]:
    """The executor slot keys of one factor pair."""
    return [("engine", token, "user_factors"), ("engine", token, "item_factors")]


def _seen_keys(token: int) -> List[Tuple]:
    """The executor slot keys of one seen mask."""
    return csr_keys(("engine", token, "seen"))


def _publish_all(executor: Any, keys: List[Tuple], arrays: Sequence) -> List[SharedArraySpec]:
    """Publish ``arrays`` under ``keys``, all or none.

    Non-evictable: a published model version must stay attachable until it
    is unpublished — LRU churn from other publications (a refit's plan and
    factor slots) must never silently unlink a generation workers still
    serve.  A write that fails part-way (a full ``/dev/shm``) unpublishes
    every key of the call before it raises, a rewritten one included, so
    nothing of it waits for the executor's shutdown.
    """
    try:
        return [
            executor.publish(key, array, evictable=False)
            for key, array in zip(keys, arrays)
        ]
    except BaseException:
        _unpublish_all(executor, keys)
        raise


def _unpublish_all(executor: Any, keys: List[Tuple]) -> None:
    for key in keys:
        executor.unpublish(key)


def _publish_seen(executor: Any, token: int, matrix: InteractionMatrix) -> SharedCsrSpec:
    """Publish a training matrix's CSR as a seen mask."""
    csr = matrix.csr()
    arrays = [getattr(csr, field) for field in CSR_FIELDS]
    return SharedCsrSpec(tuple(csr.shape), *_publish_all(executor, _seen_keys(token), arrays))


def _publish_factors(executor: Any, token: int, engine: TopNEngine) -> List[SharedArraySpec]:
    """Publish an engine's factor pair under the slot ``token``.

    The *serving*-dtype arrays are published (for a float32-serving engine
    that is half the shared-memory footprint and bandwidth), so workers
    score byte-identically to the publisher without casting.  A slot that
    already holds a pair of the same shapes and dtype is rewritten in place.
    """
    arrays = [engine.serving_user_factors, engine.serving_item_factors]
    return _publish_all(executor, _factor_keys(token), arrays)


def _engine_spec(
    generation: int, engine: TopNEngine, factors: List[SharedArraySpec], seen: SharedCsrSpec
) -> SharedEngineSpec:
    user_factors, item_factors = factors
    return SharedEngineSpec(
        generation, engine.chunk_size, user_factors, item_factors, seen,
        dtype=str(engine.serving_dtype),
    )


def publish_engine(executor: Any, engine: TopNEngine) -> SharedEngineSpec:
    """Publish an engine's factor matrices and seen-mask on ``executor``.

    ``executor`` is any publication-capable executor (see
    :func:`~repro.parallel.publication.supports_publication`).  One copy per
    array, all five or none; the returned spec is the complete task payload
    for :func:`_topn_shard`.  Requires a factor-path engine — model-path
    engines have no arrays to share and must be pickled instead.
    """
    if engine.factors is None:
        raise ValueError(
            "publish_engine requires a factor-path TopNEngine; model-path "
            "engines must be shipped by value"
        )
    generation = next(_GENERATIONS)
    seen = _publish_seen(executor, generation, engine.train_matrix)
    try:
        factors = _publish_factors(executor, generation, engine)
    except BaseException:
        _unpublish_all(executor, _seen_keys(generation))
        raise
    return _engine_spec(generation, engine, factors, seen)


def unpublish_engine(executor: Any, spec: SharedEngineSpec) -> None:
    """Retire one engine :func:`publish_engine` published.

    Safe while serving tasks are in flight: workers already attached keep
    valid mappings until their processes exit or prune them (only the
    ``/dev/shm`` names disappear now), and cluster nodes keep their fetched
    copies until the eviction reaches them.
    """
    _unpublish_all(executor, _factor_keys(spec.generation) + _seen_keys(spec.generation))


#: How many engine generations one worker keeps rebuilt at a time.  Two
#: covers A/B serving; the headroom absorbs a swap racing a serving burst.
MAX_CACHED_ENGINES = 4

#: The score-block pool of every engine this process rebuilds from
#: descriptors.  A worker keeps up to :data:`MAX_CACHED_ENGINES` of them
#: (a runtime's released generation stays published until its factor pair
#: is rewritten, so its engine stays cached), and all of them score into
#: the same blocks: a worker's score memory is one engine's.
_WORKER_POOL = ScoreBufferPool()


def _build_engine(spec: SharedEngineSpec) -> TopNEngine:
    train_matrix = InteractionMatrix.from_validated_csr(attach_shared_csr(spec.seen))
    factors = FactorModel(
        attach_shared_array(spec.user_factors),
        attach_shared_array(spec.item_factors),
    )
    engine = TopNEngine(
        train_matrix, factors=factors, chunk_size=spec.chunk_size, dtype=spec.dtype
    )
    engine.pool = _WORKER_POOL
    return engine


def attach_engine(spec: SharedEngineSpec) -> TopNEngine:
    """Rebuild (or fetch the cached) engine for ``spec`` inside a worker.

    A serving burst sends many shard tasks with one spec; the engine is
    rebuilt once.  Up to :data:`MAX_CACHED_ENGINES` generations stay cached
    side by side (a runtime A/B-serving two model versions alternates specs),
    and a generation reaching the worker for the first time drops the ones
    the publisher has retired (see
    :func:`~repro.parallel.shared_memory.cached_attach`).
    """
    return cached_attach(spec, _build_engine, MAX_CACHED_ENGINES)


def _topn_shard(
    engine: Union[TopNEngine, SharedEngineSpec],
    users: Sequence[int],
    n_items: int,
    exclude_seen: bool,
    with_scores: bool = False,
) -> TopNResult:
    """Serve one user shard — the one shard worker of every serving path.

    ``engine`` is the engine itself (the calling thread's, or one pickled
    into the task) or the descriptors of a published one, which the worker
    attaches.  Returns the shard's flat
    :class:`~repro.serving.results.TopNResult` (score block embedded when
    ``with_scores``), which pickles back to the caller as three contiguous
    arrays instead of ``O(shard)`` row objects.
    """
    if isinstance(engine, SharedEngineSpec):
        engine = attach_engine(engine)
    return engine.topn(
        users, n_items=n_items, exclude_seen=exclude_seen, with_scores=with_scores
    )
