"""Long-lived recommender runtime (the paper's persistent deployment shape).

:class:`RecommenderRuntime` owns one warm executor for its whole life and
threads it through training (warm-pool fits/refits), publication (factor
matrices and the seen-mask in shared memory, once per model version) and
serving (process shards carry only descriptors).  Its single serving
entrypoint is :meth:`~RecommenderRuntime.recommend`, which takes a
:class:`~repro.api.RecommendRequest` and returns a
:class:`~repro.api.RecommendResponse`; see :mod:`repro.runtime.service`.

:class:`BatchingFrontEnd` sits in front of a runtime and coalesces many
small concurrent requests into micro-batches — whatever queued while the
dispatcher was busy, or what gathers during a fixed hold — serving each
batch against one pinned model version (:class:`ServingSession`); see
:mod:`repro.runtime.batching`.

:class:`ServingGateway` (with its :class:`GatewayThread` host and
:class:`GatewayClient` counterpart) puts an asyncio socket front door on
the batcher — newline-delimited JSON frames of the same request/response
dataclasses, with equal-share round-robin across tenants
(:class:`WeightedFairQueue`) under backpressure; see
:mod:`repro.runtime.gateway`.
"""

from repro.api import RecommendRequest, RecommendResponse
from repro.runtime.batching import BatchingFrontEnd, BatchingStats
from repro.runtime.fairness import WeightedFairQueue
from repro.runtime.gateway import (
    GatewayClient,
    GatewayError,
    GatewayThread,
    ServingGateway,
)
from repro.runtime.service import (
    IngestStats,
    RecommenderRuntime,
    ServingSession,
)

__all__ = [
    "IngestStats",
    "BatchingFrontEnd",
    "BatchingStats",
    "GatewayClient",
    "GatewayError",
    "GatewayThread",
    "RecommendRequest",
    "RecommendResponse",
    "RecommenderRuntime",
    "ServingGateway",
    "ServingSession",
    "WeightedFairQueue",
]
