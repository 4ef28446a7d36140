"""A census of the serving runtime's settable surface.

A change that adds (or removes) a public name, a constructor argument or an
environment variable has to edit this file, and so has to say so — instead
of every CHANGES.md entry re-counting them by hand."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import repro.runtime
from repro.runtime import BatchingFrontEnd, RecommenderRuntime, ServingGateway

SRC = Path(repro.runtime.__file__).resolve().parents[2]


def _parameters(cls) -> tuple:
    return tuple(inspect.signature(cls).parameters)


def test_runtime_exports():
    assert sorted(repro.runtime.__all__) == [
        "BatchingFrontEnd",
        "BatchingStats",
        "GatewayClient",
        "GatewayError",
        "GatewayThread",
        "IngestStats",
        "RecommendRequest",
        "RecommendResponse",
        "RecommenderRuntime",
        "ServingGateway",
        "ServingSession",
        "ServingStats",
        "WeightedFairQueue",
    ]


def test_constructor_arguments():
    assert _parameters(BatchingFrontEnd) == (
        "runtime", "max_delay_ms", "max_batch_users", "adaptive",
    )
    assert _parameters(ServingGateway) == (
        "front", "host", "port", "max_inflight", "max_connection_inflight",
        "max_frame_bytes", "fair_queue",
    )
    assert _parameters(RecommenderRuntime) == (
        "executor", "max_workers", "n_shards", "chunk_size", "drift_threshold",
        "serving_dtype",
    )


def test_environment_variables():
    names = {
        name
        for path in SRC.rglob("*.py")
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+\b", path.read_text(encoding="utf-8"))
    }
    assert names == {
        "REPRO_CLUSTER_TASK_DELAY_MS",
        "REPRO_SCORE_BUFFER_BUDGET_MB",
        "REPRO_SWEEP_WORKSPACE_CACHE",
    }
