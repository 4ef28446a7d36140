"""Machine-readable benchmark reports.

Every ``bench_*.py`` regenerates a paper table or figure and dumps its
headline numbers through :func:`write_bench_json` next to the human-readable
``results/<name>.txt`` report.  The JSON files
(``results/BENCH_<name>.json``) are uploaded as a CI artifact, so the
reproduced numbers are a directory of small documents instead of numbers
buried in pytest logs.

The schema is deliberately flat::

    {
      "bench": "incremental_refit",
      "metrics": {"warm_seconds": 0.41, "cold_seconds": 5.6, ...},
      "context": {"n_users": 2000, ...},
      "host": {"cpu_count": 8, "platform": "...", "python": "3.11.8"},
      "recorded_at": "2026-08-08T12:34:56+00:00"
    }

``metrics`` is the headline scalars a trend dashboard would plot;
``context`` is whatever identifies the configuration that produced them
(corpus size, worker count).  Values are coerced to plain
JSON scalars — numpy floats and ints are accepted.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Mapping

RESULTS_DIR = Path(__file__).parent / "results"


def _jsonable(value: Any) -> Any:
    """Coerce a metric value to a JSON scalar (numpy types included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(entry) for key, entry in value.items()}
    return str(value)


def write_bench_json(
    name: str, metrics: Dict[str, Any], **context: Any
) -> Path:
    """Persist a benchmark's headline numbers as ``results/BENCH_<name>.json``.

    Parameters
    ----------
    name:
        Benchmark identifier; also the file stem (``BENCH_<name>.json``).
    metrics:
        Headline scalars — timings, throughputs, recalls, speedups.
    **context:
        Configuration that produced the metrics (corpus shape, workers, ...).

    Returns
    -------
    Path
        The written file, for tests and log messages.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": name,
        "metrics": {str(key): _jsonable(value) for key, value in metrics.items()},
        "context": {str(key): _jsonable(value) for key, value in context.items()},
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path
