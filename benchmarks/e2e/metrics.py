"""The benchmark's metric names, units and directions, and sample summaries.

``catalogue.json`` beside this file is the one place the names live: the six
workloads, the end-to-end metrics with what each measures on each workload,
and every layer's metrics with the end-to-end metric and workload each should
move.  ``BENCHMARK.json`` at the repo root repeats the names, units, directions
and bounds (the driver's contract allows it no other key); the self-test fails
if the two drift apart.

Every workload reports every end-to-end metric (the contract), so four of the
end-to-end names are *roles*: :data:`ROLES` says what each role measures on
each workload and the alias the report prints next to it.  On any one workload
no role is a function of another.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

CATALOGUE = json.loads((Path(__file__).resolve().parent / "catalogue.json").read_text())

WORKLOADS: Tuple[str, ...] = tuple(CATALOGUE["workloads"])
#: Workloads ``run.py`` runs but ``BENCHMARK.json`` does not list, each with why.
UNGATED: Dict[str, str] = CATALOGUE["ungated"]

#: (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in CATALOGUE["end_to_end"]
)

#: workload -> role -> (alias, what it is); a "*" entry applies to every workload.
ROLES: Dict[str, Dict[str, Tuple[str, str]]] = {
    workload: {
        m["name"]: tuple(m["measures"].get(workload) or m["measures"]["*"])
        for m in CATALOGUE["end_to_end"]
    }
    for workload in WORKLOADS
}

#: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    tuple(metric) for layer in CATALOGUE["layers"] for metric in layer["metrics"]
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

SLO_MS = 50.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for an empty sample."""
    if len(samples) == 0:
        return float("nan")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(samples: Sequence[float]) -> str:
    """``p50 / highest percentile with >= 10 samples beyond it / n`` for the report."""
    n = len(samples)
    if n == 0:
        return "n=0"
    text = f"p50={statistics.median(samples):.4g}"
    for q in (99.9, 99, 95, 90):
        if n * (100 - q) / 100.0 >= 10:
            text += f" p{q:g}={percentile(samples, q):.4g}"
            break
    return f"{text} n={n}"


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if len(samples) else float("nan")


def metric_payload(values: Dict[str, float], names: Sequence[str]) -> Dict[str, dict]:
    """The ``metrics`` object of the result line, in catalogue order."""
    missing: List[str] = [name for name in names if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": UNITS[name]} for name in names}
