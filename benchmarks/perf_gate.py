#!/usr/bin/env python
"""Perf-regression smoke gate over the committed benchmark baselines.

Every ``bench_*.py`` writes its headline numbers to
``results/BENCH_<name>.json``; this script compares each benchmark's
headline metric against the snapshot committed under ``baselines/`` and
fails (exit 1) when a metric has regressed by more than a generous ratio.
The gate is deliberately loose — benchmark hosts differ wildly, CI runs in
smoke mode on shared runners — its job is to catch a silent 5x cliff
(an accidentally disabled fast path, a quadratic slip), not 20% noise.

Comparisons are skipped, never failed, when they would be meaningless:
missing baseline, missing result, missing metric, or a smoke-flag mismatch
(full-mode numbers must not be judged against smoke baselines or vice
versa).

Usage::

    python benchmarks/perf_gate.py                # gate results/ vs baselines/
    python benchmarks/perf_gate.py --ratio 3.0    # tighter ratio
    REPRO_PERF_GATE_RATIO=10 python benchmarks/perf_gate.py

Refreshing baselines after an intentional perf change::

    REPRO_BENCH_SMOKE=1 pytest benchmarks/ --benchmark-disable -q
    cp benchmarks/results/BENCH_*.json benchmarks/baselines/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"

#: Environment override for the regression ratio.
RATIO_ENV = "REPRO_PERF_GATE_RATIO"

#: Default regression ratio: a headline metric may degrade up to this factor
#: against the committed baseline before the gate fails.
DEFAULT_RATIO = 5.0

#: The one headline metric per benchmark and which direction is good.
#: ``"higher"``: the gate fails when result < baseline / ratio.
#: ``"lower"``:  the gate fails when result > baseline * ratio.
#: Benchmarks not listed here (accuracy tables, parity checks) are not
#: perf-gated — their own asserts guard correctness.
HEADLINES: Dict[str, Tuple[str, str]] = {
    "training_hotpath": ("speedup", "higher"),
    "serving_throughput": ("speedup", "higher"),
    "gateway_throughput": ("gateway_users_per_s", "higher"),
    "request_batching": ("batched_users_per_s", "higher"),
    "cluster_serving": ("cluster_users_per_s", "higher"),
    "incremental_refit": ("speedup", "higher"),
    "parallel_training_speedup": ("speedup_2w", "higher"),
    "process_vs_thread_training": ("process_2w_seconds", "lower"),
    "runtime_warm_vs_cold": ("speedup", "higher"),
    "runtime_descriptor_serving": ("shared_seconds", "lower"),
    "fig8_backend_speedup": ("speedup_per_iteration", "higher"),
    "fig7_scalability": ("seconds_per_iteration_full_k10", "lower"),
}


@dataclass
class GateOutcome:
    """One benchmark's verdict."""

    bench: str
    status: str  # "ok" | "fail" | "skip"
    detail: str
    metric: Optional[str] = None
    baseline: Optional[float] = None
    result: Optional[float] = None


def resolve_ratio(ratio: Optional[float] = None) -> float:
    """The regression ratio: argument, then environment, then default."""
    if ratio is None:
        raw = os.environ.get(RATIO_ENV)
        if raw:
            try:
                ratio = float(raw)
            except ValueError:
                ratio = None
    if ratio is None or ratio <= 1.0:
        ratio = DEFAULT_RATIO
    return float(ratio)


def load_payload(path: Path) -> Optional[dict]:
    """Parse one ``BENCH_*.json``; ``None`` when absent or unparseable."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def evaluate_bench(
    bench: str,
    metric: str,
    direction: str,
    baseline_payload: Optional[dict],
    result_payload: Optional[dict],
    ratio: float,
) -> GateOutcome:
    """Gate one benchmark's headline metric against its baseline."""
    if baseline_payload is None:
        return GateOutcome(bench, "skip", "no committed baseline")
    if result_payload is None:
        return GateOutcome(bench, "skip", "no result (benchmark did not run)")
    if bool(baseline_payload.get("smoke")) != bool(result_payload.get("smoke")):
        return GateOutcome(
            bench,
            "skip",
            f"smoke-flag mismatch (baseline smoke={baseline_payload.get('smoke')}, "
            f"result smoke={result_payload.get('smoke')})",
        )
    baseline_value = baseline_payload.get("metrics", {}).get(metric)
    result_value = result_payload.get("metrics", {}).get(metric)
    if not isinstance(baseline_value, (int, float)) or isinstance(baseline_value, bool):
        return GateOutcome(bench, "skip", f"baseline lacks numeric metric {metric!r}")
    if not isinstance(result_value, (int, float)) or isinstance(result_value, bool):
        return GateOutcome(bench, "skip", f"result lacks numeric metric {metric!r}")
    baseline_value = float(baseline_value)
    result_value = float(result_value)
    if direction == "higher":
        floor = baseline_value / ratio
        ok = result_value >= floor
        detail = (
            f"{metric}: {result_value:.4g} vs baseline {baseline_value:.4g} "
            f"(floor {floor:.4g} at ratio {ratio:g})"
        )
    else:
        ceiling = baseline_value * ratio
        ok = result_value <= ceiling
        detail = (
            f"{metric}: {result_value:.4g} vs baseline {baseline_value:.4g} "
            f"(ceiling {ceiling:.4g} at ratio {ratio:g})"
        )
    return GateOutcome(
        bench,
        "ok" if ok else "fail",
        detail,
        metric=metric,
        baseline=baseline_value,
        result=result_value,
    )


def run_gate(
    results_dir: Path = RESULTS_DIR,
    baselines_dir: Path = BASELINES_DIR,
    ratio: Optional[float] = None,
) -> List[GateOutcome]:
    """Evaluate every registered benchmark; returns all outcomes."""
    ratio = resolve_ratio(ratio)
    outcomes = []
    for bench, (metric, direction) in sorted(HEADLINES.items()):
        outcomes.append(
            evaluate_bench(
                bench,
                metric,
                direction,
                load_payload(baselines_dir / f"BENCH_{bench}.json"),
                load_payload(results_dir / f"BENCH_{bench}.json"),
                ratio,
            )
        )
    return outcomes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ratio",
        type=float,
        default=None,
        help=f"regression ratio (default {DEFAULT_RATIO}, env {RATIO_ENV})",
    )
    parser.add_argument(
        "--results", type=Path, default=RESULTS_DIR, help="directory of fresh BENCH_*.json"
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=BASELINES_DIR,
        help="directory of committed baseline BENCH_*.json",
    )
    args = parser.parse_args(argv)
    outcomes = run_gate(args.results, args.baselines, args.ratio)
    width = max(len(outcome.bench) for outcome in outcomes)
    for outcome in outcomes:
        print(f"[{outcome.status.upper():>4}] {outcome.bench:<{width}}  {outcome.detail}")
    failures = [outcome for outcome in outcomes if outcome.status == "fail"]
    checked = sum(outcome.status == "ok" for outcome in outcomes)
    print(
        f"\nperf gate: {checked} ok, {len(failures)} failed, "
        f"{sum(o.status == 'skip' for o in outcomes)} skipped"
    )
    if failures:
        print("perf gate FAILED — headline metrics regressed past the ratio:")
        for outcome in failures:
            print(f"  {outcome.bench}: {outcome.detail}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
