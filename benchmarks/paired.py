"""Paired parent/change runs of the end-to-end benchmark, and their verdict.

    python3 benchmarks/paired.py --workload batch-topn --seed 0 --pairs 10 --parent HEAD
    python3 benchmarks/paired.py --workload all --claim primary_p50_ms@wire-closed --parent HEAD

Runs ``benchmarks/e2e/run.py --workload W --seed S`` N times on each of two
checkouts, alternating which side goes first, for every ``--workload`` given
(``all`` = the workloads of ``BENCHMARK.json``), and prints one table per
workload: per end-to-end metric both medians, both quartile pairs, the
pairs each side won (ties count for neither) and the verdict by the rule of
the ``choosing-metrics`` guide, section 8:

* ``gain`` — the change wins at least nine tenths of all pairs run and the
  medians differ by more than the distance between the parent's quartiles;
* ``regression`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — the parent's own runs spread wider than that bound, and
  the change's runs are not every one better than every one of the parent's;
* ``unchanged`` — anything else.

The last line checks a claim the way the pipeline does: ``regression:
<metric>@<workload>`` if any pair reads so (a larger failed share counts as
``failed@<workload>``), else ``claim met`` if the ``--claim
<metric>@<workload>`` pair reads ``gain``, else ``claim not met``; the exit
status is 0 only for ``claim met`` (or ``no claim``, without ``--claim``).

A side is a directory holding a checkout, or a git revision, which is then
checked out into a temporary ``git worktree`` and removed afterwards.  The
change defaults to this checkout, uncommitted edits included.  The script
only shells out: it imports nothing from ``benchmarks/e2e`` and each run
builds from the source in its own checkout.  One run at a time, on a quiet
host — the benchmark needs both cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN = ("benchmarks", "e2e", "run.py")
#: Share of all pairs run that the change must win before a gain is claimed.
WIN_SHARE = 0.9


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def compare(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Both sides' quartiles, pairs won, and the verdict for one metric.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``;
    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the share of the
    parent's median by which the metric may worsen.
    """
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs but {len(change)} of the change")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(gain > 0 for gain in gains)
    lost = sum(gain < 0 for gain in gains)
    p_q1, p_median, p_q3 = np.percentile(parent, [25, 50, 75]).tolist()
    c_q1, c_median, c_q3 = np.percentile(change, [25, 50, 75]).tolist()
    spread = p_q3 - p_q1
    gain = sign * (c_median - p_median)
    allowed = bound * abs(p_median)
    worst_of_change = min(sign * value for value in change)
    best_of_parent = max(sign * value for value in parent)
    if won >= WIN_SHARE * len(gains) and gain > spread:
        verdict = "gain"
    elif -gain > allowed:
        verdict = "regression"
    elif spread > allowed and not worst_of_change > best_of_parent:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "won": won,
        "lost": lost,
        "pairs": len(gains),
        "relative": gain / abs(p_median) if p_median else 0.0,
        "verdict": verdict,
    }


# --------------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------------- #
@contextmanager
def checkout(side: str) -> Iterator[Path]:
    """The directory of ``side``: itself, or a temporary worktree of a revision."""
    if Path(side).is_dir():
        yield Path(side).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="paired-") as holder:
        tree = Path(holder) / "tree"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), side], cwd=ROOT, check=True
        )
        try:
            yield tree
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True
            )


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``; the result object of its last line."""
    script = str(tree.joinpath(*RUN))
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"run in {tree} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def metric_rows(runs: Dict[str, List[dict]], end_to_end: List[dict]) -> Dict[str, dict]:
    """:func:`compare` for every end-to-end metric of one workload's runs."""
    rows = {}
    for metric in end_to_end:
        parent, change = (
            [run["metrics"][metric["name"]]["value"] for run in runs[side]]
            for side in ("parent", "change")
        )
        rows[metric["name"]] = compare(parent, change, metric["better"], metric["bound"])
    return rows


def failed_share(results: List[dict]) -> float:
    return sum(run["failed"] for run in results) / max(1, sum(run["attempted"] for run in results))


def verdicts(runs: Dict[str, List[dict]], end_to_end: List[dict]) -> Dict[str, str]:
    """Metric -> verdict for one workload; ``failed`` regresses if its share grew."""
    found = {name: row["verdict"] for name, row in metric_rows(runs, end_to_end).items()}
    grew = failed_share(runs["change"]) > failed_share(runs["parent"])
    found["failed"] = "regression" if grew else "unchanged"
    return found


def conclude(
    found: Dict[str, Dict[str, str]], claim: Optional[Tuple[str, str]]
) -> Tuple[str, int]:
    """The last line and the exit status, from workload -> metric -> verdict.

    ``claim`` is ``(metric, workload)``.  Any regression outranks the claim.
    """
    regressions = [
        f"{metric}@{workload}"
        for workload, by_metric in found.items()
        for metric, verdict in by_metric.items()
        if verdict == "regression"
    ]
    if regressions:
        return "regression: " + ", ".join(regressions), 1
    if claim is None:
        return "no claim", 0
    metric, workload = claim
    if found.get(workload, {}).get(metric) == "gain":
        return "claim met", 0
    return "claim not met", 1


def parse_claim(text: str) -> Tuple[str, str]:
    metric, at, workload = text.partition("@")
    if not (metric and at and workload):
        raise argparse.ArgumentTypeError(f"a claim reads <metric>@<workload>, got {text!r}")
    return metric, workload


def report(runs: Dict[str, List[dict]], end_to_end: List[dict]) -> List[str]:
    """The table: one line per end-to-end metric, then each side's failures."""
    lines = []
    for name, row in metric_rows(runs, end_to_end).items():
        p, c = row["parent"], row["change"]
        lines.append(
            f"{name:18s} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
            f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  {row['relative']:+.1%}  "
            f"won {row['won']} lost {row['lost']} of {row['pairs']}  {row['verdict']}"
        )
    for side, results in runs.items():
        attempted = sum(run["attempted"] for run in results)
        failed = sum(run["failed"] for run in results)
        correct = all(run["correct"] for run in results)
        lines.append(f"{side}: failed {failed} of {attempted} attempted, correct {correct}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", required=True,
        help="repeatable; 'all' stands for the workloads of BENCHMARK.json",
    )
    parser.add_argument(
        "--claim", type=parse_claim, help="<metric>@<workload> that must read 'gain'"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="directory or git revision")
    parser.add_argument(
        "--change", default=str(ROOT), help="directory or git revision (default: this checkout)"
    )
    parser.add_argument("--out", help="also write every run's result object to this JSON file")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    workloads: List[str] = []
    for name in args.workload:
        names = [w["name"] for w in benchmark["workloads"]] if name == "all" else [name]
        workloads.extend(w for w in names if w not in workloads)
    if args.claim and (
        args.claim[1] not in workloads
        or args.claim[0] not in [metric["name"] for metric in end_to_end]
    ):
        parser.error(f"--claim {'@'.join(args.claim)} names no metric of a workload being run")
    runs: Dict[str, Dict[str, List[dict]]] = {}
    with ExitStack() as stack:
        trees = {
            side: stack.enter_context(checkout(getattr(args, side)))
            for side in ("parent", "change")
        }
        for workload in workloads:
            runs[workload] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, args.seed)
                    runs[workload][side].append(result)
                    values = {name: entry["value"] for name, entry in result["metrics"].items()}
                    print(
                        f"{workload} pair {pair} {side}: correct {result['correct']} "
                        f"failed {result['failed']} {json.dumps(values)}",
                        flush=True,
                    )
            print(f"== {workload}, seed {args.seed}, {args.pairs} alternating pairs ==")
            print("\n".join(report(runs[workload], end_to_end)), flush=True)
            if args.out:
                Path(args.out).write_text(json.dumps({"seed": args.seed, "runs": runs}, indent=1))
    found = {workload: verdicts(runs[workload], end_to_end) for workload in workloads}
    line, status = conclude(found, args.claim)
    print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
