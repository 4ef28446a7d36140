"""float32 accuracy study: does halving factor memory cost recall@M?

ROADMAP question answered here: ``dtype="float32"`` halves the memory of the
fitted factor matrices, which doubles the model size a serving host can hold
— but only if ranking quality survives the precision cut.  The study fits
OCuLaR at both precisions from the same seed, split, evaluated users and
hyper-parameters (so the float32 run starts from the float32 cast of the
same initial factors) at converged tolerances and compares recall@M / MAP@M.

Expected (and asserted): no meaningful gap.  The projected gradient iterates
at ~1e-7 relative perturbation — far below the score differences that
separate ranked items — so float32 recall@M matches float64 within split
noise.  The memory halving is exact by construction and asserted too.
"""

from __future__ import annotations

from _paper import DATASET_ZOO_DEFAULTS, holdout
from _report import write_bench_json
from conftest import run_once

from repro.core.ocular import OCuLaR
from repro.evaluation.evaluator import evaluate_recommender
from repro.utils.tables import format_table

PARAMS = dict(scale=0.5, max_users=150, max_iterations=80, tolerance=1e-6)
M = 50

#: Maximum |recall@M(float64) - recall@M(float32)| accepted.
RECALL_GAP_TOLERANCE = 0.02

#: Same bound for MAP@M.
MAP_GAP_TOLERANCE = 0.02


def run_precision_study() -> dict:
    """Per dtype: recall@M, MAP@M, factor bytes and outer iterations."""
    split, users = holdout("movielens", scale=PARAMS["scale"], max_users=PARAMS["max_users"])
    results = {}
    for dtype in ("float64", "float32"):
        model = OCuLaR(
            max_iterations=PARAMS["max_iterations"],
            tolerance=PARAMS["tolerance"],
            dtype=dtype,
            random_state=0,
            **DATASET_ZOO_DEFAULTS["movielens"],
        ).fit(split.train)
        evaluation = evaluate_recommender(model, split, m=M, users=users)
        factors = model.factors_
        results[dtype] = dict(
            recall=evaluation.recall,
            map=evaluation.map,
            bytes=factors.user_factors.nbytes + factors.item_factors.nbytes,
            iterations=model.history_.n_iterations,
        )
    return results


def test_float32_matches_float64_at_half_the_memory(benchmark, report_writer):
    results = run_once(benchmark, run_precision_study)

    single, double = results["float32"], results["float64"]
    recall_gap = double["recall"] - single["recall"]
    map_gap = double["map"] - single["map"]
    memory_ratio = single["bytes"] / double["bytes"]
    rows = [
        [dtype, result["recall"], result["map"], f"{result['bytes']:,}"]
        for dtype, result in results.items()
    ]
    iterations = max(result["iterations"] for result in results.values())
    lines = [
        f"float32 precision study — movielens ({iterations} iterations)",
        format_table(["dtype", f"recall@{M}", f"MAP@{M}", "factor bytes"], rows),
        f"recall gap (float64 - float32): {recall_gap:+.4f}, MAP gap: {map_gap:+.4f}, "
        f"factor memory ratio: {memory_ratio:.2f}",
        "",
        "ROADMAP: float32 halves factor memory; expected recall@M gap at",
        "converged tolerances: none.",
    ]
    report_writer("float32_accuracy", "\n".join(lines))
    write_bench_json(
        "float32_accuracy",
        dict(recall_gap=recall_gap, map_gap=map_gap, memory_ratio=memory_ratio),
        m=M,
        **PARAMS,
    )

    assert memory_ratio == 0.5
    assert abs(recall_gap) <= RECALL_GAP_TOLERANCE, (
        f"float32 recall@{M} deviates by {recall_gap:+.4f} (tolerance {RECALL_GAP_TOLERANCE})"
    )
    assert abs(map_gap) <= MAP_GAP_TOLERANCE, (
        f"float32 MAP@{M} deviates by {map_gap:+.4f} (tolerance {MAP_GAP_TOLERANCE})"
    )
