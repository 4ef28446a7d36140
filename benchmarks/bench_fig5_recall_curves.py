"""Figure 5: recall@M and MAP@M versus M on the MovieLens-like corpus.

Paper claim reproduced here: "OCuLaR and R-OCuLaR are consistently better or
at least as good as the other recommendation techniques" across the whole
range of list lengths M.
"""

from __future__ import annotations

from _paper import DATASET_ZOO_DEFAULTS, build_model_zoo, holdout
from _report import write_bench_json
from conftest import run_once

from repro.evaluation.evaluator import evaluate_curves
from repro.utils.tables import format_table

M_VALUES = [5, 10, 20, 50, 100]

PAPER_SHAPE = (
    "best: OCuLaR / R-OCuLaR (within noise of each other); mid: wALS and "
    "user-based; worst: item-based and BPR at small M"
)


def run_recall_curves() -> dict:
    """``curves[method]["recall"|"map"]``, each aligned with ``M_VALUES``."""
    split, users = holdout("movielens", scale=0.5, max_users=120)
    zoo = build_model_zoo(random_state=0, **DATASET_ZOO_DEFAULTS["movielens"])
    curves = {}
    for name, factory in zoo.items():
        by_m = evaluate_curves(factory().fit(split.train), split, m_values=M_VALUES, users=users)
        curves[name] = {
            "recall": [by_m[m].recall for m in M_VALUES],
            "map": [by_m[m].map for m in M_VALUES],
        }
    return curves


def test_fig5_recall_curves(benchmark, report_writer):
    curves = run_once(benchmark, run_recall_curves)

    header = ["M"] + list(curves)
    panels = []
    for metric, side, label in (("recall", "left", "recall@M"), ("map", "right", "MAP@M")):
        rows = [
            [m] + [series[metric][index] for series in curves.values()]
            for index, m in enumerate(M_VALUES)
        ]
        panels.append(f"Figure 5 ({side}): {label}\n" + format_table(header, rows))
    report_writer(
        "fig5_recall_curves", "\n\n".join(panels) + f"\n\npaper shape: {PAPER_SHAPE}"
    )
    write_bench_json(
        "fig5_recall_curves",
        {
            f"recall_at_{M_VALUES[-1]}_{name}": series["recall"][-1]
            for name, series in curves.items()
        },
        m_values=M_VALUES,
    )

    # Recall curves are monotone in M for every method.
    for name, series in curves.items():
        recalls = series["recall"]
        assert all(later >= earlier - 1e-9 for earlier, later in zip(recalls, recalls[1:]))

    # Shape assertions: the best OCuLaR variant matches or beats every
    # baseline at the paper's headline cut-off (M = 50).
    index_50 = M_VALUES.index(50)
    ocular_recall = max(
        curves["OCuLaR"]["recall"][index_50], curves["R-OCuLaR"]["recall"][index_50]
    )
    for name in ("wALS", "BPR", "user-based", "item-based"):
        assert ocular_recall >= curves[name]["recall"][index_50] - 0.02
