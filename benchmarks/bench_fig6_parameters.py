"""Figure 6: recall and co-cluster metrics versus K and lambda.

Paper claims reproduced here:

* "either too little (lambda = 0) or too much regularisation (lambda = 100)
  can hurt the recommendation accuracy" — the best recall is achieved at an
  intermediate lambda;
* larger K yields smaller (and typically denser) co-clusters, which is the
  criterion the paper suggests for picking K.

For every (K, lambda) the bench fits OCuLaR on one MovieLens-like training
split, measures recall@M on the held-out positives and computes the
co-cluster statistics the paper plots.
"""

from __future__ import annotations

import numpy as np
from _paper import holdout
from _report import write_bench_json
from conftest import run_once

from repro.core.coclusters import cocluster_statistics, extract_coclusters
from repro.core.ocular import OCuLaR
from repro.evaluation.evaluator import evaluate_recommender
from repro.utils.tables import format_table

K_VALUES = (5, 10, 20, 40)
LAMBDA_VALUES = (0.0, 5.0, 30.0, 100.0)
M = 50

PAPER_CLAIM = (
    "either too little (lambda = 0) or too much regularization (lambda = 100) "
    "hurts the recommendation accuracy"
)


def run_parameter_study() -> list:
    """One dict per (K, lambda), lambda-major and K ascending."""
    split, users = holdout("movielens", scale=0.4, max_users=100)
    points = []
    for regularization in LAMBDA_VALUES:
        for n_coclusters in K_VALUES:
            model = OCuLaR(
                n_coclusters=n_coclusters,
                regularization=regularization,
                max_iterations=80,
                random_state=0,
            ).fit(split.train)
            stats = cocluster_statistics(
                extract_coclusters(model.factors_, split.train),
                n_users=split.train.n_users,
                n_items=split.train.n_items,
            )
            points.append(
                dict(
                    K=n_coclusters,
                    lam=regularization,
                    recall=evaluate_recommender(model, split, m=M, users=users).recall,
                    users=stats.mean_users,
                    items=stats.mean_items,
                    density=stats.mean_density,
                    memberships=stats.mean_user_memberships,
                )
            )
    return points


def test_fig6_parameter_study(benchmark, report_writer):
    points = run_once(benchmark, run_parameter_study)

    best = max(points, key=lambda point: point["recall"])
    best_recall_per_lambda = {
        lam: max(point["recall"] for point in points if point["lam"] == lam)
        for lam in LAMBDA_VALUES
    }
    header = [
        "K",
        "lambda",
        f"recall@{M}",
        "users/co-cluster",
        "items/co-cluster",
        "density",
        "memberships/user",
    ]
    lines = [
        "Figure 6 — parameter study (movielens)",
        format_table(header, [list(point.values()) for point in points]),
        "",
        f"paper: {PAPER_CLAIM}",
        f"measured best: K={best['K']}, lambda={best['lam']}, "
        f"recall@{M}={best['recall']:.4f}",
        "best recall per lambda: "
        + ", ".join(f"lambda={lam:g}: {val:.4f}" for lam, val in best_recall_per_lambda.items()),
    ]
    report_writer("fig6_parameters", "\n".join(lines))
    write_bench_json(
        "fig6_parameters",
        dict(
            best_k=best["K"],
            best_lambda=best["lam"],
            best_recall=best["recall"],
            **{
                f"best_recall_lambda_{lam:g}": val
                for lam, val in best_recall_per_lambda.items()
            },
        ),
        m=M,
    )

    # Shape assertion 1: some intermediate lambda beats both extremes.
    intermediate = max(best_recall_per_lambda[5.0], best_recall_per_lambda[30.0])
    assert intermediate >= best_recall_per_lambda[0.0]
    assert intermediate >= best_recall_per_lambda[100.0]

    # Shape assertion 2: at a fixed intermediate lambda, larger K gives
    # smaller co-clusters on average.
    series = [point for point in points if point["lam"] == 5.0]
    assert series[0]["users"] >= series[-1]["users"] * 0.8
    # Co-cluster statistics must be well-defined for the swept configurations.
    assert all(np.isfinite(point["items"]) for point in series)
