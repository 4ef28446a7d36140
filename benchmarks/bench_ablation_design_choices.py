"""Ablation benchmarks for the design choices DESIGN.md calls out.

These do not correspond to a numbered table or figure; they quantify the two
algorithmic decisions the paper motivates in prose:

* **Single projected-gradient step per block** (Section IV-B): solving each
  block subproblem only approximately converges faster in wall-clock time
  than solving it (nearly) exactly before alternating.
* **Regularisation is crucial** (Section II, discussing BIGCLAM): an
  unregularised fit generalises worse than a properly regularised one.
* **R-OCuLaR weighting** (Section V): the relative-preference weighting is a
  comparable-quality alternative, not a strict improvement — matching the
  mixed outcome of the paper's Table I.
* **Bias terms** (Section IV-A): adding user, item and overall biases "did
  not improve accuracy", which is why the paper drops them.
"""

from __future__ import annotations

import time

from _report import write_bench_json
from conftest import run_once

from repro.core.bias import BiasedOCuLaR
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.data.datasets import make_movielens_like
from repro.data.splitting import train_test_split
from repro.evaluation.evaluator import evaluate_recommender
from repro.utils.tables import format_table

#: Corpus size and iteration budget shared by every ablation.
SIZES = dict(n_users=250, n_items=160, max_iterations=100)


def _make_split(random_state: int = 0):
    matrix, _ = make_movielens_like(
        n_users=SIZES["n_users"], n_items=SIZES["n_items"], random_state=random_state
    )
    return train_test_split(matrix, test_fraction=0.25, random_state=random_state)


def test_ablation_single_vs_exact_block_updates(benchmark, report_writer):
    """Single-step block updates reach a given objective in less wall-clock time."""

    def run():
        split = _make_split()
        rows = []
        for inner_sweeps in (1, 5):
            start = time.perf_counter()
            model = OCuLaR(
                n_coclusters=20,
                regularization=10.0,
                max_iterations=SIZES["max_iterations"],
                tolerance=1e-4,
                inner_sweeps=inner_sweeps,
                random_state=0,
            ).fit(split.train)
            elapsed = time.perf_counter() - start
            evaluation = evaluate_recommender(model, split, m=20)
            rows.append(
                {
                    "inner_sweeps": inner_sweeps,
                    "seconds": elapsed,
                    "objective": model.history_.final_objective,
                    "outer_iterations": model.history_.n_iterations,
                    "recall": evaluation.recall,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    table = format_table(
        ["inner sweeps/block", "wall-clock (s)", "final objective", "outer iters", "recall@20"],
        [
            [row["inner_sweeps"], row["seconds"], row["objective"], row["outer_iterations"], row["recall"]]
            for row in rows
        ],
    )
    report_writer(
        "ablation_inner_sweeps",
        "Ablation — single projected-gradient step per block vs (nearly) exact block solves\n"
        + table
        + "\npaper: 'solving the subproblems exactly may slow down convergence' (Section IV-B)",
    )

    single, exact = rows
    write_bench_json(
        "ablation_inner_sweeps",
        dict(
            single_seconds=single["seconds"],
            exact_seconds=exact["seconds"],
            single_recall=single["recall"],
            exact_recall=exact["recall"],
            single_objective=single["objective"],
            exact_objective=exact["objective"],
        ),
        **SIZES,
    )
    # Comparable quality...
    assert abs(single["recall"] - exact["recall"]) < 0.08
    assert single["objective"] <= exact["objective"] * 1.05
    # ...at a fraction of the per-outer-iteration cost (5 inner sweeps cost
    # roughly 5x per iteration, so the single-step variant must be cheaper
    # per unit of objective progress).
    assert single["seconds"] < exact["seconds"]


def test_ablation_regularization_matters(benchmark, report_writer):
    """lambda = 0 underperforms a tuned lambda (the paper's BIGCLAM critique)."""

    def run():
        split = _make_split(random_state=1)
        results = {}
        for lam in (0.0, 10.0):
            model = OCuLaR(
                n_coclusters=20,
                regularization=lam,
                max_iterations=SIZES["max_iterations"],
                random_state=0,
            ).fit(split.train)
            results[lam] = evaluate_recommender(model, split, m=20).recall
        return results

    results = run_once(benchmark, run)
    report_writer(
        "ablation_regularization",
        "Ablation — regularisation\n"
        + format_table(
            ["lambda", "recall@20"], [[lam, recall] for lam, recall in results.items()]
        )
        + "\npaper: regularisation 'turns out to be crucial for recommendation performance'",
    )
    write_bench_json(
        "ablation_regularization",
        {f"recall_lambda_{lam:g}": recall for lam, recall in results.items()},
        **SIZES,
    )
    assert results[10.0] >= results[0.0]


def test_ablation_relative_weighting(benchmark, report_writer):
    """R-OCuLaR is competitive with OCuLaR (neither dominates, as in Table I)."""

    def run():
        split = _make_split(random_state=2)
        shared = dict(
            n_coclusters=20,
            regularization=10.0,
            max_iterations=SIZES["max_iterations"],
            random_state=0,
        )
        ocular = evaluate_recommender(OCuLaR(**shared).fit(split.train), split, m=20)
        r_ocular = evaluate_recommender(ROCuLaR(**shared).fit(split.train), split, m=20)
        return {"OCuLaR": ocular, "R-OCuLaR": r_ocular}

    results = run_once(benchmark, run)
    report_writer(
        "ablation_relative_weighting",
        "Ablation — absolute (OCuLaR) vs relative (R-OCuLaR) likelihood weighting\n"
        + format_table(
            ["variant", "recall@20", "MAP@20"],
            [[name, result.recall, result.map] for name, result in results.items()],
        )
        + "\npaper Table I: the two variants trade places across datasets",
    )
    write_bench_json(
        "ablation_relative_weighting",
        {
            f"{metric}_{name}": getattr(result, metric)
            for name, result in results.items()
            for metric in ("recall", "map")
        },
        **SIZES,
    )
    ratio = results["R-OCuLaR"].recall / max(results["OCuLaR"].recall, 1e-9)
    assert 0.6 < ratio < 1.4


def test_ablation_bias_terms(benchmark, report_writer):
    """Bias terms do not improve accuracy (the paper's Section IV-A remark)."""

    def run():
        split = _make_split(random_state=3)
        shared = dict(
            n_coclusters=20,
            regularization=10.0,
            max_iterations=SIZES["max_iterations"],
            random_state=0,
        )
        results = {}
        for name, model_class in (("OCuLaR", OCuLaR), ("biased", BiasedOCuLaR)):
            model = model_class(**shared).fit(split.train)
            results[name] = (model, evaluate_recommender(model, split, m=20))
        return results

    results = run_once(benchmark, run)
    report_writer(
        "ablation_bias_terms",
        "Ablation — OCuLaR vs OCuLaR with user/item/overall bias terms\n"
        + format_table(
            ["variant", "recall@20", "MAP@20", "iterations"],
            [
                [name, result.recall, result.map, model.history_.n_iterations]
                for name, (model, result) in results.items()
            ],
        )
        + "\npaper Section IV-A: the bias extension 'did not improve accuracy'",
    )
    ocular, biased = (result for _model, result in results.values())
    write_bench_json(
        "ablation_bias_terms",
        dict(
            ocular_recall=ocular.recall,
            biased_recall=biased.recall,
            ocular_map=ocular.map,
            biased_map=biased.map,
        ),
        **SIZES,
    )
    assert biased.recall <= 1.05 * ocular.recall
