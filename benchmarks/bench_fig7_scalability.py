"""Figure 7: linear scalability in the number of positive examples and in K.

Paper claim reproduced here: "the training time is indeed linear in the
number of positive examples and linear in the number of co-clusters K".  The
paper subsamples increasing fractions of Netflix; the benchmark sweeps the
same fractions of the Netflix-like corpus for several K, fits a straight
line to seconds-per-iteration versus the number of positives and versus K,
and asserts both fits explain the data (R^2 high) — i.e. no super-linear
blow-up.

A point is 10-90 ms per iteration, and on a shared host identical fits
differ by up to 2x for spells of several seconds.  Each point is therefore
the fastest of ``REPEATS`` identical fits, taken round-robin over all
points, and the report carries, beside every timing, the fit's
deterministic work: sweeps, line-search row evaluations and nnz x K.
"""

from __future__ import annotations

import numpy as np
from _report import write_bench_json
from conftest import run_once

from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.data.interactions import InteractionMatrix
from repro.utils.tables import format_table

FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
K_VALUES = (10, 50, 100)
N_USERS, N_ITEMS = 1500, 500
REPEATS = 5

PAPER_CLAIM = (
    "training time per iteration is linear in the number of positive examples "
    "and linear in the number of co-clusters K"
)


def fit_history(matrix: InteractionMatrix, n_coclusters: int, n_iterations: int = 3):
    """The history of a fit of exactly ``n_iterations`` outer iterations."""
    return OCuLaR(
        n_coclusters=n_coclusters,
        regularization=5.0,
        max_iterations=n_iterations,
        tolerance=0.0,
        random_state=0,
    ).fit(matrix).history_


def run_scalability_study() -> tuple:
    """``series[K]``: ``(positives, seconds per iteration)`` per fraction, and
    ``work[K]``: ``(sweeps, evaluated rows, nnz x K)`` per fraction.

    Seconds per iteration is the fastest of ``REPEATS`` identical fits'
    means.  The repeats run round-robin over all points, so a slow spell of
    the host that lasts a few fits slows one round of every point rather
    than every repeat of one point.
    """
    matrix = make_netflix_like(n_users=N_USERS, n_items=N_ITEMS, random_state=0)
    subsamples = [matrix.subsample(fraction, random_state=0) for fraction in FRACTIONS]
    points = [(k, subsampled) for k in K_VALUES for subsampled in subsamples]
    timings = [[] for _ in points]
    counts = [set() for _ in points]
    for _ in range(REPEATS):
        for timing, count, (k, subsampled) in zip(timings, counts, points):
            history = fit_history(subsampled, k)
            timing.append(history.mean_seconds_per_iteration)
            sweeps = len(history.item_sweep_stats) + len(history.user_sweep_stats)
            count.add((sweeps, history.total_evaluated_rows, subsampled.nnz * k))
    assert all(len(count) == 1 for count in counts), "repeated fits did different work"
    series = {k: [] for k in K_VALUES}
    work = {k: [] for k in K_VALUES}
    for timing, count, (k, subsampled) in zip(timings, counts, points):
        series[k].append((subsampled.nnz, min(timing)))
        work[k].append(count.pop())
    return series, work


def linear_r2(x, y) -> float:
    """R^2 of a least-squares straight line through ``(x, y)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, deg=1)
    residual = float(np.sum((y - (slope * x + intercept)) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - residual / total if total else 1.0


def test_fig7_linear_scalability(benchmark, report_writer):
    series, work = run_once(benchmark, run_scalability_study)

    r2_nnz = {k: linear_r2(*zip(*points)) for k, points in series.items()}
    full = {k: points[-1][1] for k, points in series.items()}
    r2_k = linear_r2(list(full), list(full.values()))
    rows = [
        [fraction, positives, k, seconds, *counts]
        for k, points in series.items()
        for fraction, (positives, seconds), counts in zip(FRACTIONS, points, work[k])
    ]
    lines = [
        f"Figure 7 — per-iteration training time (fastest of {REPEATS} fits)",
        format_table(
            ["fraction", "positives", "K", "sec/iteration", "sweeps", "evaluated rows",
             "nnz x K"],
            rows,
            precision=5,
        ),
        *(f"linear fit R^2 in positives (K={k}): {r2:.4f}" for k, r2 in r2_nnz.items()),
        f"linear fit R^2 in K (full corpus): {r2_k:.4f}",
        "",
        f"paper: {PAPER_CLAIM}",
    ]
    report_writer("fig7_scalability", "\n".join(lines))
    write_bench_json(
        "fig7_scalability",
        dict(
            **{f"r2_k{k}": r2 for k, r2 in r2_nnz.items()},
            r2_in_k=r2_k,
            **{f"seconds_per_iteration_full_k{k}": seconds for k, seconds in full.items()},
            **{
                f"{name}_k{k}": [point[column] for point in work[k]]
                for k in K_VALUES
                for column, name in enumerate(("sweeps", "evaluated_rows", "nnz_times_k"))
            },
            **{f"seconds_per_iteration_k{k}": [s for _, s in series[k]] for k in K_VALUES},
        ),
        n_users=N_USERS,
        n_items=N_ITEMS,
        fractions=FRACTIONS,
        repeats=REPEATS,
    )

    # Linear in nnz: the straight-line fit explains the timing for every K.
    for k, r2 in r2_nnz.items():
        assert r2 > 0.7, f"scaling in nnz not linear for K={k}"

    # Monotone in nnz: the full corpus costs more per iteration than 20% of it.
    for k, points in series.items():
        assert points[-1][1] > points[0][1]

    # Linear (and monotone) in K at the full corpus size.
    assert full[50] > full[10]
    assert full[100] > full[50]
    assert r2_k > 0.9, f"scaling in K not linear (R^2 {r2_k:.4f})"
