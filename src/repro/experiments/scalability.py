"""Scalability study: Figure 7 (linear scaling in nnz and K).

The paper subsamples increasing fractions of the Netflix dataset and shows
that the per-iteration training time grows linearly in the number of positive
examples and in K.  The reproduction runs the same protocol on the
Netflix-like synthetic corpus, measures seconds per outer iteration for each
(fraction, K) pair, and fits a least-squares line through each K series so
the benchmark can report how close to linear the scaling is (R^2 of the
linear fit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.data.interactions import InteractionMatrix
from repro.utils.rng import RandomStateLike
from repro.utils.tables import format_table


@dataclass
class ScalabilityPoint:
    """Per-iteration timing for one (fraction, K) combination."""

    fraction: float
    n_positives: int
    n_coclusters: int
    seconds_per_iteration: float


@dataclass
class ScalabilityResult:
    """All timing points of the Figure 7 sweep plus linearity diagnostics."""

    points: List[ScalabilityPoint] = field(default_factory=list)

    def series_for_k(self, n_coclusters: int) -> List[ScalabilityPoint]:
        """Points with the given K, sorted by dataset fraction."""
        series = [point for point in self.points if point.n_coclusters == n_coclusters]
        return sorted(series, key=lambda point: point.fraction)

    def k_values(self) -> List[int]:
        """Distinct K values in the sweep."""
        return sorted({point.n_coclusters for point in self.points})

    def linearity_r2(self, n_coclusters: int) -> float:
        """R^2 of a linear fit of seconds-per-iteration vs number of positives.

        Values close to 1 support the paper's linear-scaling claim.
        """
        series = self.series_for_k(n_coclusters)
        if len(series) < 3:
            return float("nan")
        x = np.array([point.n_positives for point in series], dtype=float)
        y = np.array([point.seconds_per_iteration for point in series], dtype=float)
        slope, intercept = np.polyfit(x, y, deg=1)
        predicted = slope * x + intercept
        residual = float(np.sum((y - predicted) ** 2))
        total = float(np.sum((y - y.mean()) ** 2))
        if total == 0:
            return 1.0
        return 1.0 - residual / total

    def to_text(self) -> str:
        """Render the Figure 7 series plus the per-K linear-fit quality."""
        header = ["fraction", "positives", "K", "sec/iteration"]
        rows = [
            [point.fraction, point.n_positives, point.n_coclusters, point.seconds_per_iteration]
            for point in sorted(self.points, key=lambda p: (p.n_coclusters, p.fraction))
        ]
        lines = ["Figure 7 — per-iteration training time", format_table(header, rows, precision=5)]
        for k in self.k_values():
            lines.append(f"linear fit R^2 (K={k}): {self.linearity_r2(k):.4f}")
        return "\n".join(lines)


def run_scalability_study(
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    k_values: Sequence[int] = (10, 50, 100),
    n_iterations: int = 3,
    n_users: int = 1500,
    n_items: int = 500,
    backend: str = "vectorized",
    n_workers: Optional[int] = None,
    executor: Optional[str] = None,
    random_state: RandomStateLike = 0,
) -> ScalabilityResult:
    """Measure seconds per training iteration across dataset fractions and K.

    Parameters
    ----------
    fractions:
        Fractions of the positive examples kept (uniformly subsampled), the
        x-axis of Figure 7.
    k_values:
        Numbers of co-clusters, one line per value in Figure 7.
    n_iterations:
        Outer iterations timed per configuration (the mean is reported).
    n_users, n_items:
        Size of the Netflix-like corpus generated for the study.
    backend:
        Which backend to time.
    n_workers:
        Worker-pool size when timing the ``parallel`` backend.
    executor:
        Shard executor name (``"thread"`` / ``"process"`` / ``"serial"``)
        when timing the ``parallel`` backend.
    random_state:
        Seed for corpus generation and subsampling.
    """
    matrix, _spec = make_netflix_like(
        n_users=n_users, n_items=n_items, random_state=random_state
    )
    result = ScalabilityResult()
    for n_coclusters in k_values:
        for fraction in fractions:
            subsampled = matrix.subsample(float(fraction), random_state=random_state)
            seconds = measure_seconds_per_iteration(
                subsampled,
                n_coclusters=int(n_coclusters),
                n_iterations=n_iterations,
                backend=backend,
                n_workers=n_workers,
                executor=executor,
                random_state=random_state,
            )
            result.points.append(
                ScalabilityPoint(
                    fraction=float(fraction),
                    n_positives=subsampled.nnz,
                    n_coclusters=int(n_coclusters),
                    seconds_per_iteration=seconds,
                )
            )
    return result


def measure_seconds_per_iteration(
    matrix: InteractionMatrix,
    n_coclusters: int,
    n_iterations: int = 3,
    backend: str = "vectorized",
    n_workers: Optional[int] = None,
    executor: Optional[str] = None,
    random_state: RandomStateLike = 0,
) -> float:
    """Mean wall-clock seconds per outer iteration on ``matrix``.

    Runs exactly ``n_iterations`` iterations (no convergence stopping) and
    averages the recorded per-iteration times.
    """
    model = OCuLaR(
        n_coclusters=n_coclusters,
        regularization=5.0,
        max_iterations=n_iterations,
        tolerance=0.0,
        backend=backend,
        n_workers=n_workers,
        executor=executor,
        random_state=random_state,
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(matrix)
    assert model.history_ is not None
    return model.history_.mean_seconds_per_iteration

