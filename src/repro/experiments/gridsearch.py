"""Grid-search experiment: Figure 9 (fine (K, lambda) heat-map on the B2B data).

The paper runs 625 (K, lambda) pairs over Spark + GPUs and shows the optimal
region lies outside the coarse grid used for the CPU-only Table I experiment.
The reproduction runs a (smaller) fine grid over the synthetic B2B corpus,
optionally in parallel across processes, renders the recall@50 heat-map as a
text table and reports whether the fine-grid optimum beats the best value
found inside the coarse-grid region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ocular import OCuLaR
from repro.data.datasets import make_b2b
from repro.evaluation.grid_search import GridSearchResult, grid_search
from repro.utils.rng import RandomStateLike
from repro.utils.tables import format_table

#: The coarse "CPU-only" grid range quoted in the paper (K and lambda in 100-200).
COARSE_RANGE: Dict[str, Tuple[float, float]] = {"n_coclusters": (10, 20), "regularization": (5.0, 20.0)}


@dataclass
class OcularBuilder:
    """Picklable OCuLaR factory used by the (possibly multi-process) grid search.

    A plain module-level callable (rather than a closure) so that
    :class:`repro.parallel.SharedMemoryProcessExecutor` can ship it to worker
    processes.
    """

    max_iterations: int = 40
    random_state: Any = 0

    def __call__(self, n_coclusters: int, regularization: float) -> OCuLaR:
        return OCuLaR(
            n_coclusters=n_coclusters,
            regularization=regularization,
            max_iterations=self.max_iterations,
            random_state=self.random_state,
        )


@dataclass
class GridSearchExperimentResult:
    """Figure 9 result: the full score grid and the coarse-vs-fine comparison."""

    search: GridSearchResult
    k_values: List[int] = field(default_factory=list)
    lambda_values: List[float] = field(default_factory=list)
    grid: Optional[np.ndarray] = None
    best_fine: Dict[str, Any] = field(default_factory=dict)
    best_coarse: Dict[str, Any] = field(default_factory=dict)

    @property
    def fine_beats_coarse(self) -> bool:
        """Whether the fine-grid optimum exceeds the coarse-region optimum."""
        return self.best_fine.get("score", 0.0) > self.best_coarse.get("score", 0.0)

    def to_text(self) -> str:
        """Render the recall heat-map and the coarse/fine comparison."""
        lines = ["Figure 9 — (K, lambda) grid search, recall@M heat-map"]
        header = ["K \\ lambda"] + [f"{value:g}" for value in self.lambda_values]
        rows = []
        for i, k in enumerate(self.k_values):
            rows.append([k] + [self.grid[i, j] for j in range(len(self.lambda_values))])
        lines.append(format_table(header, rows))
        lines.append(
            f"best (fine grid): K={self.best_fine.get('n_coclusters')} "
            f"lambda={self.best_fine.get('regularization')} "
            f"score={self.best_fine.get('score', float('nan')):.4f}"
        )
        lines.append(
            f"best (coarse region): K={self.best_coarse.get('n_coclusters')} "
            f"lambda={self.best_coarse.get('regularization')} "
            f"score={self.best_coarse.get('score', float('nan')):.4f}"
        )
        lines.append(f"fine grid beats coarse region: {self.fine_beats_coarse}")
        return "\n".join(lines)


def run_grid_search_experiment(
    k_values: Sequence[int] = (5, 10, 20, 40, 60),
    lambda_values: Sequence[float] = (0.0, 1.0, 5.0, 20.0, 60.0),
    m: int = 20,
    n_clients: int = 250,
    n_products: int = 40,
    max_iterations: int = 40,
    executor=None,
    random_state: RandomStateLike = 0,
) -> GridSearchExperimentResult:
    """Run the fine (K, lambda) grid search on the synthetic B2B corpus.

    Parameters
    ----------
    k_values, lambda_values:
        The grid axes (the paper sweeps 25 x 25 values; the default here is
        5 x 5 to stay laptop-friendly — pass larger sequences to widen it).
    m:
        Metric cut-off.
    n_clients, n_products:
        Size of the generated B2B corpus.
    max_iterations:
        OCuLaR iteration budget per combination.
    executor:
        Optional executor for parallel evaluation: a name from the
        :mod:`repro.parallel.scheduler` registry (``"process"`` stands in
        for the paper's Spark cluster) or a prebuilt instance.
    random_state:
        Master seed.
    """
    dataset = make_b2b(
        n_clients=n_clients, n_products=n_products, random_state=random_state
    )

    builder = OcularBuilder(max_iterations=max_iterations, random_state=random_state)

    search = grid_search(
        builder,
        {"n_coclusters": list(k_values), "regularization": list(lambda_values)},
        dataset.matrix,
        metric="recall",
        m=m,
        n_folds=1,
        executor=executor,
        random_state=random_state,
    )

    row_values, col_values, grid = search.scores_as_grid("n_coclusters", "regularization")
    best_fine = dict(search.best_params)
    best_fine["score"] = search.best_score

    coarse_entries = [
        entry
        for entry in search.table
        if COARSE_RANGE["n_coclusters"][0] <= entry["n_coclusters"] <= COARSE_RANGE["n_coclusters"][1]
        and COARSE_RANGE["regularization"][0]
        <= entry["regularization"]
        <= COARSE_RANGE["regularization"][1]
    ]
    if coarse_entries:
        best_coarse = dict(max(coarse_entries, key=lambda entry: entry["score"]))
    else:
        best_coarse = {"score": float("-inf")}

    return GridSearchExperimentResult(
        search=search,
        k_values=[int(value) for value in row_values],
        lambda_values=[float(value) for value in col_values],
        grid=grid,
        best_fine=best_fine,
        best_coarse=best_coarse,
    )
