"""Figure 9: fine (K, lambda) grid search on the B2B corpus.

Paper claims reproduced here:

* the recall landscape over (K, lambda) has a clear 'hot' region;
* the optimum of a fine grid search is at least as good as the best value
  inside the narrow coarse-grid region used by the CPU-only experiments —
  the reason the paper invests in fast (GPU / scale-out) search.

The combinations are evaluated through the process-pool executor, the
reproduction's stand-in for the paper's Spark-over-GPUs deployment.
"""

from __future__ import annotations

import numpy as np
from _report import write_bench_json
from conftest import run_once, scaled, smoke_mode

from repro.experiments.gridsearch import run_grid_search_experiment
from repro.experiments.paper_reference import PAPER_CLAIMS
from repro.parallel import SharedMemoryProcessExecutor


def test_fig9_grid_search(benchmark, report_writer):
    params = scaled(
        dict(
            k_values=(5, 10, 20, 40, 60),
            lambda_values=(0.0, 1.0, 5.0, 20.0, 60.0),
            n_clients=250,
            n_products=40,
            max_iterations=40,
            max_workers=4,
        ),
        k_values=(5, 10),
        lambda_values=(1.0, 5.0),
        n_clients=80,
        n_products=20,
        max_iterations=10,
        max_workers=2,
    )
    k_values = params.pop("k_values")
    lambda_values = params.pop("lambda_values")
    max_workers = params.pop("max_workers")

    def run():
        with SharedMemoryProcessExecutor(max_workers=max_workers) as executor:
            return run_grid_search_experiment(
                k_values=k_values,
                lambda_values=lambda_values,
                m=15,
                executor=executor,
                random_state=0,
                **params,
            )

    result = run_once(benchmark, run)

    lines = [
        result.to_text(),
        "",
        f"paper: {PAPER_CLAIMS['fig9_grid']}",
        f"grid evaluated: {len(k_values)} x {len(lambda_values)} = "
        f"{len(k_values) * len(lambda_values)} combinations (paper: 625), "
        "distributed over a process pool (paper: 8 GPUs via Spark)",
    ]
    report_writer("fig9_grid_search", "\n".join(lines))
    write_bench_json(
        "fig9_grid_search",
        dict(
            best_fine_score=result.best_fine["score"],
            best_coarse_score=result.best_coarse["score"],
            grid_min=float(result.grid.min()),
            grid_max=float(result.grid.max()),
        ),
        grid_size=len(k_values) * len(lambda_values),
        max_workers=max_workers,
    )

    # The score grid is complete in every mode.
    assert result.grid is not None and not np.isnan(result.grid).any()
    if smoke_mode():
        return
    # The fine-grid optimum is at least as good as the best score inside the
    # coarse region.
    assert result.best_fine["score"] >= result.best_coarse["score"] - 1e-12
    # The landscape is not flat: the hot region is clearly better than the
    # worst configuration (otherwise the search would be pointless).
    assert result.best_fine["score"] > float(result.grid.min()) + 1e-6
