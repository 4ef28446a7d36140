#!/usr/bin/env python
"""Hyper-parameter grid search, serial vs parallel (the paper's Section VI / Figure 9).

The paper uses a GPU cluster to make a fine (K, lambda) grid search
affordable.  This example runs the same search on the synthetic B2B corpus
twice — once serially and once across a pool of worker processes (the
scale-out stand-in) — prints the recall heat-map, and reports the wall-clock
speed-up and the best hyper-parameters found.

Run with::

    python examples/grid_search_gpu_style.py
"""

from __future__ import annotations

import time
import warnings

from repro.experiments.gridsearch import run_grid_search_experiment
from repro.parallel import SerialExecutor, SharedMemoryProcessExecutor


def main() -> None:
    warnings.filterwarnings("ignore")

    k_values = (5, 10, 20, 40)
    lambda_values = (0.5, 2.0, 8.0, 30.0)
    common = dict(
        k_values=k_values,
        lambda_values=lambda_values,
        m=15,
        n_clients=250,
        n_products=40,
        max_iterations=40,
        random_state=0,
    )

    # ------------------------------------------------------------------ #
    # 1. Serial search (the "single CPU" baseline of the paper).
    # ------------------------------------------------------------------ #
    start = time.perf_counter()
    serial_result = run_grid_search_experiment(executor=SerialExecutor(), **common)
    serial_seconds = time.perf_counter() - start
    print(f"Serial grid search over {len(k_values) * len(lambda_values)} combinations: "
          f"{serial_seconds:.1f}s")

    # ------------------------------------------------------------------ #
    # 2. Parallel search across worker processes (the Spark/GPU stand-in).
    # ------------------------------------------------------------------ #
    start = time.perf_counter()
    with SharedMemoryProcessExecutor(max_workers=4) as executor:
        parallel_result = run_grid_search_experiment(executor=executor, **common)
    parallel_seconds = time.perf_counter() - start
    print(f"Parallel grid search (4 workers): {parallel_seconds:.1f}s "
          f"({serial_seconds / max(parallel_seconds, 1e-9):.1f}x speed-up)")
    print()

    # ------------------------------------------------------------------ #
    # 3. The heat-map and the winning configuration.
    # ------------------------------------------------------------------ #
    print(parallel_result.to_text())
    print()
    assert serial_result.search.best_params == parallel_result.search.best_params
    best = parallel_result.best_fine
    print(
        f"Best configuration: K = {best['n_coclusters']}, lambda = {best['regularization']} "
        f"with recall = {best['score']:.3f}."
    )
    print(
        "Paper shape to look for: the best region lies outside a narrow coarse grid, "
        "so the faster the search, the better the final recommendation accuracy."
    )


if __name__ == "__main__":
    main()
