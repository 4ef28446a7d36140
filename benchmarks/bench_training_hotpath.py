"""Training hot path: pooled sweep workspaces versus the legacy kernel.

Not a paper figure — this guards the zero-allocation training rewrite
(plan-cached sparse operators, pooled sweep workspaces, in-place Armijo
machinery) against a verbatim replica of the pre-rewrite allocating kernel.
Two invariants are asserted in every mode:

* the pooled float64 factors are ``np.array_equal`` to the legacy kernel's
  after a full alternating sweep trajectory (bit-exactness — the rewrite
  reuses storage, it never changes the math),
* the timed passes build **zero** new workspaces (the plan sides' store
  counters are the witness), only reuses.

The >= 1.2x sweep-throughput floor over the legacy replica is asserted in
full mode on multi-core hosts (smoke corpora are too small for the
allocation cost to dominate, and single-core containers spend the budget
in BLAS either way).
"""

from __future__ import annotations

import os

from _report import write_bench_json
from conftest import run_once, scaled, smoke_mode

from repro.experiments.training_hotpath import run_training_hotpath


def test_training_hotpath(benchmark, report_writer):
    params = scaled(
        dict(
            n_users=6_000,
            n_items=2_000,
            n_coclusters=32,
            n_sweeps=4,
            n_repeats=3,
            positives_per_user=16,
        ),
        n_users=400,
        n_items=160,
        n_coclusters=8,
        n_sweeps=2,
        n_repeats=1,
        positives_per_user=8,
    )
    result = run_once(benchmark, run_training_hotpath, random_state=0, **params)

    lines = [
        result.to_text(),
        "",
        f"per-run legacy seconds:  {[f'{t:.3f}' for t in result.per_run_legacy_seconds]}",
        f"per-run pooled seconds:  {[f'{t:.3f}' for t in result.per_run_pooled_seconds]}",
        "note: the pooled kernels are asserted bit-exact against the legacy",
        "replica — identical per-row arithmetic — so the speedup is allocation",
        "and validation overhead removed, line-search candidates rejected by an",
        "exact K-wide bound, and cache-blocked entry gathers.",
    ]
    report_writer("training_hotpath", "\n".join(lines))
    write_bench_json(
        "training_hotpath",
        dict(
            speedup=result.speedup(),
            legacy_rows_per_second=result.legacy_rows_per_second(),
            pooled_rows_per_second=result.pooled_rows_per_second(),
            legacy_nnz_per_second=result.legacy_nnz_per_second(),
            pooled_nnz_per_second=result.pooled_nnz_per_second(),
            float64_exact=result.float64_exact,
            workspace_allocations_after_warmup=(
                result.workspace_allocations_after_warmup
            ),
            workspace_reuses=result.workspace_reuses,
            peak_workspace_bytes=result.peak_workspace_bytes,
            evaluated_rows=result.evaluated_rows,
            line_search_rows=result.line_search_rows,
        ),
        **params,
    )

    # The rewrite must be a pure optimisation: identical factor bytes.
    assert result.float64_exact
    # Steady state allocates nothing: every timed sweep reuses its arena.
    assert result.workspace_allocations_after_warmup == 0
    assert result.workspace_reuses > 0

    # Throughput floor: full mode on multi-core hosts only — on smoke
    # corpora the kernels finish in microseconds and timer noise dominates.
    if not smoke_mode() and (os.cpu_count() or 1) >= 2:
        assert result.speedup() >= 1.2, (
            f"sweep speedup {result.speedup():.2f}x below the 1.2x floor "
            f"(legacy {result.legacy_seconds:.3f}s vs pooled "
            f"{result.pooled_seconds:.3f}s)"
        )
