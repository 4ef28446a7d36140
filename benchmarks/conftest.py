"""Shared fixtures for the benchmark harness.

Every ``bench_*.py`` regenerates one table, figure or ablation of the paper:
it runs the corresponding experiment once (timed through
``benchmark.pedantic`` with a single round, because the experiments
themselves take seconds to minutes), prints the measured values next to the
paper's reported values, asserts the paper's accuracy and shape claims, and
appends the same report to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can be assembled from the files.  None of them gates speed:
that is the end-to-end benchmark's job (``benchmarks/e2e``,
``BENCHMARK.json``).

Run with::

    pytest benchmarks/ --benchmark-only

Smoke mode
----------
CI runs the whole harness on every push to guard the figure scripts against
import rot, so each benchmark also has a fast configuration.  Activate it
with either::

    REPRO_BENCH_SMOKE=1 pytest benchmarks/
    pytest benchmarks/ --smoke

In smoke mode every benchmark swaps its full-size parameters for tiny ones
via :func:`scaled` and skips the statistical shape assertions (tiny corpora
cannot support them) while keeping the structural ones, so the full
experiment code path still executes end to end in seconds.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Environment variable that switches the harness into smoke mode.
SMOKE_ENV = "REPRO_BENCH_SMOKE"

_smoke_option = False


def pytest_addoption(parser):
    """Register ``--smoke`` (equivalent to ``REPRO_BENCH_SMOKE=1``)."""
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run every benchmark with tiny parameters (seconds, for CI)",
    )


def pytest_configure(config):
    global _smoke_option
    _smoke_option = bool(config.getoption("--smoke", default=False))


def smoke_mode() -> bool:
    """Whether the harness runs in the fast CI configuration."""
    return _smoke_option or bool(os.environ.get(SMOKE_ENV))


def scaled(full: dict, **smoke_overrides) -> dict:
    """Benchmark parameters: ``full`` normally, with overrides in smoke mode.

    Usage::

        params = scaled(dict(n_users=1500, n_iterations=3), n_users=150)
    """
    params = dict(full)
    if smoke_mode():
        params.update(smoke_overrides)
    return params


@pytest.fixture(autouse=True)
def _silence_warnings():
    """Benchmarks use tight iteration budgets; convergence warnings are expected.

    Deprecations raised from ``repro`` itself stay fatal so no benchmark
    quietly drifts back onto a deprecated shim.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.filterwarnings(
            "error", category=DeprecationWarning, module=r"repro(\..*)?$"
        )
        yield


@pytest.fixture(scope="session")
def report_writer():
    """Callable that persists a benchmark's textual report.

    Usage: ``report_writer("table1_movielens", text)`` writes
    ``benchmarks/results/table1_movielens.txt`` and echoes the text to stdout
    (visible with ``pytest -s``).
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n[{name}]\n{text}\n")
        return path

    return write


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are far too heavy for statistical repetition; a single
    timed round still records wall-clock cost in the benchmark report.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
