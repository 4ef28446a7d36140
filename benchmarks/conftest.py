"""Shared fixtures for the paper harness.

Every ``bench_*.py`` regenerates one table, figure or ablation of the paper
and holds that figure's whole experiment: it runs it once (timed
through ``benchmark.pedantic`` with a single round, because the experiments
themselves take seconds), prints the measured values next to the paper's
reported values, asserts the paper's accuracy and shape claims, and writes
the same report to ``benchmarks/results/<name>.txt`` plus its headline
numbers to ``benchmarks/results/BENCH_<name>.json`` (``_report.py``).
Pieces several benches share (the Table I model zoo, the hold-out protocol,
the toy fit) live in ``_paper.py``.  Every bench runs at one size; none of
them gates speed: that is the end-to-end benchmark's job
(``benchmarks/e2e``, ``BENCHMARK.json``).

Run with::

    pytest benchmarks/ --benchmark-disable
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


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
