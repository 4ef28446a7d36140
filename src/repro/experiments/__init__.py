"""Experiment harness: one module per paper table/figure, plus shared helpers.

Each experiment module exposes a ``run_*`` function returning a plain result
object and a ``format_*`` function rendering it next to the paper's reported
numbers.  Each ``benchmarks/bench_*.py`` wraps one of these functions in a
pytest-benchmark entry that checks the paper's accuracy and shape claims;
the modules themselves stay importable from examples and tests.  Speed is
measured by the end-to-end benchmark in ``benchmarks/e2e``, not here.
"""

from repro.experiments.zoo import build_model_zoo, MODEL_NAMES
from repro.experiments.paper_reference import (
    TABLE1_PAPER,
    FIGURE5_PAPER_SHAPE,
    PAPER_CLAIMS,
)
from repro.experiments.toy import run_toy_example, run_community_comparison
from repro.experiments.accuracy import (
    run_precision_study,
    run_recall_curves,
    run_table1,
)
from repro.experiments.parameters import run_parameter_study
from repro.experiments.scalability import run_scalability_study
from repro.experiments.backends import run_backend_comparison
from repro.experiments.gridsearch import run_grid_search_experiment
from repro.experiments.deployment import run_deployment_example
from repro.experiments.incremental import (
    make_drifting_corpus,
    run_incremental_study,
)

__all__ = [
    "build_model_zoo",
    "MODEL_NAMES",
    "TABLE1_PAPER",
    "FIGURE5_PAPER_SHAPE",
    "PAPER_CLAIMS",
    "run_toy_example",
    "run_community_comparison",
    "run_table1",
    "run_recall_curves",
    "run_precision_study",
    "run_parameter_study",
    "run_scalability_study",
    "run_backend_comparison",
    "run_grid_search_experiment",
    "run_deployment_example",
    "make_drifting_corpus",
    "run_incremental_study",
]
