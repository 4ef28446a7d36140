"""Evaluation: ranking metrics, the hold-out protocol, cross-validation and grid search.

:func:`evaluate_recommender` scores one fitted model on one split, and
:func:`evaluate_curves` sweeps ``M`` for the Figure 5 curves.  Models are
compared by evaluating each on the same split; the paper benches draw their
hold-outs themselves (``benchmarks/_paper.py``).
"""

from repro.evaluation.metrics import (
    precision_at_m,
    recall_at_m,
    average_precision_at_m,
    ndcg_at_m,
    hit_rate_at_m,
)
from repro.evaluation.evaluator import EvaluationResult, evaluate_recommender, evaluate_curves
from repro.evaluation.cross_validation import cross_validate
from repro.evaluation.grid_search import GridSearchResult, grid_search

__all__ = [
    "precision_at_m",
    "recall_at_m",
    "average_precision_at_m",
    "ndcg_at_m",
    "hit_rate_at_m",
    "EvaluationResult",
    "evaluate_recommender",
    "evaluate_curves",
    "cross_validate",
    "GridSearchResult",
    "grid_search",
]
