"""Cross-validated performance estimation.

The paper selects K and lambda "from the data via cross-validation"
(Section IV-B).  :func:`cross_validate` fits a freshly constructed model on
the training part of each fold and averages the evaluation metrics over
folds; it is the building block :mod:`repro.evaluation.grid_search` calls
for every hyper-parameter combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.base import Recommender
from repro.data.interactions import InteractionMatrix
from repro.data.splitting import Split, kfold_splits
from repro.evaluation.evaluator import EvaluationResult, evaluate_recommender
from repro.exceptions import EvaluationError
from repro.utils.rng import RandomStateLike, spawn_seeds

ModelFactory = Callable[[], Recommender]


@dataclass
class CrossValidationResult:
    """Per-fold and aggregate metrics of a cross-validation run."""

    fold_results: List[EvaluationResult]

    @property
    def n_folds(self) -> int:
        """Number of folds evaluated."""
        return len(self.fold_results)

    def mean(self, metric: str = "recall") -> float:
        """Mean of ``metric`` over folds (e.g. ``"recall"`` or ``"map"``)."""
        values = [getattr(result, metric) for result in self.fold_results]
        return float(np.mean(values))

    def std(self, metric: str = "recall") -> float:
        """Standard deviation of ``metric`` over folds."""
        values = [getattr(result, metric) for result in self.fold_results]
        return float(np.std(values))

    def as_dict(self) -> Dict[str, float]:
        """Aggregate mean/std for the standard metrics."""
        summary: Dict[str, float] = {"n_folds": float(self.n_folds)}
        for metric in ("recall", "map", "precision", "ndcg", "hit_rate"):
            summary[f"{metric}_mean"] = self.mean(metric)
            summary[f"{metric}_std"] = self.std(metric)
        return summary


def cross_validate(
    model_factory: ModelFactory,
    matrix: InteractionMatrix,
    n_folds: int = 3,
    m: int = 50,
    max_users: Optional[int] = None,
    random_state: RandomStateLike = None,
) -> CrossValidationResult:
    """Estimate ranking performance of a model family by k-fold CV.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh, unfitted recommender
        (e.g. ``lambda: OCuLaR(n_coclusters=100, regularization=30)``).
    matrix:
        Full interaction matrix; folds are built over its positive pairs.
    n_folds:
        Number of folds.
    m:
        Metric cut-off.
    max_users:
        Optional cap on the number of evaluated test users per fold (keeps
        fine-grained grid searches affordable, mirroring the paper's use of
        GPU acceleration for exactly this purpose).
    random_state:
        Seed controlling both the fold assignment and the user subsampling.
    """
    if n_folds < 2:
        raise EvaluationError(f"n_folds must be at least 2, got {n_folds}")
    seeds = spawn_seeds(random_state, n_folds + 1)
    fold_results: List[EvaluationResult] = []
    for fold_index, split in enumerate(kfold_splits(matrix, n_folds=n_folds, random_state=seeds[0])):
        model = model_factory()
        model.fit(split.train)
        users = _select_users(split, max_users, seeds[fold_index + 1])
        fold_results.append(evaluate_recommender(model, split, m=m, users=users))
    if not fold_results:
        raise EvaluationError("cross-validation produced no evaluable folds")
    return CrossValidationResult(fold_results=fold_results)


def _select_users(
    split: Split, max_users: Optional[int], seed: int
) -> Optional[Sequence[int]]:
    """Subsample test users when ``max_users`` caps the evaluation size."""
    if max_users is None:
        return None
    all_users = sorted(split.test_items.keys())
    if len(all_users) <= max_users:
        return all_users
    rng = np.random.default_rng(seed)
    chosen = rng.choice(all_users, size=max_users, replace=False)
    return sorted(int(user) for user in chosen)
