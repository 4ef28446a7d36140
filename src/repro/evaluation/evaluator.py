"""Evaluation protocols: score a fitted recommender against held-out positives.

:func:`evaluate_recommender` implements the paper's protocol: for every test
user, rank the unknown items of the *training* matrix, take the top ``M`` and
compare against the user's held-out positives, then average recall@M, MAP@M
(and companions) over users.  :func:`evaluate_curves` sweeps ``M`` to produce
the Figure 5 curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.base import Recommender
from repro.data.splitting import Split
from repro.evaluation import metrics
from repro.exceptions import EvaluationError
from repro.serving.engine import TopNEngine


@dataclass
class EvaluationResult:
    """Aggregated ranking metrics over the test users.

    Attributes
    ----------
    m:
        Cut-off used for every metric.
    n_users:
        Number of users that contributed to the averages.
    recall, map, precision, ndcg, hit_rate:
        Mean metric values over those users.
    per_user:
        Optional per-user recall/AP breakdown (populated when
        ``keep_per_user=True``), useful for significance checks.
    """

    m: int
    n_users: int
    recall: float
    map: float
    precision: float
    ndcg: float
    hit_rate: float
    per_user: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the aggregate metrics (for tables/JSON)."""
        return {
            "m": float(self.m),
            "n_users": float(self.n_users),
            "recall": self.recall,
            "map": self.map,
            "precision": self.precision,
            "ndcg": self.ndcg,
            "hit_rate": self.hit_rate,
        }


def evaluate_recommender(
    model: Recommender,
    split: Split,
    m: int = 50,
    users: Optional[Iterable[int]] = None,
    keep_per_user: bool = False,
) -> EvaluationResult:
    """Evaluate a fitted recommender on a train/test split.

    Parameters
    ----------
    model:
        A recommender already fitted on ``split.train``.
    split:
        The train/test partition produced by
        :mod:`repro.data.splitting`.
    m:
        Recommendation-list length (the paper uses M=50 for Table I).
    users:
        Optional subset of test users to evaluate (defaults to every user
        with held-out positives); the Table I benchmark subsamples users to
        keep runtimes small.
    keep_per_user:
        When ``True``, the per-user recall/AP values are retained in the
        result for downstream statistical analysis.

    Returns
    -------
    EvaluationResult
        Mean recall@M, MAP@M, precision@M, NDCG@M and hit-rate@M.
    """
    if m <= 0:
        raise EvaluationError(f"m must be positive, got {m}")
    if not model.is_fitted:
        raise EvaluationError("the recommender must be fitted before evaluation")
    return _evaluate(model, split, [m], users, keep_per_user)[m]


def evaluate_curves(
    model: Recommender,
    split: Split,
    m_values: Sequence[int],
    users: Optional[Iterable[int]] = None,
) -> Dict[int, EvaluationResult]:
    """Evaluate at several cut-offs (the Figure 5 recall@M / MAP@M curves).

    The recommendation list is computed once per user at ``max(m_values)``
    and truncated for the smaller cut-offs, so the sweep costs barely more
    than a single evaluation.
    """
    if not m_values:
        raise EvaluationError("m_values must not be empty")
    m_sorted = sorted(set(int(m) for m in m_values))
    if m_sorted[0] <= 0:
        raise EvaluationError("all cut-offs must be positive")
    return _evaluate(model, split, m_sorted, users)


def _evaluate(
    model: Recommender,
    split: Split,
    m_sorted: Sequence[int],
    users: Optional[Iterable[int]],
    keep_per_user: bool = False,
) -> Dict[int, EvaluationResult]:
    """Rank every eligible user once at the largest cut-off; score each cut-off."""
    if users is None:
        eligible = sorted(split.test_items.keys())
    else:
        eligible = [user for user in users if user in split.test_items]
    if not eligible:
        raise EvaluationError("no test users with held-out positives to evaluate")

    # All eligible users are ranked in one pass through the chunked serving
    # engine (identical rankings to per-user ``model.recommend``).
    engine = TopNEngine.from_model(model)
    rankings = engine.topn(eligible, n_items=m_sorted[-1], exclude_seen=True)
    rows: Dict[int, List[Tuple[int, Dict[str, float]]]] = {m: [] for m in m_sorted}
    for user, ranked_full in zip(eligible, rankings):
        relevant = split.test_items[user]
        for m in m_sorted:
            ranked = ranked_full[:m]
            scores = {
                "recall": metrics.recall_at_m(ranked, relevant, m),
                "ap": metrics.average_precision_at_m(ranked, relevant, m),
                "precision": metrics.precision_at_m(ranked, relevant, m),
                "ndcg": metrics.ndcg_at_m(ranked, relevant, m),
                "hit": metrics.hit_rate_at_m(ranked, relevant, m),
            }
            rows[m].append((user, scores))

    def mean(m: int, name: str) -> float:
        return float(np.mean([row[name] for _user, row in rows[m]]))

    return {
        m: EvaluationResult(
            m=m,
            n_users=len(eligible),
            recall=mean(m, "recall"),
            map=mean(m, "ap"),
            precision=mean(m, "precision"),
            ndcg=mean(m, "ndcg"),
            hit_rate=mean(m, "hit"),
            per_user=dict(rows[m]) if keep_per_user else {},
        )
        for m in m_sorted
    }
