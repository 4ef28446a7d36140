"""Ranking metrics used by the paper's evaluation (Section VII-B.1).

The paper reports recall@M and MAP@M.  Their definitions, restated:

* ``recall@M(u) = |relevant(u) ∩ top_M(u)| / |relevant(u)|``
* ``AP@M(u) = sum_{m=1..M} Prec(m) * 1[item_m relevant] / min(|relevant(u)|, M)``
* ``MAP@M`` is the mean of ``AP@M(u)`` over users.

This module also provides precision@M, hit-rate@M and NDCG@M, which are used
in tests and extra diagnostics.  All functions accept a *ranked list* of
recommended item indices and a *set/array* of relevant item indices, and are
deliberately free of any model-specific logic.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np

from repro.exceptions import EvaluationError
from repro.utils.validation import check_positive_int


def _as_ranked_array(ranked_items: Sequence[int]) -> np.ndarray:
    ranked = np.asarray(list(ranked_items), dtype=np.int64)
    if ranked.ndim != 1:
        raise EvaluationError("ranked_items must be a one-dimensional sequence")
    return ranked


def _as_relevant_set(relevant_items: Iterable[int]) -> Set[int]:
    relevant = {int(item) for item in relevant_items}
    return relevant


def precision_at_m(ranked_items: Sequence[int], relevant_items: Iterable[int], m: int) -> float:
    """Fraction of the top-``m`` recommendations that are relevant.

    ``Prec(m)`` in the paper's notation.  When fewer than ``m`` items were
    recommended the denominator is still ``m`` (missing slots count as
    misses), which matches the usual information-retrieval convention.
    """
    m = check_positive_int(m, "m", EvaluationError)
    ranked = _as_ranked_array(ranked_items)[:m]
    relevant = _as_relevant_set(relevant_items)
    if not relevant:
        return 0.0
    hits = sum(1 for item in ranked if int(item) in relevant)
    return hits / float(m)


def recall_at_m(ranked_items: Sequence[int], relevant_items: Iterable[int], m: int) -> float:
    """Fraction of the relevant items that appear in the top ``m``.

    This is the paper's primary metric; it is preferred over precision in the
    one-class setting because an unknown example is not necessarily a
    negative (Section VII-B.1).
    """
    m = check_positive_int(m, "m", EvaluationError)
    ranked = _as_ranked_array(ranked_items)[:m]
    relevant = _as_relevant_set(relevant_items)
    if not relevant:
        raise EvaluationError("recall@M is undefined for a user with no relevant items")
    hits = sum(1 for item in ranked if int(item) in relevant)
    return hits / float(len(relevant))


def hit_rate_at_m(ranked_items: Sequence[int], relevant_items: Iterable[int], m: int) -> float:
    """1.0 when at least one relevant item appears in the top ``m``, else 0.0."""
    m = check_positive_int(m, "m", EvaluationError)
    ranked = _as_ranked_array(ranked_items)[:m]
    relevant = _as_relevant_set(relevant_items)
    if not relevant:
        return 0.0
    return 1.0 if any(int(item) in relevant for item in ranked) else 0.0


def average_precision_at_m(
    ranked_items: Sequence[int], relevant_items: Iterable[int], m: int
) -> float:
    """Average precision at ``m`` exactly as defined in the paper.

    ``AP@M(u) = sum_m Prec(m) 1[r_{u,i_m}=1] / min(|{i : r_ui = 1}|, M)``.

    The normaliser ``min(#relevant, M)`` guarantees ``AP@M <= 1``.
    """
    m = check_positive_int(m, "m", EvaluationError)
    ranked = _as_ranked_array(ranked_items)[:m]
    relevant = _as_relevant_set(relevant_items)
    if not relevant:
        raise EvaluationError("AP@M is undefined for a user with no relevant items")
    hits = 0
    precision_sum = 0.0
    for position, item in enumerate(ranked, start=1):
        if int(item) in relevant:
            hits += 1
            precision_sum += hits / float(position)
    return precision_sum / float(min(len(relevant), m))


def ndcg_at_m(ranked_items: Sequence[int], relevant_items: Iterable[int], m: int) -> float:
    """Normalised discounted cumulative gain at ``m`` with binary relevance.

    Not reported in the paper but a standard companion metric; included for
    completeness and used in tests as an independent cross-check on the
    ranking quality ordering of the algorithms.
    """
    m = check_positive_int(m, "m", EvaluationError)
    ranked = _as_ranked_array(ranked_items)[:m]
    relevant = _as_relevant_set(relevant_items)
    if not relevant:
        raise EvaluationError("NDCG@M is undefined for a user with no relevant items")
    gains = np.array([1.0 if int(item) in relevant else 0.0 for item in ranked])
    discounts = 1.0 / np.log2(np.arange(2, len(gains) + 2))
    dcg = float(np.sum(gains * discounts))
    ideal_hits = min(len(relevant), m)
    ideal = float(np.sum(1.0 / np.log2(np.arange(2, ideal_hits + 2))))
    if ideal == 0.0:
        return 0.0
    return dcg / ideal


def catalog_coverage(recommendations: Iterable[Sequence[int]], n_items: int) -> float:
    """Fraction of the catalogue that appears in at least one top-M list.

    A diversity diagnostic used in the deployment example: co-cluster based
    recommenders should cover more of the long tail than popularity ranking.
    """
    if n_items <= 0:
        raise EvaluationError(f"n_items must be positive, got {n_items}")
    recommended: Set[int] = set()
    for ranked in recommendations:
        recommended.update(int(item) for item in ranked)
    return len(recommended) / float(n_items)
