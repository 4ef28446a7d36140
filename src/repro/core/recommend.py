"""Batch recommendation reports: ranked items plus their explanations.

This is the piece a deployment actually consumes (Section VIII): for each
client, a short ranked list of products, each with its confidence, the
co-cluster rationale and — in the B2B setting — a price estimate.  The
report object renders to plain text (the examples print it) and to a list of
dictionaries (a JSON-friendly form for a UI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.explain import Explanation, explain_recommendation
from repro.exceptions import NotFittedError


@dataclass
class RecommendationReport:
    """Top-M recommendations for one user, each with its explanation.

    Attributes
    ----------
    user:
        User index the report is for.
    user_label:
        Human-readable user/client name.
    explanations:
        One :class:`~repro.core.explain.Explanation` per recommended item,
        in rank order.
    """

    user: int
    user_label: str
    explanations: List[Explanation] = field(default_factory=list)

    @property
    def items(self) -> List[int]:
        """Recommended item indices in rank order."""
        return [explanation.item for explanation in self.explanations]

    @property
    def confidences(self) -> List[float]:
        """Model confidences aligned with :attr:`items`."""
        return [explanation.confidence for explanation in self.explanations]

    def to_text(self) -> str:
        """Render the full report (rank, confidence, rationale per item)."""
        lines = [f"Recommendations for {self.user_label}:"]
        for rank, explanation in enumerate(self.explanations, start=1):
            lines.append(f"{rank}. {explanation.item_label} (confidence {explanation.confidence:.2f})")
            rationale = explanation.to_text().splitlines()[1:]
            lines.extend(rationale)
        return "\n".join(lines)

    def to_records(self) -> List[Dict[str, object]]:
        """JSON-friendly list of per-item records."""
        return [explanation.to_dict() for explanation in self.explanations]


def recommend_with_explanations(
    model,
    user: int,
    n_items: int = 5,
    max_peers: int = 3,
    max_evidence_items: int = 5,
    deal_values: Optional[Dict[tuple, float]] = None,
    ranked: Optional[Sequence[int]] = None,
) -> RecommendationReport:
    """Produce a :class:`RecommendationReport` for one user.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.ocular.OCuLaR` (or subclass).
    user:
        User index.
    n_items:
        Number of recommendations.
    max_peers, max_evidence_items:
        Limits on how much evidence each co-cluster contributes to the text.
    deal_values:
        Optional ``(user, item) -> price`` history for price estimates.
    ranked:
        Optional precomputed ranked item list for ``user`` (as produced by
        the serving engine); when omitted, the ranking is computed through
        the engine's single-user path.
    """
    if getattr(model, "factors_", None) is None:
        raise NotFittedError("recommend_with_explanations requires a fitted OCuLaR model")
    if ranked is None:
        from repro.serving.engine import TopNEngine

        ranked = TopNEngine.from_model(model).topn([user], n_items=n_items, exclude_seen=True)[0]
    explanations = [
        explain_recommendation(
            model,
            user,
            int(item),
            max_peers=max_peers,
            max_evidence_items=max_evidence_items,
            deal_values=deal_values,
        )
        for item in ranked
    ]
    return RecommendationReport(
        user=user,
        user_label=model.train_matrix.label_of_user(user),
        explanations=explanations,
    )


def batch_reports(
    model,
    users: Sequence[int],
    n_items: int = 5,
    deal_values: Optional[Dict[tuple, float]] = None,
) -> List[RecommendationReport]:
    """Reports for several users (the nightly batch of a deployment).

    All users are ranked in one pass through the chunked serving engine —
    one BLAS call per chunk rather than one scoring call per user — and the
    (Python-heavy) explanation rendering then consumes the precomputed
    rankings.
    """
    from repro.serving.engine import TopNEngine

    user_list = [int(user) for user in users]
    if not user_list:
        return []
    engine = TopNEngine.from_model(model)
    rankings = engine.topn(user_list, n_items=n_items, exclude_seen=True)
    return [
        recommend_with_explanations(
            model,
            user,
            n_items=n_items,
            deal_values=deal_values,
            ranked=np.asarray(ranking),
        )
        for user, ranking in zip(user_list, rankings)
    ]
