"""Explanation engine: turn co-cluster structure into textual rationales.

The paper's key selling point is that every recommendation can be justified:
"Item 4 is recommended to Client 6 with confidence 0.83 because Client 6 has
purchased Items 1-3 and clients with similar purchase history (Clients 4-5)
also bought Item 4 ..." (Figure 3), and the deployed system shows the same
rationale with client names and a price estimate (Figure 10).

An explanation card reconstructs that rationale from the fitted factors: for
each co-cluster that contributes at least :data:`MIN_CONTRIBUTION_SHARE` of
``<f_u, f_i>``, it names

* the *evidence items* — up to :data:`MAX_EVIDENCE_ITEMS` members of the
  co-cluster that the user already purchased,
* the *peer users* — up to :data:`MAX_PEERS` other members of the co-cluster
  who purchased the recommended item,

both strongest member first.  Membership is not decided here: the members
are read from :func:`repro.core.coclusters.extract_coclusters` at its
default (adaptive) threshold.  :func:`explain_recommendation` builds one card;
:func:`batch_reports` ranks several users in one serving-engine pass and
builds a :class:`RecommendationReport` of cards for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.coclusters import extract_coclusters
from repro.exceptions import NotFittedError
from repro.utils.validation import as_int_tuple

#: A co-cluster is reported only when its contribution is at least this share
#: of the total affinity ``<f_u, f_i>``.
MIN_CONTRIBUTION_SHARE = 0.1

#: Peer users named per co-cluster.
MAX_PEERS = 3

#: Already-purchased items named per co-cluster.
MAX_EVIDENCE_ITEMS = 5


@dataclass
class CoClusterEvidence:
    """Evidence contributed by a single co-cluster to one recommendation.

    Attributes
    ----------
    cocluster_index:
        Which co-cluster (factor column) the evidence comes from.
    contribution:
        ``[f_u]_c * [f_i]_c`` — this co-cluster's share of the affinity.
    evidence_items:
        Items in the co-cluster that the target user has already purchased
        ("Client 6 has purchased Items 1-3").
    peer_users:
        Co-cluster members (other than the target user) who purchased the
        recommended item ("Clients 4-5 also bought Item 4").
    evidence_item_labels, peer_user_labels:
        Human-readable labels for the above (product names, client names).
    """

    cocluster_index: int
    contribution: float
    evidence_items: List[int] = field(default_factory=list)
    peer_users: List[int] = field(default_factory=list)
    evidence_item_labels: List[str] = field(default_factory=list)
    peer_user_labels: List[str] = field(default_factory=list)


@dataclass
class Explanation:
    """A complete, renderable rationale for one (user, item) recommendation.

    Attributes
    ----------
    user, item:
        Indices of the recommendation target.
    user_label, item_label:
        Human-readable names (fall back to ``"user u"`` / ``"item i"``).
    confidence:
        ``P[r_ui = 1]`` under the fitted model.
    evidence:
        Per-co-cluster evidence, sorted by decreasing contribution.
    price_estimate:
        Optional price estimate from the historical deals for the item: the
        named peers' deals when they have any, else every deal for it (the
        Figure 10 deployment adds this in the B2B setting).
    """

    user: int
    item: int
    user_label: str
    item_label: str
    confidence: float
    evidence: List[CoClusterEvidence] = field(default_factory=list)
    price_estimate: Optional[float] = None

    @property
    def n_supporting_coclusters(self) -> int:
        """Number of co-clusters contributing evidence."""
        return len(self.evidence)

    def to_text(self) -> str:
        """Render the rationale in the paper's Figure 3 / Figure 10 style."""
        lines = [
            f"{self.item_label} is recommended to {self.user_label} "
            f"with confidence {self.confidence:.2f} because:"
        ]
        if not self.evidence:
            lines.append(
                "  (no co-cluster evidence exceeds the reporting threshold; the score "
                "comes from weak affiliations spread over many co-clusters)"
            )
        for rank, entry in enumerate(self.evidence):
            bullet = chr(ord("A") + rank) if rank < 26 else str(rank + 1)
            evidence_items = ", ".join(entry.evidence_item_labels) or "no shared items"
            cocluster = f"co-cluster {entry.cocluster_index}"
            contribution = f"contribution {entry.contribution:.2f}"
            if entry.peer_user_labels:
                peers = (
                    f"Clients with similar purchase history "
                    f"(e.g., {', '.join(entry.peer_user_labels)}) also bought "
                    f"{self.item_label} ({cocluster}, {contribution})."
                )
            else:
                peers = (
                    f"No other member of {cocluster} has bought {self.item_label} "
                    f"({contribution})."
                )
            lines.append(f"  {bullet}. {self.user_label} has purchased {evidence_items}. {peers}")
        if self.price_estimate is not None:
            lines.append(
                f"  Estimated deal value from historical deals for {self.item_label}: "
                f"${self.price_estimate:,.0f}."
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form of the rationale (for dashboards / JSON)."""
        return {
            "user": self.user,
            "item": self.item,
            "user_label": self.user_label,
            "item_label": self.item_label,
            "confidence": self.confidence,
            "price_estimate": self.price_estimate,
            "evidence": [
                {
                    "cocluster": entry.cocluster_index,
                    "contribution": entry.contribution,
                    "evidence_items": list(entry.evidence_items),
                    "peer_users": list(entry.peer_users),
                }
                for entry in self.evidence
            ],
        }


@dataclass
class RecommendationReport:
    """Top-M recommendations for one user, each with its explanation.

    This is what a deployment consumes (Section VIII): for each client, a
    short ranked list of products, each with its confidence, the co-cluster
    rationale and — in the B2B setting — a price estimate.

    Attributes
    ----------
    user:
        User index the report is for.
    user_label:
        Human-readable user/client name.
    explanations:
        One :class:`Explanation` per recommended item, in rank order.
    """

    user: int
    user_label: str
    explanations: List[Explanation] = field(default_factory=list)

    def to_text(self) -> str:
        """Render the full report (rank, confidence, rationale per item)."""
        lines = [f"Recommendations for {self.user_label}:"]
        for rank, explanation in enumerate(self.explanations, start=1):
            lines.append(f"{rank}. {explanation.item_label} (confidence {explanation.confidence:.2f})")
            rationale = explanation.to_text().splitlines()[1:]
            lines.extend(rationale)
        return "\n".join(lines)


def _first(members: List[int], owners: set, excluded: int, count: int) -> List[int]:
    """The first ``count`` of ``members`` in ``owners``, other than ``excluded``."""
    return list(islice((m for m in members if m in owners and m != excluded), count))


class _CardBuilder:
    """What every card of one batch shares, computed once per batch.

    The co-cluster members (strongest first), each user's purchased items,
    and an item -> deal prices index in ``deal_values`` insertion order.
    """

    def __init__(self, model, deal_values: Optional[Dict[tuple, float]]) -> None:
        if getattr(model, "factors_", None) is None:
            raise NotFittedError("explanations require a fitted OCuLaR model")
        self.model = model
        self.factors = model.factors_
        self.matrix = model.train_matrix
        self.members = [
            (cocluster.users.tolist(), cocluster.items.tolist())
            for cocluster in extract_coclusters(self.factors)
        ]
        self.user_items: Dict[int, set] = {}
        self.deal_values = deal_values
        self.item_prices: Dict[int, List[float]] = {}
        for (_, product), value in (deal_values or {}).items():
            self.item_prices.setdefault(product, []).append(value)

    def explain(self, user: int, item: int) -> Explanation:
        # Evidence from the co-cluster factors alone; the confidence is the
        # model's own probability, bias terms included (BiasedOCuLaR).
        contributions = self.factors.cocluster_contributions(user, item)
        total = float(contributions.sum())
        confidence = float(self.model.predict_proba(user, item))

        if user not in self.user_items:
            self.user_items[user] = set(self.matrix.items_of_user(user).tolist())
        user_items = self.user_items[user]
        item_users = set(self.matrix.users_of_item(item).tolist())

        evidence: List[CoClusterEvidence] = []
        for column in np.argsort(-contributions, kind="stable"):
            contribution = float(contributions[column])
            if total <= 0 or contribution < MIN_CONTRIBUTION_SHARE * total or contribution <= 0:
                break
            member_users, member_items = self.members[column]
            evidence_items = _first(member_items, user_items, item, MAX_EVIDENCE_ITEMS)
            peer_users = _first(member_users, item_users, user, MAX_PEERS)
            evidence.append(
                CoClusterEvidence(
                    cocluster_index=int(column),
                    contribution=contribution,
                    evidence_items=evidence_items,
                    peer_users=peer_users,
                    evidence_item_labels=[self.matrix.label_of_item(i) for i in evidence_items],
                    peer_user_labels=[self.matrix.label_of_user(u) for u in peer_users],
                )
            )

        price_estimate = None
        if self.deal_values is not None:
            # The peers' own deals for the item, else every deal for it.
            peer_prices = [
                self.deal_values[(peer, item)]
                for entry in evidence
                for peer in entry.peer_users
                if (peer, item) in self.deal_values
            ] or self.item_prices.get(item, [])
            if peer_prices:
                price_estimate = float(np.mean(peer_prices))

        return Explanation(
            user=user,
            item=item,
            user_label=self.matrix.label_of_user(user),
            item_label=self.matrix.label_of_item(item),
            confidence=confidence,
            evidence=evidence,
            price_estimate=price_estimate,
        )


def explain_recommendation(
    model,
    user: int,
    item: int,
    deal_values: Optional[Dict[tuple, float]] = None,
) -> Explanation:
    """Build the co-cluster rationale for recommending ``item`` to ``user``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.ocular.OCuLaR` (or subclass).
    user, item:
        The recommendation to explain.
    deal_values:
        Optional mapping ``(user, item) -> price`` of historical deals; when
        given, the mean price the named peer users paid for ``item`` (or, if
        none of them has a recorded deal, the mean of all deals for ``item``)
        is attached as the price estimate (Figure 10).
    """
    return _CardBuilder(model, deal_values).explain(user, item)


def batch_reports(
    model,
    users: Sequence[int],
    n_items: int = 5,
    deal_values: Optional[Dict[tuple, float]] = None,
) -> List[RecommendationReport]:
    """Ranked, explained recommendations for several users (a deployment's nightly batch).

    All users are ranked in one pass through the chunked serving engine
    (seen items excluded), then each ranked item gets its card from state
    computed once for the whole batch.  ``deal_values`` is as in
    :func:`explain_recommendation`.
    """
    from repro.serving.engine import TopNEngine

    user_list = as_int_tuple(users, "users")
    if not user_list:
        return []
    cards = _CardBuilder(model, deal_values)
    rankings = TopNEngine.from_model(model).topn(user_list, n_items=n_items, exclude_seen=True)
    return [
        RecommendationReport(
            user=user,
            user_label=cards.matrix.label_of_user(user),
            explanations=[cards.explain(user, int(item)) for item in ranking],
        )
        for user, ranking in zip(user_list, rankings)
    ]
