"""Explanation engine: turn co-cluster structure into textual rationales.

The paper's key selling point is that every recommendation can be justified:
"Item 4 is recommended to Client 6 with confidence 0.83 because Client 6 has
purchased Items 1-3 and clients with similar purchase history (Clients 4-5)
also bought Item 4 ..." (Figure 3), and the deployed system shows the same
rationale with client names and a price estimate (Figure 10).

:func:`explain_recommendation` reconstructs that rationale from the fitted
factors: for each co-cluster that contributes materially to
``<f_u, f_i>``, it collects

* the *evidence items* — items in the co-cluster the user already purchased,
* the *peer users* — other members of the co-cluster who purchased the
  recommended item,

and packages them into an :class:`Explanation` whose ``to_text`` /
``to_dict`` renderings are used by the examples and the Figure 10 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.coclusters import adaptive_membership_threshold
from repro.data.interactions import InteractionMatrix
from repro.exceptions import NotFittedError


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
        Optional price estimate derived from historical deals of peer
        clients (the Figure 10 deployment adds this in the B2B setting).
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
            peers = ", ".join(entry.peer_user_labels) or "no named peers"
            lines.append(
                f"  {bullet}. {self.user_label} has purchased {evidence_items}. "
                f"Clients with similar purchase history (e.g., {peers}) also bought "
                f"{self.item_label} (co-cluster {entry.cocluster_index}, "
                f"contribution {entry.contribution:.2f})."
            )
        if self.price_estimate is not None:
            lines.append(
                f"  Estimated deal value based on historical purchases by related clients: "
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


def explain_recommendation(
    model,
    user: int,
    item: int,
    max_peers: int = 3,
    max_evidence_items: int = 5,
    membership_threshold: Optional[float] = None,
    min_contribution_share: float = 0.1,
    deal_values: Optional[Dict[tuple, float]] = None,
) -> Explanation:
    """Build the co-cluster rationale for recommending ``item`` to ``user``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.ocular.OCuLaR` (or subclass).
    user, item:
        The recommendation to explain.
    max_peers:
        Maximum number of peer users named per co-cluster.
    max_evidence_items:
        Maximum number of already-purchased items named per co-cluster.
    membership_threshold:
        Affiliation strength above which an entity counts as a co-cluster
        member; defaults to the adaptive threshold used for co-cluster
        extraction (see
        :func:`repro.core.coclusters.adaptive_membership_threshold`).
    min_contribution_share:
        A co-cluster is reported only when its contribution exceeds this
        fraction of the total affinity ``<f_u, f_i>``.
    deal_values:
        Optional mapping ``(user, item) -> price`` of historical deals; when
        given, the mean price paid by the named peer users for ``item`` is
        attached as the price estimate (Figure 10).

    Returns
    -------
    Explanation
    """
    if getattr(model, "factors_", None) is None:
        raise NotFittedError("explain_recommendation requires a fitted OCuLaR model")
    factors = model.factors_
    matrix: InteractionMatrix = model.train_matrix
    threshold = (
        adaptive_membership_threshold(factors)
        if membership_threshold is None
        else float(membership_threshold)
    )

    # Evidence from the co-cluster factors alone; the confidence is the
    # model's own probability, bias terms included (BiasedOCuLaR).
    contributions = factors.cocluster_contributions(user, item)
    total = float(contributions.sum())
    confidence = float(model.predict_proba(user, item))

    user_items = set(int(index) for index in matrix.items_of_user(user))
    item_users = set(int(index) for index in matrix.users_of_item(item))

    evidence: List[CoClusterEvidence] = []
    order = np.argsort(-contributions, kind="stable")
    for column in order:
        contribution = float(contributions[column])
        if total <= 0 or contribution < min_contribution_share * total or contribution <= 0:
            break
        user_strengths = factors.user_factors[:, column]
        item_strengths = factors.item_factors[:, column]

        member_items = np.flatnonzero(item_strengths >= threshold)
        evidence_items = [
            int(candidate)
            for candidate in member_items[np.argsort(-item_strengths[member_items], kind="stable")]
            if int(candidate) in user_items and int(candidate) != item
        ][:max_evidence_items]

        member_users = np.flatnonzero(user_strengths >= threshold)
        peer_users = [
            int(candidate)
            for candidate in member_users[np.argsort(-user_strengths[member_users], kind="stable")]
            if int(candidate) in item_users and int(candidate) != user
        ][:max_peers]

        evidence.append(
            CoClusterEvidence(
                cocluster_index=int(column),
                contribution=contribution,
                evidence_items=evidence_items,
                peer_users=peer_users,
                evidence_item_labels=[matrix.label_of_item(index) for index in evidence_items],
                peer_user_labels=[matrix.label_of_user(index) for index in peer_users],
            )
        )

    price_estimate = None
    if deal_values is not None:
        peer_prices = [
            deal_values[(peer, item)]
            for entry in evidence
            for peer in entry.peer_users
            if (peer, item) in deal_values
        ]
        if not peer_prices:
            peer_prices = [
                value for (buyer, product), value in deal_values.items() if product == item
            ]
        if peer_prices:
            price_estimate = float(np.mean(peer_prices))

    return Explanation(
        user=user,
        item=item,
        user_label=matrix.label_of_user(user),
        item_label=matrix.label_of_item(item),
        confidence=confidence,
        evidence=evidence,
        price_estimate=price_estimate,
    )


def explain_top_recommendations(
    model,
    user: int,
    n_items: int = 5,
    max_peers: int = 3,
    max_evidence_items: int = 5,
    deal_values: Optional[Dict[tuple, float]] = None,
) -> List[Explanation]:
    """Explanations for the user's top ``n_items`` recommendations, in rank order."""
    ranked = model.recommend(user, n_items=n_items, exclude_seen=True)
    return [
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
