"""Co-cluster extraction and statistics (Sections IV-C and VII-C).

A co-cluster ``c`` is "the subset of users and items for which ``[f_u]_c``
and ``[f_i]_c`` respectively are large".  The default membership threshold is
chosen so that two entities that both sit exactly at the threshold would
generate a positive example with probability 0.5:

    ``1 - exp(-delta^2) = 0.5  =>  delta = sqrt(ln 2) ~= 0.833``

which is the same convention used by BIGCLAM-style affiliation models.

:func:`extract_coclusters` is the one place membership is decided: an entity
belongs to co-cluster ``c`` when its strength in factor column ``c`` is at
least the threshold, and members are listed strongest first (stable sort).
The explanation engine (:mod:`repro.core.explain`) reads its output, and
:func:`repro.core.render.render_coclusters` prints it.  The co-cluster
statistics (users per co-cluster, items per co-cluster, density) are exactly
the quantities plotted in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.factors import FactorModel
from repro.data.interactions import InteractionMatrix
from repro.exceptions import ConfigurationError

#: Membership threshold at which two borderline members produce P = 0.5.
DEFAULT_MEMBERSHIP_THRESHOLD = float(np.sqrt(np.log(2.0)))

#: Smallest adaptive threshold considered meaningful; below this the factors
#: carry essentially no affiliation signal.
MIN_MEMBERSHIP_THRESHOLD = 0.05


def adaptive_membership_threshold(factors: FactorModel) -> float:
    """Data-driven membership threshold for a fitted factor model.

    Strong regularisation shrinks all affiliations, so a fixed absolute
    threshold can leave every co-cluster empty even though the *relative*
    structure is clear.  The adaptive rule takes the smaller of the absolute
    P=0.5 threshold and half the largest affiliation present in the model,
    floored at :data:`MIN_MEMBERSHIP_THRESHOLD`:

        ``delta = max(min(sqrt(ln 2), 0.5 * max_affiliation), 0.05)``

    For well-separated fits (toy example, lightly regularised models) this
    coincides with the absolute rule; for strongly regularised fits it keeps
    the strongest members of each co-cluster.
    """
    largest = float(
        max(factors.user_factors.max(initial=0.0), factors.item_factors.max(initial=0.0))
    )
    return max(min(DEFAULT_MEMBERSHIP_THRESHOLD, 0.5 * largest), MIN_MEMBERSHIP_THRESHOLD)


@dataclass
class CoCluster:
    """One overlapping user-item co-cluster.

    Attributes
    ----------
    index:
        Co-cluster index ``c`` (the column of the factor matrices).
    users, items:
        Member indices, sorted by decreasing affiliation strength.
    user_strengths, item_strengths:
        Affiliation strengths aligned with ``users`` / ``items``.
    density:
        Fraction of (member user, member item) pairs that are positive in the
        matrix the co-clusters were extracted against (``nan`` if either side
        is empty).
    """

    index: int
    users: np.ndarray
    items: np.ndarray
    user_strengths: np.ndarray
    item_strengths: np.ndarray
    density: float = float("nan")

    @property
    def n_users(self) -> int:
        """Number of member users."""
        return len(self.users)

    @property
    def n_items(self) -> int:
        """Number of member items."""
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        """True when the co-cluster has no user or no item member.

        The paper requires a co-cluster to contain at least one user and one
        item; empty ones are artefacts of over-provisioned ``K``.
        """
        return self.n_users == 0 or self.n_items == 0

    def top_users(self, count: int) -> List[int]:
        """The ``count`` most strongly affiliated users."""
        return [int(user) for user in self.users[:count]]

    def top_items(self, count: int) -> List[int]:
        """The ``count`` most strongly affiliated items."""
        return [int(item) for item in self.items[:count]]


def extract_coclusters(
    factors: FactorModel,
    matrix: Optional[InteractionMatrix] = None,
    membership_threshold: Optional[float] = None,
    drop_empty: bool = False,
) -> List[CoCluster]:
    """Turn fitted affiliation factors into explicit overlapping co-clusters.

    Parameters
    ----------
    factors:
        Fitted factor model.
    matrix:
        Optional interaction matrix used to compute co-cluster densities.
    membership_threshold:
        Minimum affiliation strength for membership; defaults to the
        adaptive rule of :func:`adaptive_membership_threshold`.
    drop_empty:
        When ``True``, co-clusters lacking a user or an item member are
        omitted from the result.

    Returns
    -------
    list of CoCluster
        One entry per factor column (minus dropped ones), members sorted by
        decreasing strength.  Because thresholding is done per column,
        users/items may appear in several co-clusters — the overlap the paper
        is named after.
    """
    threshold = (
        adaptive_membership_threshold(factors)
        if membership_threshold is None
        else float(membership_threshold)
    )
    if threshold < 0:
        raise ConfigurationError(f"membership_threshold must be non-negative, got {threshold}")

    def members(strengths: np.ndarray) -> np.ndarray:
        # The membership rule: at least the threshold, strongest first.
        indices = np.flatnonzero(strengths >= threshold)
        return indices[np.argsort(-strengths[indices], kind="stable")]

    coclusters: List[CoCluster] = []
    for column in range(factors.n_coclusters):
        user_strengths = factors.user_factors[:, column]
        item_strengths = factors.item_factors[:, column]
        users = members(user_strengths)
        items = members(item_strengths)
        density = float("nan")
        if matrix is not None and len(users) and len(items):
            block = matrix.csr()[users][:, items]
            density = block.nnz / float(len(users) * len(items))
        cocluster = CoCluster(
            index=column,
            users=users,
            items=items,
            user_strengths=user_strengths[users],
            item_strengths=item_strengths[items],
            density=density,
        )
        if drop_empty and cocluster.is_empty:
            continue
        coclusters.append(cocluster)
    return coclusters


@dataclass
class CoClusterStatistics:
    """Aggregate co-cluster diagnostics — the Figure 6 panels.

    Attributes
    ----------
    n_coclusters:
        Number of (non-empty) co-clusters summarised.
    mean_users, mean_items:
        Average number of users / items per co-cluster.
    mean_density:
        Average within-co-cluster density (ignoring empty ones).
    mean_user_memberships, mean_item_memberships:
        Average number of co-clusters a user / an item belongs to — the
        overlap level the paper suggests monitoring when choosing K.
    """

    n_coclusters: int
    mean_users: float
    mean_items: float
    mean_density: float
    mean_user_memberships: float
    mean_item_memberships: float
    users_per_cocluster: List[int] = field(default_factory=list)
    items_per_cocluster: List[int] = field(default_factory=list)
    densities: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, float]:
        """Aggregate values as a flat dictionary (for tables)."""
        return {
            "n_coclusters": float(self.n_coclusters),
            "mean_users": self.mean_users,
            "mean_items": self.mean_items,
            "mean_density": self.mean_density,
            "mean_user_memberships": self.mean_user_memberships,
            "mean_item_memberships": self.mean_item_memberships,
        }


def cocluster_statistics(
    coclusters: Sequence[CoCluster],
    n_users: Optional[int] = None,
    n_items: Optional[int] = None,
) -> CoClusterStatistics:
    """Summarise a set of co-clusters (sizes, densities, overlap).

    Parameters
    ----------
    coclusters:
        Output of :func:`extract_coclusters`.
    n_users, n_items:
        Total entity counts, needed for the mean-membership figures; inferred
        as ``max index + 1`` over members when omitted.
    """
    non_empty = [cocluster for cocluster in coclusters if not cocluster.is_empty]
    users_per = [cocluster.n_users for cocluster in non_empty]
    items_per = [cocluster.n_items for cocluster in non_empty]
    densities = [
        cocluster.density for cocluster in non_empty if not np.isnan(cocluster.density)
    ]

    if n_users is None:
        n_users = 1 + max(
            (int(cocluster.users.max()) for cocluster in non_empty if cocluster.n_users), default=0
        )
    if n_items is None:
        n_items = 1 + max(
            (int(cocluster.items.max()) for cocluster in non_empty if cocluster.n_items), default=0
        )

    user_membership_counts = np.zeros(max(n_users, 1))
    item_membership_counts = np.zeros(max(n_items, 1))
    for cocluster in non_empty:
        user_membership_counts[cocluster.users] += 1
        item_membership_counts[cocluster.items] += 1

    return CoClusterStatistics(
        n_coclusters=len(non_empty),
        mean_users=float(np.mean(users_per)) if users_per else 0.0,
        mean_items=float(np.mean(items_per)) if items_per else 0.0,
        mean_density=float(np.mean(densities)) if densities else float("nan"),
        mean_user_memberships=float(user_membership_counts.mean()),
        mean_item_memberships=float(item_membership_counts.mean()),
        users_per_cocluster=users_per,
        items_per_cocluster=items_per,
        densities=densities,
    )
