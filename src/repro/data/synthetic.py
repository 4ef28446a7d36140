"""Synthetic data with planted overlapping co-clusters.

* :func:`make_paper_toy_example` reconstructs the 12x12 toy matrix of the
  paper's Figures 1 and 3 (three overlapping co-clusters, three candidate
  recommendations left as holes).
* :func:`make_planted_coclusters` draws a block model: a (user, item) pair
  inside one of ``K`` planted blocks is positive with the block's density,
  any other pair with a small background rate.  The ground-truth
  memberships come back with the matrix, so tests can check that OCuLaR
  recovers overlapping structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.exceptions import DataError
from repro.utils.rng import RandomStateLike, ensure_rng


@dataclass
class PlantedCoClusters:
    """A synthetic interaction matrix plus its ground-truth co-clusters.

    Attributes
    ----------
    matrix:
        The observed one-class interaction matrix.
    user_memberships, item_memberships:
        Lists of length ``n_coclusters``; entry ``c`` holds the user (item)
        indices planted in co-cluster ``c``.  Co-clusters may overlap.
    heldout_pairs:
        Pairs that belong to a planted co-cluster but were removed from the
        observed matrix; a good recommender should rank them highly.
    """

    matrix: InteractionMatrix
    user_memberships: List[np.ndarray] = field(default_factory=list)
    item_memberships: List[np.ndarray] = field(default_factory=list)
    heldout_pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def n_coclusters(self) -> int:
        """Number of planted co-clusters."""
        return len(self.user_memberships)


# The 12x12 toy example of Figure 1 / Figure 3.  Three co-clusters (read off
# the probability matrix printed in Figure 3):
#   co-cluster 1: users 0-2,  items 3-6
#   co-cluster 2: users 4-6,  items 1-4
#   co-cluster 3: users 6-9,  items 4-9
# Users 3, 10, 11 and items 0, 10, 11 belong to no co-cluster.  Three holes
# (the white squares of Figure 1, i.e. candidate recommendations) are left
# inside the blocks: (0, 6) and (1, 6) in co-cluster 1 and the paper's
# headline cell (6, 4), which sits in the overlap of co-clusters 2 and 3.
# With this reconstruction OCuLaR's fitted confidence for (user 6, item 4)
# lands at ~0.82, matching the 0.83 reported in the paper, and item 4 is
# affiliated with all three co-clusters exactly as in the paper's example.
_TOY_COCLUSTERS: Sequence[Tuple[Sequence[int], Sequence[int]]] = (
    ((0, 1, 2), (3, 4, 5, 6)),
    ((4, 5, 6), (1, 2, 3, 4)),
    ((6, 7, 8, 9), (4, 5, 6, 7, 8, 9)),
)
_TOY_HOLES: Sequence[Tuple[int, int]] = ((0, 6), (1, 6), (6, 4))
_TOY_SHAPE: Tuple[int, int] = (12, 12)


def make_paper_toy_example() -> PlantedCoClusters:
    """Reconstruct the overlapping-co-cluster toy example of Figures 1 and 3.

    Returns
    -------
    PlantedCoClusters
        A 12x12 matrix with three overlapping co-clusters and three held-out
        pairs (the white squares of Figure 1), including the paper's headline
        recommendation of item 4 to user 6.
    """
    dense = np.zeros(_TOY_SHAPE)
    user_memberships: List[np.ndarray] = []
    item_memberships: List[np.ndarray] = []
    for users, items in _TOY_COCLUSTERS:
        users_arr = np.asarray(users, dtype=np.int64)
        items_arr = np.asarray(items, dtype=np.int64)
        dense[np.ix_(users_arr, items_arr)] = 1.0
        user_memberships.append(users_arr)
        item_memberships.append(items_arr)
    for user, item in _TOY_HOLES:
        dense[user, item] = 0.0
    matrix = InteractionMatrix.from_dense(dense)
    return PlantedCoClusters(
        matrix=matrix,
        user_memberships=user_memberships,
        item_memberships=item_memberships,
        heldout_pairs=list(_TOY_HOLES),
    )


def make_planted_coclusters(
    n_users: int = 200,
    n_items: int = 100,
    n_coclusters: int = 4,
    users_per_cocluster: int = 60,
    items_per_cocluster: int = 30,
    within_density: float = 0.8,
    background_density: float = 0.005,
    holdout_fraction: float = 0.0,
    overlap: bool = True,
    random_state: RandomStateLike = None,
) -> PlantedCoClusters:
    """Draw an interaction matrix with planted (optionally overlapping) co-clusters.

    Parameters
    ----------
    n_users, n_items:
        Matrix dimensions.
    n_coclusters:
        Number of planted co-clusters ``K``.
    users_per_cocluster, items_per_cocluster:
        Size of each planted block.  Must not exceed the matrix dimensions.
    within_density:
        Probability that a (user, item) pair inside a planted block is a
        positive example — the paper's model with
        ``1 - exp(-f_u f_i)`` constant inside the block.
    background_density:
        Probability of a positive example outside every block (noise).
    holdout_fraction:
        Fraction of within-block positives that are removed from the observed
        matrix and reported in ``heldout_pairs``; these act as the "white
        squares" a recommender should recover.
    overlap:
        When ``True`` (default) blocks are sampled independently and may
        overlap; when ``False`` users and items are partitioned into disjoint
        blocks (the non-overlapping regime the paper contrasts against).
    random_state:
        Seed or generator for reproducibility.

    Returns
    -------
    PlantedCoClusters
        The observed matrix, the ground-truth memberships and the held-out
        pairs.
    """
    if users_per_cocluster > n_users or items_per_cocluster > n_items:
        raise DataError("co-cluster size cannot exceed the matrix dimensions")
    if not 0 <= holdout_fraction < 1:
        raise DataError(f"holdout_fraction must lie in [0, 1), got {holdout_fraction}")
    if not 0 <= background_density <= 1 or not 0 < within_density <= 1:
        raise DataError("densities must be probabilities")
    if not overlap and (
        n_coclusters * users_per_cocluster > n_users
        or n_coclusters * items_per_cocluster > n_items
    ):
        raise DataError("disjoint co-clusters of the requested size do not fit in the matrix")

    rng = ensure_rng(random_state)
    dense = (rng.random((n_users, n_items)) < background_density).astype(float)

    user_memberships: List[np.ndarray] = []
    item_memberships: List[np.ndarray] = []
    within_keys: List[np.ndarray] = []  # user * n_items + item, per block
    for cluster in range(n_coclusters):
        if overlap:
            users = np.sort(rng.choice(n_users, size=users_per_cocluster, replace=False))
            items = np.sort(rng.choice(n_items, size=items_per_cocluster, replace=False))
        else:
            users = cluster * users_per_cocluster + np.arange(users_per_cocluster)
            items = cluster * items_per_cocluster + np.arange(items_per_cocluster)
        user_memberships.append(users)
        item_memberships.append(items)
        block_users, block_items = np.nonzero(
            rng.random((len(users), len(items))) < within_density
        )
        dense[users[block_users], items[block_items]] = 1.0
        within_keys.append(users[block_users] * n_items + items[block_items])

    heldout_pairs: List[Tuple[int, int]] = []
    # Sorted unique keys order the planted pairs by (user, item).
    unique_keys = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *within_keys]))
    n_holdout = int(round(holdout_fraction * len(unique_keys)))
    if n_holdout > 0:
        held = unique_keys[rng.choice(len(unique_keys), size=n_holdout, replace=False)]
        dense[held // n_items, held % n_items] = 0.0
        heldout_pairs = list(zip((held // n_items).tolist(), (held % n_items).tolist()))

    return PlantedCoClusters(
        matrix=InteractionMatrix.from_dense(dense),
        user_memberships=user_memberships,
        item_memberships=item_memberships,
        heldout_pairs=heldout_pairs,
    )


def membership_recovery_score(
    truth: Sequence[np.ndarray], estimate: Sequence[np.ndarray], universe: int
) -> float:
    """Best-matching mean Jaccard similarity between two co-cluster covers.

    For every ground-truth set the best Jaccard similarity against any
    estimated set is found (greedy, allowing re-use); the mean over
    ground-truth sets is returned.  Used by the tests to check that OCuLaR
    recovers planted structure and that the Figure 2 baselines do not.

    Parameters
    ----------
    truth, estimate:
        Sequences of index arrays (subsets of ``range(universe)``).
    universe:
        Size of the index universe; only used for validation.
    """
    if not truth:
        raise DataError("truth must contain at least one set")
    truth_sets = [set(int(x) for x in arr) for arr in truth]
    estimate_sets = [set(int(x) for x in arr) for arr in estimate]
    for collection in (truth_sets, estimate_sets):
        for members in collection:
            if members and (min(members) < 0 or max(members) >= universe):
                raise DataError("membership index outside the declared universe")
    scores = []
    for true_set in truth_sets:
        best = 0.0
        for est_set in estimate_sets:
            union = len(true_set | est_set)
            if union == 0:
                continue
            best = max(best, len(true_set & est_set) / union)
        scores.append(best)
    return float(np.mean(scores))
