"""Synthetic stand-ins for the paper's evaluation corpora.

The paper evaluates on MovieLens-1M, CiteULike, the proprietary B2B-DB and
Netflix (Section VII-A).  The generators here reproduce their structure: a
Zipf-like item popularity, a log-normal user activity and overlapping
latent interest groups that link users and items — the structure both
OCuLaR and the matrix-factorisation baselines exploit.

The MovieLens, CiteULike and Netflix stand-ins are presets of one sparse
sampler whose size input is a positive count: each preset fixes a default
shape and positive count, and any other shape keeps that density.
:func:`dataset_by_name` also builds the paper's two public corpora at their
published shapes: ``"movielens-1m"`` (6,040 x 3,706 with the 836,478
ratings of at least 3 stars that the paper binarises) and ``"citeulike-a"``
(5,551 x 16,980, 204,986 pairs).

Every generator is deterministic given ``random_state`` and returns an
:class:`~repro.data.interactions.InteractionMatrix` (the B2B corpus adds
labels and deal values, which feed the Figure 10 deployment rationale).
Real ratings files load through :mod:`repro.data.loaders`.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.data.interactions import InteractionMatrix
from repro.data.splitting import Split, train_test_split
from repro.exceptions import DataError
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability

# The latent-group model every stand-in shares.
_USER_GROUPS = 3  # a user joins 1-3 interest groups
_ITEM_GROUPS = 2  # an item belongs to 1-2 groups
_ACTIVITY_SIGMA = 0.6  # log-normal user activity
_NOISE_SHARE = 0.1  # share of draws taken off-group, by popularity alone
_GROUP_ROUNDS = 8  # rounds of group draws before the pure-popularity rounds
_DRAW_ROUNDS = 16  # rounds of draws before the minimum degree is filled uniformly


@dataclass(frozen=True)
class _StandIn:
    """One stand-in: the shape and positive count that fix its density, and its model."""

    n_users: int
    n_items: int
    nnz: int
    n_groups: int
    popularity_exponent: float
    min_degree: int
    labels: Optional[Tuple[str, str]] = None  # user / item label formats


_MOVIELENS = _StandIn(600, 400, 14_705, 18, 0.9, 4, ("Viewer {:04d}", "Movie {:04d}"))
_CITEULIKE = _StandIn(400, 900, 13_953, 25, 1.1, 3, ("Researcher {:04d}", "Article {:05d}"))
_NETFLIX = _StandIn(2000, 600, 72_731, 30, 1.0, 3)
_NAMED: Dict[str, _StandIn] = {
    "movielens": _MOVIELENS,
    "movielens-1m": replace(_MOVIELENS, n_users=6040, n_items=3706, nnz=836_478),
    "citeulike": _CITEULIKE,
    "citeulike-a": replace(_CITEULIKE, n_users=5551, n_items=16_980, nnz=204_986),
    "netflix": _NETFLIX,
}


@dataclass(frozen=True)
class _Groups:
    """Who belongs to which group, on one side of the matrix.

    ``table[e, :counts[e]]`` lists entity ``e``'s groups and ``members[starts[g]:
    starts[g + 1]]`` group ``g``'s entities; ``cdf`` (per group) and ``global_cdf``
    are running sums of the weights, so a weighted draw is one ``searchsorted``.
    """

    table: np.ndarray
    counts: np.ndarray
    members: np.ndarray
    starts: np.ndarray
    cdf: np.ndarray
    global_cdf: np.ndarray

    @classmethod
    def draw(cls, rng, weights: np.ndarray, n_groups: int, max_groups: int) -> "_Groups":
        n = len(weights)
        counts = rng.integers(1, max_groups + 1, size=n)
        table = rng.integers(0, n_groups, size=(n, max_groups))
        listed = np.arange(max_groups) < counts[:, None]
        own = np.arange(n_groups)  # entity g (mod n) also joins group g: none is empty
        keys = _sorted_unique(np.append(table[listed] * n + listed.nonzero()[0], own * n + own % n))
        members = keys % n
        starts = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n_groups))])
        return cls(table, counts, members, starts, np.cumsum(weights[members]), np.cumsum(weights))

    def sample(self, rng, groups: np.ndarray, noise_share: float) -> np.ndarray:
        """One weighted member of each of ``groups``; ``noise_share`` of them off-group."""
        lo, hi = self.starts[groups], self.starts[groups + 1]
        base = np.where(lo > 0, self.cdf[lo - 1], 0.0)
        points = base + rng.random(len(groups)) * (self.cdf[hi - 1] - base)
        picks = self.members[np.minimum(np.searchsorted(self.cdf, points, side="right"), hi - 1)]
        noise = rng.random(len(groups)) < noise_share
        points = rng.random(int(noise.sum())) * self.global_cdf[-1]
        picks[noise] = np.minimum(
            np.searchsorted(self.global_cdf, points, side="right"), len(self.global_cdf) - 1
        )
        return picks


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` by one sort; NumPy 2's hashing ``np.unique`` is ~20x slower here."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])]


def _fill(rng, keys, want, floor, rows: _Groups, targets: _Groups) -> np.ndarray:
    """Draw positives until row ``r`` holds ``want[r]`` distinct targets.

    ``keys`` are the sorted positives so far as ``row * n_targets + target``.
    A row draws its deficit from its groups (plus off-group noise), later from
    popularity alone; rows still below ``floor`` then get uniform targets.
    """
    n_rows, n_targets = len(want), len(targets.global_cdf)
    have = np.bincount(keys // n_targets, minlength=n_rows)
    for round_ in itertools.count():
        deficit = np.maximum((want if round_ < _DRAW_ROUNDS else floor) - have, 0)
        if not deficit.any():
            return keys
        row_ids = np.repeat(np.arange(n_rows), deficit)
        if round_ < _DRAW_ROUNDS:
            slot = (rng.random(len(row_ids)) * rows.counts[row_ids]).astype(np.int64)
            noise = _NOISE_SHARE if round_ < _GROUP_ROUNDS else 1.0
            picks = targets.sample(rng, rows.table[row_ids, slot], noise)
        else:
            picks = rng.integers(0, n_targets, size=len(row_ids))
        new = _sorted_unique(row_ids * n_targets + picks)
        at = np.searchsorted(keys, new)
        fresh = np.append(keys, -1)[at] != new
        have += np.bincount(new[fresh] // n_targets, minlength=n_rows)
        keys = np.insert(keys, at[fresh], new[fresh])


def _sample_stand_in(
    corpus: _StandIn, n_users: int, n_items: int, n_groups: int, random_state: RandomStateLike
) -> InteractionMatrix:
    """Sample ``corpus`` at ``(n_users, n_items)`` from the latent-group model.

    Users join 1-3 of ``n_groups`` overlapping groups and items 1-2.  Every
    item first draws ``min_degree`` users from its groups, weighted by user
    activity; every user then draws items from its groups by Zipf
    popularity, with a share of off-group noise, until it reaches a
    log-normal activity degree.  The degrees are scaled so the corpus holds
    the preset's density, and every user and item has at least
    ``min_degree`` positives.  Only CSR-sized arrays are ever built.
    """
    n_users = check_positive_int(n_users, "n_users")
    n_items = check_positive_int(n_items, "n_items")
    n_groups = check_positive_int(n_groups, "n_groups")
    rng = ensure_rng(random_state)
    nnz = round(corpus.nnz * n_users * n_items / (corpus.n_users * corpus.n_items))
    user_floor = min(corpus.min_degree, n_items)
    item_floor = min(corpus.min_degree, n_users)

    popularity = (rng.permutation(n_items) + 1.0) ** -corpus.popularity_exponent
    activity = rng.lognormal(mean=0.0, sigma=_ACTIVITY_SIGMA, size=n_users)
    users = _Groups.draw(rng, activity, n_groups, _USER_GROUPS)
    items = _Groups.draw(rng, popularity, n_groups, _ITEM_GROUPS)

    # Item floors first, drawn as item-major keys and turned user-major.
    item_keys = np.empty(0, dtype=np.int64)
    item_keys = _fill(rng, item_keys, np.full(n_items, item_floor), item_floor, items, users)
    keys = np.sort(item_keys % n_users * n_items + item_keys // n_users)
    have = np.bincount(keys // n_items, minlength=n_users)

    # Activity degrees (at most half the catalogue) scaled to sum to nnz, floors included.
    def degrees(factor: float) -> np.ndarray:
        scaled = np.clip(np.round(activity * factor), user_floor, max(user_floor, n_items // 2))
        return np.maximum(scaled.astype(np.int64), have)

    factor = nnz / activity.sum()
    for _ in range(8):  # fixed point: the clip and the floors change the sum
        factor *= nnz / degrees(factor).sum()
    keys = _fill(rng, keys, degrees(factor), user_floor, users, items)

    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n_items, minlength=n_users))])
    csr = sp.csr_matrix((np.ones(len(keys)), keys % n_items, indptr), shape=(n_users, n_items))
    if corpus.labels is None:
        return InteractionMatrix(csr)
    user_label, item_label = corpus.labels
    return InteractionMatrix(
        csr,
        user_labels=[user_label.format(index) for index in range(n_users)],
        item_labels=[item_label.format(index) for index in range(n_items)],
    )


def make_movielens_like(
    n_users: int = 600,
    n_items: int = 400,
    n_groups: int = 18,
    random_state: RandomStateLike = 0,
) -> InteractionMatrix:
    """MovieLens-1M stand-in: 14,705 positives at 600 x 400 (6.1% dense).

    Genre-like overlapping groups (a user who likes sci-fi and comedy
    belongs to two groups); every user and movie has at least 4 positives.
    """
    return _sample_stand_in(_MOVIELENS, n_users, n_items, n_groups, random_state)


def make_citeulike_like(
    n_users: int = 400,
    n_items: int = 900,
    n_groups: int = 25,
    random_state: RandomStateLike = 0,
) -> InteractionMatrix:
    """CiteULike stand-in: 13,953 positives at 400 x 900 (3.9% dense).

    Many more articles than users, sparser than MovieLens, with a steeper
    popularity law; every user and article has at least 3 positives.
    """
    return _sample_stand_in(_CITEULIKE, n_users, n_items, n_groups, random_state)


def make_netflix_like(
    n_users: int = 2000,
    n_items: int = 600,
    n_groups: int = 30,
    random_state: RandomStateLike = 0,
) -> InteractionMatrix:
    """Netflix stand-in for the scalability experiments (Figures 7 and 8).

    72,731 positives at 2,000 x 600 (6.1% dense): the largest default corpus
    here, so per-iteration timing sweeps have enough work to show the
    linear trend.  Every user and movie has at least 3 positives.
    """
    return _sample_stand_in(_NETFLIX, n_users, n_items, n_groups, random_state)


# --------------------------------------------------------------------------- #
# B2B corpus with names, industries and deal values (Figure 10)
# --------------------------------------------------------------------------- #

_INDUSTRIES: Sequence[str] = (
    "Airline", "Telco", "Bank", "Retailer", "Insurer", "Utility", "Logistics",
    "Manufacturer", "Hospital", "University",
)

_PRODUCT_FAMILIES: Sequence[str] = (
    "Custom Cloud", "Managed Storage", "Analytics Suite", "Security Monitoring",
    "Mainframe Support", "Middleware License", "Data Warehouse", "Consulting Hours",
    "Backup Service", "Network Fabric", "AI Platform", "ERP Integration",
)


@dataclass
class B2BDataset:
    """Synthetic business-to-business purchase corpus.

    Mirrors the paper's B2B-DB: clients are companies with an industry, the
    products are enterprise offerings with historical deal values, which
    drive Figure 10's rationale (industry evidence and price estimates).
    """

    matrix: InteractionMatrix
    client_names: List[str]
    client_industries: List[str]
    product_names: List[str]
    deal_values: Dict[Tuple[int, int], float] = field(default_factory=dict)


def make_b2b(
    n_clients: int = 400,
    n_products: int = 60,
    n_segments: int = 8,
    within_rate: float = 0.45,
    background_rate: float = 0.01,
    random_state: RandomStateLike = 0,
) -> B2BDataset:
    """Generate a B2B purchase corpus with named clients and deal values.

    Clients are grouped into industry segments; each segment buys an
    overlapping bundle of products (e.g. airlines and telcos both buy
    "Custom Cloud" but only airlines buy "Logistics Hub").  Deal values are
    log-normally distributed around a per-product base price, providing the
    price-estimate evidence shown in the paper's deployment screenshot.
    """
    check_positive_int(n_clients, "n_clients")
    check_positive_int(n_products, "n_products")
    check_positive_int(n_segments, "n_segments")
    check_probability(within_rate, "within_rate")
    check_probability(background_rate, "background_rate")
    rng = ensure_rng(random_state)

    industries = [str(_INDUSTRIES[index % len(_INDUSTRIES)]) for index in range(n_segments)]
    client_segment = rng.integers(0, n_segments, size=n_clients)
    # Some clients belong to a secondary segment => overlapping co-clusters.
    secondary = rng.integers(0, n_segments, size=n_clients)
    has_secondary = rng.random(n_clients) < 0.35

    product_names = [
        f"{_PRODUCT_FAMILIES[index % len(_PRODUCT_FAMILIES)]} v{index // len(_PRODUCT_FAMILIES) + 1}"
        for index in range(n_products)
    ]
    base_price = rng.lognormal(mean=10.5, sigma=0.8, size=n_products)  # ~tens of k$

    # Each segment is interested in a random subset of products.
    products_per_segment = max(3, n_products // 3)
    segment_products = [
        np.sort(rng.choice(n_products, size=products_per_segment, replace=False))
        for _ in range(n_segments)
    ]

    dense = (rng.random((n_clients, n_products)) < background_rate).astype(float)
    for client in range(n_clients):
        segments = [int(client_segment[client])]
        if has_secondary[client] and int(secondary[client]) not in segments:
            segments.append(int(secondary[client]))
        for segment in segments:
            for product in segment_products[segment]:
                if rng.random() < within_rate:
                    dense[client, product] = 1.0
    # At least two purchases per client, then per product: ``dense.T`` is a
    # view, so its rows write through to the product columns.
    for rows in (dense, dense.T):
        for row in rows:
            missing = 2 - int(row.sum())
            if missing > 0:
                zeros = np.flatnonzero(row == 0)
                row[rng.choice(zeros, size=min(missing, len(zeros)), replace=False)] = 1.0

    client_names = [
        f"{industries[int(client_segment[index])]} Corp {index:03d}" for index in range(n_clients)
    ]
    client_industries = [industries[int(client_segment[index])] for index in range(n_clients)]

    deal_values: Dict[Tuple[int, int], float] = {}
    for client, product in zip(*np.nonzero(dense)):
        deal_values[(int(client), int(product))] = float(
            base_price[product] * rng.lognormal(mean=0.0, sigma=0.25)
        )

    return B2BDataset(
        matrix=InteractionMatrix.from_dense(
            dense, user_labels=client_names, item_labels=product_names
        ),
        client_names=client_names,
        client_industries=client_industries,
        product_names=product_names,
        deal_values=deal_values,
    )


def dataset_by_name(
    name: str, random_state: RandomStateLike = 0, scale: float = 1.0
) -> InteractionMatrix:
    """Construct one of the named corpora, optionally scaled in size.

    ``name`` is one of ``"movielens"``, ``"citeulike"``, ``"netflix"`` and
    ``"b2b"`` (the harness's stand-ins at their default shapes) or
    ``"movielens-1m"`` and ``"citeulike-a"`` (the paper's public corpora at
    their published shapes and positive counts).  ``scale``, a finite
    positive number, multiplies the user and item counts; a stand-in keeps
    its density.
    """
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real) or not 0 < scale < math.inf:
        raise DataError(f"scale must be a finite positive number, got {scale!r}")

    def scaled(value: int) -> int:
        return max(10, int(round(value * scale)))

    if name in _NAMED:
        corpus = _NAMED[name]
        return _sample_stand_in(
            corpus, scaled(corpus.n_users), scaled(corpus.n_items), corpus.n_groups, random_state
        )
    if name == "b2b":
        return make_b2b(
            n_clients=scaled(400), n_products=scaled(60), random_state=random_state
        ).matrix
    raise DataError(f"unknown dataset name {name!r}; expected one of {sorted(_NAMED) + ['b2b']}")


# --------------------------------------------------------------------------- #
# Drifting corpus: a base snapshot plus the delta that arrives after it
# --------------------------------------------------------------------------- #


@dataclass
class DriftingCorpus:
    """A grown corpus rewound into a base snapshot plus one delta.

    Attributes
    ----------
    base:
        The matrix the initial full fit trains on: the early-user/early-item
        block of the grown training matrix, minus the sampled late
        interactions.
    delta_pairs:
        Every training positive that is *not* in ``base`` — late
        interactions inside the base block plus all positives of the new
        users/items — as ``(user, item)`` pairs in grown coordinates.
    n_new_users, n_new_items:
        Rows/columns the delta appends to ``base``.
    split:
        The 75/25 train/test split of the grown corpus.  ``split.train``
        equals ``base.extended_with(delta_pairs, ...)`` exactly (checked at
        build time), so refits on the ingested corpus are evaluated against
        a held-out set that never leaked into training.
    """

    base: InteractionMatrix
    delta_pairs: List[Tuple[int, int]]
    n_new_users: int
    n_new_items: int
    split: Split

    @property
    def drift(self) -> float:
        """Delta positives as a fraction of the base positives."""
        return len(self.delta_pairs) / max(self.base.nnz, 1)


def make_drifting_corpus(
    n_users: int = 2000,
    n_items: int = 600,
    n_base_users: Optional[int] = None,
    late_fraction: float = 0.04,
    random_state: RandomStateLike = 0,
) -> DriftingCorpus:
    """Build a drifting-corpus scenario from one grown Netflix-like corpus.

    The grown corpus is generated and split once, then rewound: the base
    block of early users/items (minus a sampled set of late interactions) is
    what the first full fit sees, and everything else arrives later as a
    delta.  Warm and cold refits therefore train on the *identical* grown
    training matrix and are evaluated against the *identical* held-out set.
    The defaults give a ~10% drift — the moderate-drift regime warm starts
    are for.  Smaller corpora are noisier: with fewer positives per factor,
    which recall-inequivalent basin a refit lands in becomes seed luck.

    Parameters
    ----------
    n_users, n_items:
        Shape of the *grown* corpus (after all deltas arrive).
    n_base_users:
        Users in the base snapshot (default: 96% of them).  The base keeps
        98% of the items — new items are rarer than new users in practice.
    late_fraction:
        Fraction of the base block's training positives sampled as "late"
        (they arrive with the delta, not the base snapshot).
    random_state:
        Seed or generator for the corpus, the split and the late sample.
    """
    if n_base_users is None:
        n_base_users = int(round(0.96 * n_users))
    n_base_items = int(round(0.98 * n_items))
    if not 0 < n_base_users <= n_users or not 0 < n_base_items <= n_items:
        raise DataError(
            f"base shape ({n_base_users}, {n_base_items}) must be within the "
            f"grown shape ({n_users}, {n_items})"
        )
    if not 0 <= late_fraction < 1:
        raise DataError(f"late_fraction must lie in [0, 1), got {late_fraction}")
    rng = ensure_rng(random_state)

    grown = make_netflix_like(n_users=n_users, n_items=n_items, random_state=rng)
    split = train_test_split(grown, test_fraction=0.25, random_state=rng)
    pairs = split.train.pairs()
    in_block = (pairs[:, 0] < n_base_users) & (pairs[:, 1] < n_base_items)
    block_rows = np.flatnonzero(in_block)
    n_late = int(round(late_fraction * len(block_rows)))
    late_mask = np.zeros(len(pairs), dtype=bool)
    if n_late:
        late_mask[rng.choice(block_rows, size=n_late, replace=False)] = True

    base_mask = in_block & ~late_mask
    base = InteractionMatrix.from_pairs(
        pairs[base_mask], n_users=n_base_users, n_items=n_base_items
    )
    delta = pairs[~base_mask]
    corpus = DriftingCorpus(
        base=base,
        delta_pairs=list(map(tuple, delta.tolist())),
        n_new_users=n_users - n_base_users,
        n_new_items=n_items - n_base_items,
        split=split,
    )
    # The rewind is exact by construction; guard it anyway — every
    # warm-vs-cold comparison is meaningless if the ingested corpus and the
    # grown training matrix ever diverge.
    reconstructed = base.extended_with(
        delta,
        n_new_users=corpus.n_new_users,
        n_new_items=corpus.n_new_items,
    )
    if reconstructed != split.train:
        raise DataError("drifting-corpus rewind failed to reproduce the grown train matrix")
    return corpus
