"""Synthetic stand-ins for the paper's evaluation corpora.

The paper evaluates on four datasets: MovieLens-1M, CiteULike, the
proprietary B2B-DB and Netflix (Section VII-A).  This environment has no
network access and the B2B data is proprietary, so this module provides
generators that produce interaction matrices with the same *structural*
characteristics at laptop scale:

* a heavy-tailed item popularity distribution (Zipf-like),
* a heavy-tailed user activity distribution (log-normal),
* latent overlapping interest groups that link users and items — the
  structure both OCuLaR and the matrix-factorisation baselines exploit.

Every generator is deterministic given ``random_state`` and returns an
:class:`~repro.data.interactions.InteractionMatrix` (plus labels and deal
values for the B2B corpus, which feed the Figure 10 deployment rationale).
Real MovieLens/Netflix ratings files can still be used via
:mod:`repro.data.loaders`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.data.splitting import Split, train_test_split
from repro.exceptions import DataError
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class DatasetSpec:
    """Structural description of a generated corpus.

    Attributes
    ----------
    name:
        Human-readable corpus name (e.g. ``"movielens-like"``).
    n_users, n_items:
        Matrix dimensions.
    n_groups:
        Number of latent overlapping interest groups planted in the corpus.
    target_density:
        Approximate fraction of positive entries the generator aims for.
    paper_reference:
        The real dataset this corpus stands in for, with its original size,
        so reports can state the substitution explicitly.
    """

    name: str
    n_users: int
    n_items: int
    n_groups: int
    target_density: float
    paper_reference: str


#: Paper-scale references, used in generated reports.
PAPER_DATASETS: Dict[str, str] = {
    "movielens": "MovieLens 1M: 6,040 users x 3,706 movies, ~1M ratings",
    "citeulike": "CiteULike: 5,551 users x 16,980 articles",
    "netflix": "Netflix: 480,189 users x 17,770 movies, ~100M ratings",
    "b2b": "B2B-DB: 80,000 clients x 3,000 products (proprietary)",
}


def _ensure_min_degree(dense: np.ndarray, min_degree: int, rng: np.random.Generator) -> None:
    """Add random positives so every user and item has at least ``min_degree``.

    Evaluation with recall@M requires held-out positives per user, and the
    neighbourhood baselines require non-empty item columns; a couple of
    random interactions for pathological rows keeps every method runnable
    without materially changing the corpus statistics.
    """
    # Users first, then items: ``dense.T`` is a view, so its rows write
    # through to the item columns.
    for rows in (dense, dense.T):
        for row in rows:
            missing = min_degree - int(row.sum())
            if missing > 0:
                zeros = np.flatnonzero(row == 0)
                row[rng.choice(zeros, size=min(missing, len(zeros)), replace=False)] = 1.0


@dataclass(frozen=True)
class _StandIn:
    """The constants that make the latent-group model one stand-in corpus."""

    name: str
    reference: str
    user_affinity: float
    item_affinity: float
    within_rate: float
    background_rate: float
    popularity_exponent: float
    min_degree: int
    labels: Optional[Tuple[str, str]] = None  # user / item label formats


_MOVIELENS = _StandIn(
    "movielens-like", "movielens", 0.12, 0.10, 0.25, 0.02, 0.9, 4, ("Viewer {:04d}", "Movie {:04d}")
)
_CITEULIKE = _StandIn(
    "citeulike-like", "citeulike", 0.08, 0.05, 0.30, 0.004, 1.1, 3,
    ("Researcher {:04d}", "Article {:05d}"),
)
_NETFLIX = _StandIn("netflix-like", "netflix", 0.10, 0.10, 0.20, 0.015, 1.0, 3)


def _make_stand_in(
    corpus: _StandIn, n_users: int, n_items: int, n_groups: int, random_state: RandomStateLike
) -> Tuple[InteractionMatrix, DatasetSpec]:
    """Sample ``corpus`` from the overlapping latent-group model.

    Users and items are independently assigned to each group with
    probabilities ``user_affinity`` / ``item_affinity`` (so memberships
    overlap).  A pair sharing at least one group is positive with probability
    ``1 - (1 - within_rate)^(#shared groups)``; all pairs additionally receive
    background positives modulated by a Zipf-like item popularity weight.
    Every row and column then gets at least ``min_degree`` positives.
    """
    check_positive_int(n_users, "n_users")
    check_positive_int(n_items, "n_items")
    rng = ensure_rng(random_state)
    user_groups = rng.random((n_users, n_groups)) < corpus.user_affinity
    item_groups = rng.random((n_items, n_groups)) < corpus.item_affinity
    # Ensure nobody is left without any group (otherwise they are pure noise).
    for membership in (user_groups, item_groups):
        lonely = ~membership.any(axis=1)
        if lonely.any():
            membership[lonely, rng.integers(0, n_groups, size=int(lonely.sum()))] = True

    shared = user_groups.astype(np.int64) @ item_groups.T.astype(np.int64)
    prob_group = 1.0 - np.power(1.0 - corpus.within_rate, shared)

    popularity = 1.0 / np.power(np.arange(1, n_items + 1), corpus.popularity_exponent)
    popularity = popularity / popularity.max()
    rng.shuffle(popularity)
    prob_background = corpus.background_rate * popularity[np.newaxis, :]

    activity = rng.lognormal(mean=0.0, sigma=0.6, size=n_users)
    activity = activity / activity.mean()
    prob = 1.0 - (1.0 - prob_group) * (1.0 - prob_background)
    prob = np.clip(prob * activity[:, np.newaxis], 0.0, 1.0)
    dense = (rng.random((n_users, n_items)) < prob).astype(float)
    _ensure_min_degree(dense, min_degree=corpus.min_degree, rng=rng)

    spec = DatasetSpec(
        corpus.name, n_users, n_items, n_groups, float(dense.mean()),
        PAPER_DATASETS[corpus.reference],
    )
    if corpus.labels is None:
        return InteractionMatrix.from_dense(dense), spec
    user_label, item_label = corpus.labels
    return InteractionMatrix.from_dense(
        dense,
        user_labels=[user_label.format(index) for index in range(n_users)],
        item_labels=[item_label.format(index) for index in range(n_items)],
    ), spec


def make_movielens_like(
    n_users: int = 600,
    n_items: int = 400,
    n_groups: int = 18,
    random_state: RandomStateLike = 0,
) -> Tuple[InteractionMatrix, DatasetSpec]:
    """MovieLens-1M stand-in: dense-ish matrix of movie watchers.

    MovieLens after the paper's ">= 3 stars" binarisation has density around
    3-4%; the generator targets the same regime with genre-like overlapping
    groups (a user who likes sci-fi and comedy belongs to two groups).
    """
    return _make_stand_in(_MOVIELENS, n_users, n_items, n_groups, random_state)


def make_citeulike_like(
    n_users: int = 400,
    n_items: int = 900,
    n_groups: int = 25,
    random_state: RandomStateLike = 0,
) -> Tuple[InteractionMatrix, DatasetSpec]:
    """CiteULike stand-in: many more items than users, very sparse.

    CiteULike has roughly three times as many articles as users and a much
    lower density than MovieLens; research-topic groups are narrower, so
    group affinities are smaller and within-group rates higher.
    """
    return _make_stand_in(_CITEULIKE, n_users, n_items, n_groups, random_state)


def make_netflix_like(
    n_users: int = 2000,
    n_items: int = 600,
    n_groups: int = 30,
    random_state: RandomStateLike = 0,
) -> Tuple[InteractionMatrix, DatasetSpec]:
    """Netflix stand-in used by the scalability experiments (Figures 7 and 8).

    The absolute size is scaled down for laptop execution, but the matrix is
    the largest produced by this module so that per-iteration timing sweeps
    have enough work to show the linear trend.
    """
    return _make_stand_in(_NETFLIX, n_users, n_items, n_groups, random_state)


# --------------------------------------------------------------------------- #
# B2B corpus with names, industries and deal values (Figure 10)
# --------------------------------------------------------------------------- #

_INDUSTRIES: Sequence[str] = (
    "Airline",
    "Telco",
    "Bank",
    "Retailer",
    "Insurer",
    "Utility",
    "Logistics",
    "Manufacturer",
    "Hospital",
    "University",
)

_PRODUCT_FAMILIES: Sequence[str] = (
    "Custom Cloud",
    "Managed Storage",
    "Analytics Suite",
    "Security Monitoring",
    "Mainframe Support",
    "Middleware License",
    "Data Warehouse",
    "Consulting Hours",
    "Backup Service",
    "Network Fabric",
    "AI Platform",
    "ERP Integration",
)


@dataclass
class B2BDataset:
    """Synthetic business-to-business purchase corpus.

    Mirrors the paper's B2B-DB: clients are companies with an industry, the
    products are enterprise offerings with historical deal values.  Extra
    metadata beyond the interaction matrix exists only to drive the
    deployment-style rationale of Figure 10 (industry evidence and price
    estimates).
    """

    matrix: InteractionMatrix
    client_names: List[str]
    client_industries: List[str]
    product_names: List[str]
    deal_values: Dict[Tuple[int, int], float] = field(default_factory=dict)
    spec: Optional[DatasetSpec] = None


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
    _ensure_min_degree(dense, min_degree=2, rng=rng)

    client_names = [
        f"{industries[int(client_segment[index])]} Corp {index:03d}" for index in range(n_clients)
    ]
    client_industries = [industries[int(client_segment[index])] for index in range(n_clients)]

    deal_values: Dict[Tuple[int, int], float] = {}
    for client, product in zip(*np.nonzero(dense)):
        deal_values[(int(client), int(product))] = float(
            base_price[product] * rng.lognormal(mean=0.0, sigma=0.25)
        )

    matrix = InteractionMatrix.from_dense(
        dense, user_labels=client_names, item_labels=product_names
    )
    spec = DatasetSpec(
        name="b2b-like",
        n_users=n_clients,
        n_items=n_products,
        n_groups=n_segments,
        target_density=float(dense.mean()),
        paper_reference=PAPER_DATASETS["b2b"],
    )
    return B2BDataset(
        matrix=matrix,
        client_names=client_names,
        client_industries=client_industries,
        product_names=product_names,
        deal_values=deal_values,
        spec=spec,
    )


def dataset_by_name(name: str, random_state: RandomStateLike = 0, scale: float = 1.0):
    """Construct one of the named corpora, optionally scaled in size.

    ``name`` must be one of ``"movielens"``, ``"citeulike"``, ``"netflix"``
    or ``"b2b"``.  ``scale`` multiplies the default user/item counts.
    """
    if scale <= 0:
        raise DataError(f"scale must be positive, got {scale}")

    def scaled(value: int) -> int:
        return max(10, int(round(value * scale)))

    stand_ins = {
        "movielens": (make_movielens_like, 600, 400),
        "citeulike": (make_citeulike_like, 400, 900),
        "netflix": (make_netflix_like, 2000, 600),
    }
    if name in stand_ins:
        make, n_users, n_items = stand_ins[name]
        return make(n_users=scaled(n_users), n_items=scaled(n_items), random_state=random_state)
    if name == "b2b":
        dataset = make_b2b(
            n_clients=scaled(400), n_products=scaled(60), random_state=random_state
        )
        return dataset.matrix, dataset.spec
    raise DataError(f"unknown dataset name {name!r}; expected movielens/citeulike/netflix/b2b")


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
    are for.  Smaller corpora work but are noisier: with fewer positives per
    factor the non-convex landscape has many recall-inequivalent basins, and
    which one a refit lands in becomes seed luck.

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

    grown, _spec = make_netflix_like(n_users=n_users, n_items=n_items, random_state=rng)
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
