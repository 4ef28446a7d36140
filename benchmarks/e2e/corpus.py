"""Sparse synthetic corpora for the end-to-end benchmark.

The package's ``make_*_like`` generators build an ``n_users x n_items`` dense
float64 array and loop per user in Python, so they cannot reach the shapes the
benchmark needs.  This generator is CSR-only and vectorised: planted
overlapping co-clusters (users in 1-3 groups, items in 1-2), Zipf item
popularity inside each group, Pareto user activity, a minimum degree, and a
share of off-cluster noise.  The same ``(name, scale, seed)`` always yields
identical ``indptr``/``indices``; the program under test only ever receives
the resulting :class:`~repro.data.interactions.InteractionMatrix`.

The three shapes keep the aspect ratios of the paper's Table I corpora
(MovieLens-1M, B2B-DB) and of the wide catalogues in SNIPPETS.md Snippet 2
(BookCrossing / Delicious), scaled so that one run of a workload, with its
repeated set-up, fits the benchmark's per-run budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from repro.data.interactions import InteractionMatrix

N_GROUPS = 40
ZIPF_EXPONENT = 0.9
PARETO_SHAPE = 1.6
MIN_DEGREE = 3
NOISE_SHARE = 0.12


@dataclass(frozen=True)
class CorpusShape:
    """Target shape of a named corpus (``nnz`` is approximate by ~1%)."""

    n_users: int
    n_items: int
    nnz: int


#: name -> scale -> shape.  "full" is what the benchmark runs; "smoke" is the
#: self-test scale (numbers from it are never compared).
SHAPES: Dict[str, Dict[str, CorpusShape]] = {
    # MovieLens-1M aspect ratio (6040 x 3706, 4.5% dense) at 0.36 of the
    # linear size.  Not smaller: with K=50 the trainer's per-positive float64
    # temporaries are then ~35 MB, above glibc's 32 MiB ceiling for its
    # dynamic mmap threshold as on the real corpus, so the unpinned child that
    # measures ``alloc.*`` faults them in anew on every use as a default
    # deployment would.
    "ml1m": {
        "full": CorpusShape(2200, 1350, 150_000),
        "smoke": CorpusShape(300, 180, 4_000),
    },
    # B2B-DB aspect ratio: many clients, a short catalogue, very sparse.
    "b2b": {
        "full": CorpusShape(8000, 1200, 100_000),
        "smoke": CorpusShape(600, 120, 5_000),
    },
    # BookCrossing/Delicious style: a catalogue 10x wider than the user base.
    "wide": {
        "full": CorpusShape(1500, 16_000, 60_000),
        "smoke": CorpusShape(150, 1500, 2_500),
    },
}


@dataclass(frozen=True)
class Corpus:
    """A generated corpus plus the provenance the report prints."""

    name: str
    seed: int
    matrix: InteractionMatrix
    stats: Dict[str, float]


def _memberships(rng, n: int, max_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group ids per entity as a padded ``(n, max_groups)`` table + counts."""
    counts = rng.integers(1, max_groups + 1, size=n)
    table = rng.integers(0, N_GROUPS, size=(n, max_groups))
    return table, counts


def _sample_group_items(rng, groups: np.ndarray, starts, cdf, members) -> np.ndarray:
    """One popularity-weighted item draw per entry of ``groups``."""
    lo = starts[groups]
    hi = starts[groups + 1]
    base = np.where(lo > 0, cdf[lo - 1], 0.0)
    span = cdf[hi - 1] - base
    targets = base + rng.random(len(groups)) * span
    positions = np.searchsorted(cdf, targets, side="right")
    return members[np.minimum(positions, hi - 1)]


def _draw_pairs(rng, users, user_groups, user_counts, starts, cdf, members, global_cdf):
    """One candidate item per entry of ``users`` (cluster draw or noise)."""
    slot = (rng.random(len(users)) * user_counts[users]).astype(np.int64)
    groups = user_groups[users, slot]
    items = _sample_group_items(rng, groups, starts, cdf, members)
    noise = rng.random(len(users)) < NOISE_SHARE
    n_noise = int(noise.sum())
    if n_noise:
        picks = np.searchsorted(global_cdf, rng.random(n_noise) * global_cdf[-1], side="right")
        items[noise] = np.minimum(picks, len(global_cdf) - 1)
    return items


def generate(name: str, seed: int, scale: str = "full") -> Corpus:
    """Generate the named corpus deterministically from ``seed``."""
    shape = SHAPES[name][scale]
    # The planted structure (who is in which co-cluster, how popular, how
    # active) is a property of the named corpus; the seed draws which
    # interactions are observed.  Runs with different seeds then differ in
    # their inputs but not in how hard those inputs are.
    structure = np.random.default_rng([sorted(SHAPES).index(name), len(scale)])
    rng = np.random.default_rng([seed, sorted(SHAPES).index(name)])
    n_users, n_items = shape.n_users, shape.n_items

    # Item popularity: a Zipf law over a random permutation of the catalogue.
    ranks = structure.permutation(n_items) + 1
    popularity = ranks.astype(np.float64) ** -ZIPF_EXPONENT
    global_cdf = np.cumsum(popularity)

    # Every group owns the items that list it; one concatenated CDF with
    # per-group offsets turns "draw an item of group g" into a searchsorted.
    item_groups, item_counts = _memberships(structure, n_items, 2)
    valid = np.arange(2)[None, :] < item_counts[:, None]
    flat_groups = item_groups[valid]
    flat_items = np.broadcast_to(np.arange(n_items)[:, None], item_groups.shape)[valid]
    # Guarantee no group is empty: item g (mod n_items) also joins group g.
    flat_groups = np.concatenate([flat_groups, np.arange(N_GROUPS)])
    flat_items = np.concatenate([flat_items, np.arange(N_GROUPS) % n_items])
    order = np.argsort(flat_groups, kind="stable")
    members = flat_items[order]
    starts = np.concatenate([[0], np.cumsum(np.bincount(flat_groups, minlength=N_GROUPS))])
    cdf = np.cumsum(popularity[members])

    user_groups, user_counts = _memberships(structure, n_users, 3)

    # Pareto activity, rescaled so the degrees sum to the target nnz; a little
    # oversampling pays for the duplicates the draw produces.
    raw = structure.pareto(PARETO_SHAPE, size=n_users) + 1.0
    cap = max(MIN_DEGREE + 1, n_items // 4)
    factor = shape.nnz / raw.sum()
    for _ in range(8):  # fixed point: clipping changes the sum
        clipped = np.clip(raw * factor, MIN_DEGREE, cap)
        factor *= shape.nnz / clipped.sum()
    degrees = np.round(clipped).astype(np.int64)

    keys = np.empty(0, dtype=np.int64)
    want = degrees.copy()
    for _ in range(6):
        deficit = np.maximum(want, 0)
        if not deficit.any():
            break
        users = np.repeat(np.arange(n_users), deficit)
        items = _draw_pairs(
            rng, users, user_groups, user_counts, starts, cdf, members, global_cdf
        )
        keys = np.unique(np.concatenate([keys, users * n_items + items]))
        have = np.bincount(keys // n_items, minlength=n_users)
        want = degrees - have
    # A user whose co-clusters are smaller than the minimum degree cannot be
    # filled from them: top such users up with uniformly random items.
    while have.min() < MIN_DEGREE:
        users = np.repeat(np.arange(n_users), np.maximum(MIN_DEGREE - have, 0))
        keys = np.unique(np.concatenate([keys, users * n_items + rng.integers(0, n_items, len(users))]))
        have = np.bincount(keys // n_items, minlength=n_users)
    rows = keys // n_items
    cols = keys % n_items
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_users))])
    csr = sp.csr_matrix(
        (np.ones(len(cols), dtype=np.float64), cols.astype(np.int32), indptr.astype(np.int32)),
        shape=(n_users, n_items),
    )
    csr.has_sorted_indices = True
    matrix = InteractionMatrix.from_validated_csr(csr)
    user_deg = np.diff(csr.indptr)
    item_deg = np.bincount(cols, minlength=n_items)
    stats = {
        "n_users": n_users,
        "n_items": n_items,
        "nnz": int(csr.nnz),
        "density": csr.nnz / (n_users * n_items),
        "user_degree_min": int(user_deg.min()),
        "user_degree_p50": float(np.percentile(user_deg, 50)),
        "user_degree_p99": float(np.percentile(user_deg, 99)),
        "user_degree_max": int(user_deg.max()),
        "item_degree_p50": float(np.percentile(item_deg, 50)),
        "item_degree_p99": float(np.percentile(item_deg, 99)),
        "item_degree_max": int(item_deg.max()),
    }
    return Corpus(name=name, seed=seed, matrix=matrix, stats=stats)
