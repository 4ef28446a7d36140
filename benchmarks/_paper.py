"""What several paper benches share: the Table I model zoo, its per-dataset
hyper-parameters, the paper's Table I values, the hold-out protocol and the
toy-example fit.

The paper grid-searches each method's hyper-parameters and reports the best
configuration; at reproduction scale a fixed, reasonable configuration per
method keeps the comparison honest (every method gets defaults of comparable
care) and the runtime bounded.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.base import Recommender
from repro.baselines import (
    BPRRecommender,
    ItemKNNRecommender,
    UserKNNRecommender,
    WeightedALSRecommender,
)
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.data.datasets import dataset_by_name
from repro.data.splitting import Split, train_test_split
from repro.data.synthetic import PlantedCoClusters
from repro.utils.rng import spawn_seeds

#: Canonical method names, in the column order of the paper's Table I.
MODEL_NAMES: Sequence[str] = (
    "OCuLaR",
    "R-OCuLaR",
    "wALS",
    "BPR",
    "user-based",
    "item-based",
)

#: Per-dataset (K, lambda) for the OCuLaR variants.  The paper selects them
#: per dataset by grid search; these values come from the same kind of
#: search run on the synthetic stand-in corpora at benchmark scale (see
#: bench_fig9_grid_search.py).
DATASET_ZOO_DEFAULTS: Dict[str, dict] = {
    "movielens": {"n_coclusters": 20, "regularization": 15.0},
    "citeulike": {"n_coclusters": 25, "regularization": 10.0},
    "b2b": {"n_coclusters": 12, "regularization": 5.0},
}

#: Table I of the paper: MAP@50 and recall@50 per dataset and algorithm.
TABLE1_PAPER: Dict[str, Dict[str, Dict[str, float]]] = {
    "movielens": {
        "MAP@50": {
            "OCuLaR": 0.1809,
            "R-OCuLaR": 0.1805,
            "wALS": 0.1513,
            "BPR": 0.1434,
            "user-based": 0.1639,
            "item-based": 0.1329,
        },
        "recall@50": {
            "OCuLaR": 0.4021,
            "R-OCuLaR": 0.4086,
            "wALS": 0.3982,
            "BPR": 0.3587,
            "user-based": 0.3757,
            "item-based": 0.3238,
        },
    },
    "citeulike": {
        "MAP@50": {
            "OCuLaR": 0.0906,
            "R-OCuLaR": 0.0916,
            "wALS": 0.1003,
            "BPR": 0.0157,
            "user-based": 0.0882,
            "item-based": 0.1287,
        },
        "recall@50": {
            "OCuLaR": 0.3042,
            "R-OCuLaR": 0.3177,
            "wALS": 0.3331,
            "BPR": 0.0801,
            "user-based": 0.2699,
            "item-based": 0.2921,
        },
    },
    "b2b": {
        "MAP@50": {
            "OCuLaR": 0.1801,
            "R-OCuLaR": 0.1651,
            "wALS": 0.1749,
            "BPR": 0.1325,
            "user-based": 0.1797,
            "item-based": 0.1568,
        },
        "recall@50": {
            "OCuLaR": 0.5240,
            "R-OCuLaR": 0.4780,
            "wALS": 0.5283,
            "BPR": 0.4407,
            "user-based": 0.4995,
            "item-based": 0.4840,
        },
    },
}


def build_model_zoo(
    n_coclusters: int, regularization: float, random_state: int = 0
) -> Dict[str, Callable[[], Recommender]]:
    """Factories for the Table I algorithms, keyed by their paper names.

    ``n_coclusters`` and ``regularization`` configure both OCuLaR variants;
    the baselines keep one fixed configuration each.
    """
    return {
        "OCuLaR": lambda: OCuLaR(
            n_coclusters=n_coclusters,
            regularization=regularization,
            max_iterations=100,
            random_state=random_state,
        ),
        "R-OCuLaR": lambda: ROCuLaR(
            n_coclusters=n_coclusters,
            regularization=regularization,
            max_iterations=100,
            random_state=random_state,
        ),
        "wALS": lambda: WeightedALSRecommender(
            n_factors=32,
            unknown_weight=0.01,
            regularization=0.01,
            n_iterations=12,
            random_state=random_state,
        ),
        "BPR": lambda: BPRRecommender(
            n_factors=32,
            learning_rate=0.05,
            regularization=0.002,
            n_epochs=25,
            random_state=random_state,
        ),
        "user-based": lambda: UserKNNRecommender(n_neighbors=50),
        "item-based": lambda: ItemKNNRecommender(n_neighbors=50),
    }


def subsample_users(split: Split, max_users: int, seed: int) -> List[int]:
    """A reproducible sample of at most ``max_users`` test users, sorted."""
    users = sorted(split.test_items.keys())
    if len(users) <= max_users:
        return users
    rng = np.random.default_rng(seed)
    return sorted(int(user) for user in rng.choice(users, size=max_users, replace=False))


def holdout(
    dataset: str, scale: float, max_users: int, random_state: int = 0
) -> Tuple[Split, List[int]]:
    """One 75/25 split of a named stand-in corpus and the test users evaluated."""
    matrix, _spec = dataset_by_name(dataset, random_state=random_state, scale=scale)
    split = train_test_split(matrix, test_fraction=0.25, random_state=random_state)
    return split, subsample_users(split, max_users, spawn_seeds(random_state, 1)[0])


def fit_toy_model(toy: PlantedCoClusters) -> OCuLaR:
    """OCuLaR with K = 3 on the paper's toy matrix, best of five seeds.

    The likelihood is non-convex and the toy problem is tiny, so the fit is
    repeated from seeds 0-4 and the lowest final objective is kept (the
    usual practice for K this small).
    """
    fits = [
        OCuLaR(
            n_coclusters=3, regularization=0.05, max_iterations=500, random_state=seed
        ).fit(toy.matrix)
        for seed in range(5)
    ]
    return min(fits, key=lambda model: model.history_.final_objective)


def top1_recovered(model: Recommender, toy: PlantedCoClusters) -> int:
    """How many held-out toy pairs are their user's top-1 recommendation."""
    recovered = 0
    for user, item in toy.heldout_pairs:
        top = model.recommend(user, n_items=1, exclude_seen=True)
        recovered += int(len(top) > 0 and int(top[0]) == item)
    return recovered
