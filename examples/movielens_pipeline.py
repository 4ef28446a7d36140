#!/usr/bin/env python
"""MovieLens-style evaluation pipeline (the paper's Table I / Figure 5 workflow).

Builds a MovieLens-like one-class corpus (or loads a real ``ratings.dat`` if a
path is given on the command line), performs the paper's 75/25 split, fits
OCuLaR, R-OCuLaR and the four baselines, and prints recall@M / MAP@M at
several cut-offs.

Run with::

    python examples/movielens_pipeline.py            # synthetic corpus
    python examples/movielens_pipeline.py ratings.dat # real MovieLens file
"""

from __future__ import annotations

import sys
import warnings

from repro.baselines import (
    BPRRecommender,
    ItemKNNRecommender,
    UserKNNRecommender,
    WeightedALSRecommender,
)
from repro.core import OCuLaR, ROCuLaR
from repro.data.datasets import make_movielens_like
from repro.data.loaders import load_movielens_ratings
from repro.data.splitting import train_test_split
from repro.evaluation.evaluator import evaluate_curves
from repro.utils.tables import format_table


def main() -> None:
    warnings.filterwarnings("ignore")

    # ------------------------------------------------------------------ #
    # 1. Data: real MovieLens ratings binarised at >= 3 stars, or the
    #    synthetic stand-in corpus with the same structural properties.
    # ------------------------------------------------------------------ #
    if len(sys.argv) > 1:
        print(f"Loading ratings from {sys.argv[1]} (>= 3 stars treated as positive)...")
        matrix = load_movielens_ratings(sys.argv[1], threshold=3.0)
    else:
        print("No ratings file given; generating the MovieLens-like synthetic corpus.")
        matrix, _spec = make_movielens_like(n_users=500, n_items=300, random_state=0)
    print(f"Corpus: {matrix.n_users} users x {matrix.n_items} items, {matrix.nnz} positives.")

    # ------------------------------------------------------------------ #
    # 2. The paper's protocol: 75/25 per-user split of the positives.
    # ------------------------------------------------------------------ #
    split = train_test_split(matrix, test_fraction=0.25, random_state=0)
    print(f"Split: {split.train.nnz} training positives, {split.n_test_pairs} held out.")
    print()

    # ------------------------------------------------------------------ #
    # 3. Fit the six Table I algorithms and sweep the cut-off M.
    # ------------------------------------------------------------------ #
    ocular = dict(n_coclusters=20, regularization=15.0, random_state=0)
    models = {
        "OCuLaR": OCuLaR(**ocular),
        "R-OCuLaR": ROCuLaR(**ocular),
        "wALS": WeightedALSRecommender(n_iterations=12, random_state=0),
        "BPR": BPRRecommender(n_epochs=25, random_state=0),
        "user-based": UserKNNRecommender(n_neighbors=50),
        "item-based": ItemKNNRecommender(n_neighbors=50),
    }
    m_values = [5, 10, 20, 50]
    evaluation_users = sorted(split.test_items.keys())[:300]

    recall_rows = []
    map_rows = []
    for name, model in models.items():
        print(f"Training {name} ...")
        model.fit(split.train)
        by_m = evaluate_curves(model, split, m_values=m_values, users=evaluation_users)
        recall_rows.append([name] + [by_m[m].recall for m in m_values])
        map_rows.append([name] + [by_m[m].map for m in m_values])

    print()
    header = ["method"] + [f"@{m}" for m in m_values]
    print("recall@M (cf. paper Figure 5, left panel):")
    print(format_table(header, recall_rows))
    print()
    print("MAP@M (cf. paper Figure 5, right panel):")
    print(format_table(header, map_rows))
    print()
    print(
        "Paper shape to look for: OCuLaR and R-OCuLaR at or above every baseline, "
        "item-based and BPR weakest at small M."
    )


if __name__ == "__main__":
    main()
