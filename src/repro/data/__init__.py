"""Data substrate: interaction matrices, dataset generators, loaders, splits."""

from repro.data.interactions import InteractionMatrix
from repro.data.synthetic import PlantedCoClusters, make_planted_coclusters, make_paper_toy_example
from repro.data.datasets import (
    make_movielens_like,
    make_citeulike_like,
    make_netflix_like,
    make_b2b,
    B2BDataset,
)
from repro.data.loaders import load_movielens_ratings, load_interactions_csv, binarize_ratings
from repro.data.splitting import train_test_split, leave_k_out_split, kfold_splits

__all__ = [
    "InteractionMatrix",
    "PlantedCoClusters",
    "make_planted_coclusters",
    "make_paper_toy_example",
    "make_movielens_like",
    "make_citeulike_like",
    "make_netflix_like",
    "make_b2b",
    "B2BDataset",
    "load_movielens_ratings",
    "load_interactions_csv",
    "binarize_ratings",
    "train_test_split",
    "leave_k_out_split",
    "kfold_splits",
]
