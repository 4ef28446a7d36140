"""Popularity ranking: the sanity-floor baseline.

Not part of the paper's Table I, but the standard floor every personalised
recommender must beat; the test-suite uses it to check that OCuLaR and the
other baselines actually personalise, and the deployment example uses it to
illustrate catalogue-coverage differences.
"""

from __future__ import annotations

import numpy as np

from repro.base import Recommender
from repro.data.interactions import InteractionMatrix


class PopularityRecommender(Recommender):
    """Rank items by their global number of positive examples."""

    def __init__(self) -> None:
        self._item_popularity: np.ndarray | None = None

    def fit(self, matrix: InteractionMatrix) -> "PopularityRecommender":
        """Count positives per item; that count is every user's score vector."""
        self._item_popularity = matrix.item_degrees().astype(float)
        self._set_train_matrix(matrix)
        return self

    def _score_user(self, user: int) -> np.ndarray:
        """The (user-independent) popularity scores."""
        return self._item_popularity.copy()
