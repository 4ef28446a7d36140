"""Item-based collaborative filtering with cosine similarity.

The second interpretable baseline of Table I: "item i is recommended because
user u bought the similar items i_1, ..., i_k" (Section VII-B.2, following
Deshpande & Karypis).  The score of item ``i`` for user ``u`` sums the
similarities between ``i`` and the items ``u`` already bought, restricted to
each item's ``k`` most similar items.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.base import Recommender
from repro.baselines.user_knn import cosine_similarity_rows
from repro.data.interactions import InteractionMatrix
from repro.utils.validation import check_positive_int


class ItemKNNRecommender(Recommender):
    """Item-based k-nearest-neighbour recommender (cosine similarity).

    Parameters
    ----------
    n_neighbors:
        Each item's similarity row is truncated to its ``n_neighbors``
        largest entries before scoring, the standard top-k item-based scheme.
    """

    def __init__(self, n_neighbors: int = 50) -> None:
        self.n_neighbors = check_positive_int(n_neighbors, "n_neighbors")
        self._truncated_similarity: Optional[sp.csr_matrix] = None

    def fit(self, matrix: InteractionMatrix) -> "ItemKNNRecommender":
        """Precompute the truncated item-item similarity matrix."""
        similarity = cosine_similarity_rows(sp.csr_matrix(matrix.csr().T))
        n_items = matrix.n_items
        k = min(self.n_neighbors, max(n_items - 1, 1))
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for item in range(n_items):
            row = similarity[item]
            if k < n_items:
                top = np.argpartition(-row, k - 1)[:k]
            else:
                top = np.arange(n_items)
            top = top[row[top] > 0]
            rows.extend([item] * len(top))
            cols.extend(int(index) for index in top)
            vals.extend(float(value) for value in row[top])
        self._truncated_similarity = sp.csr_matrix(
            (vals, (rows, cols)), shape=(n_items, n_items)
        )
        self._set_train_matrix(matrix)
        return self

    def _score_user(self, user: int) -> np.ndarray:
        """Sum of similarities between each candidate item and the user's items."""
        purchased = self.train_matrix.items_of_user(user)
        if len(purchased) == 0:
            return np.zeros(self.train_matrix.n_items)
        indicator = np.zeros(self.train_matrix.n_items)
        indicator[purchased] = 1.0
        return np.asarray(self._truncated_similarity @ indicator).ravel()
