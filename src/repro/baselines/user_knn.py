"""User-based collaborative filtering with cosine similarity.

One of the two *interpretable* baselines of Table I: "item i is recommended
because the similar users u_1, ..., u_k also bought item i" (Section
VII-B.2, following Sarwar et al.).  The score of item ``i`` for user ``u`` is
the similarity-weighted vote of the ``k`` nearest neighbours of ``u`` that
bought ``i``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.base import Recommender
from repro.data.interactions import InteractionMatrix
from repro.utils.validation import check_positive_int


def cosine_similarity_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """Dense cosine similarity between the rows of a sparse binary matrix.

    Rows with no positives get zero similarity to everything (instead of
    NaN), which keeps downstream ranking well-defined.
    """
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    safe_norms = np.where(norms > 0, norms, 1.0)
    normalised = sp.diags(1.0 / safe_norms) @ matrix
    similarity = np.asarray((normalised @ normalised.T).todense())
    empty = norms == 0
    if empty.any():
        similarity[empty, :] = 0.0
        similarity[:, empty] = 0.0
    np.fill_diagonal(similarity, 0.0)
    return similarity


class UserKNNRecommender(Recommender):
    """User-based k-nearest-neighbour recommender (cosine similarity).

    Parameters
    ----------
    n_neighbors:
        Number of most similar users whose purchases are aggregated; the
        paper grid-searches this value.
    """

    def __init__(self, n_neighbors: int = 50) -> None:
        self.n_neighbors = check_positive_int(n_neighbors, "n_neighbors")
        self._similarity: Optional[np.ndarray] = None
        self._neighbor_lists: Optional[List[np.ndarray]] = None

    def fit(self, matrix: InteractionMatrix) -> "UserKNNRecommender":
        """Precompute the user-user similarity matrix and neighbour lists."""
        similarity = cosine_similarity_rows(matrix.csr())
        n_users = matrix.n_users
        k = min(self.n_neighbors, max(n_users - 1, 1))
        neighbor_lists: List[np.ndarray] = []
        for user in range(n_users):
            row = similarity[user]
            if k < n_users:
                top = np.argpartition(-row, k - 1)[:k]
            else:
                top = np.arange(n_users)
            top = top[row[top] > 0]
            neighbor_lists.append(top[np.argsort(-row[top], kind="stable")])
        self._similarity = similarity
        self._neighbor_lists = neighbor_lists
        self._set_train_matrix(matrix)
        return self

    def _score_user(self, user: int) -> np.ndarray:
        """Similarity-weighted votes of the user's nearest neighbours."""
        neighbors = self._neighbor_lists[user]
        if len(neighbors) == 0:
            return np.zeros(self.train_matrix.n_items)
        weights = self._similarity[user, neighbors]
        neighbor_rows = self.train_matrix.csr()[neighbors]
        scores = np.asarray(neighbor_rows.T @ weights).ravel()
        return scores
