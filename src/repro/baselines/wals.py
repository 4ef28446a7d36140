"""Weighted Alternating Least Squares (wALS) for one-class CF.

The strongest non-interpretable baseline of Table I, following Pan et al.,
"One-Class Collaborative Filtering" (ICDM 2008): treat unknowns as zeros but
give them a small weight ``b < 1`` in the squared loss,

    ``sum_{u,i} c_ui (r_ui - <f_u, f_i>)^2 + lambda (||F_u||^2 + ||F_i||^2)``

with ``c_ui = 1`` for positives and ``c_ui = b`` for unknowns, and minimise
by alternating ridge regressions.  Each user's normal equations are solved
with the standard implicit-feedback trick: the Gram matrix over *all* items
is precomputed once per sweep and corrected per user only over that user's
positives, so a sweep costs ``O(nnz * K^2 + n * K^3)``.

The paper uses ``b = 0.01`` and ``lambda = 0.01`` and grid-searches the
latent dimension; those are the defaults here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.base import Recommender
from repro.data.interactions import InteractionMatrix
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.validation import (
    check_non_negative_float,
    check_positive_int,
    check_probability,
)


def _weighted_als_sweep(
    matrix: sp.csr_matrix,
    fixed_factors: np.ndarray,
    unknown_weight: float,
    regularization: float,
) -> np.ndarray:
    """Solve the ridge problems for every row entity given the other side.

    ``matrix`` has shape ``(n_rows, n_cols)`` with rows being the entities to
    update and columns the fixed side.  For row ``r`` with positive set
    ``P_r`` the solution is

        ``(b * G + (1 - b) * F_P^T F_P + lambda I)^{-1} F_P^T 1``

    where ``G = F^T F`` is the Gram matrix of the fixed factors.
    """
    n_rows = matrix.shape[0]
    n_factors = fixed_factors.shape[1]
    gram = fixed_factors.T @ fixed_factors
    base = unknown_weight * gram + regularization * np.eye(n_factors)
    updated = np.zeros((n_rows, n_factors))
    for row in range(n_rows):
        start, stop = matrix.indptr[row], matrix.indptr[row + 1]
        positives = matrix.indices[start:stop]
        if len(positives) == 0:
            continue
        factors_positive = fixed_factors[positives]
        lhs = base + (1.0 - unknown_weight) * (factors_positive.T @ factors_positive)
        rhs = factors_positive.sum(axis=0)
        updated[row] = np.linalg.solve(lhs, rhs)
    return updated


class WeightedALSRecommender(Recommender):
    """One-class weighted matrix factorisation fitted by alternating least squares.

    Parameters
    ----------
    n_factors:
        Dimension of the latent vectors (grid-searched in the paper).
    unknown_weight:
        Weight ``b`` given to unknown (zero) entries in the squared loss.
    regularization:
        L2 penalty ``lambda`` on both factor matrices.
    n_iterations:
        Number of alternating sweeps.
    random_state:
        Seed for the factor initialisation.
    """

    def __init__(
        self,
        n_factors: int = 32,
        unknown_weight: float = 0.01,
        regularization: float = 0.01,
        n_iterations: int = 15,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_factors = check_positive_int(n_factors, "n_factors")
        self.unknown_weight = check_probability(unknown_weight, "unknown_weight")
        self.regularization = check_non_negative_float(regularization, "regularization")
        self.n_iterations = check_positive_int(n_iterations, "n_iterations")
        self.random_state = random_state
        self.user_factors_: Optional[np.ndarray] = None
        self.item_factors_: Optional[np.ndarray] = None
        self.loss_history_: list[float] = []

    def fit(self, matrix: InteractionMatrix) -> "WeightedALSRecommender":
        """Alternate user and item ridge solves for ``n_iterations`` sweeps."""
        rng = ensure_rng(self.random_state)
        csr = matrix.csr()
        csr_t = sp.csr_matrix(csr.T)
        n_users, n_items = csr.shape
        scale = 1.0 / np.sqrt(self.n_factors)
        user_factors = rng.normal(0.0, scale, size=(n_users, self.n_factors))
        item_factors = rng.normal(0.0, scale, size=(n_items, self.n_factors))

        self.loss_history_ = []
        for _ in range(self.n_iterations):
            user_factors = _weighted_als_sweep(
                csr, item_factors, self.unknown_weight, self.regularization
            )
            item_factors = _weighted_als_sweep(
                csr_t, user_factors, self.unknown_weight, self.regularization
            )
            self.loss_history_.append(
                self._loss(csr, user_factors, item_factors)
            )

        self.user_factors_ = user_factors
        self.item_factors_ = item_factors
        self._set_train_matrix(matrix)
        return self

    def _loss(
        self, csr: sp.csr_matrix, user_factors: np.ndarray, item_factors: np.ndarray
    ) -> float:
        """Weighted squared loss plus the L2 penalty (for convergence tests)."""
        coo = csr.tocoo()
        predictions = np.einsum("ij,ij->i", user_factors[coo.row], item_factors[coo.col])
        positive_part = float(np.sum((1.0 - predictions) ** 2))
        # b * ||F_u F_i^T||_F^2 over all pairs, then corrected on positives.
        gram_users = user_factors.T @ user_factors
        gram_items = item_factors.T @ item_factors
        all_pairs_sq = float(np.sum(gram_users * gram_items))
        unknown_part = self.unknown_weight * (all_pairs_sq - float(np.sum(predictions**2)))
        penalty = self.regularization * (
            float(np.sum(user_factors**2)) + float(np.sum(item_factors**2))
        )
        return positive_part + unknown_part + penalty

    def _score_user(self, user: int) -> np.ndarray:
        """Predicted preference ``<f_u, f_i>`` for every item."""
        return self.item_factors_ @ self.user_factors_[user]
