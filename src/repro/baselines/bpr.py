"""Bayesian Personalised Ranking (BPR) matrix factorisation.

The relative-preference baseline of Table I, following Rendle et al. (UAI
2009).  The model scores pairs with ``x_ui = <f_u, f_i> + b_i`` and maximises

    ``sum_{(u,i,j)} log sigmoid(x_ui - x_uj) - lambda ||theta||^2``

over uniformly bootstrap-sampled triples ``(u, i, j)`` with ``r_ui = 1`` and
``r_uj = 0``, by stochastic gradient ascent.  The paper used the
``theano-bpr`` package; this is a dependency-free NumPy implementation of the
same update rule (mini-batched for speed).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.base import Recommender
from repro.data.interactions import InteractionMatrix
from repro.exceptions import DataError
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.validation import (
    check_non_negative_float,
    check_positive_float,
    check_positive_int,
)


def _sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(values)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_values = np.exp(values[~positive])
    out[~positive] = exp_values / (1.0 + exp_values)
    return out


class BPRRecommender(Recommender):
    """Matrix factorisation trained with the BPR pairwise ranking loss.

    Parameters
    ----------
    n_factors:
        Latent dimension (grid-searched in the paper).
    learning_rate:
        SGD step size.
    regularization:
        L2 penalty applied to user factors, item factors and item biases.
    n_epochs:
        Number of passes; each pass samples ``nnz`` triples.
    batch_size:
        Number of triples per vectorised SGD update.
    random_state:
        Seed for initialisation and triple sampling.
    """

    def __init__(
        self,
        n_factors: int = 32,
        learning_rate: float = 0.05,
        regularization: float = 0.002,
        n_epochs: int = 30,
        batch_size: int = 512,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_factors = check_positive_int(n_factors, "n_factors")
        self.learning_rate = check_positive_float(learning_rate, "learning_rate")
        self.regularization = check_non_negative_float(regularization, "regularization")
        self.n_epochs = check_positive_int(n_epochs, "n_epochs")
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.random_state = random_state
        self.user_factors_: Optional[np.ndarray] = None
        self.item_factors_: Optional[np.ndarray] = None
        self.item_biases_: Optional[np.ndarray] = None

    def fit(self, matrix: InteractionMatrix) -> "BPRRecommender":
        """Run bootstrap-sampled SGD over (user, positive, negative) triples."""
        if matrix.nnz == 0:
            raise DataError("BPR requires at least one positive example")
        rng = ensure_rng(self.random_state)
        csr = matrix.csr()
        n_users, n_items = csr.shape
        scale = 1.0 / np.sqrt(self.n_factors)
        user_factors = rng.normal(0.0, scale, size=(n_users, self.n_factors))
        item_factors = rng.normal(0.0, scale, size=(n_items, self.n_factors))
        item_biases = np.zeros(n_items)

        pairs = matrix.pairs()
        positive_sets = [set(matrix.items_of_user(user).tolist()) for user in range(n_users)]
        n_samples_per_epoch = len(pairs)

        for _ in range(self.n_epochs):
            order = rng.permutation(n_samples_per_epoch)
            for batch_start in range(0, n_samples_per_epoch, self.batch_size):
                batch = pairs[order[batch_start : batch_start + self.batch_size]]
                users = batch[:, 0]
                positives = batch[:, 1]
                negatives = self._sample_negatives(users, positive_sets, n_items, rng)

                user_vecs = user_factors[users]
                pos_vecs = item_factors[positives]
                neg_vecs = item_factors[negatives]

                x_uij = (
                    np.einsum("ij,ij->i", user_vecs, pos_vecs - neg_vecs)
                    + item_biases[positives]
                    - item_biases[negatives]
                )
                weight = 1.0 - _sigmoid(x_uij)

                grad_user = weight[:, np.newaxis] * (pos_vecs - neg_vecs) - self.regularization * user_vecs
                grad_pos = weight[:, np.newaxis] * user_vecs - self.regularization * pos_vecs
                grad_neg = -weight[:, np.newaxis] * user_vecs - self.regularization * neg_vecs
                grad_bias_pos = weight - self.regularization * item_biases[positives]
                grad_bias_neg = -weight - self.regularization * item_biases[negatives]

                np.add.at(user_factors, users, self.learning_rate * grad_user)
                np.add.at(item_factors, positives, self.learning_rate * grad_pos)
                np.add.at(item_factors, negatives, self.learning_rate * grad_neg)
                np.add.at(item_biases, positives, self.learning_rate * grad_bias_pos)
                np.add.at(item_biases, negatives, self.learning_rate * grad_bias_neg)

        self.user_factors_ = user_factors
        self.item_factors_ = item_factors
        self.item_biases_ = item_biases
        self._set_train_matrix(matrix)
        return self

    @staticmethod
    def _sample_negatives(
        users: np.ndarray,
        positive_sets: list,
        n_items: int,
        rng: np.random.Generator,
        max_resamples: int = 10,
    ) -> np.ndarray:
        """Sample one unknown item per (user, positive) pair.

        Rejection-samples uniformly over the catalogue; a handful of rounds
        is enough because one-class matrices are sparse.  Users whose history
        covers the whole catalogue keep whatever was drawn last (their
        contribution to the gradient is meaningless but harmless).
        """
        negatives = rng.integers(0, n_items, size=len(users))
        for _ in range(max_resamples):
            collisions = np.array(
                [item in positive_sets[user] for user, item in zip(users, negatives)]
            )
            if not collisions.any():
                break
            negatives[collisions] = rng.integers(0, n_items, size=int(collisions.sum()))
        return negatives

    def _score_user(self, user: int) -> np.ndarray:
        """Predicted preference ``<f_u, f_i> + b_i`` for every item."""
        return self.item_factors_ @ self.user_factors_[user] + self.item_biases_
