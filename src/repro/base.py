"""Common estimator interface shared by OCuLaR and every baseline.

All recommenders in this package follow the same small contract:

* :meth:`Recommender.fit` consumes an
  :class:`~repro.data.interactions.InteractionMatrix` of one-class training
  data and returns ``self``;
* :meth:`Recommender.score_user` returns a relevance score for every item for
  one user (higher means more likely to be a positive);
* :meth:`Recommender.recommend` turns those scores into a ranked top-M list,
  by default excluding items the user already interacted with in training —
  exactly the paper's "find the positives among the unknowns" task.

The evaluation harness (recall@M, MAP@M, the Table I / Figure 5 benchmarks)
only talks to this interface, so OCuLaR and the baselines are strictly
interchangeable.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.exceptions import NotFittedError


class Recommender(abc.ABC):
    """Abstract base class for one-class recommenders."""

    _train_matrix: Optional[InteractionMatrix] = None

    @abc.abstractmethod
    def fit(self, matrix: InteractionMatrix) -> "Recommender":
        """Fit the model to a one-class interaction matrix and return ``self``."""

    @abc.abstractmethod
    def score_user(self, user: int) -> np.ndarray:
        """Return a relevance score for every item for ``user``.

        The returned array has shape ``(n_items,)``.  Scores are only used
        for ranking, so they need not be probabilities.
        """

    # ------------------------------------------------------------------ #
    # Shared behaviour
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed successfully."""
        return self._train_matrix is not None

    @property
    def train_matrix(self) -> InteractionMatrix:
        """The training matrix seen by :meth:`fit`."""
        self._require_fitted()
        assert self._train_matrix is not None
        return self._train_matrix

    def score_users(self, users: Iterable[int]) -> np.ndarray:
        """Score several users at once; shape ``(len(users), n_items)``.

        Subclasses with a vectorised scoring path may override this for
        speed; the default simply stacks :meth:`score_user`.
        """
        self._require_fitted()
        user_list = list(users)
        if not user_list:
            return np.zeros((0, self.train_matrix.n_items))
        return np.vstack([self.score_user(user) for user in user_list])

    def recommend(
        self,
        user: int,
        n_items: int = 10,
        exclude_seen: bool = True,
    ) -> np.ndarray:
        """Return the indices of the top ``n_items`` recommendations for ``user``.

        Parameters
        ----------
        user:
            User index.
        n_items:
            Length of the recommendation list (the paper's ``M``).
        exclude_seen:
            When ``True`` (default), items with ``r_ui = 1`` in the training
            matrix are never recommended, matching the paper's protocol of
            ranking only the unknown examples.
        """
        self._require_fitted()
        scores = np.asarray(self.score_user(user), dtype=float).copy()
        if scores.shape != (self.train_matrix.n_items,):
            raise ValueError(
                f"score_user must return shape ({self.train_matrix.n_items},), "
                f"got {scores.shape}"
            )
        if exclude_seen:
            seen = self.train_matrix.items_of_user(user)
            scores[seen] = -np.inf
        n_items = min(n_items, len(scores))
        top = np.argpartition(-scores, n_items - 1)[:n_items]
        ranked = top[np.argsort(-scores[top], kind="stable")]
        # Never pad the list with excluded (seen) items: if the user has fewer
        # unknown items than requested, return a shorter list instead.
        return ranked[np.isfinite(scores[ranked])]

    # ------------------------------------------------------------------ #
    # Internal helpers for subclasses
    # ------------------------------------------------------------------ #
    def _set_train_matrix(self, matrix: InteractionMatrix) -> None:
        """Record the training matrix; subclasses call this at the end of fit()."""
        self._train_matrix = matrix

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before it can make predictions"
            )
