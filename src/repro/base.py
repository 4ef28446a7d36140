"""Common estimator interface shared by OCuLaR and every baseline.

All recommenders in this package follow the same small contract.  A model
implements two methods:

* :meth:`Recommender.fit` consumes an
  :class:`~repro.data.interactions.InteractionMatrix` of one-class training
  data, records it with :meth:`Recommender._set_train_matrix` and returns
  ``self``;
* :meth:`Recommender._score_user` returns a relevance score for every item
  for one known user (higher means more likely to be a positive), and may
  assume the id it gets is valid.  A model with a batched kernel may also
  implement :meth:`Recommender._score_users`.

The base class owns the readers every caller uses, and checks ids for the
model: :meth:`~Recommender.score_user`, :meth:`~Recommender.score_users` and
:meth:`~Recommender.recommend` raise
:class:`~repro.exceptions.NotFittedError` before :meth:`fit`, and a
:class:`~repro.exceptions.DataError` for an id that names no training user
(a fraction, NaN, a negative or out-of-range index).  :meth:`recommend`
turns the scores into a ranked top-M list, by default excluding items the
user already interacted with in training — exactly the paper's "find the
positives among the unknowns" task.

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
from repro.utils.validation import check_positive_int


class Recommender(abc.ABC):
    """Abstract base class for one-class recommenders."""

    _train_matrix: Optional[InteractionMatrix] = None

    @abc.abstractmethod
    def fit(self, matrix: InteractionMatrix) -> "Recommender":
        """Fit the model to a one-class interaction matrix and return ``self``."""

    @abc.abstractmethod
    def _score_user(self, user: int) -> np.ndarray:
        """Relevance scores of every item for a known ``user`` (an int).

        The returned array has shape ``(n_items,)``.  Scores are only used
        for ranking, so they need not be probabilities.
        """

    def _score_users(self, users: np.ndarray) -> np.ndarray:
        """Scores of known ``users`` (a non-empty int64 array), one row each.

        Models with a batched kernel override this; the default stacks
        :meth:`_score_user`.
        """
        return np.vstack([self._score_user(user) for user in users.tolist()])

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

    def score_user(self, user: int) -> np.ndarray:
        """A relevance score for every item for ``user``, shape ``(n_items,)``."""
        return self._score_user(self.train_matrix._check_user(user))

    def score_users(self, users: Iterable[int]) -> np.ndarray:
        """Score several users at once; shape ``(len(users), n_items)``."""
        user_array = self.train_matrix._check_users(users)
        if user_array.size == 0:
            return np.zeros((0, self.train_matrix.n_items))
        return self._score_users(user_array)

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
            Length of the recommendation list (the paper's ``M``), a positive
            int; anything else is a
            :class:`~repro.exceptions.ConfigurationError`.
        exclude_seen:
            When ``True`` (default), items with ``r_ui = 1`` in the training
            matrix are never recommended, matching the paper's protocol of
            ranking only the unknown examples.
        """
        n_items = check_positive_int(n_items, "n_items")
        user = self.train_matrix._check_user(user)
        scores = np.asarray(self._score_user(user), dtype=float).copy()
        if scores.shape != (self.train_matrix.n_items,):
            raise ValueError(
                f"_score_user must return shape ({self.train_matrix.n_items},), "
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
