"""One-class interaction matrix.

The whole paper operates on a binary user-item matrix ``R`` where
``r_ui = 1`` records a positive example (a purchase, a rating >= 3, an
article saved to a collection) and ``r_ui = 0`` is *unknown*, never negative.
:class:`InteractionMatrix` is a thin, validated wrapper around a SciPy CSR
matrix that provides exactly the views the algorithms need:

* per-user positive item lists and per-item positive user lists,
* fast membership tests for (user, item) pairs,
* sub-sampling of positives (for the Figure 7 scaling experiment),
* removal/addition of interaction sets (for train/test splitting).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DataError
from repro.utils.rng import RandomStateLike, ensure_rng


class InteractionMatrix:
    """A binary, one-class user-item interaction matrix.

    Parameters
    ----------
    matrix:
        Anything convertible to a SciPy sparse matrix of shape
        ``(n_users, n_items)``.  Non-zero entries are treated as positive
        examples; their stored values are normalised to ``1.0``.
    user_labels, item_labels:
        Optional human-readable labels (client names, movie titles) used by
        the explanation engine.  Lengths must match the matrix dimensions.

    Notes
    -----
    The matrix is stored in CSR form (fast per-user access) and a CSC copy is
    materialised lazily the first time per-item access is required.
    """

    def __init__(
        self,
        matrix: sp.spmatrix | np.ndarray,
        user_labels: Optional[Sequence[str]] = None,
        item_labels: Optional[Sequence[str]] = None,
    ) -> None:
        # A copy: a float64 CSR would otherwise share the caller's buffers,
        # which the normalisation below rewrites.
        csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        if csr.ndim != 2:
            raise DataError("interaction matrix must be two-dimensional")
        if csr.shape[0] == 0 or csr.shape[1] == 0:
            raise DataError("interaction matrix must have at least one user and one item")
        if csr.nnz and csr.data.min() < 0:
            raise DataError("interaction matrix must not contain negative values")
        # Stored zeros are not positives: drop them before binarising.
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.data[:] = 1.0
        self._csr = csr
        self._csc: Optional[sp.csc_matrix] = None
        self._pair_set: Optional[Set[Tuple[int, int]]] = None

        self.user_labels = self._check_labels(user_labels, csr.shape[0], "user_labels")
        self.item_labels = self._check_labels(item_labels, csr.shape[1], "item_labels")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, int]],
        n_users: Optional[int] = None,
        n_items: Optional[int] = None,
        user_labels: Optional[Sequence[str]] = None,
        item_labels: Optional[Sequence[str]] = None,
    ) -> "InteractionMatrix":
        """Build a matrix from an iterable of ``(user, item)`` index pairs.

        ``n_users``/``n_items`` default to one past the largest index seen;
        providing them explicitly allows users or items with no interactions.
        """
        users: List[int] = []
        items: List[int] = []
        for user, item in pairs:
            if user < 0 or item < 0:
                raise DataError(f"indices must be non-negative, got ({user}, {item})")
            users.append(int(user))
            items.append(int(item))
        if not users and (n_users is None or n_items is None):
            raise DataError("cannot infer matrix shape from an empty pair list")
        shape_users = n_users if n_users is not None else max(users) + 1
        shape_items = n_items if n_items is not None else max(items) + 1
        if users and (max(users) >= shape_users or max(items) >= shape_items):
            raise DataError("an interaction index exceeds the declared matrix shape")
        data = np.ones(len(users), dtype=np.float64)
        csr = sp.csr_matrix((data, (users, items)), shape=(shape_users, shape_items))
        return cls(csr, user_labels=user_labels, item_labels=item_labels)

    @classmethod
    def from_validated_csr(
        cls,
        csr: sp.csr_matrix,
        user_labels: Optional[Sequence[str]] = None,
        item_labels: Optional[Sequence[str]] = None,
    ) -> "InteractionMatrix":
        """Wrap an already-canonical binary CSR **without copying or writing**.

        The normal constructor normalises its input in place (data rewritten
        to 1.0, duplicates summed, zeros eliminated), which both copies the
        arrays and mutates the buffers.  The shared-memory serving path
        cannot afford either: worker processes rebuild the training matrix
        over read-only views of segments published by another process.  This
        trusted constructor therefore skips normalisation entirely — the
        caller guarantees ``csr`` is a canonical CSR whose data is all 1.0
        (e.g. it came out of :meth:`csr` on a validated matrix).
        """
        if not sp.issparse(csr) or csr.format != "csr":
            raise DataError("from_validated_csr requires a scipy CSR matrix")
        instance = cls.__new__(cls)
        instance._csr = csr
        instance._csc = None
        instance._pair_set = None
        instance.user_labels = cls._check_labels(user_labels, csr.shape[0], "user_labels")
        instance.item_labels = cls._check_labels(item_labels, csr.shape[1], "item_labels")
        return instance

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        user_labels: Optional[Sequence[str]] = None,
        item_labels: Optional[Sequence[str]] = None,
    ) -> "InteractionMatrix":
        """Build a matrix from a dense 0/1 array (used by the toy examples)."""
        return cls(np.asarray(dense, dtype=float), user_labels=user_labels, item_labels=item_labels)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_users(self) -> int:
        """Number of rows (users / clients)."""
        return self._csr.shape[0]

    @property
    def n_items(self) -> int:
        """Number of columns (items / products)."""
        return self._csr.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_users, n_items)``."""
        return self._csr.shape

    @property
    def nnz(self) -> int:
        """Number of positive examples ``|{(u, i) : r_ui = 1}|``."""
        return self._csr.nnz

    @property
    def density(self) -> float:
        """Fraction of the matrix that is positive."""
        return self.nnz / float(self.n_users * self.n_items)

    def csr(self) -> sp.csr_matrix:
        """Return the underlying CSR matrix (shared, do not mutate)."""
        return self._csr

    def csc(self) -> sp.csc_matrix:
        """Return a CSC view (built lazily, cached)."""
        if self._csc is None:
            self._csc = self._csr.tocsc()
        return self._csc

    def toarray(self) -> np.ndarray:
        """Densify the matrix (only sensible for small examples and tests)."""
        return self._csr.toarray()

    # ------------------------------------------------------------------ #
    # Access patterns used by the algorithms
    # ------------------------------------------------------------------ #
    def items_of_user(self, user: int) -> np.ndarray:
        """Indices of items with ``r_ui = 1`` for ``user`` (sorted)."""
        self._check_user(user)
        start, stop = self._csr.indptr[user], self._csr.indptr[user + 1]
        return self._csr.indices[start:stop].copy()

    def users_of_item(self, item: int) -> np.ndarray:
        """Indices of users with ``r_ui = 1`` for ``item`` (sorted)."""
        self._check_item(item)
        csc = self.csc()
        start, stop = csc.indptr[item], csc.indptr[item + 1]
        return csc.indices[start:stop].copy()

    def user_degrees(self) -> np.ndarray:
        """Number of positives per user, shape ``(n_users,)``."""
        return np.diff(self._csr.indptr).astype(np.int64)

    def item_degrees(self) -> np.ndarray:
        """Number of positives per item, shape ``(n_items,)``."""
        return np.diff(self.csc().indptr).astype(np.int64)

    def pairs(self) -> np.ndarray:
        """All positive pairs as an ``(nnz, 2)`` integer array ``[user, item]``."""
        coo = self._csr.tocoo()
        return np.column_stack([coo.row.astype(np.int64), coo.col.astype(np.int64)])

    def iter_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over positive ``(user, item)`` pairs."""
        coo = self._csr.tocoo()
        for user, item in zip(coo.row, coo.col):
            yield int(user), int(item)

    def contains(self, user: int, item: int) -> bool:
        """Return ``True`` when ``r_ui = 1``."""
        self._check_user(user)
        self._check_item(item)
        if self._pair_set is None:
            self._pair_set = {(int(u), int(i)) for u, i in self.iter_pairs()}
        return (user, item) in self._pair_set

    def label_of_user(self, user: int) -> str:
        """Human-readable label of ``user`` (falls back to ``"user <u>"``)."""
        self._check_user(user)
        if self.user_labels is not None:
            return self.user_labels[user]
        return f"user {user}"

    def label_of_item(self, item: int) -> str:
        """Human-readable label of ``item`` (falls back to ``"item <i>"``)."""
        self._check_item(item)
        if self.item_labels is not None:
            return self.item_labels[item]
        return f"item {item}"

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def subsample(self, fraction: float, random_state: RandomStateLike = None) -> "InteractionMatrix":
        """Keep a uniformly random ``fraction`` of the positive examples.

        This mirrors the Figure 7 protocol: "increasing fractions of the
        Netflix dataset (i.e. non-zero entries), chosen uniformly".  The
        matrix shape (users and items) is preserved.
        """
        if not 0 < fraction <= 1:
            raise DataError(f"fraction must lie in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self.copy()
        rng = ensure_rng(random_state)
        pairs = self.pairs()
        keep = max(1, int(round(fraction * len(pairs))))
        chosen = rng.choice(len(pairs), size=keep, replace=False)
        selected = pairs[np.sort(chosen)]
        data = np.ones(len(selected), dtype=np.float64)
        csr = sp.csr_matrix(
            (data, (selected[:, 0], selected[:, 1])), shape=self.shape
        )
        return InteractionMatrix(csr, user_labels=self.user_labels, item_labels=self.item_labels)

    def without_pairs(self, pairs: Iterable[Tuple[int, int]]) -> "InteractionMatrix":
        """Return a copy with the given positive pairs removed (set to unknown)."""
        removal = sp.lil_matrix(self.shape, dtype=np.float64)
        for user, item in pairs:
            self._check_user(user)
            self._check_item(item)
            removal[user, item] = 1.0
        remaining = self._csr - self._csr.multiply(removal.tocsr())
        remaining = sp.csr_matrix(remaining)
        remaining.eliminate_zeros()
        return InteractionMatrix(remaining, user_labels=self.user_labels, item_labels=self.item_labels)

    def extended_with(
        self,
        pairs: Iterable[Tuple[int, int]],
        n_new_users: int = 0,
        n_new_items: int = 0,
        new_user_labels: Optional[Sequence[str]] = None,
        new_item_labels: Optional[Sequence[str]] = None,
    ) -> "InteractionMatrix":
        """Return a larger matrix with extra users/items and interactions.

        The incremental-refit path accumulates deltas — batches of new
        positive pairs that may reference users and items beyond the current
        shape.  This appends ``n_new_users`` empty rows and ``n_new_items``
        empty columns and then sets ``r_ui = 1`` for every pair, all in CSR
        form:

        * widening to ``n_items + n_new_items`` columns reuses the existing
          ``(data, indices, indptr)`` buffers — CSR column count is purely
          declarative, so no copy happens;
        * appending empty rows extends ``indptr`` with its last value;
        * the delta pairs become their own CSR which is added sparsely.

        The original matrix is never densified and never mutated.  Pairs
        that duplicate existing interactions are idempotent (the result is
        re-binarised).  Pair indices must lie inside the *extended* shape.
        """
        if n_new_users < 0 or n_new_items < 0:
            raise DataError("n_new_users and n_new_items must be non-negative")
        n_users = self.n_users + int(n_new_users)
        n_items = self.n_items + int(n_new_items)

        users: List[int] = []
        items: List[int] = []
        for user, item in pairs:
            user, item = int(user), int(item)
            if user < 0 or item < 0:
                raise DataError(f"indices must be non-negative, got ({user}, {item})")
            if user >= n_users or item >= n_items:
                raise DataError(
                    f"pair ({user}, {item}) exceeds the extended shape "
                    f"({n_users}, {n_items})"
                )
            users.append(user)
            items.append(item)

        base = self._csr
        widened = sp.csr_matrix(
            (base.data, base.indices, base.indptr), shape=(self.n_users, n_items)
        )
        if n_new_users:
            tail = np.full(n_new_users, base.indptr[-1], dtype=base.indptr.dtype)
            indptr = np.concatenate([base.indptr, tail])
            widened = sp.csr_matrix(
                (base.data, base.indices, indptr), shape=(n_users, n_items)
            )
        if users:
            delta = sp.csr_matrix(
                (np.ones(len(users), dtype=np.float64), (users, items)),
                shape=(n_users, n_items),
            )
            combined = (widened + delta).tocsr()
        else:
            combined = widened.copy()
        combined.data[:] = 1.0
        combined.sum_duplicates()
        combined.data[:] = 1.0

        user_labels = self._extend_labels(
            self.user_labels, n_new_users, new_user_labels, "new_user_labels", "user"
        )
        item_labels = self._extend_labels(
            self.item_labels, n_new_items, new_item_labels, "new_item_labels", "item"
        )
        return InteractionMatrix.from_validated_csr(
            combined, user_labels=user_labels, item_labels=item_labels
        )

    def copy(self) -> "InteractionMatrix":
        """Deep copy of the interaction matrix (labels are shared)."""
        return InteractionMatrix(
            self._csr.copy(), user_labels=self.user_labels, item_labels=self.item_labels
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InteractionMatrix(n_users={self.n_users}, n_items={self.n_items}, "
            f"nnz={self.nnz}, density={self.density:.4f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return (self._csr != other._csr).nnz == 0

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _extend_labels(
        existing: Optional[List[str]],
        n_new: int,
        new_labels: Optional[Sequence[str]],
        name: str,
        kind: str,
    ) -> Optional[List[str]]:
        if new_labels is not None:
            new_labels = [str(label) for label in new_labels]
            if len(new_labels) != n_new:
                raise DataError(f"{name} has {len(new_labels)} entries, expected {n_new}")
        if existing is None:
            return None
        if new_labels is None:
            offset = len(existing)
            new_labels = [f"{kind} {offset + index}" for index in range(n_new)]
        return existing + new_labels

    @staticmethod
    def _check_labels(
        labels: Optional[Sequence[str]], expected: int, name: str
    ) -> Optional[List[str]]:
        if labels is None:
            return None
        labels = [str(label) for label in labels]
        if len(labels) != expected:
            raise DataError(f"{name} has {len(labels)} entries, expected {expected}")
        return labels

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.n_users:
            raise DataError(f"user index {user} out of range [0, {self.n_users})")

    def _check_item(self, item: int) -> None:
        if not 0 <= item < self.n_items:
            raise DataError(f"item index {item} out of range [0, {self.n_items})")


def interaction_statistics(matrix: InteractionMatrix) -> Dict[str, float]:
    """Summary statistics of an interaction matrix.

    Returns a dictionary with the user/item counts, number of positives,
    density and the mean/median degrees — the quantities the paper quotes
    when describing its datasets.
    """
    user_degrees = matrix.user_degrees()
    item_degrees = matrix.item_degrees()
    return {
        "n_users": float(matrix.n_users),
        "n_items": float(matrix.n_items),
        "n_positives": float(matrix.nnz),
        "density": matrix.density,
        "mean_user_degree": float(user_degrees.mean()),
        "median_user_degree": float(np.median(user_degrees)),
        "mean_item_degree": float(item_degrees.mean()),
        "median_item_degree": float(np.median(item_degrees)),
    }
