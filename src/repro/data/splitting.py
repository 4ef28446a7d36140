"""Train/test splitting for one-class evaluation.

The paper's protocol (Section VII-B.2): split the positive examples into a
training and a test set with a 75/25 ratio and average metrics over ten
random instances.  :func:`train_test_split` implements the per-user variant
of that split (each user's positives are split independently so every user
keeps some training history), :func:`leave_k_out_split` holds out a fixed
number of positives per user, and :func:`kfold_splits` produces the folds
used for hyper-parameter cross-validation.

A split is reproducible bit for bit from its matrix and seed: the train
CSR arrays and every ``test_items`` array.  The hold-out splitters draw
with one ``rng.choice`` per user, in user order; that stream is the
contract, so it is the one Python loop left.  Folds are assigned by one
scatter over a permutation, and every split hands its held-out pairs to
:meth:`~repro.data.interactions.InteractionMatrix.without_pairs` as one
``(n, 2)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.data.interactions import InteractionMatrix
from repro.exceptions import DataError
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.validation import check_positive_int


@dataclass
class Split:
    """A train/test partition of the positive examples.

    Attributes
    ----------
    train:
        Interaction matrix containing the training positives only.
    test_items:
        Mapping from user index to the array of that user's held-out items.
        Users with no held-out items are absent.
    """

    train: InteractionMatrix
    test_items: Dict[int, np.ndarray]

    @property
    def n_test_pairs(self) -> int:
        """Total number of held-out positive pairs."""
        return int(sum(len(items) for items in self.test_items.values()))

    def test_pairs(self) -> List[Tuple[int, int]]:
        """Held-out positives as a flat list of (user, item) pairs."""
        pairs: List[Tuple[int, int]] = []
        for user, items in sorted(self.test_items.items()):
            pairs.extend((user, int(item)) for item in items)
        return pairs


def train_test_split(
    matrix: InteractionMatrix,
    test_fraction: float = 0.25,
    min_train_positives: int = 1,
    random_state: RandomStateLike = None,
) -> Split:
    """Per-user random split of positives into train and test sets.

    Parameters
    ----------
    matrix:
        The full interaction matrix.
    test_fraction:
        Fraction of each user's positives moved to the test set (paper: 0.25).
    min_train_positives:
        A user must retain at least this many training positives; users with
        too few interactions contribute nothing to the test set.
    random_state:
        Seed or generator.

    Returns
    -------
    Split
        The training matrix (same shape as the input) and the per-user
        held-out items.
    """
    if not 0 < test_fraction < 1:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if min_train_positives < 0:
        raise DataError("min_train_positives must be non-negative")
    rng = ensure_rng(random_state)

    degrees = matrix.user_degrees()
    n_test = np.minimum(
        np.floor(test_fraction * degrees).astype(np.int64), degrees - min_train_positives
    )
    users = np.flatnonzero(n_test > 0)
    test_items = _draw_per_user(matrix, users, n_test[users], rng)
    if not test_items:
        raise DataError(
            "the split produced no test examples; the matrix is too sparse for "
            f"test_fraction={test_fraction}"
        )
    return Split(train=matrix.without_pairs(_held_out_pairs(test_items)), test_items=test_items)


def leave_k_out_split(
    matrix: InteractionMatrix,
    k: int = 1,
    min_train_positives: int = 1,
    random_state: RandomStateLike = None,
) -> Split:
    """Hold out exactly ``k`` positives per eligible user.

    Users with fewer than ``k + min_train_positives`` positives are skipped.
    """
    k = check_positive_int(k, "k", DataError)
    rng = ensure_rng(random_state)
    degrees = matrix.user_degrees()
    users = np.flatnonzero(degrees >= k + min_train_positives)
    test_items = _draw_per_user(matrix, users, np.full(users.size, k), rng)
    if not test_items:
        raise DataError("leave-k-out produced no test examples")
    return Split(train=matrix.without_pairs(_held_out_pairs(test_items)), test_items=test_items)


def kfold_splits(
    matrix: InteractionMatrix,
    n_folds: int = 4,
    random_state: RandomStateLike = None,
) -> Iterator[Split]:
    """Yield ``n_folds`` cross-validation splits over the positive pairs.

    The positive pairs are partitioned globally into ``n_folds`` groups; each
    fold's split uses one group as the test set.  Users whose entire history
    falls into the test group keep one training positive (moved back) so the
    training matrix never has empty rows that were non-empty originally.
    """
    if n_folds < 2:
        raise DataError(f"n_folds must be at least 2, got {n_folds}")
    rng = ensure_rng(random_state)
    pairs = matrix.pairs()
    if len(pairs) < n_folds:
        raise DataError("not enough positive examples for the requested number of folds")
    order = rng.permutation(len(pairs))
    fold_of_pair = np.empty(len(pairs), dtype=np.int64)
    fold_of_pair[order] = np.arange(len(pairs)) % n_folds
    degrees = matrix.user_degrees()

    for fold in range(n_folds):
        # ``pairs`` is in CSR order, so a fold's test pairs run user by user
        # with each user's items ascending.
        users, items = pairs[fold_of_pair == fold].T
        held = np.bincount(users, minlength=matrix.n_users)
        # A user whose whole history fell into the fold keeps its last
        # held-out item as a training positive.
        whole = (held > 0) & (held >= degrees)
        keep = np.ones(users.size, dtype=bool)
        keep[np.cumsum(held)[whole] - 1] = False
        if not keep.any():
            continue
        held -= whole
        test_users = np.flatnonzero(held)
        users, items = users[keep], items[keep]
        chunks = np.split(items, np.cumsum(held[test_users])[:-1])
        test_items = dict(zip(test_users.tolist(), chunks))
        train = matrix.without_pairs(np.column_stack([users, items]))
        yield Split(train=train, test_items=test_items)


def _draw_per_user(
    matrix: InteractionMatrix, users: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
) -> Dict[int, np.ndarray]:
    """Each of ``users`` (ascending) draws ``sizes[j]`` of its items, sorted.

    One ``rng.choice`` per user, in user order: that stream is what makes a
    split reproducible from its seed, so it stays a Python loop.
    """
    csr = matrix.csr()
    test_items: Dict[int, np.ndarray] = {}
    for user, size in zip(users.tolist(), sizes.tolist()):
        items = csr.indices[csr.indptr[user] : csr.indptr[user + 1]]
        test_items[user] = np.sort(rng.choice(items, size=size, replace=False))
    return test_items


def _held_out_pairs(test_items: Dict[int, np.ndarray]) -> np.ndarray:
    """``test_items`` as one ``(n, 2)`` array of ``(user, item)`` pairs."""
    users = np.repeat(list(test_items), [len(items) for items in test_items.values()])
    return np.column_stack([users, np.concatenate(list(test_items.values()))])
