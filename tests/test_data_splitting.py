"""Tests for repro.data.splitting (hold-out and k-fold protocols)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.datasets import make_movielens_like
from repro.data.interactions import InteractionMatrix
from repro.data.splitting import kfold_splits, leave_k_out_split, train_test_split
from repro.exceptions import DataError


@pytest.fixture
def dense_matrix() -> InteractionMatrix:
    rng = np.random.default_rng(0)
    dense = (rng.random((40, 30)) < 0.3).astype(float)
    dense[dense.sum(axis=1) == 0, 0] = 1.0  # no empty users
    return InteractionMatrix(dense)


class TestTrainTestSplit:
    def test_preserves_shape_and_partitions_positives(self, dense_matrix):
        split = train_test_split(dense_matrix, test_fraction=0.25, random_state=0)
        assert split.train.shape == dense_matrix.shape
        assert split.train.nnz + split.n_test_pairs == dense_matrix.nnz

    def test_test_pairs_absent_from_train_and_present_in_full(self, dense_matrix):
        split = train_test_split(dense_matrix, test_fraction=0.25, random_state=0)
        for user, item in split.test_pairs():
            assert not split.train.contains(user, item)
            assert dense_matrix.contains(user, item)

    def test_every_test_user_keeps_training_history(self, dense_matrix):
        split = train_test_split(
            dense_matrix, test_fraction=0.25, min_train_positives=1, random_state=1
        )
        train_degrees = split.train.user_degrees()
        for user in split.test_items:
            assert train_degrees[user] >= 1

    def test_fraction_approximately_respected(self, dense_matrix):
        split = train_test_split(dense_matrix, test_fraction=0.25, random_state=2)
        ratio = split.n_test_pairs / dense_matrix.nnz
        assert 0.10 <= ratio <= 0.30

    def test_deterministic_given_seed(self, dense_matrix):
        first = train_test_split(dense_matrix, random_state=3)
        second = train_test_split(dense_matrix, random_state=3)
        assert first.test_pairs() == second.test_pairs()

    def test_invalid_fraction_raises(self, dense_matrix):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(DataError):
                train_test_split(dense_matrix, test_fraction=bad)

    def test_too_sparse_matrix_raises(self):
        matrix = InteractionMatrix(np.eye(4))  # one positive per user
        with pytest.raises(DataError):
            train_test_split(matrix, test_fraction=0.25)


class TestLeaveKOut:
    def test_exactly_k_per_eligible_user(self, dense_matrix):
        split = leave_k_out_split(dense_matrix, k=2, random_state=0)
        for user, items in split.test_items.items():
            assert len(items) == 2
            assert dense_matrix.user_degrees()[user] >= 3

    def test_k_must_be_positive(self, dense_matrix):
        with pytest.raises(DataError):
            leave_k_out_split(dense_matrix, k=0)

    @pytest.mark.parametrize("k", [-1, 1.5, "3", float("nan"), None, True])
    def test_k_must_be_a_positive_int(self, dense_matrix, k):
        with pytest.raises(DataError):
            leave_k_out_split(dense_matrix, k=k)

    def test_numpy_k_passes(self, dense_matrix):
        split = leave_k_out_split(dense_matrix, k=np.int64(2), random_state=0)
        assert _split_digest(split) == _split_digest(
            leave_k_out_split(dense_matrix, k=2, random_state=0)
        )

    def test_raises_when_nothing_to_hold_out(self):
        matrix = InteractionMatrix(np.eye(3))
        with pytest.raises(DataError):
            leave_k_out_split(matrix, k=1, min_train_positives=1)


class TestKFold:
    def test_yields_requested_folds(self, dense_matrix):
        folds = list(kfold_splits(dense_matrix, n_folds=4, random_state=0))
        assert len(folds) == 4

    def test_each_fold_is_valid_split(self, dense_matrix):
        for split in kfold_splits(dense_matrix, n_folds=3, random_state=1):
            assert split.n_test_pairs > 0
            for user, item in split.test_pairs():
                assert not split.train.contains(user, item)
                assert dense_matrix.contains(user, item)

    def test_test_sets_are_disjoint_across_folds(self, dense_matrix):
        seen = set()
        for split in kfold_splits(dense_matrix, n_folds=3, random_state=2):
            pairs = set(split.test_pairs())
            assert not (pairs & seen)
            seen |= pairs

    def test_users_keep_at_least_one_training_positive(self, dense_matrix):
        for split in kfold_splits(dense_matrix, n_folds=4, random_state=3):
            degrees = split.train.user_degrees()
            for user in split.test_items:
                assert degrees[user] >= 1

    def test_requires_two_folds(self, dense_matrix):
        with pytest.raises(DataError):
            list(kfold_splits(dense_matrix, n_folds=1))


def _split_digest(split) -> str:
    """sha256 of a split's train CSR arrays and test items, dtypes included."""
    digest = hashlib.sha256()
    csr = split.train.csr()
    digest.update(repr(csr.shape).encode())
    for array in (csr.indptr, csr.indices, csr.data):
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    for user, items in split.test_items.items():
        digest.update(repr(user).encode())
        digest.update(items.dtype.str.encode())
        digest.update(np.ascontiguousarray(items).tobytes())
    return digest.hexdigest()[:24]


def _split_digests(matrix, seed):
    digests = {
        "train_test_split": _split_digest(train_test_split(matrix, random_state=seed)),
        "leave_k_out_split": _split_digest(leave_k_out_split(matrix, k=2, random_state=seed)),
    }
    for fold, split in enumerate(kfold_splits(matrix, n_folds=4, random_state=seed)):
        digests[f"kfold_splits[{fold}]"] = _split_digest(split)
    return digests


# Recorded before the splitters became array operations: every split the
# package makes is a contract (the per-user ``rng.choice`` draws are the
# stream), so a rewrite must reproduce these bit for bit.  The
# ``movielens_like`` digests were re-recorded once, when the stand-in moved
# to the sparse sampler: that changed the corpus, not the splitters.
_PINNED_SPLITS = {
    ("dense", 0): {
        "train_test_split": "13cce54c63182b01d25db458",
        "leave_k_out_split": "da10911ba145d11edd3a7c2b",
        "kfold_splits[0]": "88bd23c394e38a794892e53f",
        "kfold_splits[1]": "2fcd6903f54282766eb3f6e1",
        "kfold_splits[2]": "bc1d03ebee9cd43b28a68830",
        "kfold_splits[3]": "4ec43a287cd3faf2da7b7366",
    },
    ("dense", 1): {
        "train_test_split": "2b75ae72264d2fdc36e6b5d8",
        "leave_k_out_split": "45cfea4e2293ba64c7ccd069",
        "kfold_splits[0]": "1fb85405a19094ad32b98305",
        "kfold_splits[1]": "1e53b7d92e3ce8c9beaec0f5",
        "kfold_splits[2]": "b07d3bd05cb56a09b8bd1429",
        "kfold_splits[3]": "e659ee7ed8c5c8d8c740cc0e",
    },
    ("sparse", 0): {
        "train_test_split": "6ce1adbd1cde893c20e639a1",
        "leave_k_out_split": "bc07d4f46b04d81cc043cc6d",
        "kfold_splits[0]": "5aae849141e2448f17978499",
        "kfold_splits[1]": "a2e003ff99e949ae22c6b066",
        "kfold_splits[2]": "1bbba62a347b57adea365736",
        "kfold_splits[3]": "e45da7338db1a1b990221b72",
    },
    ("sparse", 1): {
        "train_test_split": "df50a21869c284cf2c6cab2e",
        "leave_k_out_split": "774160620cdb7afacc7edcf5",
        "kfold_splits[0]": "b6cb05b9edf8635991b6ce57",
        "kfold_splits[1]": "d25e7f38c8b534e861006275",
        "kfold_splits[2]": "952f4ab7c4f3b7613f84935a",
        "kfold_splits[3]": "79280e11c7a7b1fda590ec9b",
    },
    ("movielens_like", 0): {
        "train_test_split": "d2f014dfe6f459853a5d5cda",
        "leave_k_out_split": "e88856fc584bbfa2f0efcd16",
        "kfold_splits[0]": "283dc82e798f35bc6b8f5c94",
        "kfold_splits[1]": "cac1741abd87d35039d09cb9",
        "kfold_splits[2]": "64b06225cb931d724facbc85",
        "kfold_splits[3]": "6ea15bf47e6c07c1aff2893a",
    },
    ("movielens_like", 1): {
        "train_test_split": "2ae1d3e13d818120c9d61c75",
        "leave_k_out_split": "d9ee2c1347fce448eae2ad5f",
        "kfold_splits[0]": "16f1a41de58578d744622861",
        "kfold_splits[1]": "58eafc86379f6d4fee679a8b",
        "kfold_splits[2]": "723e727753935137bf12bf36",
        "kfold_splits[3]": "a08af5550e2dce7c4525991f",
    },
}


def _sparse_matrix() -> InteractionMatrix:
    # Degree 1-3 users, so k-fold's keep-one-training-positive rule fires.
    rng = np.random.default_rng(7)
    dense = (rng.random((60, 40)) < 0.06).astype(float)
    dense[dense.sum(axis=1) == 0, 0] = 1.0
    return InteractionMatrix(dense)


class TestSplitDigests:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("corpus", ["dense", "sparse", "movielens_like"])
    def test_splits_are_bit_identical(self, corpus, seed, dense_matrix):
        if corpus == "dense":
            matrix = dense_matrix
        elif corpus == "sparse":
            matrix = _sparse_matrix()
        else:
            matrix = make_movielens_like(random_state=0)
        assert _split_digests(matrix, seed) == _PINNED_SPLITS[corpus, seed]
