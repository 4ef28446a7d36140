"""Tests for repro.data.interactions.InteractionMatrix."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.interactions import InteractionMatrix, interaction_statistics
from repro.exceptions import DataError


@pytest.fixture
def dense_example() -> np.ndarray:
    dense = np.zeros((4, 5))
    dense[0, 0] = 1.0
    dense[0, 2] = 1.0
    dense[1, 2] = 1.0
    dense[2, 4] = 1.0
    return dense


class TestConstruction:
    def test_from_dense_binarises_values(self):
        matrix = InteractionMatrix(np.array([[0.0, 2.5], [3.0, 0.0]]))
        np.testing.assert_array_equal(matrix.toarray(), [[0, 1], [1, 0]])

    def test_from_sparse(self, dense_example):
        matrix = InteractionMatrix(sp.csr_matrix(dense_example))
        assert matrix.nnz == 4

    def test_duplicate_entries_collapse_to_one(self):
        csr = sp.csr_matrix(([1.0, 1.0], ([0, 0], [1, 1])), shape=(2, 3))
        matrix = InteractionMatrix(csr)
        assert matrix.nnz == 1
        assert matrix.toarray()[0, 1] == 1.0

    def test_rejects_negative_values(self):
        with pytest.raises(DataError):
            InteractionMatrix(np.array([[1.0, -1.0]]))

    def test_rejects_empty_dimensions(self):
        with pytest.raises(DataError):
            InteractionMatrix(np.zeros((0, 3)))

    def test_from_pairs_infers_shape(self):
        matrix = InteractionMatrix.from_pairs([(0, 0), (2, 1)])
        assert matrix.shape == (3, 2)
        assert matrix.contains(2, 1)

    def test_from_pairs_explicit_shape(self):
        matrix = InteractionMatrix.from_pairs([(0, 0)], n_users=5, n_items=4)
        assert matrix.shape == (5, 4)

    def test_from_pairs_rejects_out_of_range(self):
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs([(4, 0)], n_users=3, n_items=2)

    def test_from_pairs_rejects_negative_index(self):
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs([(-1, 0)])

    def test_from_pairs_empty_requires_shape(self):
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs([])

    def test_label_length_validation(self, dense_example):
        with pytest.raises(DataError):
            InteractionMatrix(dense_example, user_labels=["only one"])


class TestAccessors:
    def test_shape_properties(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        assert matrix.n_users == 4
        assert matrix.n_items == 5
        assert matrix.shape == (4, 5)
        assert matrix.nnz == 4
        assert matrix.density == pytest.approx(4 / 20)

    def test_items_of_user(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        np.testing.assert_array_equal(matrix.items_of_user(0), [0, 2])
        np.testing.assert_array_equal(matrix.items_of_user(3), [])

    def test_users_of_item(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        np.testing.assert_array_equal(matrix.users_of_item(2), [0, 1])

    def test_degrees(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        np.testing.assert_array_equal(matrix.user_degrees(), [2, 1, 1, 0])
        np.testing.assert_array_equal(matrix.item_degrees(), [1, 0, 2, 0, 1])

    def test_pairs_roundtrip(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        pairs = matrix.pairs()
        rebuilt = InteractionMatrix.from_pairs(
            [tuple(pair) for pair in pairs], n_users=4, n_items=5
        )
        assert rebuilt == matrix

    def test_contains(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        assert matrix.contains(0, 2)
        assert not matrix.contains(3, 3)

    def test_index_out_of_range(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        with pytest.raises(DataError):
            matrix.items_of_user(99)
        with pytest.raises(DataError):
            matrix.users_of_item(-1)

    def test_labels_fallback_and_custom(self):
        labelled = InteractionMatrix(
            np.eye(2), user_labels=["Alice", "Bob"], item_labels=["X", "Y"]
        )
        assert labelled.label_of_user(0) == "Alice"
        assert labelled.label_of_item(1) == "Y"
        plain = InteractionMatrix(np.eye(2))
        assert plain.label_of_user(1) == "user 1"
        assert plain.label_of_item(0) == "item 0"


class TestTransformations:
    def test_subsample_keeps_fraction(self):
        dense = np.ones((10, 10))
        matrix = InteractionMatrix(dense)
        half = matrix.subsample(0.5, random_state=0)
        assert half.nnz == 50
        assert half.shape == matrix.shape

    def test_subsample_full_fraction_is_copy(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        assert matrix.subsample(1.0, random_state=0) == matrix

    def test_subsample_rejects_bad_fraction(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(DataError):
                matrix.subsample(bad)

    def test_subsample_is_subset(self):
        matrix = InteractionMatrix(np.ones((6, 6)))
        sub = matrix.subsample(0.3, random_state=1)
        original_pairs = {tuple(p) for p in matrix.pairs()}
        assert all(tuple(p) in original_pairs for p in sub.pairs())

    def test_without_pairs_removes_only_requested(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        reduced = matrix.without_pairs([(0, 0)])
        assert not reduced.contains(0, 0)
        assert reduced.contains(0, 2)
        assert reduced.nnz == matrix.nnz - 1

    def test_without_pairs_leaves_original_unchanged(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        matrix.without_pairs([(0, 0)])
        assert matrix.contains(0, 0)

    def test_copy_is_independent(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        copy = matrix.copy()
        assert copy == matrix
        assert copy is not matrix

    def test_equality_different_shape(self):
        assert InteractionMatrix(np.eye(2)) != InteractionMatrix(np.eye(3))


class TestStatistics:
    def test_interaction_statistics_keys_and_values(self, dense_example):
        stats = interaction_statistics(InteractionMatrix(dense_example))
        assert stats["n_users"] == 4
        assert stats["n_items"] == 5
        assert stats["n_positives"] == 4
        assert stats["density"] == pytest.approx(0.2)
        assert stats["mean_user_degree"] == pytest.approx(1.0)


class TestExtendedWith:
    def test_grows_shape_and_sets_pairs(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        grown = matrix.extended_with(
            [(4, 5), (0, 5), (5, 0)], n_new_users=2, n_new_items=1
        )
        assert grown.shape == (6, 6)
        assert grown.nnz == matrix.nnz + 3
        assert grown.contains(4, 5) and grown.contains(0, 5) and grown.contains(5, 0)
        # Every original interaction survives in place.
        for user, item in matrix.pairs():
            assert grown.contains(int(user), int(item))

    def test_original_matrix_untouched(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        before = matrix.toarray().copy()
        matrix.extended_with([(0, 1)], n_new_users=1)
        np.testing.assert_array_equal(matrix.toarray(), before)
        assert matrix.shape == (4, 5)

    def test_duplicate_pairs_are_idempotent(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        grown = matrix.extended_with([(0, 0), (0, 0), (1, 2)])
        assert grown == matrix
        np.testing.assert_array_equal(grown.csr().data, 1.0)

    def test_empty_delta_no_growth_is_a_copy(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        grown = matrix.extended_with([])
        assert grown == matrix
        assert grown is not matrix

    def test_pair_outside_extended_shape_rejected(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        with pytest.raises(DataError, match="exceeds the extended shape"):
            matrix.extended_with([(4, 0)])  # no new user row appended
        with pytest.raises(DataError, match="exceeds the extended shape"):
            matrix.extended_with([(0, 6)], n_new_items=1)

    def test_negative_indices_and_counts_rejected(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        with pytest.raises(DataError, match="non-negative"):
            matrix.extended_with([(-1, 0)], n_new_users=1)
        with pytest.raises(DataError, match="non-negative"):
            matrix.extended_with([], n_new_users=-1)

    def test_labels_extend_with_new_rows(self):
        matrix = InteractionMatrix(
            np.eye(2), user_labels=["u0", "u1"], item_labels=["i0", "i1"]
        )
        grown = matrix.extended_with(
            [(2, 2)],
            n_new_users=1,
            n_new_items=1,
            new_user_labels=["u2"],
            new_item_labels=["i2"],
        )
        assert grown.user_labels == ["u0", "u1", "u2"]
        assert grown.item_labels == ["i0", "i1", "i2"]

    def test_label_count_mismatch_rejected(self):
        matrix = InteractionMatrix(np.eye(2), user_labels=["u0", "u1"])
        with pytest.raises(DataError):
            matrix.extended_with([], n_new_users=2, new_user_labels=["only-one"])


class TestStoredValues:
    """Stored zeros are not positives, and the caller's matrix is left alone."""

    @staticmethod
    def _with_stored_zero():
        return sp.csr_matrix(([0.0, 1.0, 3.0], ([0, 1, 1], [0, 1, 0])), shape=(2, 2))

    def test_stored_zero_is_not_a_positive(self):
        matrix = InteractionMatrix(self._with_stored_zero())
        assert matrix.nnz == 2
        np.testing.assert_array_equal(matrix.toarray(), [[0, 0], [1, 1]])

    def test_duplicates_summing_to_zero_are_not_a_positive(self):
        csr = sp.csr_matrix(([0.0, 0.0, 2.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
        np.testing.assert_array_equal(InteractionMatrix(csr).toarray(), [[0, 0], [1, 0]])

    def test_callers_matrix_is_not_modified(self):
        csr = self._with_stored_zero()
        InteractionMatrix(csr)
        np.testing.assert_array_equal(csr.toarray(), [[0.0, 0.0], [3.0, 1.0]])
        assert csr.nnz == 3

    def test_callers_buffers_are_not_shared(self):
        csr = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
        matrix = InteractionMatrix(csr)
        assert not np.shares_memory(matrix.csr().data, csr.data)
        np.testing.assert_array_equal(csr.data, [2.0, 1.0])
