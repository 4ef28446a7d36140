"""Tests for repro.data.interactions.InteractionMatrix."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.interactions import InteractionMatrix
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

    def test_contains_agrees_with_the_dense_matrix(self):
        dense = (np.random.default_rng(3).random((12, 9)) < 0.3).astype(float)
        dense[4] = 0.0  # an empty row
        matrix = InteractionMatrix(dense)
        for user in range(12):
            for item in range(9):
                assert matrix.contains(user, item) == bool(dense[user, item])
        # Whole floats are ids too; a fraction is not.
        assert matrix.contains(1.0, 2) == bool(dense[1, 2])
        assert matrix.contains(np.float64(3), np.int64(0)) == bool(dense[3, 0])
        with pytest.raises(DataError):
            matrix.contains(1.5, 2)

    @pytest.mark.parametrize("pair", [(4, 0), (-1, 0), (0, 5), (0, -1)])
    def test_contains_rejects_out_of_range(self, dense_example, pair):
        with pytest.raises(DataError, match="out of range"):
            InteractionMatrix(dense_example).contains(*pair)

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

    def test_without_pairs_matches_the_dense_matrix(self):
        rng = np.random.default_rng(5)
        dense = (rng.random((15, 11)) < 0.4).astype(float)
        dense[7] = 0.0
        # Positives, non-positives and repeats, in no particular order.
        removed = np.column_stack([rng.integers(0, 15, 60), rng.integers(0, 11, 60)])
        expected = dense.copy()
        expected[removed[:, 0], removed[:, 1]] = 0.0
        reduced = InteractionMatrix(dense).without_pairs(removed)
        np.testing.assert_array_equal(reduced.toarray(), expected)
        assert reduced.csr().has_canonical_format

    def test_without_pairs_on_empty_input(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        assert matrix.without_pairs([]) == matrix
        empty = InteractionMatrix.from_pairs([], n_users=2, n_items=2)
        assert empty.without_pairs([(0, 1)]).nnz == 0

    def test_without_pairs_rejects_out_of_range(self, dense_example):
        with pytest.raises(DataError, match=r"pair \(4, 0\) out of range"):
            InteractionMatrix(dense_example).without_pairs([(0, 0), (4, 0)])

    def test_copy_is_independent(self, dense_example):
        matrix = InteractionMatrix(dense_example)
        copy = matrix.copy()
        assert copy == matrix
        assert copy is not matrix

    def test_equality_different_shape(self):
        assert InteractionMatrix(np.eye(2)) != InteractionMatrix(np.eye(3))


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


# Pair ids in every form a caller may hand in: what each should mean, or
# None for a DataError.
_PAIR_IDS = {
    "int": (1, 1),
    "numpy-int": (np.int32(1), 1),
    "whole-float": (1.0, 1),
    "numeric-string": ("1", 1),
    "fractional-float": (1.5, None),
    "fractional-string": ("1.5", None),
    "word": ("one", None),
    "nan": (float("nan"), None),
    "inf": (float("inf"), None),
    "negative": (-1, None),
    "past-int64": (2**70, None),
    "past-shape": (9, None),
    "int64-max": (2**63 - 1, None),
    "int64-max-plus-one": (2**63, None),
    "uint64-max": (2**64 - 1, None),
}


def _read_pairs(pairs):
    """What each pair reader makes of ``pairs`` on a 3 x 3 corpus, or DataError.

    ``without_pairs`` reads as the pairs it removed from the full matrix.
    """
    full = InteractionMatrix(np.ones((3, 3)))
    readers = {
        "from_pairs": lambda: InteractionMatrix.from_pairs(pairs, n_users=3, n_items=3),
        "extended_with": lambda: InteractionMatrix.from_pairs([], n_users=3, n_items=3)
        .extended_with(pairs),
        "without_pairs": lambda: InteractionMatrix(
            full.toarray() - full.without_pairs(pairs).toarray()
        ),
    }
    verdicts = {}
    for name, read in readers.items():
        try:
            verdicts[name] = read().pairs().tolist()
        except DataError:
            verdicts[name] = DataError
    return verdicts


# The same ids as (n, 2) arrays, in each dtype that holds them exactly.
_ARRAY_IDS = [
    (np.int64, "int"),
    (np.int64, "negative"),
    (np.int64, "past-shape"),
    (np.int64, "int64-max"),
    (np.float64, "int"),
    (np.float64, "whole-float"),
    (np.float64, "fractional-float"),
    (np.float64, "nan"),
    (np.float64, "inf"),
    (np.float64, "negative"),
    (np.float64, "past-int64"),
    (np.float64, "past-shape"),
    (np.float64, "int64-max-plus-one"),
    (np.uint64, "int"),
    (np.uint64, "past-shape"),
    (np.uint64, "int64-max"),
    (np.uint64, "int64-max-plus-one"),
    (np.uint64, "uint64-max"),
]


class TestPairIds:
    """from_pairs, extended_with and without_pairs read pair ids by one integer rule."""

    @pytest.mark.parametrize("case", sorted(_PAIR_IDS))
    @pytest.mark.parametrize("side", ["user", "item"])
    def test_from_pairs_and_extended_with_agree(self, case, side):
        value, expected = _PAIR_IDS[case]
        pair = (value, 0) if side == "user" else (0, value)
        empty = InteractionMatrix.from_pairs([], n_users=3, n_items=3)
        readers = (
            lambda: InteractionMatrix.from_pairs([pair], n_users=3, n_items=3),
            lambda: empty.extended_with([pair]),
        )
        if expected is None:
            for read in readers:
                with pytest.raises(DataError):
                    read()
            return
        want = [[expected, 0]] if side == "user" else [[0, expected]]
        for read in readers:
            assert read().pairs().tolist() == want

    @pytest.mark.parametrize("case", sorted(_PAIR_IDS))
    @pytest.mark.parametrize("side", ["user", "item"])
    def test_without_pairs_agrees(self, case, side):
        value, expected = _PAIR_IDS[case]
        verdict = _read_pairs([(value, 0) if side == "user" else (0, value)])
        if expected is not None:
            expected = [[expected, 0]] if side == "user" else [[0, expected]]
        assert verdict == dict.fromkeys(verdict, expected or DataError)

    @pytest.mark.parametrize("dtype, case", _ARRAY_IDS)
    @pytest.mark.parametrize("side", ["user", "item"])
    def test_arrays_get_the_tuple_verdict(self, dtype, case, side):
        value, _expected = _PAIR_IDS[case]
        array = np.array([(value, 0) if side == "user" else (0, value)], dtype=dtype)
        held = array[0, 0 if side == "user" else 1].item()
        assert held == value or (np.isnan(held) and np.isnan(value))  # exact
        tuples = [tuple(row) for row in array.tolist()]
        assert _read_pairs(array) == _read_pairs(tuples)

    def test_mixed_list_keeps_an_exact_id_past_two_to_the_53(self):
        # numpy reads this list as float64, where 2**53 + 1 rounds to 2**53.
        pairs = [(2**53 + 1, 0.0)]
        empty = InteractionMatrix.from_pairs([], n_users=3, n_items=3)
        with pytest.raises(DataError, match=r"pair \(9007199254740993, 0\)"):
            empty.extended_with(pairs)
        with pytest.raises(DataError, match=r"pair \(9007199254740993, 0\)"):
            empty.without_pairs(pairs)

    def test_pair_of_wrong_length_rejected(self):
        with pytest.raises(DataError, match="index pairs"):
            InteractionMatrix.from_pairs([(0, 1, 2)])
        with pytest.raises(DataError, match="index pairs"):
            InteractionMatrix.from_pairs(np.zeros((2, 3), dtype=np.int64))


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

    @pytest.mark.parametrize(
        "rows",
        [
            [[np.nan, 0.0, 1.0]],
            [[np.nan, -1.0, 1.0]],
            [[np.inf, 0.0, 1.0]],
            [[-np.inf, 0.0, 1.0]],
        ],
    )
    def test_non_finite_values_rejected(self, rows):
        # NaN compares false against zero, so a bare ``min() < 0`` check
        # lets it through, and the binarisation would then store it (and
        # any negative beside it) as a positive.
        with pytest.raises(DataError, match="non-finite"):
            InteractionMatrix(sp.csr_matrix(np.array(rows)))
