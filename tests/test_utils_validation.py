"""Tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.utils.validation import (
    as_index_array,
    check_array_2d,
    check_non_negative_float,
    check_positive_float,
    check_positive_int,
    check_probability,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "k") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int32(5), "k") == 5

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "k")
        with pytest.raises(ConfigurationError):
            check_positive_int(-1, "k")

    def test_rejects_bool_and_float(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "k")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "k")

    def test_error_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="n_coclusters"):
            check_positive_int(-3, "n_coclusters")


class TestCheckNonNegative:
    def test_float_accepts_zero_and_positive(self):
        assert check_non_negative_float(0.0, "lam") == 0.0
        assert check_non_negative_float(2.5, "lam") == 2.5

    def test_float_rejects_negative_nan_inf(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                check_non_negative_float(bad, "lam")

    def test_float_rejects_non_numeric(self):
        with pytest.raises(ConfigurationError):
            check_non_negative_float("abc", "lam")


class TestCheckPositiveFloat:
    def test_accepts_positive(self):
        assert check_positive_float(0.5, "lr") == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive_float(0.0, "lr")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            check_probability(1.5, "p")


class TestCheckArray2d:
    def test_accepts_2d_list(self):
        result = check_array_2d([[1, 2], [3, 4]], "factors")
        assert result.shape == (2, 2)
        assert result.dtype == float

    def test_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            check_array_2d([1, 2, 3], "factors")

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            check_array_2d([[1.0, float("nan")]], "factors")


class TestAsIndexArray:
    def test_integer_array_is_read_without_a_walk(self):
        ids = np.array([3, 0, 2], dtype=np.int32)
        result = as_index_array(ids, "users", 4)
        assert result.dtype == np.int64
        assert result.tolist() == [3, 0, 2]

    def test_range_uses_one_bound_for_both_sides(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 4\)"):
            as_index_array(np.array([-1]), "users", 4)
        with pytest.raises(ConfigurationError, match=r"\[0, 4\)"):
            as_index_array(np.array([4]), "users", 4)
        with pytest.raises(ConfigurationError, match=r"\[0, 4\)"):
            as_index_array(np.array([2**63 - 1], dtype=np.uint64), "users", 4)

    @pytest.mark.parametrize(
        "ids",
        [np.array([[1, 2], [3, 0]]), np.array(3), np.array([True, False]), np.array([[1.0]])],
        ids=["2-D", "0-d", "boolean", "2-D float"],
    )
    def test_refuses_arrays_other_than_1d_ids(self, ids):
        with pytest.raises(DataError, match="1-D"):
            as_index_array(ids, "users", 4, DataError)
