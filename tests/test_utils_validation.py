"""Tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
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
