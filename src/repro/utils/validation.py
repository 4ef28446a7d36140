"""Light-weight argument validation helpers.

These helpers raise :class:`repro.exceptions.ConfigurationError` with a
message that names the offending parameter, which keeps the constructors of
the estimators small and their error messages consistent.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


def check_positive_int(value: Any, name: str, error=ConfigurationError) -> int:
    """Validate that ``value`` is an integer strictly greater than zero.

    Python and NumPy integers pass; a bool, a float (even ``2.0``), a string
    or a count below one raises ``error``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_non_negative_float(value: Any, name: str) -> float:
    """Validate that ``value`` is a finite float greater than or equal to zero."""
    try:
        result = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a non-negative number, got {value!r}") from exc
    if not math.isfinite(result) or result < 0:
        raise ConfigurationError(f"{name} must be a non-negative number, got {value!r}")
    return result


def check_positive_float(value: Any, name: str) -> float:
    """Validate that ``value`` is a finite float strictly greater than zero."""
    result = check_non_negative_float(value, name)
    if result == 0:
        raise ConfigurationError(f"{name} must be strictly positive, got {value!r}")
    return result


def check_probability(value: Any, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    result = check_non_negative_float(value, name)
    if result > 1:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return result


def as_int_tuple(values: Any, name: str, error=ConfigurationError) -> Tuple[int, ...]:
    """The integer rule of every id sequence a caller hands in.

    Whole numbers pass in any numeric form (``2``, ``2.0``, ``"2"``); a
    fractional, infinite or NaN value, or a string in place of the sequence
    (``"17"`` is not ids 1 and 7), raises ``error``.
    """
    if isinstance(values, (str, bytes)):
        raise error(f"{name} must be a sequence of integers, got a string")
    try:
        values = tuple(values)
        ints = tuple(map(int, values))  # inf overflows, NaN is a ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be a sequence of integers") from exc
    # Tuples that compare equal hold whole numbers only; in the others "2"
    # may stand for 2, but 1.7 not for 1.
    if ints != values and any(
        isinstance(value, (float, np.floating)) and value != number
        for value, number in zip(values, ints)
    ):
        raise error(f"{name} must be a sequence of integers")
    return ints


def as_index_array(
    values: Any, name: str, size: Optional[int] = None, error=ConfigurationError
) -> np.ndarray:
    """``values`` as an int64 index array, by the rule of :func:`as_int_tuple`.

    An array must be 1-D and not boolean (a mask is not ids); an integer one
    is taken as it is, with no per-id walk.  Everything else is read id by
    id, so ``1.5`` raises ``error``, not index 1.  With a ``size``, every
    index must also lie in ``[0, size)``.
    """
    is_array = isinstance(values, np.ndarray)
    if is_array and (values.ndim != 1 or values.dtype.kind == "b"):
        raise error(f"{name} must be a 1-D array of ids, got {values.dtype} {values.shape}")
    if is_array and values.dtype.kind in "iu":
        array = np.asarray(values, dtype=np.int64)
    else:
        try:
            array = np.asarray(as_int_tuple(values, name, error), dtype=np.int64)
        except OverflowError as exc:
            raise error(f"{name} must fit a 64-bit integer") from exc
    # Read as unsigned, a negative index is at least 2**63: one reduction
    # checks both ends.
    if size is not None and array.size and array.view(np.uint64).max() >= size:
        raise error(f"{name} must lie in [0, {size})")
    return array


def check_array_2d(array: Any, name: str) -> np.ndarray:
    """Validate that ``array`` is a finite two-dimensional float array.

    float32 and float64 inputs keep their dtype (so reduced-precision models
    are not silently upcast); everything else is coerced to float64.
    """
    result = np.asarray(array)
    if result.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        result = np.asarray(array, dtype=float)
    if result.ndim != 2:
        raise ConfigurationError(f"{name} must be two-dimensional, got shape {result.shape}")
    if not np.all(np.isfinite(result)):
        raise ConfigurationError(f"{name} must contain only finite values")
    return result


def check_float_dtype(value: Any, name: str) -> np.dtype:
    """Validate a training dtype spec; only float32 and float64 are supported."""
    try:
        dtype = np.dtype(value)
    except TypeError as exc:
        raise ConfigurationError(f"{name} must be a floating dtype, got {value!r}") from exc
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigurationError(f"{name} must be float32 or float64, got {dtype}")
    return dtype
