"""Shared utilities: validation helpers, RNG handling and tables."""

from repro.utils.rng import ensure_rng
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_positive_int,
    check_non_negative_float,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "format_table",
    "check_positive_int",
    "check_non_negative_float",
    "check_probability",
]
