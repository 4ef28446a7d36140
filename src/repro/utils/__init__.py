"""Shared utilities: validation helpers, RNG handling, timers and tables."""

from repro.utils.rng import ensure_rng
from repro.utils.timers import Timer, TimingLog
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_positive_int,
    check_non_negative_float,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "Timer",
    "TimingLog",
    "format_table",
    "check_positive_int",
    "check_non_negative_float",
    "check_probability",
]
