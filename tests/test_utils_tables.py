"""Tests for repro.utils.tables."""

from __future__ import annotations

import pytest

from repro.utils.tables import format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["name", "value"], [["alpha", 1.23456], ["b", 2]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.2346" in text  # default precision 4

    def test_precision_control(self):
        text = format_table(["x"], [[1.23456]], precision=2)
        assert "1.23" in text and "1.2346" not in text

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_handles_bool_and_str(self):
        text = format_table(["flag", "label"], [[True, "yes"]])
        assert "True" in text and "yes" in text

