"""Plain-text table rendering for the benchmark harness.

The benchmarks print the paper's tables next to the measured values; this
module provides a small dependency-free formatter for those reports.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _cell(value: object, precision: int) -> str:
    """Render a single cell; floats are rounded to ``precision`` digits."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 4,
) -> str:
    """Format ``rows`` as an aligned plain-text table.

    Parameters
    ----------
    headers:
        Column titles.
    rows:
        Iterable of rows; each row must have the same length as ``headers``.
    precision:
        Number of decimal digits used for float cells.

    Returns
    -------
    str
        A multi-line string with a header row, a separator and one line per
        data row, columns padded to equal width.
    """
    rendered: List[List[str]] = [[str(header) for header in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row!r} has {len(row)} cells but table has {len(headers)} columns"
            )
        rendered.append([_cell(value, precision) for value in row])

    widths = [max(len(line[col]) for line in rendered) for col in range(len(headers))]
    lines = []
    for index, line in enumerate(rendered):
        padded = "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        lines.append(padded.rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)

