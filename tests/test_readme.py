"""The README's Quick start runs as written.

The block is the first thing a reader copies, so it is executed here and
goes stale only by failing tier-1.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    code = _quick_start()
    assert "matrix = make_movielens_like()" in code
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_start"})
    printed = capsys.readouterr().out
    assert "recall" in printed
