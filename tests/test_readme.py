"""The documented Python API: the README example runs and prints what its
comments say, and every exported name resolves."""

import contextlib
import io
import re
from pathlib import Path

import cograte

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_runs_and_prints_b_star():
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    # the b_star line's comment is the exact value it prints
    expected = re.search(r"print\(b_star\(ch\)\)\s*# (\S+)", block).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    b_star_line, gap_line = out.getvalue().splitlines()
    assert b_star_line == expected
    # "~7.3e-4 bits": the grid error of the 201-point families
    assert abs(float(gap_line) - 7.3e-4) < 0.05e-4


def test_every_exported_name_resolves():
    assert [n for n in cograte.__all__ if not hasattr(cograte, n)] == []
