"""The README's Python examples run as written and print what their comments say.

Each ```python block is executed on its own, in a fresh namespace, so an
example that leans on a name the package no longer exports fails here.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def printed_lines(source: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    return out.getvalue().splitlines()


def test_readme_has_the_two_library_examples():
    assert len(BLOCKS) == 2


def test_run_protocol_example_prints_its_commented_values():
    block = BLOCKS[0]
    assert "# 1.0" in block and "# 1/16 for the ideal allowed run" in block
    fidelity, success = printed_lines(block)
    assert float(fidelity) == pytest.approx(1.0, abs=1e-12)
    assert float(success) == pytest.approx(1 / 16, abs=1e-12)


def test_ratio_fit_example_fits_both_targets():
    (line,) = printed_lines(BLOCKS[1])
    ratio, residuals = line.split(" ", 1)
    assert 0.001 < float(ratio) <= 5
    assert residuals.startswith("{'allowed': ") and "'denied': " in residuals
