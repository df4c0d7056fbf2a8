"""The README's examples run as written.

Each ```python block is executed on its own, in a fresh namespace, so an
example that leans on a name the package no longer exports fails here, and
its printed values must match its comments.  Each ``cqtsim`` line of the
```sh blocks, and the ```ini config example, runs through ``cli.main`` and
must exit 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cqtsim.cli import main
from cqtsim.fock import KET_D

from test_cli import write_exact_counts

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cqtsim ")]
(CONFIG,) = re.findall(r"```ini\n(.*?)```", TEXT, re.S)


def printed_lines(source: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    return out.getvalue().splitlines()


def test_readme_has_the_four_library_examples():
    assert len(BLOCKS) == 4


def test_resampled_tomography_example_prints_its_commented_values():
    block = BLOCKS[0]
    assert "# True 2" in block and "# 0.253 +- 0.005" in block
    assert printed_lines(block) == ["True 2", "0.253 +- 0.005"]


def test_run_protocol_example_prints_its_commented_values():
    block = BLOCKS[1]
    assert "# 1.0" in block and "# 1/16 for the ideal allowed run" in block
    fidelity, success = printed_lines(block)
    assert float(fidelity) == pytest.approx(1.0, abs=1e-12)
    assert float(success) == pytest.approx(1 / 16, abs=1e-12)


def test_mixture_example_prints_its_commented_values():
    block = BLOCKS[2]
    assert "# 1.0 (allow), 0.5 (deny)" in block
    allowed, denied = printed_lines(block)
    assert float(allowed) == pytest.approx(1.0, abs=1e-12)
    assert float(denied) == pytest.approx(0.5, abs=1e-12)


def test_ratio_fit_example_fits_both_targets():
    line, reachable = printed_lines(BLOCKS[3])
    ratio, residuals = line.split(" ", 1)
    assert 0.001 < float(ratio) <= 5
    assert residuals.startswith("{'allowed': ") and "'denied': " in residuals
    assert "# about (0.756, 1.0): 55.4 % is out of reach" in BLOCKS[3]
    lo, hi = (float(v) for v in reachable.strip("()").split(", "))
    assert lo == pytest.approx(0.756, abs=5e-4) and hi == pytest.approx(1.0, abs=5e-4)


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A working directory with the examples' counts.csv; outputs go there too."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CQTSIM_OUT_DIR", str(tmp_path))
    # the raw state of fidelity 0.647 with plus, so --weight 0.554 lifts it to 0.830
    a = 2 * (0.647 - 0.5)
    write_exact_counts(tmp_path / "counts.csv",
                       a * np.outer(KET_D, KET_D.conj()) + (1 - a) * np.eye(2) / 2)
    return tmp_path


def test_readme_shows_every_subcommand():
    assert {shlex.split(line)[1] for line in COMMANDS} == {
        "run", "reproduce", "scan-werner", "fit-spdc", "tomo"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, readme_dir, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_config_example_exits_0(readme_dir, capsys):
    (readme_dir / "example.ini").write_text(CONFIG, encoding="utf-8")
    assert main(["run", "--config", "example.ini"]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.splitlines()[-1].startswith("g1,allow,linear:45,")
