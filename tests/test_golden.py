"""Replay the golden corpus of ``tests/golden/digests.json``.

Each command runs in process through ``cli.main``; its exit code, stdout and
stderr must hash to the recorded digest (``tests/golden/record.py`` says how
the digests are recorded).  A failure lists the argv of every command that
differs.
"""

import json
import os
import shlex
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import record  # noqa: E402

GOLDEN = record.load()

# sets ``core`` to the name of the kernel that numpy's OpenBLAS runs, or None
OPENBLAS_CORE = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
names = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
         "openblas_get_corename")
core = None
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in names:
        if hasattr(lib, name):
            getattr(lib, name).restype = ctypes.c_char_p
            core = getattr(lib, name)().decode()
"""
REPLAY = OPENBLAS_CORE + """
import json, shlex, sys
sys.path.insert(0, sys.argv[1])
import record
print(json.dumps([core, {key: record.digest(shlex.split(key)) for key in record.load()}]))
"""


def assert_same(digests: dict):
    changed = [key for key, want in GOLDEN.items() if digests.get(key) != want]
    assert not changed, f"{len(changed)} commands print otherwise:\n" + "\n".join(changed)


def test_the_corpus_is_recorded_whole():
    assert sorted(GOLDEN) == sorted(shlex.join(argv) for argv in record.corpus())


def test_every_command_keeps_its_digest():
    assert_same({key: record.digest(shlex.split(key)) for key in GOLDEN})


def test_the_digests_hold_on_a_kernel_without_fma():
    # OpenBLAS picks its kernel at run time; Prescott has no fused multiply-add
    import cqtsim

    here = {}
    exec(OPENBLAS_CORE, here)
    src = os.path.dirname(os.path.dirname(cqtsim.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", REPLAY, os.path.dirname(record.__file__)],
                          env=env, capture_output=True, text=True, check=True)
    core, digests = json.loads(done.stdout)
    if here["core"] is None or core == here["core"]:
        pytest.skip(f"numpy's BLAS does not switch kernels here (core {here['core']!r})")
    assert_same(digests)


def test_compare_names_every_command_that_differs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"run --ideal": "1", "tomo": "2", "reproduce table1": "3"}))
    b.write_text(json.dumps({"run --ideal": "1", "tomo": "9", "scan-werner": "4"}))
    assert record.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == ("tomo\nreproduce table1\nscan-werner\n"
                                       "3 of 4 commands differ\n")
    assert record.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 of 3 commands differ\n"


@pytest.fixture
def temporary_digests(tmp_path, monkeypatch):
    """A digests file of one entry in place of the committed one."""
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"reproduce table1 --format csv": "0"}))
    monkeypatch.setattr(record, "DIGESTS", str(path))
    return path


def test_a_command_the_corpus_gained_is_recorded(temporary_digests, monkeypatch):
    gained, corpus = ["scan-werner", "--q-list", "0.25"], record.corpus
    monkeypatch.setattr(record, "corpus", lambda: corpus() + [gained])
    assert record.main([shlex.join(gained)]) == 0
    assert json.loads(temporary_digests.read_text()) == {
        "reproduce table1 --format csv": "0", shlex.join(gained): record.digest(gained)}


@pytest.mark.parametrize("key", ["scan-werner --q-list 0.25", "--config missing.ini run"])
def test_a_command_outside_the_corpus_is_not_recorded(temporary_digests, capsys, key):
    assert record.main(["reproduce table1 --format csv", key]) == 2
    assert capsys.readouterr().err == f"not in the corpus: {key}\n"
    assert json.loads(temporary_digests.read_text()) == {"reproduce table1 --format csv": "0"}
