"""Every name a module of the package imports is used in that module, every
private module-level name it defines is used somewhere in the package, and
every public function and class it defines has a user outside the tests.

The package's ``__init__`` is exempt from the first check, as it only
re-exports names, and its re-exports do not count as uses in the third.  The checks read the source with ``ast`` alone, so they need no linter.

The last checks pin the import graph in fresh interpreters: ``import
cqtsim`` loads no module of the package, and each command loads only the
layers it runs.
"""

import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cqtsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no other line refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import math\nfrom os import path, sep as s\nprint(path.join('a'))\n"
    assert unused_imports(source) == [(1, "math"), (2, "s")]


def references(tree):
    """Every name ``tree`` reads: bare names, attributes and names imported from a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def definitions(tree):
    """``(name, node)`` of each module-level function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def private_definitions(tree):
    """``definitions`` named ``_name``, dunders excluded."""
    return ((name, node) for name, node in definitions(tree)
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))


def unused_private_names(sources: dict) -> list:
    """``(file, name)`` of the private definitions in ``sources`` (file name to
    source) that no code outside the definition itself refers to."""
    trees = {file: ast.parse(source) for file, source in sources.items()}
    used = Counter(name for tree in trees.values() for name in references(tree))
    return sorted((file, name) for file, tree in trees.items()
                  for name, node in private_definitions(tree)
                  if used[name] <= Counter(references(node))[name])


def test_package_uses_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def test_unused_private_name_is_reported():
    sources = {
        "a.py": ("_kept = 1\n_dead: int = 2\n__dunder__ = 3\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Used:\n    pass\n"),
        "b.py": "from .a import _kept\nimport a\nprint(_kept, a._Used)\n",
    }
    assert unused_private_names(sources) == [("a.py", "_dead"), ("a.py", "_recursive")]


def mentions(tree):
    """``references`` of ``tree`` and every word of its string constants, such
    as the dotted ``"module.function.ms"`` metric names of the benchmark."""
    yield from references(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from re.findall(r"\w+", node.value)


def unreferenced_public_names(sources: dict, users: dict, readme: str) -> list:
    """``(file, name)`` of the public module-level functions and classes in
    ``sources`` (file name to package source) that nothing refers to outside
    the definition itself.

    A reference counts from another part of the package, from ``users``
    (file name to the source of a documented caller: the acceptance tests and
    the benchmark) or by name in ``readme``.  The re-exports of ``__init__.py``
    do not count.
    """
    trees = {file: ast.parse(source) for file, source in sources.items()
             if file != "__init__.py"}
    used = Counter(name for tree in trees.values() for name in references(tree))
    used.update(name for source in users.values() for name in mentions(ast.parse(source)))
    return sorted((file, node.name) for file, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and used[node.name] <= Counter(references(node))[node.name]
                  and not re.search(rf"\b{node.name}\b", readme))


def test_package_has_a_user_for_every_public_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    users = {p.name: p.read_text(encoding="utf-8")
             for p in [ROOT / "tests" / "test_acceptance.py", *ROOT.glob("cqtbench/*.py")]}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unreferenced_public_names(sources, users, readme) == []


def test_unreferenced_public_name_is_reported():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def called():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "def exported():\n    pass\n"
                 "class Documented:\n    pass\n"
                 "def timed():\n    pass\n"
                 "def accepted():\n    pass\n"
                 "def _private():\n    pass\n"),
        "b.py": "from .a import called\ncalled()\n",
    }
    users = {"bench.py": 'METRICS = ("a.timed.ms",)\n',
             "test_acceptance.py": "from cqtsim.a import accepted\n"}
    readme = "Build a `Documented` state; recursive_builder is another name.\n"
    assert unreferenced_public_names(sources, users, readme) == [
        ("a.py", "exported"), ("a.py", "recursive")]


def modules_naming(name: str, sources: dict) -> list:
    """The files of ``sources`` (file name to source) whose code refers to ``name``."""
    return sorted(file for file, source in sources.items()
                  if name in references(ast.parse(source)))


def test_only_fock_reads_the_named_state_table():
    # fock.parse_ket is the one reader of a written state: a second lookup
    # of NAMED_KETS would be a second parser with its own grammar and errors
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert modules_naming("NAMED_KETS", sources) == ["fock.py"]


def test_module_naming_a_name_is_reported():
    sources = {"fock.py": "NAMED_KETS = {}\nprint(NAMED_KETS)\n",
               "cli.py": "from .fock import NAMED_KETS\n",
               "estimation.py": "from . import fock\nfock.NAMED_KETS['h']\n",
               "protocol.py": "named_kets = 'NAMED_KETS'\n"}
    assert modules_naming("NAMED_KETS", sources) == ["cli.py", "estimation.py", "fock.py"]


# Prints the package's modules (and configparser and csv) loaded after
# ``import cqtsim``, then after each command of argv[1] (a JSON list of argv)
# has run.
LOADED = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("cqtsim.") or m in ("configparser", "csv"))

import cqtsim
after_import = loaded()
from cqtsim import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps([after_import, loaded()]))
"""


@functools.lru_cache(maxsize=None)
def loaded_after(*commands: str) -> list:
    """``[after import cqtsim, after the commands]``: the package's modules,
    configparser and csv that a fresh interpreter has loaded, the commands run
    in ``tests/golden`` through ``cli.main``, on the ``cqtsim`` these tests imported."""
    import cqtsim

    src = os.path.dirname(os.path.dirname(cqtsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps([c.split() for c in commands])],
        cwd=ROOT / "tests" / "golden", env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


QUBIT_COMMANDS = ("tomo --counts axial.csv", "scan-werner --q-list 0.5")
PHOTON_COMMANDS = ("run --kappa-forward 0.1", "fit-spdc --synthetic-ratio 0.8")


def test_import_cqtsim_loads_no_module_of_the_package():
    assert loaded_after(*QUBIT_COMMANDS)[0] == loaded_after(*PHOTON_COMMANDS)[0] == []


def test_tomo_and_scan_werner_load_no_photon_engine():
    loaded = loaded_after(*QUBIT_COMMANDS)[1]
    assert {"cqtsim.cli", "cqtsim.estimation", "cqtsim.channels"} <= set(loaded)
    assert not {"cqtsim.protocol", "cqtsim.spdc", "cqtsim.elements"} & set(loaded)


def test_run_and_fit_spdc_load_neither_channels_nor_configparser():
    loaded = loaded_after(*PHOTON_COMMANDS)[1]
    assert {"cqtsim.protocol", "cqtsim.spdc"} <= set(loaded)
    assert not {"cqtsim.channels", "configparser"} & set(loaded)


def test_json_fit_spdc_and_scan_werner_load_neither_estimation_nor_csv():
    loaded = loaded_after("fit-spdc --synthetic-ratio 0.8 --format json",
                          "scan-werner --q-list 0.5 --format json")[1]
    assert {"cqtsim.protocol", "cqtsim.channels"} <= set(loaded)
    assert not {"cqtsim.estimation", "csv"} & set(loaded)


def test_json_run_loads_no_csv_and_tomo_loads_estimation():
    assert "csv" not in loaded_after("run --kappa-forward 0.1 --format json")[1]
    assert "cqtsim.estimation" in loaded_after("tomo --counts axial.csv --format json")[1]


def test_every_export_is_the_object_its_module_defines():
    import cqtsim

    defined = {p.stem: {name for name, _ in definitions(ast.parse(p.read_text(encoding="utf-8")))}
               for p in MODULES}
    assert cqtsim.__all__
    for name in cqtsim.__all__:
        (home,) = [module for module, names in defined.items() if name in names]
        assert getattr(cqtsim, name) is getattr(importlib.import_module(f"cqtsim.{home}"), name)
    assert not hasattr(cqtsim, "nope")
