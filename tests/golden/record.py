"""Record the golden digests that ``tests/test_golden.py`` replays.

``digests.json`` maps each command of the corpus, written as
``shlex.join(argv)``, to the sha256 of what ``cqtsim.cli.main(argv)`` does in
process at default precision: its exit code, stdout and stderr (``digest``).
Default-precision bytes do not follow the BLAS kernel, so the digests hold
on every host.  Each command runs with this directory as its working
directory, so it names the count tables and config files beside this file
without a path, and with ``COLUMNS=80``, since argparse wraps its usage lines
to ``$COLUMNS``.

    PYTHONPATH=src python tests/golden/record.py 'fit-spdc --input h --pbs-epsilon 0'

re-records the commands named on the command line, each as its
``shlex.join`` key (a key that starts with ``--``, such as
``'--config run.ini run'``, is still a key); ``--all`` records the whole
corpus (``corpus()``) afresh.
Re-recording changes a check, so each re-recorded command and its reason
belong in CHANGES.md.

    PYTHONPATH=src python tests/golden/record.py --full-precision PATH

writes the digests of every command with ``--full-precision`` added to PATH
instead, and touches no committed file.  Those bytes can follow the BLAS
kernel, so they serve only to compare two checkouts on one host:

    PYTHONPATH=PARENT/src python tests/golden/record.py --full-precision A.json
    PYTHONPATH=src python tests/golden/record.py --full-precision B.json
    python tests/golden/record.py --compare A.json B.json

``--compare A B`` prints the command of every key whose digest differs
between the two files, or that only one of them holds, then their count,
and exits 1 if there is any.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import sys
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

FIT_INPUTS = ("h", "v", "plus", "r", "linear:30", "0.6,0.8j")
FIT_EPSILONS = ("0", "0.025", "0.05", "0.1")
FIT_TARGETS = ((), ("--synthetic-ratio", "0.3"), ("--synthetic-ratio", "2"),
               ("--targets", "10,50,40"))
RUN_INPUTS = ("h", "v", "plus", "minus", "r", "l", "linear:30", "0.6,0.8j")
RUN_SOURCES = (
    ("--ideal",),
    ("--kappa-forward", "0.1", "--kappa-backward", "0.055", "--pbs-epsilon", "0.05"),
    ("--kappa-forward", "0.2", "--kappa-backward", "0.1", "--truncation-order", "3",
     "--format", "json"),
    ("--resamples", "200", "--seed", "5"),
)
# the exits of the mixture and the fit that the grids above do not reach
EDGES = (
    # one empty half: g1 deny of h, and g2 deny of v, cannot coincide at eps = 1
    ("run", "--channel", "mix", "--action", "deny", "--input", "h",
     "--kappa-forward", "0.1", "--pbs-epsilon", "1"),
    ("run", "--channel", "mix", "--action", "deny", "--input", "v",
     "--kappa-forward", "0.1", "--pbs-epsilon", "1", "--mix-p", "0"),
    # both halves empty: no four-photon sector at order 1
    ("run", "--channel", "mix", "--kappa-forward", "0.1", "--truncation-order", "1"),
    ("run", "--channel", "mix", "--roles", "swapped"),
    ("run", "--channel", "mix", "--roles", "swapped", "--kappa-forward", "0.1",
     "--truncation-order", "1"),
    ("run", "--channel", "mix", "--mix-p", "1.5"),
    # the allowed configuration cannot coincide; with v no share is undesired
    ("fit-spdc", "--pbs-epsilon", "1"),
    ("fit-spdc", "--pbs-epsilon", "1", "--input", "v"),
)
# every valid channel and action of a single run
RUN_CONFIGS = (("g1", "allow"), ("g1", "deny"), ("g1", "none"), ("g2", "allow"),
               ("g2", "deny"), ("g2", "none"), ("reference", "none"))
SINGLE_INPUTS = ("h", "plus", "r", "0.6,0.8j")
SINGLE_SOURCES = (
    ("--ideal",),
    ("--kappa-forward", "0.1", "--kappa-backward", "0.055", "--pbs-epsilon", "0.05"),
    ("--resamples", "200", "--seed", "5", "--format", "json"),
)
# the count tables beside this file: a mixed table, one with a zero count, one
# below 1 count; a pure table (a zero count whose probability vanishes),
# subnormal counts, counts too large to resample, a table whose resamples are
# sometimes empty and one that is not informationally complete
TOMO_TABLES = ("axial", "zero", "below1", "pure", "subnormal", "huge", "sparse",
               "incomplete")
# Poisson tables of near-pure states (Bloch length 0.98, 0.99, 0.995, 0.999,
# 0.9995 and 0.9999; 10^3 to 10^5 counts per axis), nearpure-5 and nearpure-6
# with a linear inversion outside the Bloch ball, each with the ket of its
# state as target; and a table whose r/l axis holds 111 of 1.1 million counts
NEAR_PURE_TARGETS = ("0.623023,-0.757136-0.196437j", "0.204293,0.925755+0.318184j",
                     "0.360586,0.893151-0.268810j", "0.967059,-0.078130-0.242266j",
                     "0.396024,0.580506+0.711462j", "0.763313,0.327756+0.556713j")
TOMO_RESAMPLED = ("--resamples", "100", "--seed", "3", "--format", "json")
# the scan's edge cases: one point, both ends only, a fine grid, repeated values
SCAN_EDGES = (("--q-grid", "0:1:1"), ("--q-grid", "0:1:2"), ("--q-grid", "0:1:10001"),
              ("--q-list", "0.5,0.5,1,0,0.5,1"))
# argument parsing, its errors and the config file
ARGV_EDGES = (
    (),
    ("bogus",),
    ("-x",),
    ("run", "--bogus"),
    ("run", "extra"),
    ("run", "--", "extra"),
    ("run", "--channel", "g3"),
    ("run", "--kappa-forward", "abc"),
    ("run", "--format", "xml"),
    ("run", "--targets", "1,2,3"),
    ("tomo",),
    ("tomo", "--counts", "missing.csv"),
    ("reproduce",),
    ("reproduce", "table2"),
    ("fit-spdc", "--targets", "1,2,3", "--synthetic-ratio", "1"),
    ("run", "--config"),
    ("run", "--config", "run.ini"),
    ("run", "--config", "run.ini", "--action", "allow", "--input", "h"),
    ("run", "--conf", "run.ini"),
    ("run", "--config=run.ini"),
    ("run", "--config", "unknown-key.ini"),
    ("run", "--config", "missing.ini"),
    ("run", "--ideal", "--conf=missing.ini"),
    ("--config", "run.ini", "run"),
    ("tomo", "--config", "run.ini"),
    ("scan-werner", "--q-list", "0.5", "--config", "run.ini"),
    ("run", "--input", "-0.6,0.8"),
    ("run", "--input=-0.6,0.8"),
    ("run", "--inp", "-0.6;0.8j"),
    ("run", "--in", "-0.6,0.8", "extra"),
    ("fit-spdc", "--input", "-0.6,0.8", "--pbs-epsilon", "0"),
    ("tomo", "--counts", "axial.csv", "--target", "-0.6,0.8"),
)


def corpus() -> list:
    """The argv of every command whose digest is recorded."""
    argvs = [["fit-spdc", "--input", name, "--pbs-epsilon", eps, *targets]
             for name, eps, targets in itertools.product(FIT_INPUTS, FIT_EPSILONS, FIT_TARGETS)]
    argvs += [["run", "--channel", "mix", "--action", action, "--input", name, *source]
              for action, name, source in itertools.product(("allow", "deny", "none"),
                                                            RUN_INPUTS, RUN_SOURCES)]
    argvs += [list(argv) for argv in EDGES]
    argvs += [["run", "--channel", channel, "--action", action, "--input", name, *source]
              for (channel, action), name, source in itertools.product(
                  RUN_CONFIGS, SINGLE_INPUTS, SINGLE_SOURCES)]
    argvs += [["tomo", "--counts", f"{table}.csv", "--weight", weight, *resamples,
               "--format", fmt]
              for table, weight, resamples, fmt in itertools.product(
                  TOMO_TABLES, ("0", "0.2"), ((), ("--resamples", "100", "--seed", "3")),
                  ("csv", "json"))]
    argvs += [["tomo", "--counts", f"nearpure-{i}.csv", "--target", target, *resampled]
              for (i, target), resampled in itertools.product(
                  enumerate(NEAR_PURE_TARGETS, 1), ((), TOMO_RESAMPLED))]
    argvs += [["tomo", "--counts", "unbalanced.csv", *resampled]
              for resampled in ((), TOMO_RESAMPLED)]
    argvs += [["scan-werner", "--q-grid", "0:1:101", "--format", fmt] for fmt in ("csv", "json")]
    argvs += [["scan-werner", "--q-list", "0,0.25,0.5,0.6667,0.7,1"]]
    argvs += [["scan-werner", *edge] for edge in SCAN_EDGES]
    argvs += [["reproduce", "table1", "--format", fmt] for fmt in ("csv", "json")]
    return argvs + [list(argv) for argv in ARGV_EDGES]


def digest(argv: list) -> str:
    """sha256 of the exit code, stdout and stderr of ``cli.main(argv)``."""
    from cqtsim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(HERE), mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def load(path: str = DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(path_a: str, path_b: str) -> int:
    """Print every command whose digest differs between two digest files."""
    a, b = load(path_a), load(path_b)
    differ = [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]
    for key in differ:
        print(key)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} commands differ")
    return 1 if differ else 0


def main(args: list) -> int:
    if args[:1] == ["--compare"] and len(args) == 3:
        return compare(args[1], args[2])
    if args[:1] == ["--full-precision"] and len(args) == 2:
        digests = {shlex.join(argv): digest(argv + ["--full-precision"]) for argv in corpus()}
        path = args[1]
    elif args == ["--all"]:
        digests = {shlex.join(argv): digest(argv) for argv in corpus()}
        path = DIGESTS
    elif args and (not args[0].startswith("--") or args[0] in load()):
        digests = load()
        for key in args:
            if key not in digests:
                print(f"not in the corpus: {key}", file=sys.stderr)
                return 2
            digests[key] = digest(shlex.split(key))
        path = DIGESTS
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
