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
``'--config run.ini run'``, is still a key); a command of ``corpus()`` that
``digests.json`` lacks is recorded the same way.  ``--all`` records the whole
corpus afresh.
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
# orders 3 to 5, which the other slices do not reach with a single
# configuration: input plus converges to 0.613, 0.5202 and 0.996 for g1 allow,
# g1 deny and reference; and a backward pair stronger than the forward one
HIGH_ORDER_CONFIGS = (("g1", "allow"), ("g1", "deny"), ("reference", "none"))
HIGH_ORDER_SOURCES = (
    ("--input", "plus", "--kappa-forward", "0.1", "--kappa-backward", "0.055",
     "--pbs-epsilon", "0.05"),
    ("--input", "r", "--kappa-forward", "0.05", "--kappa-backward", "0.2",
     "--pbs-epsilon", "0.025", "--format", "json"),
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
# the swapped roles, whose fiber beam splitter acts on the non-adjacent modes 2
# and 4 and whose controller's polarizer sits on mode 1, with every action
SWAPPED_SOURCES = (
    ("--ideal",),
    ("--kappa-forward", "0.1", "--kappa-backward", "0.055", "--pbs-epsilon", "0.05"),
)
# the PBS at epsilon = 1, which reflects H as it reflects V: g1 allow of plus,
# g1 deny of h and g2 allow of plus exit 1 with no four-fold coincidence
EPSILON_ONE_CONFIGS = (("g1", "allow"), ("g1", "deny"), ("g2", "allow"), ("g2", "deny"),
                       ("reference", "none"))
# the prune of the rounding residue: g2 deny of v and g1 deny of h at epsilon
# = 0 click only amplitudes far below each sector's largest, so a prune taken
# against the clicked amplitudes alone leaves g2 an f_perp of about 1e-38
# where the whole sector's prune prints 0; and the swapped roles at epsilon =
# 1, whose last pair creations reach six and eight photons at orders 3 and 4
PRUNE_CONFIGS = (("g2", "v"), ("g1", "h"))
PRUNE_SOURCES = (("--kappa-forward", "0.1", "--kappa-backward", "0.055"),
                 ("--kappa-forward", "0.05", "--kappa-backward", "0.2"))
# resampled runs whose orthogonal rate is exactly 0: the ideal allowed run,
# the ideal g1 denial of v and the uncontrolled reference run; at an exposure
# of 0.01 the first draw of the parallel count is 0, and at 1e-9 every
# resample is empty (exit 2)
ZERO_RATE_RUNS = (
    ("--ideal", "--resamples", "10000", "--seed", "1"),
    ("--ideal", "--action", "deny", "--input", "v", "--resamples", "10000", "--seed", "1"),
    ("--channel", "reference", "--action", "none", "--kappa-forward", "0.1",
     "--resamples", "10000", "--seed", "2"),
    ("--ideal", "--exposure", "0.01", "--resamples", "10000", "--seed", "1"),
    ("--ideal", "--exposure", "1e-9", "--resamples", "100", "--seed", "1"),
)
# strengths off the grids above; and the floor of the source, where both
# strengths at 1.001e-73 give rates near 1e-293 and both at 1e-73 exit 2
KAPPA_EDGES = (
    ("--kappa-forward", "0.137", "--kappa-backward", "0.02", "--pbs-epsilon", "0.01"),
    ("--kappa-forward", "1.001e-73", "--kappa-backward", "1.001e-73"),
    ("--kappa-forward", "1e-73", "--kappa-backward", "1e-73"),
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
# the background subtraction's edges: the pure table's state clipped back to
# the sphere; a table of 500 counts per axis (mixed.csv) at a weight within
# 1e-7 of 1, whose state keeps a unit trace and whose 100 resamples all fail;
# near-pure resamples clipped, or 44 of them too far outside; and weights on
# a near-pure table and the unbalanced one
RESAMPLED = ("--resamples", "100", "--seed", "3")
WEIGHT_EDGES = (
    ("pure.csv", "0.001"),
    ("pure.csv", "0.001", *TOMO_RESAMPLED),
    ("mixed.csv", "0.9999999"),
    ("mixed.csv", "0.9999999", *RESAMPLED),
    ("nearpure-1.csv", "0.0105", *RESAMPLED),
    ("nearpure-1.csv", "0.02", *RESAMPLED),
    ("nearpure-3.csv", "0.004", *RESAMPLED),
    ("unbalanced.csv", "0.05", *RESAMPLED),
)
# the scan's edge cases: one point, both ends only, a fine grid, repeated values
SCAN_EDGES = (("--q-grid", "0:1:1"), ("--q-grid", "0:1:2"), ("--q-grid", "0:1:10001"),
              ("--q-list", "0.5,0.5,1,0,0.5,1"))
# scans of a fine grid, a coarse one and points around the 2/3 threshold,
# written --format first: their last bits follow the BLAS kernel, and every
# kernel must round them to the same default-precision bytes
SCAN_POINTS = (("--q-grid", "0:1:10001"), ("--q-grid", "0:1:58"), ("--q-grid", "0:1:101"),
               ("--q-list", "0,0.05,0.2,0.3333333333333333,0.5,0.77,1e-3,1"))
# resampled tomography of three tables, whose ML states are fitted in one
# stack and whose last bits may follow the BLAS kernel too
STACKED_TOMO = (("axial.csv", "0.2"), ("zero.csv", "0"), ("below1.csv", "0"))
# test_cli_boundary's HUGE table (h 1e19) and its 1e100 and 1e300 variants:
# axial tables whose maximum is a pure state near the h pole, where the ML fit
# stops unconverged after 16, 2 and 2 steps; no count of 1e19 or more can be
# resampled, so the resampled commands fit the observed table and exit 2
POLE_TABLES = ("pole-1e19", "pole-1e100", "pole-1e300")
POLE_RESAMPLES = (("--resamples", "0"), ("--resamples", "100", "--seed", "1"))
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
    argvs += [["run", "--channel", "g1", "--action", action, "--roles", "swapped",
               "--input", name, *source]
              for action, name, source in itertools.product(
                  ("allow", "deny", "none"), SINGLE_INPUTS, SWAPPED_SOURCES)]
    argvs += [["run", "--channel", channel, "--action", action, "--input", name,
               "--kappa-forward", "0.1", "--kappa-backward", "0.055", "--pbs-epsilon", "1"]
              for (channel, action), name in itertools.product(EPSILON_ONE_CONFIGS,
                                                               ("h", "plus"))]
    argvs += [["run", "--channel", channel, "--action", "deny", "--input", name, *source,
               "--pbs-epsilon", "0"]
              for (channel, name), source in itertools.product(PRUNE_CONFIGS, PRUNE_SOURCES)]
    argvs += [["run", *argv] for argv in ZERO_RATE_RUNS]
    argvs += [["run", *argv] for argv in KAPPA_EDGES]
    argvs += [["run", "--channel", "g1", "--action", action, "--roles", "swapped",
               "--input", "r", "--kappa-forward", "0.1", "--kappa-backward", "0.055",
               "--pbs-epsilon", "1", "--truncation-order", order]
              for action, order in itertools.product(("allow", "deny"), ("3", "4"))]
    argvs += [["run", "--channel", channel, "--action", action, *source,
               "--truncation-order", order]
              for (channel, action), source, order in itertools.product(
                  HIGH_ORDER_CONFIGS, HIGH_ORDER_SOURCES, ("3", "4", "5"))]
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
    argvs += [["tomo", "--counts", table, "--weight", weight, *rest]
              for table, weight, *rest in WEIGHT_EDGES]
    argvs += [["scan-werner", "--q-grid", "0:1:101", "--format", fmt] for fmt in ("csv", "json")]
    argvs += [["scan-werner", "--q-list", "0,0.25,0.5,0.6667,0.7,1"]]
    argvs += [["scan-werner", *edge] for edge in SCAN_EDGES]
    argvs += [["scan-werner", "--format", fmt, *points]
              for fmt, points in itertools.product(("csv", "json"), SCAN_POINTS)]
    argvs += [["tomo", "--counts", table, "--target=0.6,0.8j", "--weight", weight,
               "--resamples", resamples, "--seed", "3", "--format", fmt]
              for (table, weight), fmt, resamples in itertools.product(
                  STACKED_TOMO, ("csv", "json"), ("100", "300"))]
    argvs += [["tomo", "--counts", f"{table}.csv", *resamples]
              for table, resamples in itertools.product(POLE_TABLES, POLE_RESAMPLES)]
    argvs += [["reproduce", "table1", "--format", fmt] for fmt in ("csv", "json")]
    return argvs + [list(argv) for argv in ARGV_EDGES]


def digest(argv: list) -> str:
    """sha256 of the exit code, stdout and stderr of ``cli.main(argv)``."""
    from cqtsim import cli

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(HERE)  # contextlib.chdir needs Python 3.11
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
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
    keys = {shlex.join(argv) for argv in corpus()}
    if args[:1] == ["--compare"] and len(args) == 3:
        return compare(args[1], args[2])
    if args[:1] == ["--full-precision"] and len(args) == 2:
        digests = {shlex.join(argv): digest(argv + ["--full-precision"]) for argv in corpus()}
        path = args[1]
    elif args == ["--all"]:
        digests = {shlex.join(argv): digest(argv) for argv in corpus()}
        path = DIGESTS
    elif args and (not args[0].startswith("--") or args[0] in keys):
        digests = load(DIGESTS)
        for key in args:
            if key not in keys:
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
