"""Record the golden digests that ``tests/test_golden.py`` replays.

``digests.json`` maps each command of the corpus, written as
``shlex.join(argv)``, to the sha256 of what ``cqtsim.cli.main(argv)`` does in
process at default precision: its exit code, stdout and stderr (``digest``).
Default-precision bytes do not follow the BLAS kernel, so the digests hold
on every host.

    PYTHONPATH=src python tests/golden/record.py 'fit-spdc --input h --pbs-epsilon 0'

re-records the commands named on the command line, each as its
``shlex.join`` key; ``--all`` records the whole corpus (``corpus()``) afresh.
Re-recording changes a check, so each re-recorded command and its reason
belong in CHANGES.md.

    PYTHONPATH=src python tests/golden/record.py --full-precision PATH

writes the digests of every command with ``--full-precision`` added to PATH
instead, and touches no committed file.  Those bytes can follow the BLAS
kernel, so they serve only to compare two checkouts on one host.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

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


def corpus() -> list:
    """The argv of every command whose digest is recorded."""
    argvs = [["fit-spdc", "--input", name, "--pbs-epsilon", eps, *targets]
             for name, eps, targets in itertools.product(FIT_INPUTS, FIT_EPSILONS, FIT_TARGETS)]
    argvs += [["run", "--channel", "mix", "--action", action, "--input", name, *source]
              for action, name, source in itertools.product(("allow", "deny", "none"),
                                                            RUN_INPUTS, RUN_SOURCES)]
    return argvs + [list(argv) for argv in EDGES]


def digest(argv: list) -> str:
    """sha256 of the exit code, stdout and stderr of ``cli.main(argv)``."""
    from cqtsim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def load() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def main(args: list) -> int:
    if args[:1] == ["--full-precision"] and len(args) == 2:
        digests = {shlex.join(argv): digest(argv + ["--full-precision"]) for argv in corpus()}
        path = args[1]
    elif args == ["--all"]:
        digests = {shlex.join(argv): digest(argv) for argv in corpus()}
        path = DIGESTS
    elif args and not args[0].startswith("--"):
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
