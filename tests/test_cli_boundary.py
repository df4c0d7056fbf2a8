HEADER = "label,projector,count\n"
FILES = {
    "GOOD": HEADER + "h,h,700\nv,v,300\nplus,plus,650\nminus,minus,350\nr,r,520\nl,l,480\n",
    # background-heavy table: a large --weight leaves a non-physical state
    "NOISY": HEADER + "h,h,52\nv,v,48\nplus,plus,61\nminus,minus,39\nr,r,50\nl,l,50\n",
    "ZEROS": HEADER + "h,h,0\nv,v,0\nplus,plus,10\nminus,minus,0\nr,r,5\nl,l,5\n",
    "BAD": HEADER + "h,notastate,12\n",
    "EMPTY": HEADER,
    "CONFIG": ("[run]\ninput = linear:45\nideal = true\n[scan-werner]\nq_grid = 0:1:5\n"
               "[tomo]\nweight = 0.3\n[fit-spdc]\ninput = r\n"),
}

"""Property test at the command-line boundary.

Any argument vector, valid or not, for any of the five subcommands ends in
exit code 0, 1 or 2 with no traceback, and every density matrix a command
prints is a valid one (at the printed resolution in default precision).
Option values mix valid, boundary and malformed ones; the valid values are
capped (truncation order 3, 200 resamples, 50 scan points) so that one
example stays cheap.
"""

import contextlib
import csv
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqtsim.cli import RHO_DIGITS, main
from cqtsim.fock import validate_density

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e300", "x", ""]
STATES = ["plus", "h", "r", "0.6,0.8j", "-0.6,0.8", "linear:30", "linear:x", "0,0",
          "1,2,3", "nan,1", "foo"]
EPSILONS = ["0", "0.05", "1", "1.5", "-0.1", "nan"]
SEEDS = ["1", "12345", "-3", "x"]

COMMON = {
    "--format": ["csv", "json", "xml"],
    "--full-precision": None,
    "--config": ["CONFIG", "GOOD", "/nonexistent/cqtsim.ini"],
}
OPTIONS = {
    "run": {
        "--channel": ["g1", "g2", "reference", "mix", "g3"],
        "--action": ["allow", "deny", "none", "maybe"],
        "--input": STATES,
        "--ideal": None,
        "--kappa-forward": ["0.1", "0.055", "3e-8", "0.49", "0.6"] + NUMBERS,
        "--kappa-backward": ["0.1", "0.055", "1e-12", "0.49", "0.6"] + NUMBERS,
        "--truncation-order": ["1", "2", "3", "6", "0", "-1", "x"],
        "--pbs-epsilon": EPSILONS,
        "--roles": ["standard", "swapped", "other"],
        "--mix-p": ["0.5", "0", "1", "2", "-1", "nan"],
        "--exposure": ["10000", "1"] + NUMBERS,
        "--resamples": ["0", "100", "200", "99", "100001", "-5", "x"],
        "--seed": SEEDS,
        "--reproduce": ["table1", "table2"],
    },
    "scan-werner": {
        "--q-grid": ["0:1:11", "0:1:50", "1:0:5", "0:1:0", "0:1:20000", "0:1", "a:b:c",
                     "-1:2:7", "nan:1:3"],
        "--q-list": ["0.1,0.5,0.9", "", ",", "2", "-1,0.5", "nan", "x,y"],
    },
    "fit-spdc": {
        "--targets": ["13,55.4,30.1", "0,0,0", "100,100,100", "1,2", "a,b,c", "-1,50,50",
                      "101,0,0", "nan,1,1"],
        "--synthetic-ratio": ["0.8", "4", "5", "0.001", "0.0011", "6"] + NUMBERS,
        "--pbs-epsilon": EPSILONS,
        "--input": STATES,
    },
    "tomo": {
        "--counts": ["GOOD", "NOISY", "ZEROS", "BAD", "EMPTY", "/nonexistent/counts.csv"],
        "--target": STATES,
        "--weight": ["0", "0.3", "0.554", "0.9", "1", "-0.1", "nan"],
        "--resamples": ["0", "100", "150", "50", "100001", "x"],
        "--seed": SEEDS,
    },
    "reproduce": {},
}
# What a command needs to get past argument checks, drawn for most examples:
# a positional value, or one of these options (its value drawn as usual).
POSITIONAL = {"reproduce": ["table1", "table2"]}
REQUIRED = {"scan-werner": ["--q-grid", "--q-list"], "tomo": ["--counts"]}

COUNTS = {
    "GOOD": "h,h,700\nv,v,300\nplus,plus,650\nminus,minus,350\nr,r,520\nl,l,480\n",
    # background-heavy table: a large --weight leaves a non-physical state
    "NOISY": "h,h,52\nv,v,48\nplus,plus,61\nminus,minus,39\nr,r,50\nl,l,50\n",
    "ZEROS": "h,h,0\nv,v,0\nplus,plus,10\nminus,minus,0\nr,r,5\nl,l,5\n",
    "BAD": "h,notastate,12\n",
    "EMPTY": "",
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    pool = {**OPTIONS[command], **COMMON}
    argv = [command]
    flags = draw(st.lists(st.sampled_from(sorted(pool)), max_size=6))
    if draw(st.integers(0, 9)):
        if command in POSITIONAL:
            argv.append(draw(st.sampled_from(POSITIONAL[command])))
        if command in REQUIRED:
            flags.insert(0, draw(st.sampled_from(REQUIRED[command])))
    for flag in flags:
        argv.append(flag)
        if pool[flag] is not None and draw(st.integers(0, 9)):   # sometimes no value
            argv.append(draw(st.sampled_from(pool[flag])))
    return argv


def density_matrices(out):
    """The density matrices a successful ``tomo`` printed, as arrays."""
    if out.startswith("{"):
        payload = json.loads(out)
    else:
        rows = csv.reader(line for line in out.splitlines() if not line.startswith("#"))
        payload = {key: json.loads(value) for key, value in rows
                   if key in ("rho", "rho_corrected")}
    return [np.array([[complex(*v) for v in row] for row in payload[key]])
            for key in ("rho", "rho_corrected")]


@given(argvs())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_argv_exits_cleanly(tmp_path, argv):
    files = {}
    for name, body in FILES.items():
        files[name] = tmp_path / name
        files[name].write_text(body, encoding="utf-8")
    argv = [str(files[a]) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        # rounding each entry to RHO_DIGITS places moves the trace and the
        # eigenvalues by at most a few units of that resolution
        tol = 1e-12 if "--full-precision" in argv else 4 * 10.0 ** -RHO_DIGITS
        for rho in density_matrices(out.getvalue()) if argv[0] == "tomo" else []:
            validate_density(rho, trace_tol=tol, eig_tol=tol)
