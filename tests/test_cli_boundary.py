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
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqtsim.cli import RHO_DIGITS, main

from helpers import validate_density

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e300", "x", ""]
STATES = ["plus", "h", "r", "0.6,0.8j", "-0.6,0.8", "linear:30", "linear:x", "0,0",
          "1,2,3", "nan,1", "foo", "1e200,1e200", "3e-160,4e-160", "linear:inf",
          "0.6;0.8j", "-0.6;0.8", "x;y", " MINUS "]
EPSILONS = ["0", "0.05", "1", "1.5", "-0.1", "nan"]
SEEDS = ["1", "12345", "-3", "x"]

COUNTS = {
    "GOOD": "h,h,700\nv,v,300\nplus,plus,650\nminus,minus,350\nr,r,520\nl,l,480\n",
    # background-heavy table: a large --weight leaves a non-physical state
    "NOISY": "h,h,52\nv,v,48\nplus,plus,61\nminus,minus,39\nr,r,50\nl,l,50\n",
    "ZEROS": "h,h,0\nv,v,0\nplus,plus,10\nminus,minus,0\nr,r,5\nl,l,5\n",
    "BAD": "h,notastate,12\n",
    "EMPTY": "",
    # GOOD with its h and plus projectors written at extreme scales
    "SCALED": ("h,1e200;0,700\nv,v,300\nplus,3e-160;3e-160,650\nminus,minus,350\n"
               "r,r,520\nl,l,480\n"),
    "INFKET": "h,inf;1,700\nv,v,300\nplus,plus,650\nminus,minus,350\nr,r,520\nl,l,480\n",
    "NANCOUNT": "h,h,nan\nv,v,300\nplus,plus,650\nminus,minus,350\nr,r,520\nl,l,480\n",
    # beyond the largest mean numpy's Poisson sampler accepts
    "HUGE": "h,h,1e19\nv,v,300\nplus,plus,650\nminus,minus,350\nr,r,520\nl,l,480\n",
    # every count finite, their sum not
    "OVERFLOW": "h,h,1e308\nv,v,1e308\nplus,plus,1e308\nminus,minus,1e308\nr,r,1e308\n"
                "l,l,1e308\n",
}
HEADER = "label,projector,count\n"
FILES = {name: HEADER + body for name, body in COUNTS.items()}
FILES["CONFIG"] = ("[run]\ninput = linear:45\nideal = true\n[scan-werner]\nq_grid = 0:1:5\n"
                   "[tomo]\nweight = 0.3\n[fit-spdc]\ninput = r\n")

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
        "--counts": list(COUNTS) + ["/nonexistent/counts.csv"],
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


# --- state inputs at the edges of the floating-point range ----------------------------------

def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def without_echo(out, key):
    """The printed lines, less the one that echoes the state as it was typed."""
    lines = out.splitlines()
    if key == "input":      # run: one table row; drop the input column
        header, row = (next(csv.reader([line])) for line in lines[1:])
        return [value for name, value in zip(header, row) if name != "input"]
    return [line for line in lines if not line.startswith(f"{key},")]


EMISSION_RUN = ["run", "--channel", "g1", "--action", "deny", "--pbs-epsilon", "0.05",
                "--kappa-forward", "0.1"]


@pytest.mark.parametrize("extreme, plain", [
    ("1e200,1e200", "plus"),            # |a|^2 overflowed
    ("1e308,-1e308", "minus"),          # so did |a| of the complex component
    ("3e-160,4e-160", "0.6,0.8"),       # |a|^2 + |b|^2 underflowed to 0
])
def test_run_input_scale_does_not_matter(extreme, plain):
    code, out, err = run_main(EMISSION_RUN + [f"--input={extreme}"])
    assert (code, err) == (0, "")
    assert without_echo(out, "input") == without_echo(
        run_main(EMISSION_RUN + [f"--input={plain}"])[1], "input")


def test_tomo_target_scale_does_not_matter(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(FILES["GOOD"], encoding="utf-8")
    tomo = ["tomo", "--counts", str(counts)]
    code, out, err = run_main(tomo + ["--target=1e200,1"])
    assert (code, err) == (0, "")
    assert without_echo(out, "target") == without_echo(run_main(tomo + ["--target=h"])[1],
                                                       "target")


@pytest.mark.parametrize("state", ["inf,1", "1,nanj", "1e400,1", "linear:inf",
                                   "linear:-inf", "linear:nan"])
def test_non_finite_state_is_a_usage_error(state, tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(FILES["GOOD"], encoding="utf-8")
    for argv in (["run", "--ideal", f"--input={state}"],
                 ["tomo", "--counts", str(counts), f"--target={state}"]):
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad ") and state in err


@pytest.mark.parametrize("exposure", ["1e-300", "1e-320"])
def test_exposure_too_small_for_any_count_is_a_usage_error(exposure):
    code, out, err = run_main(["run", "--kappa-forward", "0.1", "--exposure", exposure,
                               "--resamples", "200", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --exposure {float(exposure):g} is too small")


# --- counts tables at the edges of the floating-point range ---------------------------------

def run_tomo(tmp_path, table, *options):
    """``tomo`` on a counts table, with every warning raised as an error."""
    path = tmp_path / "counts.csv"
    path.write_text(HEADER + table, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_main(["tomo", "--counts", str(path), *options])


@pytest.mark.parametrize("resamples", [[], ["--resamples", "100", "--seed", "1"]])
def test_tomo_projector_scale_does_not_matter(resamples, tmp_path):
    code, out, err = run_tomo(tmp_path, COUNTS["SCALED"], *resamples)
    assert (code, err) == (0, "")
    assert out == run_tomo(tmp_path, COUNTS["GOOD"], *resamples)[1]


@pytest.mark.parametrize("ket", ["inf;1", "1;nanj", "1e400;0"])
def test_non_finite_projector_is_a_usage_error(ket, tmp_path):
    table = COUNTS["INFKET"].replace("inf;1", ket)
    code, out, err = run_tomo(tmp_path, table)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read counts: bad projector state {ket!r}\n"


@pytest.mark.parametrize("count", ["nan", "inf", "1e400", "-inf"])
@pytest.mark.parametrize("resamples", [[], ["--resamples", "100", "--seed", "1"]])
def test_non_finite_count_is_a_usage_error(count, resamples, tmp_path):
    table = COUNTS["NANCOUNT"].replace("nan", count)
    code, out, err = run_tomo(tmp_path, table, *resamples)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read counts: counts must be finite")


def test_counts_whose_sum_overflows_are_a_usage_error(tmp_path):
    code, out, err = run_tomo(tmp_path, COUNTS["OVERFLOW"])
    assert (code, out) == (2, "")
    assert err == "error: cannot read counts: counts must sum to a finite number\n"
    # a sum just inside the float range still gives a density matrix
    code, out, err = run_tomo(tmp_path, COUNTS["OVERFLOW"].replace("1e308", "2e307"),
                              "--full-precision")
    assert (code, err) == (0, "")
    for rho in density_matrices(out):
        validate_density(rho)


def test_count_near_the_float_limit_gives_the_ml_state(tmp_path):
    # the sum is finite, but 1e308 over the first probability of 1/2 was not
    table = "h,h,1e308\nv,v,1e-300\nplus,plus,0\nminus,minus,0\nr,r,0\nl,l,0\n"
    code, out, err = run_tomo(tmp_path, table, "--target", "h", "--full-precision")
    assert (code, err) == (0, "")
    assert "converged,true\n" in out
    for rho in density_matrices(out):
        assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) < 1e-12


@pytest.mark.parametrize("count", ["1e19", "9.3e18", "1e300"])
def test_count_too_large_to_resample_is_a_usage_error(count, tmp_path):
    table = COUNTS["HUGE"].replace("1e19", count)
    code, out, err = run_tomo(tmp_path, table, "--resamples", "100", "--seed", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot resample these counts: ")
    assert "9.223e+18" in err
    # the point estimate needs no sampler
    code, out, err = run_tomo(tmp_path, table)
    assert (code, err) == (0, "")


def test_exposure_too_large_to_resample_is_a_usage_error():
    code, out, err = run_main(["run", "--kappa-forward", "0.1", "--exposure", "1e300",
                               "--resamples", "200", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: --exposure 1e+300 is too large for these rates: ")
    assert "9.223e+18" in err


@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_negative_seed_is_a_usage_error(seed, tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(FILES["GOOD"], encoding="utf-8")
    for argv in (["run", "--kappa-forward", "0.1", "--resamples", "100", "--seed", seed],
                 ["tomo", "--counts", str(counts), "--resamples", "100", "--seed", seed]):
        assert run_main(argv) == (2, "", "error: --seed must be a non-negative integer\n")
