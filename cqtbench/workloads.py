"""Seeded operations of the three workloads, how to run them and how to check them.

An operation is built from the workload seed alone, runs cqtsim in-process
(through ``cqtsim.cli.main(argv)``, plus one direct library call in
qubit_analysis) and returns what the program printed.  Its check compares
that output with ``oracles`` or with properties that hold without a closed
form; it never compares with a stored copy of an earlier output.

A run is whole rounds.  Every round has the same slots, so the mix of
configurations, the share of order-3 propagations and the share of
operations expected to fail are the same in every run and for every seed;
only the continuous parameters are drawn.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import oracles

WORKLOADS = ("protocol_grid", "ratio_fit", "qubit_analysis")


class CheckFailed(Exception):
    """The program's output contradicts an oracle or a property."""


class KnownFault(CheckFailed):
    """The output is wrong in the way a fault named in CHANGES.md predicts."""


@dataclass
class Op:
    kind: str
    argv: list
    spec: dict


def _rng(seed: int, workload: str, round_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), round_no])


def _haar(rng) -> tuple:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


# --- protocol_grid -------------------------------------------------------------

# (channel, action, roles) per slot; the last slot draws allow or deny.
GRID_SLOTS = (("g1", "allow", "standard"), ("g1", "deny", "standard"),
              ("g2", "allow", "standard"), ("g2", "deny", "standard"),
              ("mix", "allow", "standard"), ("mix", "deny", "standard"),
              ("reference", "none", "standard"), ("g1", None, "swapped"))
ORDER3_SLOTS = (0, 1, 2, 3)     # one single-channel run per round at order 3
IDEAL_PER_ROUND = 2
GRID_RESAMPLES = 10000


def run_argv(spec: dict) -> list:
    argv = ["run", "--format", "json", "--full-precision",
            "--channel", spec["channel"], "--action", spec["action"],
            "--roles", spec["roles"],
            # the '=' form: a leading '-' in the value would read as a flag
            f"--input={spec['alpha']!r},{spec['beta']!r}",
            "--resamples", str(GRID_RESAMPLES), "--seed", str(spec["seed"])]
    if spec["channel"] == "mix":
        argv += ["--mix-p", repr(spec["mix_p"])]
    if spec["ideal"]:
        return argv + ["--ideal"]
    return argv + ["--kappa-forward", repr(spec["kf"]), "--kappa-backward", repr(spec["kb"]),
                   "--pbs-epsilon", repr(spec["eps"]),
                   "--truncation-order", str(spec["order"])]


def grid_round(seed: int, round_no: int) -> list:
    rng = _rng(seed, "protocol_grid", round_no)
    order3 = int(rng.choice(ORDER3_SLOTS))
    others = [i for i in range(len(GRID_SLOTS)) if i != order3]
    ideal = set(int(i) for i in rng.choice(others, IDEAL_PER_ROUND, replace=False))
    ops = []
    for i, (channel, action, roles) in enumerate(GRID_SLOTS):
        kf = float(rng.uniform(0.05, 0.2))
        alpha, beta = _haar(rng)
        spec = {"channel": channel, "roles": roles,
                "action": action or str(rng.choice(["allow", "deny"])),
                "alpha": alpha, "beta": beta, "ideal": i in ideal,
                "kf": kf, "kb": kf * float(rng.uniform(0.2, 1.5)),
                "eps": float(rng.uniform(0.0, 0.1)),
                "order": 3 if i == order3 else 2,
                "mix_p": float(rng.uniform(0.2, 0.8)),
                "seed": int(rng.integers(1, 2**31))}
        ops.append(Op("run", run_argv(spec), spec))
    return ops


def check_run(op: Op, out: dict) -> None:
    spec = op.spec
    f_par, f_perp = out["f_parallel"], out["f_perp"]
    fid, success = out["fidelity"], out["success_probability"]
    if (out["channel"], out["action"]) != (spec["channel"], spec["action"]):
        raise CheckFailed(f"echoed {out['channel']}/{out['action']}")
    if fid != f_par / (f_par + f_perp) or not 0.0 <= fid <= 1.0:
        raise CheckFailed(f"fidelity {fid!r} is not f_par/(f_par+f_perp) in [0, 1]")
    if f_par + f_perp > success * (1 + 1e-12):
        raise CheckFailed(f"f_par+f_perp={f_par + f_perp!r} exceeds success {success!r}")
    mean, std = out["fidelity_mean"], out["fidelity_std"]
    if not (std >= 0.0 and abs(mean - fid) <= 3.0 * std + 1e-12):
        raise CheckFailed(f"Poisson mean {mean!r} is not within 3 std ({std!r}) of {fid!r}")
    if spec["ideal"]:
        expect = oracles.ideal_rates(spec["channel"], spec["action"], spec["roles"],
                                     spec["alpha"], spec["beta"], spec["mix_p"])
        for key, want in expect.items():
            if abs(out[key] - want) > 1e-12:
                raise CheckFailed(f"{key}={out[key]!r}, qubit-level oracle gives {want!r}")


# Order 3 adds six-photon terms whose share of the four-folds grows as kappa^2;
# over 30 drawn configurations the fidelity moved by at most 0.21 kappa_max^2.
ORDER3_TOLERANCE = 1.0


def grid_followups(ops: list, rng: np.random.Generator) -> list:
    """Configurations re-run after the timed loop, as (op, op, tolerance) triples.

    At order 2 every four-fold term has two pairs, so scaling both strengths
    by one factor scales every rate alike and leaves the fidelity unchanged.
    At order 3 the fidelity stays close to that of the same configuration at
    order 2.
    """
    emission = [op for op in ops if not op.spec["ideal"]]
    order2 = [op for op in emission if op.spec["order"] == 2]
    order3 = [op for op in emission if op.spec["order"] == 3]
    pairs = []
    for op in [order2[int(i)] for i in rng.choice(len(order2), min(2, len(order2)),
                                                   replace=False)]:
        spec = dict(op.spec)
        factor = float(rng.uniform(0.5, 1.5))
        factor = min(factor, 0.45 / max(spec["kf"], spec["kb"]))
        spec["kf"], spec["kb"] = spec["kf"] * factor, spec["kb"] * factor
        pairs.append((op, Op("run", run_argv(spec), spec), 1e-12))
    for op in order3[:2]:
        spec = dict(op.spec, order=2)
        tol = ORDER3_TOLERANCE * max(spec["kf"], spec["kb"]) ** 2
        pairs.append((op, Op("run", run_argv(spec), spec), tol))
    return pairs


# --- ratio_fit -------------------------------------------------------------------

FIT_INPUTS = ("plus", "minus", "r", "l")
# Inside these ranges every round trip lands in the right basin (checked on a
# grid of ratios and epsilons for each input); outside them the result
# depends on the seed, see the fit_source_ratio line in CHANGES.md.
FIT_RATIO_RANGE = (0.05, 1.0)
FIT_EPS_RANGE = (0.025, 0.1)
# Fixed round trip that lands in the low-ratio basin of the two-basin cost.
FAULTY_FIT = {"ratio": 2.0, "eps": 0.05, "input": "plus", "expect_fault": True}


def fit_argv(spec: dict) -> list:
    return ["fit-spdc", "--format", "json", "--full-precision",
            "--synthetic-ratio", repr(spec["ratio"]), "--pbs-epsilon", repr(spec["eps"]),
            "--input", spec["input"]]


def fit_round(seed: int, round_no: int) -> list:
    rng = _rng(seed, "ratio_fit", round_no)
    lo, hi = np.log(FIT_RATIO_RANGE)
    ops = []
    for name in rng.permutation(FIT_INPUTS):
        spec = {"ratio": float(np.exp(rng.uniform(lo, hi))),
                "eps": float(rng.uniform(*FIT_EPS_RANGE)), "input": str(name),
                "expect_fault": False}
        ops.append(Op("fit", fit_argv(spec), spec))
    ops.insert(int(rng.integers(0, len(ops) + 1)), Op("fit", fit_argv(FAULTY_FIT), FAULTY_FIT))
    return ops


def check_fit(op: Op, out: dict) -> None:
    ratio = op.spec["ratio"]
    fitted = out["fitted_ratio"]
    worst = max(abs(r) for r in out["residual_pp"])
    # half a unit of the sixth printed decimal, plus the fit's own 1e-10 tolerance
    if abs(fitted - ratio) <= 5e-7 + 1e-9 and worst <= 1e-5:
        return
    message = (f"round trip of ratio {ratio!r} gave fitted_ratio={fitted!r} "
               f"(largest residual {worst:.3g} pp, converged={out['converged']})")
    if op.spec["expect_fault"] and fitted < ratio / 2:
        raise KnownFault(message)
    raise CheckFailed(message)


# --- qubit_analysis ---------------------------------------------------------------

TOMO_RESAMPLES = 300
MC_SAMPLES = 150
QUBIT_CHANNELS = ("werner", "ghz_mixture")     # one operation each per round
# The ML iteration count grows with the Bloch length of the counts table, so
# one fixed length keeps every operation's cost alike for every seed (a mix of
# two costs would put op_ms_p50 in the gap between them).  With at least
# 12,000 counts per axis every projector keeps more than 1,000 counts, and
# the weight is drawn so that the corrected Bloch length stays at most 0.8:
# both keep every resample's background subtraction physical.
TOMO_BLOCH_LENGTH = 0.45
TOMO_AXIS_TOTAL = (12000, 16000)
TOMO_MAX_CORRECTED_LENGTH = 0.8
# The fixed-point ML stops on a 1e-10 relative change of the log-likelihood,
# which leaves the state a few 1e-6 from the exact maximum.
TOMO_RHO_TOLERANCE = 1e-4


def qubit_round(seed: int, round_no: int, work_dir: str) -> list:
    rng = _rng(seed, "qubit_analysis", round_no)
    ops = []
    for slot, kind in enumerate(QUBIT_CHANNELS):
        weight = float(rng.uniform(0.0, 1.0 - TOMO_BLOCH_LENGTH / TOMO_MAX_CORRECTED_LENGTH))
        direction = rng.normal(size=3)
        bloch = direction * TOMO_BLOCH_LENGTH / np.linalg.norm(direction)
        counts = {}
        for (a, b), comp in zip(oracles.AXES, bloch):
            total = int(rng.integers(*TOMO_AXIS_TOTAL))
            counts[a] = int(round(total * (1 + comp) / 2))
            counts[b] = total - counts[a]
        alpha, beta = _haar(rng)
        path = os.path.join(work_dir, f"counts-{seed}-{round_no}-{slot}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label,projector,count\n")
            fh.writelines(f"{name},{name},{n}\n" for name, n in counts.items())
        grid_n = int(rng.integers(41, 102))
        spec = {"counts": counts, "target": (alpha, beta), "weight": weight,
                "grid_n": grid_n, "channel": kind, "param": float(rng.uniform(0, 1)),
                "mc_seed": int(rng.integers(1, 2**31))}
        tomo = ["tomo", "--format", "json", "--full-precision", "--counts", path,
                f"--target={alpha!r},{beta!r}", "--weight", repr(weight),
                "--resamples", str(TOMO_RESAMPLES),
                "--seed", str(int(rng.integers(1, 2**31)))]
        scan = ["scan-werner", "--format", "json", "--full-precision",
                "--q-grid", f"0:1:{grid_n}"]
        ops.append(Op("qubit", [tomo, scan], spec))
    return ops


def check_qubit(op: Op, out: dict) -> None:
    spec = op.spec
    tomo = out["tomo"]
    expect = oracles.tomography_expectation(spec["counts"], np.array(spec["target"]),
                                            spec["weight"])
    rho = np.array([[complex(*v) for v in row] for row in tomo["rho"]])
    if np.max(np.abs(rho - expect["rho"])) > TOMO_RHO_TOLERANCE:
        raise CheckFailed(f"ML state differs from linear inversion by "
                          f"{np.max(np.abs(rho - expect['rho'])):.3g}")
    for key in ("raw_fidelity", "corrected_fidelity"):
        if abs(tomo[key] - expect[key]) > TOMO_RHO_TOLERANCE:
            raise CheckFailed(f"{key}={tomo[key]!r}, linear inversion gives {expect[key]!r}")
    mean, std = tomo["fidelity_mean"], tomo["fidelity_std"]
    if not (std > 0.0 and abs(mean - tomo["corrected_fidelity"]) <= 4.0 * std):
        raise CheckFailed(f"resampled mean {mean!r} is not within 4 std ({std!r}) "
                          f"of {tomo['corrected_fidelity']!r}")
    rows = out["scan"]["rows"]
    if len(rows) != spec["grid_n"]:
        raise CheckFailed(f"scan has {len(rows)} rows, asked for {spec['grid_n']}")
    for q, f_allowed, f_denied in rows:
        want = oracles.werner_row(q)
        if abs(f_allowed - want[0]) > 1e-12 or abs(f_denied - want[1]) > 1e-12:
            raise CheckFailed(f"scan row q={q!r}: ({f_allowed!r}, {f_denied!r}) != {want}")
    crossing = [c for c in out["scan"]["comments"] if "crosses 2/3 at q=" in c]
    if len(crossing) != 1 or abs(float(crossing[0].split("q=")[1])
                                 - oracles.WERNER_THRESHOLD_Q) > 1e-9:
        raise CheckFailed(f"scan threshold comment {crossing!r}, expected q=1/3")
    want = oracles.avg_fidelity_closed_form(spec["channel"], spec["param"])
    if abs(out["mc"] - want) > oracles.mc_tolerance(MC_SAMPLES):
        raise CheckFailed(f"Monte-Carlo average {out['mc']!r}, closed form {want!r}")


# --- running ---------------------------------------------------------------------

def call_cli(argv: list) -> str:
    from cqtsim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise CheckFailed(f"cqtsim {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def execute(op: Op):
    """Run one operation; returns the raw outputs, parsed later by ``check``."""
    if op.kind == "qubit":
        from cqtsim import channels

        tomo, scan = (call_cli(argv) for argv in op.argv)
        spec = op.spec
        rho = (channels.make_werner(spec["param"]) if spec["channel"] == "werner"
               else channels.make_ghz_mixture(spec["param"]))
        branches = channels.condition_on_controller(rho, "pm")
        mc = channels.mc_avg_teleport_fidelity(branches, MC_SAMPLES, spec["mc_seed"])
        return tomo, scan, mc
    return call_cli(op.argv)


def _table(text: str) -> dict:
    payload = json.loads(text)
    return payload, [dict(zip(payload["columns"], row)) for row in payload["rows"]]


def parse(op: Op, raw) -> dict:
    if op.kind == "run":
        return _table(raw)[1][0]
    if op.kind == "fit":
        payload, rows = _table(raw)
        notes = dict(c.split("=", 1) for c in payload["comments"] if "=" in c)
        return {"fitted_ratio": float(notes["fitted_ratio"]),
                "converged": notes["converged"],
                "residual_pp": [row["residual_pp"] for row in rows]}
    tomo, scan, mc = raw
    return {"tomo": json.loads(tomo), "scan": json.loads(scan), "mc": mc}


CHECKS = {"run": check_run, "fit": check_fit, "qubit": check_qubit}


def check(op: Op, raw) -> None:
    try:
        out = parse(op, raw)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from None
    CHECKS[op.kind](op, out)


def make_round(workload: str, seed: int, round_no: int, work_dir: str) -> list:
    if workload == "protocol_grid":
        return grid_round(seed, round_no)
    if workload == "ratio_fit":
        return fit_round(seed, round_no)
    return qubit_round(seed, round_no, work_dir)


SETUP_ROUND = 2**32 - 1


def first_op(workload: str, seed: int, work_dir: str) -> Op:
    """The set-up operation, from a round the timed loop never uses.

    It is an order-2 emission run, a fit expected to succeed, or a qubit
    analysis, so its cost does not depend on the seed's slot draws.
    """
    ops = make_round(workload, seed, SETUP_ROUND, work_dir)
    return next(op for op in ops
                if not op.spec.get("ideal") and op.spec.get("order", 2) == 2
                and not op.spec.get("expect_fault"))
