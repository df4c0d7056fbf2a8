"""Fixed-work benchmark of cqtsim: three workloads, checked outputs, a traced run.

    python3 cqtbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cqtbench/run.py --spread 10 [--workload NAME] [--seconds S]

Run from the root of a checkout; cqtsim is imported from its ``src``.

With ``--trace 0`` one workload runs (``all`` runs the three in turn, one
after another).  A run is a fixed number of whole rounds of seeded
operations, about ``--seconds`` of work on the reference machine, so every
run of a commit does the same work.  It launches ``SETUP_LAUNCHES`` fresh
interpreters; each runs the workload's set-up operation, and the last one
goes on with the timed rounds.  Every process runs one workload on one
thread: the BLAS and OpenMP pools are pinned in the worker's environment.

Every timing metric is reported at the reference host's speed: divided by
the host factor that the worker measured with fixed calibration work
(``hostclock.py``), right after each set-up launch for ``setup_s`` and
between the timed operations for the others.  The line ``raw`` before the
result gives the same metrics as the clock read them, and the factors.

With ``--trace 1`` the traced run covers all three workloads, whichever
``--workload`` names, so that each per-layer metric is read on the workload
whose layers it measures; see README.md.

``--spread N`` runs two sets of N runs of each workload and prints every
end-to-end metric's spread and the shift between the sets next to the bound
in BENCHMARK.json, and the spreads of the raw figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from time import perf_counter

from tracer import LAYER_METRICS
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

# Wall seconds of one round at the commit that added the benchmark (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1, 2 cores); a run does
# round(seconds / ROUND_SECONDS) rounds however fast the program gets.
ROUND_SECONDS = {"protocol_grid": 0.36, "ratio_fit": 4.3, "qubit_analysis": 1.6}
SETUP_LAUNCHES = 5
TRACE_ROUNDS = {"protocol_grid": 3, "ratio_fit": 1, "qubit_analysis": 1}
# a run must end within 180 s; every wait below stops at this deadline
DEADLINE = perf_counter() + 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_cpu_ms_mean", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """A worker did not start, crashed or overran; no result can be given."""


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    return {"ms": "ms", "self_ms": "ms", "kept_share": "ratio"}.get(stat, "count")


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _remaining() -> float:
    return max(0.1, DEADLINE - perf_counter())


def launch(workload: str, seed: int, mode: str, rounds: int = 1):
    """Start a worker; returns (seconds until its set-up operation ended, result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--rounds", str(rounds)]
    start = perf_counter()
    # unbuffered, so that communicate() later sees every byte after READY
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                            bufsize=0)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(_remaining()) and proc.stdout.readline()
        setup_s = perf_counter() - start
        if ready != b"READY\n":
            raise BenchError(f"{workload} worker did not finish its set-up operation")
        out, _ = proc.communicate(timeout=_remaining())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker overran the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def _report(errors: list, attempted: int, failed: int, metrics: dict) -> dict:
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    setups, setup_factors, errors = [], [], []
    for i in range(SETUP_LAUNCHES):
        last = i == SETUP_LAUNCHES - 1
        setup_s, res = launch(workload, seed, "run" if last else "setup",
                              rounds if last else 1)
        setups.append(setup_s)
        setup_factors.append(res["setup_factor"])
        errors += res["errors"]
    walls, cpus = res["wall_s"], res["cpu_s"]
    raw = {"setup_s": statistics.median(setups),
           "ops_per_s": len(walls) / sum(walls),
           "op_ms_p50": 1e3 * statistics.median(walls),
           "op_cpu_ms_mean": 1e3 * statistics.fmean(cpus),
           "peak_rss_mb": res["peak_rss_mb"]}
    host = res["host_factor"]
    values = dict(raw, setup_s=statistics.median(s / f for s, f in zip(setups, setup_factors)),
                  ops_per_s=raw["ops_per_s"] * host, op_ms_p50=raw["op_ms_p50"] / host,
                  op_cpu_ms_mean=raw["op_cpu_ms_mean"] / host)
    print("raw " + json.dumps(dict(raw, host_factor=host, setup_factors=setup_factors)))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return _report(errors, res["attempted"], res["failed"], metrics)


def import_ms(module: str, repeats: int = 3) -> float:
    """Median wall time of ``import module`` in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             env=worker_env(), cwd=ROOT, timeout=_remaining())
        if out.returncode != 0:
            raise BenchError(f"import {module} failed: {out.stderr.decode().strip()}")
        times.append(1e3 * float(out.stdout))
    return statistics.median(times)


def trace_all(seed: int) -> dict:
    metrics = {"import.cqtsim_ms": {"value": import_ms("cqtsim"), "unit": "ms"},
               "import.scipy_ms": {"value": import_ms("scipy.optimize"), "unit": "ms"}}
    errors, attempted, failed = [], 0, 0
    for workload in WORKLOADS:
        _, res = launch(workload, seed, "trace", TRACE_ROUNDS[workload])
        n_ops = len(res["wall_s"])
        for name in LAYER_METRICS[workload]:
            value = res["trace"][name]
            if not name.endswith(".kept_share"):
                value /= n_ops
            metrics[f"{workload}.{name}"] = {"value": value, "unit": unit_of(name)}
        metrics[f"{workload}.trace.overhead_pct"] = {"value": res["overhead_pct"],
                                                     "unit": "%"}
        errors += res["errors"]
        attempted += res["attempted"]
        failed += res["failed"]
    return _report(errors, attempted, failed, metrics)


def combine(results: dict) -> dict:
    """One result for several workloads, metric names prefixed by workload."""
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()}}


def print_result(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result), flush=True)


# --- two sets of runs -------------------------------------------------------------

def spread_of(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread(workloads: list, runs: int, seconds: float) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    record, worst = {}, False
    for workload in workloads:
        sets = []
        for first_seed in (1, 1001):
            results = []
            for seed in range(first_seed, first_seed + runs):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                out = subprocess.run(cmd, capture_output=True, cwd=ROOT)
                if out.returncode != 0:
                    print(out.stderr.decode(), file=sys.stderr)
                    return 1
                lines = out.stdout.decode().splitlines()
                result = json.loads(lines[-1])
                result["raw"] = next(json.loads(line[4:]) for line in lines
                                     if line.startswith("raw "))
                results.append(result)
            sets.append(results)
        record[workload] = sets
        tallies = [(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        worst = worst or not correct or len({f / a for f, a in tallies}) > 1
        print(f"\n{workload}: failed/attempted "
              + "  vs  ".join(f"{f}/{a}" for f, a in tallies) + f"  correct {correct}",
              flush=True)
        print(f"{'metric':16s} {'bound':>6s} {'median 1':>11s} {'spread 1':>9s} "
              f"{'median 2':>11s} {'spread 2':>9s} {'shift':>7s}  {'raw spreads':>13s}")
        for name, m in spec.items():
            a, b = ([r["metrics"][name]["value"] for r in s] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            shift = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            gated = [shift] + ([] if name == "setup_s" else [spread_of(a), spread_of(b)])
            flag = "" if max(gated) <= m["bound"] / 3 else (
                "  above bound/3" if max(gated) <= m["bound"] else "  OVER BOUND")
            worst = worst or max(gated) > m["bound"]
            raw_a, raw_b = ([r["raw"][name] for r in s] for s in sets)
            print(f"{name:16s} {m['bound']:6.3f} {med_a:11.5g} {spread_of(a):9.4f} "
                  f"{med_b:11.5g} {spread_of(b):9.4f} {shift:+7.4f}  "
                  f"{spread_of(raw_a):6.4f} {spread_of(raw_b):6.4f}{flag}", flush=True)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"spread-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"\nruns written to {path}")
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, metavar="N", default=0,
                        help="run two sets of N runs and compare them with the bounds")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "cqtsim", "__init__.py")):
        print(f"error: no cqtsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    selected = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.spread:
            return spread(selected, args.spread, args.seconds)
        if args.trace:
            result = trace_all(args.seed)
        elif len(selected) == 1:
            result = run_workload(selected[0], args.seed, args.seconds)
        else:
            result = combine({w: run_workload(w, args.seed, args.seconds) for w in selected})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
