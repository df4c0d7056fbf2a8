"""One workload in one fresh, single-threaded interpreter.

    python3 cqtbench/worker.py --workload NAME --seed N --mode MODE [--rounds R]

The worker imports cqtsim from the checkout's ``src``, runs the workload's
set-up operation and prints ``READY`` the moment it ends, so the parent can
time the launch.

After ``READY`` it times ``SETUP_CALIBRATION_S`` of calibration units
(``hostclock``), the host factor by which the parent divides the launch's
set-up time.  Then, by mode:

* ``setup``: stops there.
* ``run``: runs R rounds, timing each operation's wall and CPU time, checks
  every output after its timing ends, and runs the follow-up checks.  After
  each operation it times calibration units for a tenth of the operation's
  wall time; their mean gives the run's host factor.
* ``trace``: runs R rounds twice without wrappers, the second time as the
  untraced reference, then once more with every public cqtsim function
  wrapped, and reports per-layer totals and the wrappers' overhead.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter, process_time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hostclock import SHARE, HostClock  # noqa: E402
from workloads import CheckFailed, KnownFault  # noqa: E402


class Tally:
    """Operations attempted and failed, and messages of unexpected failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, op, run) -> None:
        """Run ``run()`` for ``op``; a failure is recorded, never raised."""
        self.attempted += 1
        try:
            run()
        except KnownFault:
            self.failed += 1
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{' '.join(map(str, op.argv))}: {exc}")
        except Exception:   # a traceback from cqtsim is a failed operation
            self.failed += 1
            self.errors.append(f"{' '.join(map(str, op.argv))}: {traceback.format_exc()}")


# calibration after the set-up operation, for the launch's host factor
SETUP_CALIBRATION_S = 0.25


def timed_pass(ops, tally: Tally, clock: HostClock | None = None):
    """Time and check ``ops``; with a clock, calibrate after each operation."""
    walls, cpus = [], []
    for op in ops:
        def one():
            wall, cpu = perf_counter(), process_time()
            try:
                raw = workloads.execute(op)
            finally:
                walls.append(perf_counter() - wall)
                cpus.append(process_time() - cpu)
            workloads.check(op, raw)
        tally.record(op, one)
        if clock is not None:
            clock.sample(SHARE * walls[-1])
    return walls, cpus


def followups(ops, seed: int, tally: Tally) -> None:
    """Untimed checks that need a second propagation of a timed configuration."""
    rng = np.random.default_rng([seed, 99])
    for op, again, tol in workloads.grid_followups(ops, rng):
        def one():
            first = workloads.parse(op, workloads.execute(op))["fidelity"]
            second = workloads.parse(again, workloads.execute(again))["fidelity"]
            if abs(first - second) > tol:
                raise CheckFailed(f"fidelity {first!r} became {second!r} "
                                  f"(tolerance {tol:.3g})")
        tally.record(again, one)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()

    import cqtsim
    if not os.path.abspath(cqtsim.__file__).startswith(SRC + os.sep):
        print(f"cqtsim imported from {cqtsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work_dir = os.path.join(BENCH_DIR, "out", f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        first = workloads.first_op(args.workload, args.seed, work_dir)
        raw = workloads.execute(first)
        print("READY", flush=True)
        setup_clock = HostClock()
        setup_clock.sample(SETUP_CALIBRATION_S)
        setup = tally = Tally()
        setup.record(first, lambda: workloads.check(first, raw))
        result = {"setup_factor": setup_clock.factor()}
        if args.mode != "setup":
            ops = [op for r in range(args.rounds)
                   for op in workloads.make_round(args.workload, args.seed, r, work_dir)]
            tally = Tally()
            tally.errors += setup.errors
            clock = HostClock()
            walls, cpus = timed_pass(ops, tally, clock)
            result["host_factor"] = clock.factor()
            if args.mode == "trace":
                import tracer
                # the checked pass above filled the lazy calibrations (analyzer
                # frames); a second pass is the untraced reference
                walls, cpus = timed_pass(ops, Tally())
                trace = tracer.Tracer().install()
                traced_walls, _ = timed_pass(ops, Tally())
                trace.remove()
                result["trace"] = {name: trace.metric(name)
                                   for name in tracer.LAYER_METRICS[args.workload]}
                result["overhead_pct"] = 100.0 * (sum(traced_walls) / sum(walls) - 1.0)
            elif args.workload == "protocol_grid":
                followup = Tally()
                followups(ops, args.seed, followup)
                tally.errors += followup.errors
            result.update(wall_s=walls, cpu_s=cpus,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
