"""The host's speed, measured by fixed work timed between operations.

On a shared host the other tenants slow every instruction of a run by a
factor that drifts over seconds to minutes: a fixed loop's 25-s mean moved
by 0.13 (quartile spread over median) and a whole set of runs by up to 0.25,
CPU time as much as wall time.  Two different fixed loops, a pure-Python one
and a small-matrix numpy one, timed in alternation, slowed alike: the ratio
of their 25-s means spread by 0.015.  So the benchmark times a fixed
calibration unit in the gaps between operations and divides every timing of
the run by the host factor: the unit's mean time over ``UNIT_REFERENCE_S``,
its time on the reference machine.  A timing so divided reads what the run
would have taken on the reference host at its usual speed.

The unit mixes what cqtsim does: a dict of tuple-keyed complex amplitudes
built in pure Python, and small complex matrix products and eigenvalues.
It runs in the worker's own process, between operations, so anything the
program leaves running between operations (a spinning thread pool, say)
slows it and would read as a slower host.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Wall time of one unit between operations on the reference machine (Python
# 3.11.7, numpy 2.4.6, 2 vCPUs, Intel Xeon 2.1 GHz): the median over 14 runs
# of the three workloads of each run's mean unit time.
UNIT_REFERENCE_S = 0.95e-3
# Calibration time after each operation, as a share of the operation's wall time.
SHARE = 0.1

_MATRIX = np.linalg.qr(np.arange(16.0).reshape(4, 4) + 1j * np.eye(4) + 1.0)[0]


def calibration_unit() -> float:
    terms = {}
    for i in range(300):
        key = ((i % 5, "H"), (i % 3, "V"), (i % 7, "H"))
        terms[key] = terms.get(key, 0j) + complex(i % 11, -(i % 13)) * 0.5
    total = sum(abs(a) ** 2 for a in sorted(terms.values(), key=abs))
    x = _MATRIX
    for _ in range(40):
        x = _MATRIX @ x
        total += float(np.linalg.eigvalsh(x + x.conj().T)[0])
    return total


class HostClock:
    """Calibration units run so far and their summed wall time."""

    def __init__(self):
        self.wall = 0.0
        self.units = 0

    def sample(self, seconds: float) -> None:
        """Run about ``seconds`` of calibration units at the reference speed."""
        n = max(1, round(seconds / UNIT_REFERENCE_S))
        start = perf_counter()
        for _ in range(n):
            calibration_unit()
        self.wall += perf_counter() - start
        self.units += n

    def factor(self) -> float:
        """How much slower than the reference machine the host ran the units."""
        return self.wall / self.units / UNIT_REFERENCE_S
