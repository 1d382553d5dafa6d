"""Fixed reference work that measures how fast this CPU runs right now.

The host's speed changes by up to about 1.9x from one second to the next,
and process CPU time changes with it, so neither wall time nor CPU time of
a job is comparable between runs.  Every job is therefore bracketed by two
runs of the reference loop, and its wall time is rescaled to the loop's
nominal speed.  The reference does the same kinds of
work as the program: small numpy calls inside a Python loop (the st step),
a small LAPACK solve (the df step and fundamental-matrix solve), and
decimal formatting and parsing (file I/O and CSV writing).  It imports
nothing from the program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

#: Duration of one reference loop at the nominal speed, about its median
#: on the machine the benchmark was tuned on (see README.md).  Normalised
#: job times are in seconds at this speed.
REF_NOMINAL_S = 0.002

_N = 40
_STEPS = 120


def _fixed_inputs():
    idx = np.arange(_N)
    M = np.zeros((_N, _N))
    M[idx, (idx + 1) % _N] = 0.6
    M[idx, (idx - 1) % _N] = 0.3
    M[idx, (idx + 7) % _N] += 0.1
    A = np.eye(_N) * 4.0 + M
    return np.ascontiguousarray(M.T), A, np.linspace(0.1, 1.0, _N)


_MT, _A, _B = _fixed_inputs()


def reference_work() -> float:
    """One fixed unit of mixed Python and numpy work; returns a checksum."""
    x = np.full(_N, 1.0 / _N)
    deltas = []
    for _ in range(_STEPS):
        x2 = x * x
        y = _MT @ (x - x2) + x2
        deltas.append(float(np.max(np.abs(y - x))))
        x = y
    text = ",".join(format(v, ".17g") for v in x)
    parsed = [float(p) for p in text.split(",")]
    adjacency = [[j for j in range(_N) if _MT[i, j] > 0.0] for i in range(_N)]
    solved = np.linalg.solve(_A, _B)
    return sum(deltas) + sum(parsed) + len(adjacency) + float(solved.sum())


def time_reference() -> float:
    """Wall seconds of one reference_work call."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def speed(refs) -> float:
    """Mean speed relative to nominal over reference loops that took
    `refs` seconds (1.0 = nominal, 0.5 = half as fast)."""
    return sum(REF_NOMINAL_S / r for r in refs) / len(refs)


@dataclass(frozen=True)
class Timing:
    """One job execution: its wall seconds and the durations of the
    reference loops just before and just after it."""

    job_s: float
    refs: tuple

    @property
    def speed(self) -> float:
        return speed(self.refs)

    @property
    def normalised(self) -> float:
        """Seconds the job would take at the reference's nominal speed."""
        return self.job_s * self.speed


def measure(fn):
    """Run fn() between two reference loops; returns (its result, Timing)."""
    before = time_reference()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, Timing(wall, (before, time_reference()))
