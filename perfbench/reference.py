"""A fixed reference loop that measures how fast the machine runs right now.

On a shared machine other tenants slow every program down, at times to
half its speed, in bursts from a second to minutes long.  A run times this
loop while it runs its passes: at fit and sweep boundaries, whenever
`EVERY_S` has gone by since the last sample, and the pass's time leaves
the samples out.  The mean sample time, against the mean on the reference
machine (`NOMINAL_S`), is the run's slowdown, and run.py divides its times
by it.  The loop exercises what epkit's passes exercise: the interpreter,
numpy's per-call overhead on small arrays, and small dense linear algebra.
It never imports epkit, so a change to epkit cannot change it.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Mean time of one `sample()`, taken back to back for a minute, on the
# 2-vCPU Intel Xeon (2.0 GHz) virtual machine of the baseline in README.md,
# with numpy 2.4.6 and one BLAS thread (0.0124 s; the fastest took 0.0069).
NOMINAL_S = 0.012
EVERY_S = 0.2

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((60, 60))
_SPD = _A @ _A.T + 60.0 * np.eye(60)
_V = _rng.standard_normal(60)
_SMALL = np.eye(8) + 0.01


def sample() -> float:
    """Seconds that one fixed round of the reference work takes."""
    t0 = time.perf_counter()
    x = 0
    for i in range(30000):          # the interpreter alone
        x += i * i
    s = 0.0
    for _ in range(300):            # numpy calls on tiny arrays
        s += float(np.sum(_SMALL @ _SMALL))
    for _ in range(30):             # small dense linear algebra
        chol = np.linalg.cholesky(_SPD)
        y = np.linalg.solve(_SPD, _V)
        s += float(chol[0, 0]) + float(np.sum(_SPD - 1e-3 * np.outer(y, y)))
    arr, table = np.ones(16), {}
    for i in range(900):            # interpreter glue around small arrays
        b = arr * 0.5 + 1.0
        s += float(b[3])
        table[i % 7] = math.exp(-s * 1e-12)
    return time.perf_counter() - t0
