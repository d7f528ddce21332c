"""Host-speed correction for timings taken on a shared machine.

On a small shared host the speed of a core drifts by a quarter or more
within minutes as other tenants load the machine, which swamps the
differences the benchmark exists to show.  A fixed reference computation is
timed right before and right after each measured call, and the call's wall
time is scaled by REF_SECONDS over the mean of those two times: it is
reported as seconds at the host speed at which the reference takes
REF_SECONDS.  The reference mixes the kinds of work the workloads do: an
interpreted float loop, small complex matrix products and Bessel function
arrays.  Raw wall times are printed next to the corrected ones.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

REF_SECONDS = 0.008
_MATRIX = np.eye(4, dtype=complex) * (0.5 + 0.5j)
_GRID = np.linspace(1.0, 50.0, 64)


def reference_time() -> float:
    """Wall time of the reference computation, about REF_SECONDS."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10_000):
        acc += i * 0.5
    b = _MATRIX
    for _ in range(150):
        b = (b @ _MATRIX) * 0.5
    for p in range(60):
        special.jv(p, _GRID)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two reference timings
    into seconds at reference speed."""
    return REF_SECONDS / (0.5 * (before + after))
