"""Machine-speed calibration: times in reference seconds.

On a shared VM, other tenants slow this one's vCPUs by up to 2.5x, for
seconds to minutes at a time, and the slowdown shows neither as steal time
nor as lost CPU time.  So the benchmark times each segment of a pass (a
setup, one ``driver.run``, one ``cli`` call) between two runs of a fixed
calibration kernel that does not use ``strbench``, and scales the segment's
wall time by ``REFERENCE_S`` over the mean of the two kernel times.  A change
to ``strbench`` moves the scaled time as it moves the wall time; a slower
machine moves the kernel too and cancels out.

Contention slows interpreter-bound, streaming and dense-BLAS code by
different factors, so the kernel mixes all three.  On the VM above, over
30-s windows of a 7-minute recording, the mix cut the spread of window
medians of six ``driver.run`` calls from 0.10-0.18 (wall) to 0.01-0.09;
any one part alone did worse on some of them.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20190304)
_SMALL = _RNG.standard_normal((4000, 32))
_TALL = _RNG.standard_normal((12000, 50))  # 4.8 MB, the size of the tall workload's X
_WIDE = _RNG.standard_normal((1000, 200))
_SYM = _WIDE.T @ _WIDE


def small_calls() -> None:
    """Many small logistic gradient steps from a Python loop (d=32)."""
    w = np.zeros(_SMALL.shape[1])
    for i in range(320):
        lo = (i * 97) % 3000
        rows = _SMALL[lo:lo + 1000]
        p = 1.0 / (1.0 + np.exp(-(rows @ w)))
        w -= 1e-3 * (rows.T @ (p - 0.5))


def data_passes() -> None:
    """Full gradient passes over a 4.8 MB matrix."""
    v = np.full(_TALL.shape[1], 0.01)
    for _ in range(14):
        p = 1.0 / (1.0 + np.exp(-(_TALL @ v)))
        v -= 1e-5 * (_TALL.T @ (p - 0.5))


def dense() -> None:
    """Symmetric eigensolves and a weighted Gram matrix (d=200)."""
    for _ in range(2):
        np.linalg.eigh(_SYM)
    (_WIDE * np.linspace(0.5, 1.5, _WIDE.shape[0])[:, None]).T @ _WIDE


# About the kernel's wall time on an idle 2-vCPU Xeon VM, one BLAS thread;
# so reference seconds read as wall seconds on that machine when it is idle.
REFERENCE_S = 0.032


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t = time.perf_counter()
    small_calls()
    data_passes()
    dense()
    return time.perf_counter() - t


class Clock:
    """Times calls and gives the factor that turns their wall time into
    reference seconds.  With ``calibrate=False`` the factor is 1."""

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.last = kernel_seconds() if calibrate else 0.0

    def time(self, fn, *args, **kwargs):
        """Return ``(fn(*args, **kwargs), wall seconds, scale)``."""
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t
        if not self.calibrate:
            return result, wall, 1.0
        after = kernel_seconds()
        scale = REFERENCE_S / (0.5 * (self.last + after))
        self.last = after
        return result, wall, scale
