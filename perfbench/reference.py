"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the speed of one core drifts by 30% and more over
minutes (on a 2-vCPU x86-64 VM it switched between two speeds 1.7x apart,
a few seconds at a time), and the drift hits the program and this work
alike. Timing the reference work next to each sample and scaling the
sample by ``NOMINAL_S / reference time`` removes most of that drift. The
work mixes the kinds of cost tempo_dp has (interpreter loops, many small
numpy calls, batched LAPACK solves, large temporary arrays, float
formatting) and does not depend on tempo_dp, so no change to the program
can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Time of the reference work on the 2-vCPU, 2.1 GHz x86-64 VM (numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread) where the benchmark was defined, so scaled
# times read close to wall seconds there.
NOMINAL_S = 0.025

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 4)) / 4
_Z = _rng.standard_normal((1000, 8, 8)) + 8 * np.eye(8)
_RHS = _rng.standard_normal((1000, 8, 8))
_BIG = _rng.standard_normal((4096, 16, 16)) / 16
_GRID = _rng.random((48, 48))
_FLOATS = _rng.standard_normal(10_000).tolist()


def work_seconds() -> float:
    """Wall time of one run of the reference work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):  # interpreter
        acc += i * i % 7
    x = np.eye(4)
    for _ in range(1500):  # many small numpy calls
        x = _SMALL @ x + 0.1
    np.linalg.solve(_Z, _RHS)  # batched LAPACK
    for _ in range(1):  # fresh multi-megabyte temporaries, as in the batched combines
        (_BIG @ _BIG).sum()
        (_GRID[:, :, None] + _GRID[None, :, :]).min(axis=1)
    ",".join(repr(v) for v in _FLOATS)  # float formatting
    return time.perf_counter() - t0


def scale() -> float:
    """NOMINAL_S over the time the reference work takes now."""
    return NOMINAL_S / work_seconds()


class Clock:
    """Times calls in reference seconds.

    The reference work runs before and after every timed call, and the
    call's wall time is scaled by NOMINAL_S over the mean of those two
    reference times, so a change of machine speed between two calls (it
    switches within seconds) is charged to the right call.
    """

    def __init__(self):
        self._before = work_seconds()

    def time(self, fn):
        """Return (wall seconds, reference seconds, result) of ``fn()``."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = work_seconds()
        scaled = wall * 2 * NOMINAL_S / (self._before + after)
        self._before = after
        return wall, scaled, out
