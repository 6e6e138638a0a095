"""Temporal parallelization of dynamic programming and LQ tracking.

Finite-horizon optimal control solved two ways everywhere: classic
sequential backward recursions, and associative scans whose combine trees
have logarithmic depth. The scans live in :mod:`tempo_dp.scan`,
exact finite-state DP in :mod:`tempo_dp.finite_dp`, the linear quadratic
tracker in :mod:`tempo_dp.lqt`, iterated linearization in
:mod:`tempo_dp.nonlinear`, and benchmark scenarios/CLI in
:mod:`tempo_dp.scenarios` / :mod:`tempo_dp.cli`.
"""

from .errors import SolverError
from .scan import ScanDirection, ScanStats, par_scan, par_scan_stacked, seq_scan

__all__ = [
    "SolverError",
    "ScanDirection",
    "ScanStats",
    "seq_scan",
    "par_scan",
    "par_scan_stacked",
]
