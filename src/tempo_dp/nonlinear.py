"""Approximate nonlinear tracking control by iterated linearization.

Each iteration Taylor-expands the dynamics and output maps around a nominal
trajectory, solves the resulting tracking problem exactly with
:func:`tempo_dp.lqt.solve` (sequential or parallel backend), and adopts the
optimizer as the next nominal. The problem's callables take whole time
stacks, so the expansion and the cost are data-parallel over time like the
scan itself. No line search or regularization; the per-iteration cost trace
is returned so divergence is visible rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverError
from . import lqt

__all__ = [
    "NonlinearProblem",
    "Nominal",
    "finite_diff_jacobian",
    "linearize",
    "ilqt",
    "nonlinear_cost",
    "default_nominal",
]

# Relative central-difference step of finite_diff_jacobian.
_FD_STEP = 1e-6


@dataclass(frozen=True)
class NonlinearProblem:
    """Nonlinear dynamics/output tracking problem over N steps.

    The stage callables work on stacks of M points at once: ``k`` is an int
    array of shape (M,), ``x`` is (M, n_x) and ``u`` is (M, n_u).

    f(k, x, u) -> next states (M, n_x); h(k, x) -> tracked outputs (M, n_r);
    g(k, u) -> control outputs (M, n_g) (None means identity). jac_f_x,
    jac_f_u, jac_h and jac_g are analytic Jacobian providers returning
    (M, ., .) stacks; those left None fall back to central finite
    differences. The terminal maps hT(x) and jac_hT(x) take one point.
    The sizes n_x, n_u and n_r are read from x0, U and X.
    """

    x0: np.ndarray
    f: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[int, np.ndarray], np.ndarray]
    X: np.ndarray  # (N, n_r, n_r)
    U: np.ndarray  # (N, n_u, n_u)
    r: np.ndarray  # (N, n_r)
    s: np.ndarray  # (N, n_u)
    hT: Callable[[np.ndarray], np.ndarray]
    XT: np.ndarray
    rT: np.ndarray
    g: Callable[[int, np.ndarray], np.ndarray] | None = None
    jac_f_x: Callable | None = None
    jac_f_u: Callable | None = None
    jac_h: Callable | None = None
    jac_g: Callable | None = None
    jac_hT: Callable | None = None

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def n_x(self) -> int:
        return np.shape(self.x0)[0]

    @property
    def n_u(self) -> int:
        return self.U.shape[-1]

    @property
    def n_r(self) -> int:
        return self.X.shape[-1]


@dataclass(frozen=True)
class Nominal:
    """Linearization trajectory; need not be dynamically feasible."""

    xbar: np.ndarray  # (N+1, n_x)
    ubar: np.ndarray  # (N, n_u)


def default_nominal(p: NonlinearProblem) -> Nominal:
    """Constant nominal: x held at the initial state, controls zero."""
    x = np.asarray(p.x0, dtype=np.float64)
    return Nominal(
        xbar=np.repeat(x[None, :], p.N + 1, axis=0),
        ubar=np.zeros((p.N, p.n_u)),
    )


def finite_diff_jacobian(fn, point) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate step scaling.

    ``point`` may carry leading batch axes: a (..., n) stack of points gives
    a (..., m, n) stack of Jacobians from 2n calls of ``fn`` on whole stacks,
    so ``fn`` must map (..., n) to (..., m). Coordinate i of each point moves
    by _FD_STEP * (1 + |x_i|).
    """
    point = np.asarray(point, dtype=np.float64)
    n = point.shape[-1]
    if n == 0:
        f0 = np.asarray(fn(point), dtype=np.float64)
        return np.empty(f0.shape + (0,))
    cols = []
    for i in range(n):
        hi = _FD_STEP * (1.0 + np.abs(point[..., i]))
        xp = point.copy()
        xm = point.copy()
        xp[..., i] += hi
        xm[..., i] -= hi
        diff = np.asarray(fn(xp), dtype=np.float64) - np.asarray(fn(xm), dtype=np.float64)
        cols.append(diff / (2 * hi[..., None]))
    return np.stack(cols, axis=-1)


def linearize(p: NonlinearProblem, nom: Nominal) -> lqt.LqtProblem:
    """First-order expansion around the nominal as a tracking problem.

    References are shifted so the linearized residuals match the Taylor
    expansion; a non-identity control output g needs a square invertible
    Jacobian (the control cost is rewritten in u directly). Every stage
    callable is called once, on the whole (N, .) nominal stack.
    """
    N = p.N
    k = np.arange(N)
    xb, ub = nom.xbar[:N], nom.ubar
    F = p.jac_f_x(k, xb, ub) if p.jac_f_x else finite_diff_jacobian(
        lambda x: p.f(k, x, ub), xb
    )
    L = p.jac_f_u(k, xb, ub) if p.jac_f_u else finite_diff_jacobian(
        lambda u: p.f(k, xb, u), ub
    )
    c = p.f(k, xb, ub) - lqt._mv(F, xb) - lqt._mv(L, ub)
    H = p.jac_h(k, xb) if p.jac_h else finite_diff_jacobian(lambda x: p.h(k, x), xb)
    r2 = p.r - p.h(k, xb) + lqt._mv(H, xb)
    if p.g is None:
        U2 = p.U.copy()
        s2 = p.s.copy()
    else:
        Jg = p.jac_g(k, ub) if p.jac_g else finite_diff_jacobian(lambda u: p.g(k, u), ub)
        if Jg.shape[-2] != Jg.shape[-1]:
            raise SolverError("control-output Jacobian not invertible")
        U2 = np.swapaxes(Jg, -1, -2) @ p.U @ Jg
        rhs = (p.s - p.g(k, ub))[..., None]
        what = "control-output Jacobian singular"
        s2 = ub + lqt._batched(np.linalg.solve, what, k, Jg, rhs)[..., 0]
    xT = nom.xbar[N]
    HT = p.jac_hT(xT) if p.jac_hT else finite_diff_jacobian(p.hT, xT)
    rT2 = p.rT - p.hT(xT) + HT @ xT
    s_arr = None if not s2.any() else s2
    return lqt.LqtProblem(
        S=0, T=N, x0=p.x0, F=F, c=c, L=L, H=H, X=p.X.copy(), r=r2, U=U2,
        HT=HT, XT=p.XT.copy(), rT=rT2, M=None, s=s_arr,
    )


def nonlinear_cost(p: NonlinearProblem, xs: np.ndarray, us: np.ndarray) -> float:
    """Exact nonlinear objective of a state/control sequence."""
    N = p.N
    k = np.arange(N)
    e = p.h(k, xs[:N]) - p.r
    w = (us if p.g is None else p.g(k, us)) - p.s
    eT = p.hT(xs[N]) - p.rT
    stage = np.einsum("ki,kij,kj->", e, p.X, e) + np.einsum("ki,kij,kj->", w, p.U, w)
    return float(0.5 * (stage + eT @ (p.XT @ eT)))


def ilqt(
    p: NonlinearProblem,
    init: Nominal | None = None,
    iters: int = 10,
    backend: str = "parallel",
    traj_method: int = 1,
    stop_tol: float | None = None,
    return_stats: bool = False,
):
    """Iterated linearization loop.

    Returns (states, controls, costs) where costs[i] is the exact nonlinear
    objective of iterate i+1. ``stop_tol`` optionally stops early once the
    max trajectory change drops below it; by default all ``iters``
    iterations run (no line search, no acceptance rule). Each iteration is
    one :func:`lqt.solve` of the linearized problem with ``backend`` and
    ``traj_method``, which reject unknown values. With ``return_stats`` a
    fourth item follows: the ``ScanStats`` of the last iteration's solve,
    the parallel backward scan's or ScanStats(N, N) on the sequential
    backend.
    """
    if iters < 1:
        raise ValueError("need iters >= 1")
    nom = init if init is not None else default_nominal(p)
    costs = []
    for it in range(iters):
        try:
            xs, us, stats = lqt.solve(linearize(p, nom), backend, traj_method)
        except SolverError as exc:
            raise SolverError(f"iteration {it + 1}: {exc}") from exc
        costs.append(nonlinear_cost(p, xs, us))
        delta = max(
            float(np.max(np.abs(xs - nom.xbar))),
            float(np.max(np.abs(us - nom.ubar))) if p.N else 0.0,
        )
        nom = Nominal(xbar=xs, ubar=us)
        if stop_tol is not None and delta < stop_tol:
            break
    if return_stats:
        return nom.xbar, nom.ubar, costs, stats
    return nom.xbar, nom.ubar, costs
