"""Linear quadratic tracking: sequential Riccati recursion and a parallel
backward pass over dual-parameterized conditional value functions.

An interval k..i of the tracking problem is summarized by five parameters
(A, b, C, eta, J): the quadratic-in-the-endpoints value of the interval in
dual form, which stays well defined when C is singular. Combining two
adjacent intervals is associative, so value functions for every suffix (and
conditional values for every prefix) come out of one scan. Trajectories are
recovered either by composing closed-loop affine maps (Method 1) or from
prefix elements and the backward values (Method 2).

The pairs of one tree level are independent, so the interval combine and
the two pinned-endpoint fills cut each batch into blocks of about
``_BLOCK_BUDGET / n_x^3`` pairs and run them on a pool of threads, one per
usable core with the caller counted (numpy releases the GIL inside the
batched products and inverses). Every pair's arithmetic is the same in any
block, so results are byte-identical for any core count; small state
dimensions never reach two blocks and run on the calling thread alone.

Also here: the generalized-cost (cross-term) reduction to standard form,
block partial condensing, a dense KKT reference solver, and file I/O.

:func:`solve` is the one entry point that strings these steps together
(cost transform, optional condensing, sequential or parallel backward pass,
trajectory recovery, controls); the step functions stay public for callers
that need the values or gains themselves.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import SolverError
from .scan import ScanDirection, ScanStats, par_scan_stacked
from .scan import par_scan  # noqa: F401  (unused here; perfbench/tracer.py patches lqt.par_scan)

__all__ = [
    "LqtProblem",
    "QuadValue",
    "Gains",
    "riccati_backward",
    "parallel_backward",
    "control",
    "closed_loop_rollout",
    "controls_along",
    "traj_method1",
    "traj_method2",
    "transform_general_cost",
    "GeneralCostRecovery",
    "condense",
    "CondensingRecovery",
    "solve",
    "kkt_oracle",
    "lqt_cost",
    "value_at",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "write_trajectory_csv",
]

COND_LIMIT = 1e12

# Work in one block of an interval operator, in pairs x n^3 (one n x n
# product per pair): 32 pairs at n = 32. A block's temporaries stay near a
# core's L2 cache, and below two blocks a call is not split.
_BLOCK_BUDGET = 1 << 20


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# Threads that run operator blocks, the calling thread included.
_WORKERS = _usable_cores()
_pool: ThreadPoolExecutor | None = None  # _WORKERS - 1 threads, made on first use
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has none of the parent's pool threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _t(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (M @ v[..., None])[..., 0]


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + _t(M)) / 2


def _as_float(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class LqtProblem:
    """Time-varying tracking problem over steps S..T.

    Stage arrays have leading length N = T - S (step k maps to index k - S):
    dynamics x_{k+1} = F x_k + c + L u_k, stage cost
    0.5 (H x - r)' X (H x - r) + 0.5 u' U u, plus the terminal cost
    0.5 (HT x_T - rT)' XT (HT x_T - rT). Optional cross terms M (coupling
    H x - r with u - s) and control references s generalize the stage cost;
    solvers require them eliminated first (transform_general_cost).
    """

    S: int
    T: int
    x0: np.ndarray
    F: np.ndarray
    c: np.ndarray
    L: np.ndarray
    H: np.ndarray
    X: np.ndarray
    r: np.ndarray
    U: np.ndarray
    HT: np.ndarray
    XT: np.ndarray
    rT: np.ndarray
    M: np.ndarray | None = None
    s: np.ndarray | None = None

    def __post_init__(self):
        n = self.T - self.S
        if n < 0:
            raise ValueError("need T >= S")
        for name in ("x0", "F", "c", "L", "H", "X", "r", "U", "HT", "XT", "rT"):
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        for name in ("M", "s"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_float(getattr(self, name)))
        nx = self.x0.shape[0]
        if self.L.ndim != 3 or self.H.ndim != 3:
            raise ValueError("L and H must be stacked 3-d arrays")
        shapes = {
            "F": (n, nx, nx),
            "c": (n, nx),
            "L": (n, nx, self.n_u),
            "H": (n, self.n_r, nx),
            "X": (n, self.n_r, self.n_r),
            "r": (n, self.n_r),
            "U": (n, self.n_u, self.n_u),
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if self.HT.ndim != 2 or self.HT.shape[1] != nx:
            raise ValueError("terminal output map has wrong shape")
        nrT = self.HT.shape[0]
        if self.XT.shape != (nrT, nrT) or self.rT.shape != (nrT,):
            raise ValueError("terminal cost has wrong shape")
        if self.M is not None and self.M.shape != (n, self.n_r, self.n_u):
            raise ValueError("cross-term M has wrong shape")
        if self.s is not None and self.s.shape != (n, self.n_u):
            raise ValueError("control reference s has wrong shape")
        for name in ("X", "U", "XT"):
            A = getattr(self, name)
            if A.size and not np.allclose(A, _t(A), rtol=1e-12, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")

    @property
    def N(self) -> int:
        return self.T - self.S

    @property
    def n_x(self) -> int:
        return self.x0.shape[0]

    @property
    def n_u(self) -> int:
        return self.L.shape[2]

    @property
    def n_r(self) -> int:
        return self.H.shape[1]

    @property
    def has_general_cost(self) -> bool:
        return self.M is not None or self.s is not None


@dataclass(frozen=True)
class QuadValue:
    """Value functions 0.5 x'S_k x - v_k'x for k = 0..N, constants dropped.

    S: (N+1, n_x, n_x); v: (N+1, n_x). Index k is relative to the start S.
    """

    S: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Gains:
    """Control-law gains for k = 0..N-1 (see :func:`control`).

    K, Kv, Kc: (N, n_u, n_x); empty along the first axis when N = 0.
    """

    K: np.ndarray
    Kv: np.ndarray
    Kc: np.ndarray


def _compose_affine_arrays(a, b):
    Fa, ca = a
    Fb, cb = b
    return Fb @ Fa, _mv(Fb, ca) + cb


def _fill_affine(a, b):
    """A pinned prefix map (Ft = 0) composed with b: one matrix-vector product."""
    return 0.0, _mv(b[0], a[1]) + b[1]


def _gated_inverse(C1: np.ndarray, J2: np.ndarray) -> np.ndarray:
    """Zi = (I + C1 J2)^-1, batched, behind the conditioning gate.

    The same inverse gives the exact 1-norm condition number
    ||Z||_1 ||Zi||_1; beyond COND_LIMIT (or on a singular or non-finite Z)
    the combine (or fill) raises instead of returning garbage.
    """
    Z = np.eye(C1.shape[-1]) + C1 @ J2
    try:
        Zi = np.linalg.inv(Z)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"ill-conditioned combine: {exc}") from exc
    cond = np.abs(Z).sum(axis=-2).max(axis=-1) * np.abs(Zi).sum(axis=-2).max(axis=-1)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > COND_LIMIT:
        raise SolverError(f"ill-conditioned combine: condition number {worst:.3e}")
    return Zi


def _helper_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="tempo_dp-lqt")
        return _pool


def _run_blocks(op, e1, e2, m: int, k: int):
    """``op(e1, e2)`` on k contiguous blocks of the m pairs, across _WORKERS threads.

    Blocks are claimed in order by the pool threads and by the calling
    thread, which allocates every output once and copies each block's
    result into it as it arrives; workers hold only their block's arrays.
    Zero-dimensional results (the fills' constant zeros) pass through. All
    blocks finish before this returns or raises; on failure the exception of
    the lowest-numbered failing block is raised.
    """
    edges = [m * i // k for i in range(k + 1)]
    claim = itertools.count()  # next() is atomic under the GIL
    done = queue.SimpleQueue()

    def run(i):
        s = slice(edges[i], edges[i + 1])
        try:
            return op(tuple(a[s] for a in e1), tuple(a[s] for a in e2))
        except Exception as exc:
            return exc

    def work():
        while (i := next(claim)) < k:
            done.put((i, run(i)))

    pool = _helper_pool()
    helpers = [pool.submit(work) for _ in range(min(_WORKERS - 1, k - 1))]
    out, failed = None, None
    try:
        for _ in range(k):
            # copy a finished block if there is one, else run one, else wait
            if done.empty() and (i := next(claim)) < k:
                res = run(i)
            else:
                i, res = done.get()
            if isinstance(res, Exception):
                if failed is None or i < failed[0]:
                    failed = (i, res)
                continue
            if out is None:
                out = tuple(np.empty((m,) + r.shape[1:], r.dtype) if np.ndim(r) else r for r in res)
            for o, r in zip(out, res):
                if np.ndim(r):
                    o[edges[i] : edges[i + 1]] = r
    finally:
        wait(helpers)
    if failed is not None:
        raise failed[1]
    return out


def _in_blocks(op):
    """Run a batched interval operator in blocks of about _BLOCK_BUDGET / n^3
    pairs over all usable cores (see :func:`_run_blocks`).

    Each pair's arithmetic is the same whichever block it lands in, so the
    results are byte-identical for any block and thread count. Unbatched
    (2-D) inputs, calls below two blocks and single-core machines call
    ``op`` directly.
    """

    @functools.wraps(op)
    def blocked(e1, e2):
        shape = np.shape(e1[0])  # (m, n, n) when batched
        k = min(shape[0], shape[0] * shape[-1] ** 3 // _BLOCK_BUDGET) if len(shape) == 3 else 0
        if k < 2 or _WORKERS < 2:
            return op(e1, e2)
        return _run_blocks(op, e1, e2, shape[0], k)

    return blocked


@_in_blocks
def _combine_element_arrays(e1, e2):
    """Interval combination, batched over any leading axes.

    e1 covers the chronologically earlier interval. C and J of both inputs
    must be symmetric (maintained by construction and re-symmetrization
    here), which makes (I + J2 C1)^-1 the transpose of Zi = (I + C1 J2)^-1,
    so one batched inverse (:func:`_gated_inverse`) serves both sides of the
    combination.
    """
    A1, b1, C1, eta1, J1 = e1
    A2, b2, C2, eta2, J2 = e2
    Zi = _gated_inverse(C1, J2)
    W = A2 @ Zi
    P = Zi @ A1
    A = A2 @ P
    b = _mv(W, b1 + _mv(C1, eta2)) + b2
    C = _sym(W @ C1 @ _t(A2) + C2)
    eta = _mv(_t(P), eta2 - _mv(J2, b1)) + eta1
    J = _sym(_t(P) @ J2 @ A1 + J1)
    return A, b, C, eta, J


@_in_blocks
def _fill_suffix(e1, e2):
    """e1 (x) a suffix pinned at the terminal: its A = b = C = 0, so only
    eta and J are formed (as in :func:`_combine_element_arrays`)."""
    A1, b1, C1, eta1, J1 = e1
    _, _, _, eta2, J2 = e2
    P = _gated_inverse(C1, J2) @ A1
    eta = _mv(_t(P), eta2 - _mv(J2, b1)) + eta1
    J = _sym(_t(P) @ J2 @ A1 + J1)
    return 0.0, 0.0, 0.0, eta, J


@_in_blocks
def _fill_prefix(e1, e2):
    """A prefix pinned at the initial state (x) e2: its A = eta = J = 0, so
    only b and C are formed (as in :func:`_combine_element_arrays`)."""
    _, b1, C1, _, _ = e1
    A2, b2, C2, eta2, J2 = e2
    W = A2 @ _gated_inverse(C1, J2)
    b = _mv(W, b1 + _mv(C1, eta2)) + b2
    C = _sym(W @ C1 @ _t(A2) + C2)
    return 0.0, b, C, 0.0, 0.0


def _solve_batched(G: np.ndarray, rhs: np.ndarray, what: str, offset: int):
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        # locate the offending step for the error message
        for k in range(G.shape[0]):
            try:
                np.linalg.solve(G[k], rhs[k])
            except np.linalg.LinAlgError:
                raise SolverError(f"{what} singular at step {offset + k}") from None
        raise SolverError(f"{what} singular") from None


def _spd_solve_batched(U: np.ndarray, rhs: np.ndarray, what: str, offset: int):
    """Solve with a Cholesky factor per step; rejects non-PD weights."""
    try:
        R = np.linalg.cholesky(U)
    except np.linalg.LinAlgError:
        bad = offset
        for k in range(U.shape[0]):
            try:
                np.linalg.cholesky(U[k])
            except np.linalg.LinAlgError:
                bad = offset + k
                break
        raise SolverError(
            f"{what} factorization failed at step {bad} (not positive definite)"
        ) from None
    return np.linalg.solve(_t(R), np.linalg.solve(R, rhs))


def _element_arrays(p: LqtProblem):
    """Stacked (A, b, C, eta, J) for all N + 1 elements.

    Stage k: (F_k, c_k, L_k U_k^-1 L_k', H_k'X_k r_k, H_k'X_k H_k).
    Terminal: (0, 0, 0, HT'XT rT, HT'XT HT). The terminal eta carries the
    XT factor; see the regression test on the printed variant.
    """
    if p.has_general_cost:
        raise ValueError("eliminate cross terms first (transform_general_cost)")
    nx = p.n_x
    n = p.N
    A = np.zeros((n + 1, nx, nx))
    b = np.zeros((n + 1, nx))
    C = np.zeros((n + 1, nx, nx))
    eta = np.zeros((n + 1, nx))
    J = np.zeros((n + 1, nx, nx))
    if n:
        A[:n] = p.F
        b[:n] = p.c
        UinvLt = _spd_solve_batched(p.U, _t(p.L), "control weight U", p.S)
        C[:n] = _sym(p.L @ UinvLt)
        HtX = _t(p.H) @ p.X
        eta[:n] = _mv(HtX, p.r)
        J[:n] = _sym(HtX @ p.H)
    HtXT = p.HT.T @ p.XT
    eta[n] = HtXT @ p.rT
    J[n] = _sym(HtXT @ p.HT)
    return A, b, C, eta, J


def riccati_backward(p: LqtProblem) -> tuple[QuadValue, Gains]:
    """Sequential backward recursion for (S_k, v_k) and the gain triples."""
    if p.has_general_cost:
        raise ValueError("eliminate cross terms first (transform_general_cost)")
    nx, nu, n = p.n_x, p.n_u, p.N
    Ss = np.empty((n + 1, nx, nx))
    vs = np.empty((n + 1, nx))
    HtXT = p.HT.T @ p.XT
    Ss[n] = _sym(HtXT @ p.HT)
    vs[n] = HtXT @ p.rT
    Ks = np.empty((n, nu, nx))
    Kvs = np.empty((n, nu, nx))
    Kcs = np.empty((n, nu, nx))
    for k in range(n - 1, -1, -1):
        Fk, Lk, Uk = p.F[k], p.L[k], p.U[k]
        Sn = Ss[k + 1]
        LS = Lk.T @ Sn
        G = LS @ Lk + Uk
        try:
            sol = np.linalg.solve(G, np.concatenate([LS @ Fk, Lk.T, LS], axis=1))
        except np.linalg.LinAlgError:
            raise SolverError(f"control normal matrix singular at step {p.S + k}") from None
        Ks[k] = sol[:, :nx]
        Kvs[k] = sol[:, nx : 2 * nx]
        Kcs[k] = sol[:, 2 * nx :]
        Fcl = Fk - Lk @ Ks[k]
        HtX = p.H[k].T @ p.X[k]
        vs[k] = Fcl.T @ (vs[k + 1] - Sn @ p.c[k]) + HtX @ p.r[k]
        Ss[k] = _sym(Fk.T @ Sn @ Fcl + HtX @ p.H[k])
    return QuadValue(Ss, vs), Gains(Ks, Kvs, Kcs)


def _gains_from_values(p: LqtProblem, Ss: np.ndarray):
    """Vectorized gain triples from the stacked S_{k+1} matrices."""
    nx = p.n_x
    if p.N == 0:
        empty = np.zeros((0, p.n_u, nx))
        return empty, empty.copy(), empty.copy()
    Sn = Ss[1:]
    Lt = _t(p.L)
    LS = Lt @ Sn
    G = LS @ p.L + p.U
    rhs = np.concatenate([LS @ p.F, Lt, LS], axis=-1)
    sol = _solve_batched(G, rhs, "control normal matrix", p.S)
    return sol[..., :nx], sol[..., nx : 2 * nx], sol[..., 2 * nx :]


def parallel_backward(p: LqtProblem, return_stats: bool = False):
    """Backward pass as a reverse scan of interval elements.

    The suffix element starting at k evaluated at a pinned terminal endpoint
    is the value function: S_k = J, v_k = eta of that suffix. Output matches
    :func:`riccati_backward`.
    """
    suffix, stats = par_scan_stacked(
        _element_arrays(p),
        _combine_element_arrays,
        ScanDirection.REVERSE,
        fill=_fill_suffix,
    )
    Ss = _sym(suffix[4])
    values = QuadValue(Ss, suffix[3])
    gains = Gains(*_gains_from_values(p, Ss))
    if return_stats:
        return values, gains, stats
    return values, gains


def control(x: np.ndarray, k: int, gains: Gains, v_next: np.ndarray, c_k: np.ndarray) -> np.ndarray:
    """u_k = -K_k x + K_k^v v_{k+1} - K_k^c c_k (k relative to S)."""
    return -gains.K[k] @ x + gains.Kv[k] @ v_next - gains.Kc[k] @ c_k


def closed_loop_rollout(
    p: LqtProblem, values: QuadValue, gains: Gains
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential forward rollout of the optimal control law."""
    xs = np.empty((p.N + 1, p.n_x))
    us = np.empty((p.N, p.n_u))
    xs[0] = p.x0
    for k in range(p.N):
        us[k] = control(xs[k], k, gains, values.v[k + 1], p.c[k])
        xs[k + 1] = p.F[k] @ xs[k] + p.c[k] + p.L[k] @ us[k]
    return xs, us


def controls_along(
    p: LqtProblem, values: QuadValue, gains: Gains, xs: np.ndarray
) -> np.ndarray:
    """Control sequence along a given state trajectory, vectorized over k."""
    return -_mv(gains.K, xs[:-1]) + _mv(gains.Kv, values.v[1:]) - _mv(gains.Kc, p.c)


def _closed_loop_maps(p: LqtProblem, values: QuadValue, gains: Gains):
    Ft = p.F - p.L @ gains.K
    ct = p.c + _mv(p.L @ gains.Kv, values.v[1:]) - _mv(p.L @ gains.Kc, p.c)
    return Ft, ct


def traj_method1(p: LqtProblem, gains: Gains, values: QuadValue) -> np.ndarray:
    """Trajectory by scanning closed-loop affine maps (Method 1).

    The first element is pinned at the initial state (zero matrix part), so
    every prefix's offset part is the trajectory state itself.
    """
    if p.N == 0:
        return p.x0[None, :].copy()
    Ft, ct = _closed_loop_maps(p, values, gains)
    ct[0] = Ft[0] @ p.x0 + ct[0]
    Ft[0] = 0.0
    (_, cpre), _ = par_scan_stacked(
        (Ft, ct),
        _compose_affine_arrays,
        ScanDirection.FORWARD,
        fill=_fill_affine,
    )
    return np.concatenate([p.x0[None, :], cpre], axis=0)


def traj_method2(p: LqtProblem, values: QuadValue) -> np.ndarray:
    """Trajectory from forward prefix elements and backward values (Method 2).

    x_k = (I + C_{S,k} S_k)^-1 (A_{S,k} x0 + b_{S,k} + C_{S,k} v_k) with the
    forward scan seeded by the pinned-start element (A=0, b=x0, C=0).
    """
    nx = p.n_x
    A, b, C, eta, J = _element_arrays(p)
    A = np.concatenate([np.zeros((1, nx, nx)), A[: p.N]])
    b = np.concatenate([p.x0[None, :], b[: p.N]])
    C = np.concatenate([np.zeros((1, nx, nx)), C[: p.N]])
    eta = np.concatenate([np.zeros((1, nx)), eta[: p.N]])
    J = np.concatenate([np.zeros((1, nx, nx)), J[: p.N]])
    (Ap, bp, Cp, _, _), _ = par_scan_stacked(
        (A, b, C, eta, J),
        _combine_element_arrays,
        ScanDirection.FORWARD,
        fill=_fill_prefix,
    )
    lhs = np.eye(nx) + Cp @ values.S
    rhs = _mv(Ap, p.x0) + bp + _mv(Cp, values.v)
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular (I + C S) in trajectory recovery: {exc}") from exc


@dataclass(frozen=True)
class GeneralCostRecovery:
    """Maps transformed-coordinate controls back to the original problem."""

    UinvMt: np.ndarray  # (N, n_u, n_r)
    H: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def controls(self, xs: np.ndarray, u_tilde: np.ndarray) -> np.ndarray:
        if len(u_tilde) == 0:
            return np.asarray(u_tilde, dtype=np.float64).copy()
        resid = _mv(self.H, xs[:-1]) - self.r
        return u_tilde - _mv(self.UinvMt, resid) + self.s


def transform_general_cost(p: LqtProblem) -> tuple[LqtProblem, GeneralCostRecovery]:
    """Eliminate cross terms M and control references s by a Schur step.

    Returns an equivalent standard-form problem and the map recovering
    original-coordinate controls: u = u~ - U^-1 M' (H x - r) + s.
    """
    n, nu, nr = p.N, p.n_u, p.n_r
    if not p.has_general_cost:
        recovery = GeneralCostRecovery(
            UinvMt=np.zeros((n, nu, nr)), H=p.H, r=p.r, s=np.zeros((n, nu))
        )
        return p, recovery
    M = p.M if p.M is not None else np.zeros((n, nr, nu))
    s = p.s if p.s is not None else np.zeros((n, nu))
    UinvMt = _spd_solve_batched(p.U, _t(M), "control weight U", p.S)
    Xt = _sym(p.X - M @ UinvMt)
    if n:
        lo = float(np.linalg.eigvalsh(Xt).min())
        if lo < -1e-10:
            raise SolverError(
                f"cost not jointly convex after Schur complement (min eigenvalue {lo:.3e})"
            )
    F2 = p.F - p.L @ UinvMt @ p.H
    c2 = p.c + _mv(p.L @ UinvMt, p.r) + _mv(p.L, s)
    q = replace(p, F=F2, c=c2, X=Xt, M=None, s=None)
    return q, GeneralCostRecovery(UinvMt=UinvMt, H=p.H, r=p.r, s=s)


@dataclass(frozen=True)
class CondensingRecovery:
    """Reconstructs intermediate states/controls inside condensed blocks.

    Phi, Gam, d hold, per block g and in-block offset m, the unrolled maps
    x_{gB+m} = Phi[g, m] x_head + Gam[g, m] u_block + d[g, m].
    """

    B: int
    n_u: int
    Phi: np.ndarray  # (nB, B, n_x, n_x)
    Gam: np.ndarray  # (nB, B, n_x, B*n_u)
    d: np.ndarray  # (nB, B, n_x)

    def reconstruct(self, xs_cond: np.ndarray, us_cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nB, B = self.Phi.shape[0], self.B
        n_x = xs_cond.shape[1]
        head = xs_cond[:-1, None, :, None]  # (nB, 1, n_x, 1)
        ub = us_cond[:, None, :, None]  # (nB, 1, B*n_u, 1)
        xs = (self.Phi @ head + self.Gam @ ub)[..., 0] + self.d
        xs = np.concatenate([xs.reshape(nB * B, n_x), xs_cond[-1:]])
        return xs, us_cond.reshape(nB * B, self.n_u)


def condense(p: LqtProblem, B: int) -> tuple[LqtProblem, CondensingRecovery]:
    """Block-eliminate intermediate states, B steps per block.

    The condensed problem has the same state dimension, input dimension
    B*n_u, and horizon (T-S)/B. Stage costs accumulated inside a block
    generally couple the head state with the stacked controls, so the
    output is in general-cost form (run transform_general_cost before
    solving).
    """
    if p.has_general_cost:
        raise ValueError("condense expects a standard-form problem")
    if B < 1:
        raise ValueError("block size must be >= 1")
    if p.N % B:
        raise ValueError(f"horizon {p.N} not divisible by block size {B} (pad with zero-cost steps)")
    nx, nu = p.n_x, p.n_u
    nB = p.N // B
    nuB = B * nu

    def steps(a):  # (N, ...) -> (nB, B, ...): block g, in-block offset m
        return a.reshape((nB, B) + a.shape[1:])

    F, c, L, H, X, r, U = map(steps, (p.F, p.c, p.L, p.H, p.X, p.r, p.U))
    Phi_all = np.empty((nB, B, nx, nx))
    Gam_all = np.empty((nB, B, nx, nuB))
    d_all = np.empty((nB, B, nx))
    # each quantity runs over the B in-block steps, batched over the blocks
    Phi = np.broadcast_to(np.eye(nx), (nB, nx, nx))
    Gam = np.zeros((nB, nx, nuB))
    d = np.zeros((nB, nx))
    Qxx = np.zeros((nB, nx, nx))
    Qxu = np.zeros((nB, nx, nuB))
    Quu = np.zeros((nB, nuB, nuB))
    qx = np.zeros((nB, nx))
    qu = np.zeros((nB, nuB))
    for m in range(B):
        Phi_all[:, m] = Phi
        Gam_all[:, m] = Gam
        d_all[:, m] = d
        Hx = H[:, m] @ Phi
        Hu = H[:, m] @ Gam
        off = _mv(H[:, m], d) - r[:, m]
        XHx = X[:, m] @ Hx
        XHu = X[:, m] @ Hu
        Qxx += _t(Hx) @ XHx
        Qxu += _t(Hx) @ XHu
        Quu += _t(Hu) @ XHu
        qx += _mv(_t(XHx), off)
        qu += _mv(_t(XHu), off)
        sl = slice(m * nu, (m + 1) * nu)
        Quu[:, sl, sl] += U[:, m]
        # unroll dynamics one step
        d = _mv(F[:, m], d) + c[:, m]
        Gam = F[:, m] @ Gam
        Gam[:, :, sl] = L[:, m]
        Phi = F[:, m] @ Phi
    # fit references so the linear terms match, Q [r; s] = -q: lstsq's
    # minimum-norm solution from one batched eigendecomposition of the
    # symmetric Q, applied in factored form (an explicit pseudo-inverse
    # loses about six digits on tracking2d, where cond(Q) ~ 1e8)
    Xb, Ub = _sym(Qxx), _sym(Quu)
    Q = np.concatenate([np.concatenate([Xb, Qxu], -1), np.concatenate([_t(Qxu), Ub], -1)], -2)
    w, V = np.linalg.eigh(Q)
    cut = np.finfo(np.float64).eps * Q.shape[-1] * np.abs(w).max(axis=-1, keepdims=True)
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > cut)
    tvec = _mv(V, winv * _mv(_t(V), -np.concatenate([qx, qu], -1)))
    cond_p = LqtProblem(
        S=0,
        T=nB,
        x0=p.x0,
        F=Phi,
        c=d,
        L=Gam,
        H=np.broadcast_to(np.eye(nx), (nB, nx, nx)).copy(),
        X=Xb,
        r=tvec[:, :nx],
        U=Ub,
        HT=p.HT,
        XT=p.XT,
        rT=p.rT,
        M=Qxu,
        s=tvec[:, nx:],
    )
    recovery = CondensingRecovery(B=B, n_u=nu, Phi=Phi_all, Gam=Gam_all, d=d_all)
    return cond_p, recovery


def solve(
    p: LqtProblem,
    backend: str = "parallel",
    traj_method: int = 1,
    block_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, ScanStats]:
    """Optimal states (N+1, n_x), controls (N, n_u) and the backward pass's stats.

    Cross terms are eliminated first (transform_general_cost) and the
    controls are returned in the original coordinates. The "sequential"
    backend runs Riccati and the closed-loop rollout and reports
    ScanStats(N, N); "parallel" runs the reverse scan, trajectory Method
    ``traj_method`` (1 or 2) and the vectorized control law. With
    ``block_size`` B the problem is condensed to N/B blocks, solved the same
    way and reconstructed; the stats are those of the condensed solve.
    """
    if backend not in ("sequential", "parallel"):
        raise ValueError(f"unknown backend {backend!r}")
    if traj_method not in (1, 2):
        raise ValueError(f"unknown trajectory method {traj_method!r}")
    std, cost_rec = transform_general_cost(p)
    if block_size is not None:
        cond, block_rec = condense(std, block_size)
        xs_c, us_c, stats = solve(cond, backend, traj_method)
        xs, ut = block_rec.reconstruct(xs_c, us_c)
    elif backend == "sequential":
        values, gains = riccati_backward(std)
        xs, ut = closed_loop_rollout(std, values, gains)
        stats = ScanStats(std.N, std.N)
    else:
        values, gains, stats = parallel_backward(std, return_stats=True)
        if traj_method == 2:
            xs = traj_method2(std, values)
        else:
            xs = traj_method1(std, gains, values)
        ut = controls_along(std, values, gains, xs)
    return xs, cost_rec.controls(xs, ut), stats


def lqt_cost(p: LqtProblem, xs: np.ndarray, us: np.ndarray) -> float:
    """Objective value of a state/control sequence (constants included)."""
    cost = 0.0
    for k in range(p.N):
        e = p.H[k] @ xs[k] - p.r[k]
        cost += 0.5 * e @ (p.X[k] @ e)
        u = us[k] - (p.s[k] if p.s is not None else 0.0)
        cost += 0.5 * u @ (p.U[k] @ u)
        if p.M is not None:
            cost += e @ (p.M[k] @ u)
    eT = p.HT @ xs[p.N] - p.rT
    return float(cost + 0.5 * eT @ (p.XT @ eT))


def value_at(values: QuadValue, k: int, x: np.ndarray) -> float:
    """0.5 x'S_k x - v_k'x; meaningful only in differences (constant dropped)."""
    return float(0.5 * x @ (values.S[k] @ x) - values.v[k] @ x)


def kkt_oracle(p: LqtProblem):
    """Global optimum by one dense symmetric-indefinite KKT factorization.

    Handles the general cost form (cross terms M, references s) natively.
    Returns (cost, controls, states).
    """
    n, nx, nu, nr = p.N, p.n_x, p.n_u, p.n_r
    if n * (nx + nu) > 5000:
        raise ValueError("problem too large for the dense KKT oracle")
    if n == 0:
        eT = p.HT @ p.x0 - p.rT
        return float(0.5 * eT @ (p.XT @ eT)), np.zeros((0, nu)), p.x0[None, :].copy()

    M = p.M if p.M is not None else np.zeros((n, nr, nu))
    s = p.s if p.s is not None else np.zeros((n, nu))
    nw = n * (nu + nx)
    P = np.zeros((nw, nw))
    q = np.zeros(nw)
    const = 0.0

    def u_sl(k):
        off = k * (nu + nx)
        return slice(off, off + nu)

    def x_sl(k):  # state x_k, valid for k >= 1
        off = (k - 1) * (nu + nx) + nu
        return slice(off, off + nx)

    for k in range(n):
        Hk, Xk, rk, Uk, Mk, sk = p.H[k], p.X[k], p.r[k], p.U[k], M[k], s[k]
        iu = u_sl(k)
        P[iu, iu] += Uk
        q[iu] += -Mk.T @ rk - Uk @ sk
        const += 0.5 * rk @ (Xk @ rk) + rk @ (Mk @ sk) + 0.5 * sk @ (Uk @ sk)
        if k == 0:
            e0 = Hk @ p.x0
            q[iu] += Mk.T @ e0
            const += 0.5 * e0 @ (Xk @ e0) - e0 @ (Xk @ rk) - e0 @ (Mk @ sk)
        else:
            ix = x_sl(k)
            HtX = Hk.T @ Xk
            P[ix, ix] += HtX @ Hk
            HtM = Hk.T @ Mk
            P[ix, iu] += HtM
            P[iu, ix] += HtM.T
            q[ix] += -HtX @ rk - HtM @ sk
    ixT = x_sl(n)
    HtXT = p.HT.T @ p.XT
    P[ixT, ixT] += HtXT @ p.HT
    q[ixT] += -HtXT @ p.rT
    const += 0.5 * p.rT @ (p.XT @ p.rT)

    ncon = n * nx
    Acon = np.zeros((ncon, nw))
    bcon = np.zeros(ncon)
    for k in range(n):
        rows = slice(k * nx, (k + 1) * nx)
        Acon[rows, x_sl(k + 1)] = np.eye(nx)
        Acon[rows, u_sl(k)] = -p.L[k]
        bcon[k * nx : (k + 1) * nx] = p.c[k]
        if k == 0:
            bcon[:nx] += p.F[0] @ p.x0
        else:
            Acon[rows, x_sl(k)] = -p.F[k]

    kkt = np.zeros((nw + ncon, nw + ncon))
    kkt[:nw, :nw] = P
    kkt[:nw, nw:] = Acon.T
    kkt[nw:, :nw] = Acon
    rhs = np.concatenate([-q, bcon])
    try:
        sol = scipy.linalg.solve(kkt, rhs, assume_a="sym")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SolverError(f"KKT matrix singular: {exc}") from exc
    w = sol[:nw]
    cost = float(0.5 * w @ (P @ w) + q @ w + const)
    blocks = w.reshape(n, nu + nx)
    us = blocks[:, :nu].copy()
    xs = np.concatenate([p.x0[None, :], blocks[:, nu:]], axis=0)
    return cost, us, xs


# --- file interchange ---


def problem_to_dict(p: LqtProblem) -> dict:
    d = {
        "S": p.S,
        "T": p.T,
        "n_x": p.n_x,
        "n_u": p.n_u,
        "n_r": p.n_r,
        "x_S": p.x0.tolist(),
        "F": p.F.tolist(),
        "c": p.c.tolist(),
        "L": p.L.tolist(),
        "H": p.H.tolist(),
        "X": p.X.tolist(),
        "r": p.r.tolist(),
        "U": p.U.tolist(),
        "H_T": p.HT.tolist(),
        "X_T": p.XT.tolist(),
        "r_T": p.rT.tolist(),
    }
    if p.M is not None:
        d["M"] = p.M.tolist()
    if p.s is not None:
        d["s"] = p.s.tolist()
    return d


def problem_from_dict(d: dict) -> LqtProblem:
    return LqtProblem(
        S=int(d["S"]),
        T=int(d["T"]),
        x0=np.asarray(d["x_S"], dtype=np.float64),
        F=np.asarray(d["F"], dtype=np.float64),
        c=np.asarray(d["c"], dtype=np.float64),
        L=np.asarray(d["L"], dtype=np.float64),
        H=np.asarray(d["H"], dtype=np.float64),
        X=np.asarray(d["X"], dtype=np.float64),
        r=np.asarray(d["r"], dtype=np.float64),
        U=np.asarray(d["U"], dtype=np.float64),
        HT=np.asarray(d["H_T"], dtype=np.float64),
        XT=np.asarray(d["X_T"], dtype=np.float64),
        rT=np.asarray(d["r_T"], dtype=np.float64),
        M=np.asarray(d["M"], dtype=np.float64) if "M" in d else None,
        s=np.asarray(d["s"], dtype=np.float64) if "s" in d else None,
    )


def save_problem(p: LqtProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(p), fh)


def load_problem(path) -> LqtProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


def write_trajectory_csv(path, xs: np.ndarray, us: np.ndarray | None = None, S: int = 0) -> None:
    """CSV with header k, x_1..x_nx, u_1..u_nu; terminal controls left blank.

    1-d sequences (finite-state trajectories) are treated as single columns.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if us is not None:
        us = np.asarray(us, dtype=np.float64)
        if us.ndim == 1:
            us = us[:, None]
    n_x = xs.shape[1]
    n_u = 0 if us is None or len(us) == 0 else us.shape[1]
    n_full = len(us) if n_u else 0  # rows with control cells
    blank = [""] * n_u
    header = ["k"] + [f"x_{i + 1}" for i in range(n_x)] + [f"u_{i + 1}" for i in range(n_u)]
    # the csv module's dialect: "\r\n" line ends, floats as repr (the
    # shortest round-trip form), and no cell here needs quoting
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(len(xs)):
            u = map(repr, us[k].tolist()) if k < n_full else blank
            fh.write(",".join([str(S + k), *map(repr, xs[k].tolist()), *u]) + "\r\n")
