"""Linear quadratic tracking: sequential Riccati recursion and a parallel
backward pass over dual-parameterized conditional value functions.

An interval k..i of the tracking problem is summarized by five parameters
(A, b, C, eta, J): the quadratic-in-the-endpoints value of the interval in
dual form, which stays well defined when C is singular. Combining two
adjacent intervals is associative, so value functions for every suffix (and
conditional values for every prefix) come out of one scan. Trajectories are
recovered either by composing closed-loop affine maps (Method 1) or from
prefix elements and the backward values (Method 2). Each scan starts from a
degenerate element of its own algebra, one with a zero-dimensional pinned
endpoint, so the interval combine (the affine composition for Method 1) is
the only operator of its tree. The scan's up-sweep does not depend on its
direction, so the backward pass hands the nodes it combined to Method 2's
forward scan with its values.

The control law is u_k = -K_k x_k + K^v_k v_{k+1} - K^c_k c_k, and its three
gains share one normal matrix G_k = L_k' S_{k+1} L_k + U_k: K^v = G^-1 L',
K^c = K^v S_{k+1} and K = K^c F_k, so the parallel path solves for K^v
alone. Every batched solve or factorization that fails (control weights,
normal matrices, Method-2 recovery) raises a SolverError naming its first
failing step.

A level-L node's C = G G' has rank at most r = 2^L n_u. While
0 < 2 r < n_x, slot 2 of every stage element and node holds the thin factor
Gt = G' (r x n_x, never square) in place of C; the stage elements take
G = L R^-T from the Cholesky factor U = R R'. There the combine, also that
of a node with the backward scan's value after it, factors the r x r
matrix M = I + G1' J2 G1 = R_M R_M' instead of inverting the n_x x n_x
Z = I + C1 J2: with H = G1 R_M^-T, Woodbury gives Z^-1 = I - H H' J2, and
the combined C is Gt'Gt for the stacked factor Gt = [A2 H, G2]', formed as
C on the level where it stops being thin. Z and Z^-1 are still formed for
the gate. mass_spring with n_x = 32 and n_u = 2 has three thin levels,
n_x = 4 with n_u = 2 none; Method 2's prefixes have full-rank C, and their
combine forms a thin node's C. There, at T = 4000, the traced peaks are
160 MiB (parallel_backward) and 181 MiB (Method 2 over its nodes).

At these block sizes (n_u and n_x of a few) a batched numpy.linalg call
costs more per matrix than its arithmetic, so the small dense algebra of
the parallel path avoids them where it can. U, M and the block Hessians of
condensing get a hand-rolled Cholesky factorization, one column per step.
Substitutions run one row at a time, each row one batched operation over
all steps and right-hand sides. Matrix-vector products and the gate's
column sums are ``einsum`` calls. The normal matrix G keeps a batched LU
solve: Riccati solves it by LU, so an indefinite but nonsingular G passes
in both backends alike, where a Cholesky factor would reject it in one.

Also here: the generalized-cost (cross-term) reduction to standard form,
block partial condensing, a dense KKT reference solver, and file I/O.

:func:`solve` is the one entry point that strings these steps together
(cost transform, optional condensing, sequential or parallel backward pass,
trajectory recovery, controls); the step functions stay public for callers
that need the values or gains themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SolverError
from .scan import ScanDirection, ScanStats, forward_from_tree, par_scan_stacked
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
    "solve",
    "kkt_oracle",
    "lqt_cost",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "write_trajectory_csv",
]

COND_LIMIT = 1e12
# transform_general_cost rejects a step whose X - M U^-1 M' has an eigenvalue
# below -CONVEX_RTOL times X's largest entry
CONVEX_RTOL = 1e-10


def _t(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", M, v)


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
    solvers require them eliminated first (transform_general_cost). Every
    array must be finite, and X, U and XT symmetric.
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
        for name in ("x0", "F", "c", "L", "H", "X", "r", "U", "HT", "XT", "rT", "M", "s"):
            A = getattr(self, name)
            if A is not None and not np.isfinite(A).all():
                raise ValueError(f"{name} must be finite")
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


@dataclass(frozen=True, eq=False)
class _Tree:
    """The up-sweep nodes that :func:`parallel_backward` kept for Method 2:
    the even nodes (A, b, C or Gt, eta, J) of levels 1, 2, ... over the stage
    elements of ``problem`` (see ``scan.par_scan_stacked``'s ``tree``)."""

    problem: LqtProblem
    levels: list


@dataclass(frozen=True)
class QuadValue:
    """Value functions 0.5 x'S_k x - v_k'x for k = 0..N, constants dropped.

    S: (N+1, n_x, n_x); v: (N+1, n_x). Index k is relative to the start S.
    ``tree`` holds what :func:`parallel_backward` hands to
    :func:`traj_method2` for the problem it solved (None elsewhere); ``==``
    and ``repr`` ignore it.
    """

    S: np.ndarray
    v: np.ndarray
    tree: _Tree | None = field(default=None, repr=False, compare=False)


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


def _norm1(Z: np.ndarray) -> np.ndarray:
    """Matrix 1-norms (largest absolute column sum), batched."""
    return np.einsum("...ij->...j", np.abs(Z)).max(axis=-1)


def _thin(n_x: int, width: int) -> bool:
    """Whether an element whose C = G G' has a factor G of ``width`` columns
    holds Gt = G' in place of C: while 0 < width < n_x / 2."""
    return 0 < 2 * width < n_x


def _factored(C: np.ndarray) -> bool:
    """Whether slot 2 holds a thin factor Gt (r x n_x, never square), not C."""
    return C.shape[-2] != C.shape[-1]


def _gate(cond: np.ndarray) -> None:
    """The conditioning gate: beyond COND_LIMIT the exact 1-norm condition
    numbers ``cond`` = ||Z||_1 ||Z^-1||_1 of Z = I + C1 J2 (or a non-finite
    one) make the combine raise instead of returning garbage."""
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > COND_LIMIT:
        raise SolverError(f"ill-conditioned combine: condition number {worst:.3e}")


def _gated_inverse(C1: np.ndarray, J2: np.ndarray) -> np.ndarray:
    """Zi = (I + C1 J2)^-1, batched, behind the conditioning gate; a
    singular Z raises too."""
    Z = np.eye(C1.shape[-1]) + C1 @ J2
    try:
        Zi = np.linalg.inv(Z)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"ill-conditioned combine: {exc}") from exc
    _gate(_norm1(Z) * _norm1(Zi))
    return Zi


def _cholesky(M: np.ndarray, floor=0.0) -> np.ndarray:
    """Lower factors R of M = R R', batched, one column of R per step.

    A pivot at or below ``floor`` (>= 0, broadcast over the batch) or a
    non-finite one leaves NaN in its factor from there on, so a failed
    factor reads NaN in its last diagonal entry. For the small factors here
    this beats a batched LAPACK call's per-matrix cost.
    """
    R = np.zeros(M.shape)
    for j in range(M.shape[-1]):
        r = R[..., j, :j]
        d = M[..., j, j] - np.einsum("...k,...k->...", r, r)
        d = np.sqrt(np.where(d > floor, d, np.nan))
        R[..., j, j] = d
        rest = M[..., j + 1 :, j] - np.einsum("...ik,...k->...i", R[..., j + 1 :, :j], r)
        R[..., j + 1 :, j] = rest / d[..., None]
    return R


def _forward_sub(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """R^-1 rhs for lower-triangular R, batched, one row at a time: each row
    one batched operation over all steps and right-hand-side columns."""
    x = rhs.copy()
    for i in range(R.shape[-1]):
        x[..., i, :] -= np.einsum("...j,...jk->...k", R[..., i, :i], x[..., :i, :])
        x[..., i, :] /= R[..., i, i, None]
    return x


def _back_sub(R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R'^-1 y for lower-triangular R, in place, the same way."""
    for i in reversed(range(R.shape[-1])):
        y[..., i, :] -= np.einsum("...j,...jk->...k", R[..., i + 1 :, i], y[..., i + 1 :, :])
        y[..., i, :] /= R[..., i, i, None]
    return y


def _thin_inverse(e1, J2: np.ndarray):
    """Woodbury for C1 = G1 G1' of rank r: (I + C1 J2)^-1 = I - H H' J2,
    with H = G1 R^-T and R the Cholesky factor of the r x r matrix
    M = I + G1' J2 G1, SPD for PSD J2 (else it raises). Takes e1 with
    Gt1 = G1' in slot 2 and returns (P, H', H' J2), where
    P = (I + C1 J2)^-1 A1 = A1 - H (H' J2 A1). Z = I + Gt1'(Gt1 J2), from
    M's Gt1 J2, and Zi are formed for the conditioning gate alone.
    """
    A1, Gt1 = e1[0], e1[2]
    GtJ = Gt1 @ J2
    R = _cholesky(np.eye(Gt1.shape[-2]) + GtJ @ _t(Gt1))
    if not np.isfinite(R[..., -1, -1]).all():
        raise SolverError("ill-conditioned combine: I + G'JG not positive definite")
    Ht = _forward_sub(R, Gt1)
    HtJ = Ht @ J2
    eye = np.eye(Gt1.shape[-1])
    _gate(_norm1(eye + _t(Gt1) @ GtJ) * _norm1(eye - _t(Ht) @ HtJ))
    return A1 - _t(Ht) @ (HtJ @ A1), Ht, HtJ


def _eta_J(P, e1, eta2, J2):
    """eta and J of e1 (x) e2, from P = (I + C1 J2)^-1 A1."""
    A1, b1, _, eta1, J1 = e1
    PtJ = _t(P) @ J2
    eta = _mv(_t(P), eta2) - _mv(PtJ, b1) + eta1
    J = PtJ @ A1
    del PtJ  # before the sum and its symmetrization allocate stacks as large
    J += J1
    return eta, _sym(J)


def _combine_element_arrays(e1, e2):
    """Interval combination, batched over any leading axes.

    e1 covers the chronologically earlier interval. C and J of both inputs
    must be symmetric (maintained by construction and re-symmetrization
    here), which makes (I + J2 C1)^-1 the transpose of Zi = (I + C1 J2)^-1,
    so one batched inverse (:func:`_gated_inverse`) serves both sides of the
    combination.

    An element maps an endpoint of dimension A.shape[-1] to one of
    A.shape[-2], and either may be 0: the scans' starts are such degenerate
    elements (see :func:`parallel_backward`, :func:`traj_method2`). The
    products P'J2 and W C1, W = A2 Zi, are formed once, so the terms of a
    zero-dimensional side cost nothing.

    On thin levels (:func:`_thin`, decided on the output endpoint) slot 2 of
    e1 holds Gt = G' in place of C = G G', and so does e2's unless e2 ends
    in a zero-dimensional endpoint. Then Zi = I - H H' J2 comes from an
    r x r Cholesky factor (:func:`_thin_inverse`) and is never formed here:
    with K = H' A2', P = A1 - H (H' J2 A1), W (b1 + C1 eta2) = A2 b1 +
    K' H' (eta2 - J2 b1) and W C1 A2' + C2 = Gt'Gt for Gt = [K; Gt2], which
    the output holds while it stays thin, and C = sym(Gt'Gt) once it does not.
    """
    A1, b1, C1 = e1[:3]
    A2, b2, C2, eta2, J2 = e2
    if not _factored(C1):
        Zi = _gated_inverse(C1, J2)
        P, W = Zi @ A1, A2 @ Zi
        del Zi
        WC = W @ C1
        b = _mv(W, b1) + _mv(WC, eta2) + b2
        del W
        C = WC @ _t(A2)
        del WC
        C += _sym(_t(C2) @ C2) if _factored(C2) else C2
        return A2 @ P, b, _sym(C), *_eta_J(P, e1, eta2, J2)
    P, Ht, HtJ = _thin_inverse(e1, J2)
    K = Ht @ _t(A2)
    b = _mv(A2, b1) + _mv(_t(K), _mv(Ht, eta2) - _mv(HtJ, b1)) + b2
    del Ht, HtJ
    Gt = np.concatenate([K, C2], axis=-2)
    C = Gt if _thin(A2.shape[-2], Gt.shape[-2]) else _sym(_t(Gt) @ Gt)
    return A2 @ P, b, C, *_eta_J(P, e1, eta2, J2)


def _batched(fn, what: str, offset: int, *stacks):
    """``fn`` (a numpy.linalg routine) on whole stacks of per-step operands.

    On failure ``fn`` runs again step by step, and the SolverError names the
    first failing step, ``offset + k``, or none if no single step fails.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        for k in range(stacks[0].shape[0]):
            try:
                fn(*(a[k] for a in stacks))
            except np.linalg.LinAlgError:
                raise SolverError(f"{what} at step {offset + k}") from None
        raise SolverError(what) from None


def _control_factor(U: np.ndarray, offset: int, stride: int = 1) -> np.ndarray:
    """Cholesky factors R of the control weights, U = R R'; a non-PD U raises
    naming its first failing row k as step ``offset + stride * k``."""
    R = _cholesky(U)
    bad = np.flatnonzero(~np.isfinite(R[:, -1, -1])) if U.shape[-1] else ()
    if len(bad):
        what = "control weight U not positive definite: factorization failed"
        raise SolverError(f"{what} at step {offset + stride * bad[0]}")
    return R


def _spd_solve_batched(U: np.ndarray, rhs: np.ndarray, offset: int):
    """U^-1 rhs per step by forward and back substitution on U = R R'."""
    R = _control_factor(U, offset)
    return _back_sub(R, _forward_sub(R, rhs))


def _element_arrays(p: LqtProblem, stride: int = 1):
    """Stacked (A, b, C, eta, J) of the stage elements 0, stride, 2 stride, ...

    Stage k: (F_k, c_k, G_k G_k', H_k'X_k r_k, H_k'X_k H_k) with
    G_k = L_k R_k^-T and U_k = R_k R_k', so that C_k = L_k U_k^-1 L_k'. A and
    b are views of p.F and p.c, which the scans only read. While G is thin
    (:func:`_thin`) slot 2 holds Gt = G' (N, n_u, n_x) in place of C.
    """
    if p.has_general_cost:
        raise ValueError("eliminate cross terms first (transform_general_cost)")
    F, c, L, U, H, X, r = (a[::stride] for a in (p.F, p.c, p.L, p.U, p.H, p.X, p.r))
    Gt = _forward_sub(_control_factor(U, p.S, stride), _t(L))
    thin = _thin(p.n_x, p.n_u)
    C = Gt if thin else _t(Gt) @ Gt
    HtX = _t(H) @ X
    eta = _mv(HtX, r)
    J = HtX @ H
    del Gt, HtX  # before the symmetrization below copies a whole stack
    for M in (J,) if thin else (C, J):  # symmetrized in place, with the bits of _sym
        M += _t(M)  # numpy copies the overlapping transposed operand first
        M *= 0.5
    return F, c, C, eta, J


def _terminal(p: LqtProblem):
    """The value at the terminal step, (v_N, S_N) = (HT'XT rT, HT'XT HT).
    v_N carries the XT factor; see the regression test on the printed
    variant."""
    HtXT = p.HT.T @ p.XT
    return HtXT @ p.rT, _sym(HtXT @ p.HT)


def riccati_backward(p: LqtProblem) -> tuple[QuadValue, Gains]:
    """Sequential backward recursion for (S_k, v_k) and the gain triples."""
    if p.has_general_cost:
        raise ValueError("eliminate cross terms first (transform_general_cost)")
    nx, nu, n = p.n_x, p.n_u, p.N
    Ss = np.empty((n + 1, nx, nx))
    vs = np.empty((n + 1, nx))
    vs[n], Ss[n] = _terminal(p)
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
    """Vectorized gain triples from the stacked S_{k+1} matrices: one solve
    Kv = (L'S L + U)^-1 L', then Kc = Kv S and K = Kc F."""
    Sn = Ss[1:]
    Lt = _t(p.L)
    Kv = _batched(np.linalg.solve, "control normal matrix singular", p.S, Lt @ Sn @ p.L + p.U, Lt)
    Kc = Kv @ Sn
    return Kc @ p.F, Kv, Kc


def parallel_backward(p: LqtProblem, return_stats: bool = False):
    """Backward pass as a reverse scan of interval elements.

    The scan starts from the terminal value as an element into a
    zero-dimensional endpoint, (A, b, C) of shapes (0, n_x), (0,), (0, 0)
    and (eta, J) = (v_N, S_N), so slot k holds the suffix from step k,
    whose (eta, J) is the value function (v_k, S_k). Every S leaves a
    symmetrization, so it is exactly symmetric. Output matches
    :func:`riccati_backward`. The values carry the up-sweep's even nodes
    above the elements (``QuadValue.tree``), so that :func:`traj_method2`
    on the same problem runs no up-sweep.
    """
    levels: list = []
    (_, _, _, v, Ss), stats = par_scan_stacked(
        _element_arrays(p),
        _combine_element_arrays,
        ScanDirection.REVERSE,
        start=(np.zeros((0, p.n_x)), np.zeros(0), np.zeros((0, 0)), *_terminal(p)),
        tree=levels,
    )
    values = QuadValue(Ss, v, _Tree(p, levels))
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
    ct = p.c + _mv(p.L, _mv(gains.Kv, values.v[1:]) - _mv(gains.Kc, p.c))
    return Ft, ct


def traj_method1(p: LqtProblem, gains: Gains, values: QuadValue) -> np.ndarray:
    """Trajectory by scanning closed-loop affine maps (Method 1).

    The scan starts from the initial state as a map from R^0, (F, c) =
    ((n_x, 0) zeros, x0), so each prefix is the constant map to its state,
    and each composition with it is one matrix-vector product.
    """
    (_, xs), _ = par_scan_stacked(
        _closed_loop_maps(p, values, gains),
        _compose_affine_arrays,
        ScanDirection.FORWARD,
        start=(np.zeros((p.n_x, 0)), p.x0),
    )
    return xs


def traj_method2(p: LqtProblem, values: QuadValue) -> np.ndarray:
    """Trajectory from forward prefix elements and backward values (Method 2).

    x_k = (I + C_{S,k} S_k)^-1 (b_{S,k} + C_{S,k} v_k) for k = S..T, where
    (b, C)_{S,k} is the interval from the start to step k conditioned on
    x_S = x0. The forward scan starts from the element out of a
    zero-dimensional start, (A, b, C, eta, J) = ((n_x, 0), x0, 0, (0,),
    (0, 0)), so every prefix is conditioned on x0 and its combine with a
    stage element forms only (b, C).

    Values from :func:`parallel_backward` on this same ``p`` (the object
    itself) carry that scan's up-sweep, and the forward scan then runs only
    its down-sweep, over those nodes and the even stage elements (the only
    ones it reads). Other values (Riccati's, a hand-built ``QuadValue``,
    another problem's) make it run its own up-sweep.
    """
    n = p.n_x
    start = (np.zeros((n, 0)), p.x0, np.zeros((n, n)), np.zeros(0), np.zeros((0, 0)))
    tree = values.tree
    if tree is not None and tree.problem is p:
        evens = [_element_arrays(p, 2), *tree.levels]
        (_, b, C, _, _), _ = forward_from_tree(evens, p.N, start, _combine_element_arrays)
    else:
        (_, b, C, _, _), _ = par_scan_stacked(
            _element_arrays(p),
            _combine_element_arrays,
            ScanDirection.FORWARD,
            start=start,
        )
    rhs = b + _mv(C, values.v)
    lhs = C @ values.S
    del b, C  # before the batched solve copies its operands
    lhs += np.eye(n)
    what = "trajectory recovery matrix (I + C S) singular"
    return _batched(np.linalg.solve, what, p.S, lhs, rhs[..., None])[..., 0]


@dataclass(frozen=True)
class GeneralCostRecovery:
    """Maps transformed-coordinate controls back to the original problem."""

    UinvMt: np.ndarray  # (N, n_u, n_r)
    H: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def controls(self, xs: np.ndarray, u_tilde: np.ndarray) -> np.ndarray:
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
    UinvMt = _spd_solve_batched(p.U, _t(M), p.S)
    Xt = _sym(p.X - M @ UinvMt)
    w = np.linalg.eigvalsh(Xt)
    # the rounding in X - M U^-1 M' scales with X (the two terms cancel
    # where the cost completes a square), so the bound is relative to X
    scale = np.abs(p.X).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero((w < -CONVEX_RTOL * scale[:, None]).any(axis=-1))
    if bad.size:
        k = bad[0]
        raise SolverError(
            f"cost not jointly convex after Schur complement at step {p.S + k}"
            f" (min eigenvalue {w[k].min():.3e})"
        )
    F2 = p.F - p.L @ UinvMt @ p.H
    c2 = p.c + _mv(p.L @ UinvMt, p.r) + _mv(p.L, s)
    q = replace(p, F=F2, c=c2, X=Xt, M=None, s=None)
    return q, GeneralCostRecovery(UinvMt=UinvMt, H=p.H, r=p.r, s=s)


def _blocks(a: np.ndarray, B: int) -> np.ndarray:
    """A stage stack (N, ...) as (N/B, B, ...): block g, in-block offset m."""
    return a.reshape((len(a) // B, B) + a.shape[1:])


def condense(p: LqtProblem, B: int) -> LqtProblem:
    """Block-eliminate intermediate states, B steps per block.

    The condensed problem has the same state dimension, input dimension
    B*n_u, and horizon (T-S)/B. Stage costs accumulated inside a block
    generally couple the head state with the stacked controls, so the
    output is in general-cost form (run transform_general_cost before
    solving). The states inside a block follow from its head state and
    controls by the original dynamics.
    """
    if p.has_general_cost:
        raise ValueError("condense expects a standard-form problem")
    if B < 1:
        raise ValueError("block size must be >= 1")
    if p.N % B:
        raise ValueError(f"horizon {p.N} not divisible by block size {B} (pad with zero-cost steps)")
    nx, nu = p.n_x, p.n_u
    nB, nz = p.N // B, nx + B * nu
    F, c, L, H, X, r, U = (_blocks(a, B) for a in (p.F, p.c, p.L, p.H, p.X, p.r, p.U))
    # the block map x_{gB+m} = Z [x_head; u_block] + d and the block's cost
    # 0.5 z'Q z + q'z in z = [x_head; u_block] run over the B in-block
    # steps, batched over the blocks
    Z = np.zeros((nB, nx, nz))
    Z[:, :, :nx] = np.eye(nx)
    d = np.zeros((nB, nx))
    Q = np.zeros((nB, nz, nz))
    q = np.zeros((nB, nz))
    for m in range(B):
        HZ = H[:, m] @ Z
        XHZ = X[:, m] @ HZ
        Q += _t(HZ) @ XHZ
        q += _mv(_t(XHZ), _mv(H[:, m], d) - r[:, m])
        sl = slice(nx + m * nu, nx + (m + 1) * nu)
        Q[:, sl, sl] += U[:, m]
        d = _mv(F[:, m], d) + c[:, m]
        Z = F[:, m] @ Z
        Z[:, :, sl] = L[:, m]
    Q = _sym(Q)
    # fit references so the linear terms match, Q [r; s] = -q: one batched
    # Cholesky solve, and lstsq's minimum-norm solution on the blocks whose
    # Q it finds singular (a pivot within rounding of zero), from an
    # eigendecomposition applied in factored form (an explicit
    # pseudo-inverse loses about six digits on tracking2d, where
    # cond(Q) ~ 1e8)
    tol = np.finfo(np.float64).eps * nz
    R = _cholesky(Q, tol * np.abs(np.diagonal(Q, axis1=-2, axis2=-1)).max(axis=-1))
    tvec = -_back_sub(R, _forward_sub(R, q[..., None]))[..., 0]
    bad = ~np.isfinite(R[:, -1, -1])
    if bad.any():
        w, V = np.linalg.eigh(Q[bad])
        cut = tol * np.abs(w).max(axis=-1, keepdims=True)
        winv = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > cut)
        tvec[bad] = _mv(V, winv * _mv(_t(V), -q[bad]))
    return LqtProblem(
        S=0,
        T=nB,
        x0=p.x0,
        F=Z[:, :, :nx],
        c=d,
        L=Z[:, :, nx:],
        H=np.broadcast_to(np.eye(nx), (nB, nx, nx)).copy(),
        X=Q[:, :nx, :nx],
        r=tvec[:, :nx],
        U=Q[:, nx:, nx:],
        HT=p.HT,
        XT=p.XT,
        rT=p.rT,
        M=Q[:, :nx, nx:],
        s=tvec[:, nx:],
    )


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
    ``block_size`` B the problem is condensed to N/B blocks and solved the
    same way, and the states inside each block are rolled forward from its
    head by the original dynamics; the stats are those of the condensed
    solve. Every control weight U_k must be positive definite; on either
    backend the first step where it is not raises a SolverError.
    """
    if backend not in ("sequential", "parallel"):
        raise ValueError(f"unknown backend {backend!r}")
    if traj_method not in (1, 2):
        raise ValueError(f"unknown trajectory method {traj_method!r}")
    std, cost_rec = transform_general_cost(p)
    _control_factor(std.U, std.S)  # both backends reject a non-PD U alike
    if block_size is not None:
        xs_c, us_c, stats = solve(condense(std, block_size), backend, traj_method)
        ut = us_c.reshape(std.N, std.n_u)
        xs = np.empty((std.N + 1, std.n_x))
        xs[::block_size] = xs_c
        x, F, c, L, u = (_blocks(a, block_size) for a in (xs[:-1], std.F, std.c, std.L, ut))
        for m in range(block_size - 1):
            x[:, m + 1] = _mv(F[:, m], x[:, m]) + c[:, m] + _mv(L[:, m], u[:, m])
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


def kkt_oracle(p: LqtProblem):
    """Global optimum by one dense LU solve of the KKT system.

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
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
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
    p = LqtProblem(
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
    for name in ("n_x", "n_u", "n_r"):
        if name in d and int(d[name]) != getattr(p, name):
            raise ValueError(f"declared {name} = {d[name]} but the arrays give {getattr(p, name)}")
    return p


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
