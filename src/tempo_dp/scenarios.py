"""Benchmark scenario builders.

Four problem families: 2-D point tracking through waypoints, a mass-spring-
damper chain, shortest-path routing on a cost grid, and a unicycle chasing
a closed track. Builders are deterministic given (parameters, seed);
waypoint/track shapes come from fixed-seed generators and nothing
downstream depends on their specific coordinates.

The mass-spring builder's zero-order hold takes its matrix exponential from
:func:`_expm`, a numpy scaling-and-squaring Padé approximant, so importing
this module and building any of the four families loads numpy alone.
"""

from __future__ import annotations

import numpy as np

from .finite_dp import FiniteProblem
from .lqt import LqtProblem
from .nonlinear import NonlinearProblem

__all__ = [
    "zoh_discretize",
    "build_tracking2d",
    "build_mass_spring",
    "build_routing",
    "build_unicycle",
]


# Degree-13 Padé numerator coefficients and the 1-norm bound theta_13 below
# which [13/13] Padé meets double-precision unit roundoff (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring with a fixed [13/13] Padé approximant.

    A is halved s times until its 1-norm is at most theta_13, the
    approximant r = q(A)^-1 p(A) is evaluated from A^2, A^4 and A^6 (with
    p(A) = V + U and q(A) = V - U, U odd and V even in A), and r is squared
    s times (Higham 2005, Algorithm 2.3 without the lower degrees).
    """
    norm = np.linalg.norm(A, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A / 2.0**s
    b = _PADE13
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def zoh_discretize(A_cont: np.ndarray, B_cont: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization via the augmented matrix exponential.

    F = exp(A dt); L = (integral_0^dt exp(A tau) d tau) B, both read off
    exp([[A, B], [0, 0]] dt). The exponential is :func:`_expm`, scaling and
    squaring with a [13/13] Padé approximant (N. J. Higham, "The scaling
    and squaring method for the matrix exponential revisited", SIAM J.
    Matrix Anal. Appl. 26(4), 2005). A must be (n, n), B (n, m), dt
    positive and A dt and B dt finite; anything else raises ValueError.
    """
    dt = float(dt)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite dt > 0, got {dt}")
    A_cont = np.asarray(A_cont, dtype=np.float64)
    B_cont = np.asarray(B_cont, dtype=np.float64)
    if A_cont.ndim != 2 or A_cont.shape[0] != A_cont.shape[1]:
        raise ValueError(f"A must be square (n, n), got shape {A_cont.shape}")
    n = A_cont.shape[0]
    if B_cont.ndim != 2 or B_cont.shape[0] != n:
        raise ValueError(f"B must be ({n}, m) to match A, got shape {B_cont.shape}")
    m = B_cont.shape[1]
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A_cont * dt
    blk[:n, n:] = B_cont * dt
    if not np.isfinite(blk).all():
        raise ValueError("A dt and B dt must be finite")
    E = _expm(blk)
    return E[:n, :n], E[:n, n:]


def _smooth_waypoints(count: int, start: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random smooth 2-D path: heading random walk, unit-ish segment lengths."""
    heading = rng.uniform(0, 2 * np.pi)
    pts = np.empty((count, 2))
    pts[0] = start
    for i in range(1, count):
        heading += rng.normal(0.0, 0.35)
        step = rng.uniform(0.8, 1.2)
        pts[i] = pts[i - 1] + step * np.array([np.cos(heading), np.sin(heading)])
    return pts


def build_tracking2d(T: int, seed: int = 0) -> LqtProblem:
    """2-D Newtonian tracking: steer positions through waypoints.

    State (px, py, vx, vy), control = accelerations, dt = 0.1. Waypoints sit
    at every 10th step (weight 100 per position axis); intermediate steps
    repeat the previous waypoint with weight 1e-6, as do any trailing steps
    when T is not a multiple of 10. Terminal cost is identity over the full
    state with zero reference velocity.
    """
    if T < 10:
        raise ValueError("need T >= 10")
    dt = 0.1
    F1 = np.array(
        [[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.float64
    )
    L1 = np.array(
        [[dt**2 / 2, 0], [0, dt**2 / 2], [dt, 0], [0, dt]], dtype=np.float64
    )
    H1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float64)

    rng = np.random.default_rng(seed)
    n_wp = T // 10 + 1  # waypoints at k = 0, 10, ..., T
    wps = _smooth_waypoints(n_wp, np.array([5.0, 5.0]), rng)

    F = np.repeat(F1[None], T, axis=0)
    L = np.repeat(L1[None], T, axis=0)
    c = np.zeros((T, 4))
    H = np.repeat(H1[None], T, axis=0)
    U = np.repeat((0.1 * np.eye(2))[None], T, axis=0)
    k = np.arange(T)
    w = np.where(k % 10 == 0, 100.0, 1e-6)
    X = w[:, None, None] * np.eye(2)
    r = wps[k // 10]  # previous waypoint at intermediate steps
    rT = np.concatenate([wps[-1], np.zeros(2)])
    return LqtProblem(
        S=0, T=T, x0=np.array([5.0, 5.0, 0.0, 0.0]),
        F=F, c=c, L=L, H=H, X=X, r=r, U=U,
        HT=np.eye(4), XT=np.eye(4), rT=rT,
    )


def build_mass_spring(N: int, T: int) -> LqtProblem:
    """Chain of N unit masses joined by springs (c=1) and dampers (d=0.2).

    Controls push the first mass (+u1) and last mass (-u2). State layout
    [y1, dy1, ..., yN, dyN]; regulate to the origin from y1 = 1 and
    y_{floor(N/2)+1} = 1 over a 10 s horizon split into T ZOH steps.
    """
    if N < 2:
        raise ValueError("need at least two masses")
    if T < 2:
        raise ValueError("need T >= 2")
    m, cst, dmp = 1.0, 1.0, 0.2
    n = 2 * N
    A = np.zeros((n, n))
    B = np.zeros((n, 2))
    for i in range(N):
        pos, vel = 2 * i, 2 * i + 1
        A[pos, vel] = 1.0
        A[vel, pos] = -2 * cst / m
        A[vel, vel] = -2 * dmp / m
        if i > 0:
            A[vel, pos - 2] = cst / m
            A[vel, vel - 2] = dmp / m
        if i < N - 1:
            A[vel, pos + 2] = cst / m
            A[vel, vel + 2] = dmp / m
    B[1, 0] = 1.0 / m
    B[n - 1, 1] = -1.0 / m

    F1, L1 = zoh_discretize(A, B, 10.0 / T)
    x0 = np.zeros(n)
    x0[0] = 1.0
    x0[2 * (N // 2)] = 1.0  # middle mass, index floor(N/2)+1 in 1-based terms
    return LqtProblem(
        S=0, T=T, x0=x0,
        F=np.repeat(F1[None], T, axis=0),
        c=np.zeros((T, n)),
        L=np.repeat(L1[None], T, axis=0),
        H=np.repeat(np.eye(n)[None], T, axis=0),
        X=np.repeat(np.eye(n)[None], T, axis=0),
        r=np.zeros((T, n)),
        U=np.repeat((0.1 * np.eye(2))[None], T, axis=0),
        HT=np.eye(n), XT=np.eye(n), rT=np.zeros(n),
    )


def build_routing(D_x: int, T: int, seed: int = 0) -> FiniteProblem:
    """Left-to-right grid routing with per-cell costs drawn from {0, 1, 2}.

    Controls: 0 = up, 1 = straight, 2 = down. Vertical moves cost one unit,
    straight is free; the entered cell's grid cost is added. Moving off the
    grid is infeasible (+inf), not clamped. Start at the middle row.
    """
    if D_x < 1 or D_x % 2 == 0:
        raise ValueError("D_x must be odd")
    if T < 1:
        raise ValueError("need T >= 1")
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 3, size=(T + 1, D_x)).astype(np.float64)
    move_cost = np.array([1.0, 0.0, 1.0])
    f = np.zeros((T, D_x, 3), dtype=np.int64)
    ell = np.zeros((T, D_x, 3))
    for x in range(D_x):
        for u, dxm in enumerate((-1, 0, 1)):
            nxt = x + dxm
            if 0 <= nxt < D_x:
                f[:, x, u] = nxt
                ell[:, x, u] = move_cost[u] + grid[1:, nxt]
            else:
                f[:, x, u] = x
                ell[:, x, u] = np.inf
    return FiniteProblem(
        D_x=D_x, D_u=3, S=0, T=T, f=f, ell=ell,
        ell_T=np.zeros(D_x), x_S=D_x // 2,
    )


def _race_track(n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Closed loop: perturbed ellipse sampled at n_points parameters."""
    phi0 = rng.uniform(0, 2 * np.pi)
    rx = rng.uniform(8.0, 12.0)
    ry = rng.uniform(5.0, 7.0)
    amp = rng.uniform(0.05, 0.15)
    phi = np.linspace(0, 2 * np.pi, n_points, endpoint=False)
    wobble = 1.0 + amp * np.sin(3 * phi + phi0)
    return np.stack([rx * wobble * np.cos(phi), ry * wobble * np.sin(phi)], axis=1)


def build_unicycle(T: int, seed: int = 0) -> NonlinearProblem:
    """Unicycle (px, py, theta, speed) tracking a closed race track.

    Controls are tangential acceleration and turn rate. The dynamics, output
    and Jacobian callables work on (..., n) stacks of points. Position/heading
    references sit at every 10th step and are held between; weights are
    (100, 100, 1000) at reference steps and 1e-6 otherwise, including the
    terminal step. U = diag(1, 100), dt = 0.1.
    """
    if T < 10:
        raise ValueError("need T >= 10")
    dt = 0.1
    rng = np.random.default_rng(seed)
    lap = _race_track(40, rng)  # 40 waypoints per lap, multiple laps over T
    n_wp = T // 10 + 1
    pos = lap[np.arange(n_wp) % len(lap)]
    seg = lap[(np.arange(n_wp) + 1) % len(lap)] - pos
    theta = np.unwrap(np.arctan2(seg[:, 1], seg[:, 0]))
    refs = np.column_stack([pos, theta])

    k = np.arange(T)
    X = np.where((k % 10 == 0)[:, None, None], np.diag([100.0, 100.0, 1000.0]), 1e-6 * np.eye(3))
    r = refs[k // 10]  # previous reference at intermediate steps
    XT = np.diag([1e-6, 1e-6, 1e-6])
    rT = refs[-1] if T % 10 == 0 else refs[T // 10]

    H3 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=np.float64)

    def f(k, x, u):
        px, py, th, sp = (x[..., i] for i in range(4))
        return np.stack(
            [px + sp * np.cos(th) * dt, py + sp * np.sin(th) * dt,
             th + u[..., 1] * dt, sp + u[..., 0] * dt],
            axis=-1,
        )

    def jac_f_x(k, x, u):
        th, sp = x[..., 2], x[..., 3]
        J = np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4)).copy()
        J[..., 0, 2] = -sp * np.sin(th) * dt
        J[..., 0, 3] = np.cos(th) * dt
        J[..., 1, 2] = sp * np.cos(th) * dt
        J[..., 1, 3] = np.sin(th) * dt
        return J

    Lu = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, dt], [dt, 0.0]])

    def jac_f_u(k, x, u):
        return np.broadcast_to(Lu, x.shape[:-1] + Lu.shape).copy()

    def h(k, x):
        return x[..., :3].copy()

    def jac_h(k, x):
        return np.broadcast_to(H3, x.shape[:-1] + H3.shape).copy()

    speed0 = float(np.linalg.norm(seg[0]) / (10 * dt))
    x0 = np.array([pos[0, 0], pos[0, 1], theta[0], speed0])
    return NonlinearProblem(
        x0=x0, f=f, h=h,
        X=X, U=np.repeat(np.diag([1.0, 100.0])[None], T, axis=0),
        r=r, s=np.zeros((T, 2)),
        hT=lambda x: H3 @ x, XT=XT, rT=rT,
        jac_f_x=jac_f_x, jac_f_u=jac_f_u, jac_h=jac_h, jac_hT=lambda x: H3.copy(),
    )
