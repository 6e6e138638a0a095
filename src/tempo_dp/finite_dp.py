"""Exact dynamic programming on finite state/control spaces.

Stage dynamics and costs are dense tables; conditional value functions
between two time steps are D_x x D_x matrices over the extended reals
(float64, +inf for "no path") whose combination is a min-plus matrix
product. It is associative and lets the whole backward pass run as a scan.
Min-plus arithmetic only adds and compares, so integer-valued costs give
exact results; :class:`FiniteProblem` casts integer cost tables to float64.

The min-plus kernel :func:`min_plus_matmul` runs in blocks whose
temporaries stay within a fixed budget of 2**18 elements (2 MB), so a
scan's memory grows with its (T, D_x, D_x) element stacks, not with
T·D_x³.

Every scan starts from a degenerate element of its own algebra, so one
operator serves the whole tree. The backward scan starts from the terminal
costs as a one-column matrix, ell_T[:, None], and each stage matrix is
combined with the column after it, so it outputs the (N+1, D_x, 1) value
stack itself. The forward conditional scan runs over pairs of stage
elements from the row of the start state, so every prefix is a (1, D_x)
row, and Method 1 from [x_S], a map from a one-point set, so every prefix
is the state reached.

Row x of stage element k has at most D_u finite entries, at the states
f_k(x, u). So when D_u < D_x a stage element also carries its tables,
(E, f, ell), and a product with it on the left is a gather of D_u rows of
the right operand, min_u ell[x, u] + B[f(x, u), :], which costs D_x·D_u·Y
sums instead of D_x²·Y. It equals the dense product bit for bit: rounding
is monotone, so min(a1 + b, a2 + b) = min(a1, a2) + b. A product of two
elements with tables keeps the composed tables, f_b[f_a] and
ell_a + ell_b[f_a] of width W = W_a·W_b, while 2W < D_x, as ``lqt._thin``
keeps factors by rank. The first level of each up-sweep then costs
D_x²·D_u sums per pair; where the level-1 nodes keep width D_u² (D_x = 31,
D_u = 3), the second costs D_x²·D_u², and the higher levels D_x³. The
down-sweep's column and row products cost D_x² (D_x·W for the backward
scan's products with a node that keeps tables).

Elements are plain arrays: value matrices, alone or with their tables,
under one min-plus ``combine``, and Method 1's closed-loop state maps as
index arrays composed by indexing. :func:`solve`, the twin of
:func:`tempo_dp.lqt.solve`, strings the steps together.

States and controls are 0-based in memory. The JSON interchange format is
1-based (see :func:`problem_to_dict` / :func:`problem_from_dict`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, as_int, as_int_array
from .scan import ScanDirection, ScanStats, par_scan, par_scan_stacked

__all__ = [
    "FiniteProblem",
    "FinitePolicy",
    "build_elements",
    "min_plus_matmul",
    "solve",
    "solve_backward",
    "seq_bellman",
    "forward_conditional",
    "recover_traj_m1",
    "recover_traj_m2",
    "brute_force_oracle",
    "rollout_policy",
    "trajectory_cost",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
]

_BRUTE_FORCE_BUDGET = 10**7

# Elements in one min-plus temporary: 2 MB of float64. A block that fits a
# core's L2 cache keeps the kernel fast, and its size does not grow with T.
_MIN_PLUS_BUDGET = 1 << 18


@dataclass(frozen=True)
class FiniteProblem:
    """Tabulated control problem over steps S..T.

    f: (T-S, D_x, D_u) next-state indices.
    ell: (T-S, D_x, D_u) stage costs, +inf for forbidden moves.
    ell_T: (D_x,) terminal costs, finite for at least one state.

    Costs are stored as float64 (integer tables are cast) and must be
    finite or +inf: NaN and -inf are rejected. A table of another shape is
    rejected, naming the field, and so is an f that does not hold integers
    (floats, 2.0 alike, and strings), a D_x, D_u, S, T or x_S that is not
    an integer, and D_u < 1: a state without controls has no next state.
    """

    D_x: int
    D_u: int
    S: int
    T: int
    f: np.ndarray
    ell: np.ndarray
    ell_T: np.ndarray
    x_S: int

    def __post_init__(self):
        for name in ("D_x", "D_u", "S", "T", "x_S"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        n = self.T - self.S
        if n < 0:
            raise ValueError("need T >= S")
        if self.D_u < 1:
            raise ValueError(f"need D_u >= 1 controls, got D_u = {self.D_u}")
        table = (n, self.D_x, self.D_u)
        for name, shape in (("f", table), ("ell", table), ("ell_T", (self.D_x,))):
            a = getattr(self, name)
            a = as_int_array(a, name) if name == "f" else np.asarray(a, dtype=np.float64)
            if a.size == 0 == np.prod(shape):
                a = a.reshape(shape)  # an empty table has no entries to scramble, and JSON's [] no shape
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
            object.__setattr__(self, name, a)
        if n > 0 and (self.f.min() < 0 or self.f.max() >= self.D_x):
            raise ValueError("next-state table entries out of range")
        if not (0 <= self.x_S < self.D_x):
            raise ValueError("initial state out of range")
        for name in ("ell", "ell_T"):
            if not (getattr(self, name) > -np.inf).all():  # NaN compares false too
                raise ValueError(f"{name} holds NaN or -inf; costs must be finite or +inf")
        if not (self.ell_T < np.inf).any():
            raise ValueError("terminal cost must be finite for at least one state")

    @property
    def N(self) -> int:
        return self.T - self.S


@dataclass(frozen=True)
class FinitePolicy:
    """u: (T-S, D_x) control table; V: (T-S+1, D_x) value vectors."""

    u: np.ndarray
    V: np.ndarray


def min_plus_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """out[.., x, y] = min_z A[.., x, z] + B[.., z, y], +inf absorbing.

    Leading axes are batch axes, and A and B must have the same ones (no
    broadcasting). The sums are laid out as s[b, z, x, y]: A's transpose
    repeated along y, then B added in place, so the min over z reduces
    contiguous (x, y) slabs. The batch runs in blocks sized so that s holds
    at most ``_MIN_PLUS_BUDGET`` elements; a single product above the
    budget (D > 64) also runs in blocks of z under a running minimum.
    A one-column B (the backward scan's value columns) takes the sums as
    s[b, x, z] = A + B's column, with the min over the contiguous last
    axis, and a one-row A (the forward scan's prefix rows) as
    s[b, z, y] = A's row + B, with the min over z, both in the same batch
    blocks. Beyond the output, no temporary exceeds the budget or one
    product's sums, whichever is larger.
    """
    X, Z = A.shape[-2:]
    Y = B.shape[-1]
    batch = A.shape[:-2]
    if Z == 0 or B.shape[:-1] != batch + (Z,):
        raise ValueError(
            f"inner dimensions must agree and be nonzero, and batch axes be equal: {A.shape} vs {B.shape}"
        )
    A = A.reshape(-1, X, Z)
    if Y == 1:
        v = B.reshape(-1, Z)
        out = np.empty((A.shape[0], X))
        nb = max(1, _MIN_PLUS_BUDGET // (X * Z))
        for i in range(0, len(out), nb):
            (A[i : i + nb] + v[i : i + nb, None, :]).min(axis=2, out=out[i : i + nb])
        return out.reshape(batch + (X, 1))
    if X == 1:
        a = A.reshape(-1, Z, 1)
        B = B.reshape(-1, Z, Y)
        out = np.empty((len(a), Y))
        nb = max(1, _MIN_PLUS_BUDGET // (Z * Y))
        for i in range(0, len(out), nb):
            (a[i : i + nb] + B[i : i + nb]).min(axis=1, out=out[i : i + nb])
        return out.reshape(batch + (1, Y))
    At = A.swapaxes(1, 2)
    B = B.reshape(-1, Z, Y)
    out = np.empty((At.shape[0], X, Y))
    zb = max(1, min(Z, _MIN_PLUS_BUDGET // max(1, X * Y)))
    nb = max(1, _MIN_PLUS_BUDGET // max(1, zb * X * Y))
    for i in range(0, out.shape[0], nb):
        blk = out[i : i + nb]
        for k in range(0, Z, zb):
            s = np.repeat(At[i : i + nb, k : k + zb, :, None], Y, axis=-1)
            s += B[i : i + nb, k : k + zb, None, :]
            if k == 0:
                s.min(axis=1, out=blk)
            else:
                np.minimum(blk, s.min(axis=1), out=blk)
            del s  # else the next block's s is allocated while this one lives
    return out.reshape(batch + (X, Y))


def _gather_min_plus(f: np.ndarray, ell: np.ndarray, B: np.ndarray) -> np.ndarray:
    """out[.., x, y] = min_u ell[.., x, u] + B[.., f[.., x, u], y]: the
    min-plus product of stage elements, given by their tables, with B.

    Leading axes are batch axes, as in :func:`min_plus_matmul`, whose
    product with the dense element this equals bit for bit. The sums are
    gathered as s[b, u, x, y] and reduced by one min over u, which runs
    over contiguous (x, y) slabs. Blocks of the batch, and of u under a
    running minimum for a product above the budget, keep s within
    ``_MIN_PLUS_BUDGET`` elements or one (x, y) slab, whichever is larger.
    Every table has a width U >= 1 (``FiniteProblem`` requires D_u >= 1,
    and a composed width is a product of widths), so the first block of u
    writes every output entry.
    """
    X, U = f.shape[-2:]
    Y = B.shape[-1]
    batch = f.shape[:-2]
    fu = f.reshape(-1, X, U).swapaxes(1, 2)
    lu = ell.reshape(-1, X, U).swapaxes(1, 2)
    B = B.reshape((-1,) + B.shape[-2:])
    out = np.empty((fu.shape[0], X, Y))
    ub = max(1, min(U, _MIN_PLUS_BUDGET // max(1, X * Y)))
    nb = max(1, _MIN_PLUS_BUDGET // max(1, ub * X * Y))
    for i in range(0, out.shape[0], nb):
        blk = out[i : i + nb]
        rows = np.arange(blk.shape[0])[:, None, None]
        for k in range(0, U, ub):
            s = B[i : i + nb][rows, fu[i : i + nb, k : k + ub]]
            s += lu[i : i + nb, k : k + ub, :, None]
            if k == 0:
                s.min(axis=1, out=blk)
            else:
                np.minimum(blk, s.min(axis=1), out=blk)
            del s  # as in min_plus_matmul: free s before the next block's
    return out.reshape(batch + (X, Y))


def _combine(a, b):
    """a (x) b for (E,) value matrices and (E, f, ell) elements with
    tables, each array batched alike: an element with tables on the left
    gathers from them, any other product is :func:`min_plus_matmul` of the
    matrices.

    When both operands carry tables, so does the product while its width
    W = W_a·W_b stays below D_x / 2: f = f_b[f_a] and
    ell = ell_a + ell_b[f_a], one column per control pair. A next state
    may repeat; the gather takes the minimum, and (ell_a + ell_b) + B is
    the dense path's E + B, so later products stay bit for bit the dense
    ones.
    """
    if len(a) == 1:
        return (min_plus_matmul(a[0], b[0]),)
    E = _gather_min_plus(a[1], a[2], b[0])
    X, Ua = a[1].shape[-2:]
    if len(b) == 1 or 2 * Ua * b[1].shape[-1] >= X:
        return (E,)
    Ub = b[1].shape[-1]
    fa = a[1].reshape(-1, X, Ua)
    at = fa + X * np.arange(len(fa))[:, None, None]  # rows of b's tables, flat over the batch
    f = np.take(b[1].reshape(-1, Ub), at, axis=0)  # np.take: twice as fast as b[1][rows, fa] on short rows
    ell = np.take(b[2].reshape(-1, Ub), at, axis=0)
    ell += a[2].reshape(fa.shape)[..., None]
    shape = a[1].shape[:-2] + (X, Ua * Ub)
    return E, f.reshape(shape), ell.reshape(shape)


def _stage_elements(p: FiniteProblem) -> tuple[np.ndarray, ...]:
    """The N stage elements as stacks: (E, f, ell) when D_u < D_x, so that
    products with them on the left gather from the tables, else (E,)."""
    E = build_elements(p)
    return (E, p.f, p.ell) if p.D_u < p.D_x else (E,)


def _compose_maps(a, b):
    """a (x) b = f_b o f_a for (batch, n) and (batch, D_x) stacks of maps:
    a takes n points to states, and b states to states."""
    return (np.take_along_axis(b[0], a[0], axis=1),)


def build_elements(p: FiniteProblem) -> np.ndarray:
    """Per-step conditional value matrices as one (N, D_x, D_x) stack.

    Element k: V[x, x'] = min over {u : f_k(x, u) = x'} of ell_k(x, u),
    +inf when no control reaches x'. The terminal costs are no element:
    the backward scan starts from them as a one-column matrix.
    """
    V = np.full((p.N, p.D_x, p.D_x), np.inf)
    k, x, _ = np.indices(p.f.shape, sparse=True)
    np.minimum.at(V, (k, x, p.f), p.ell)
    return V


def _policy_from_values(p: FiniteProblem, V: np.ndarray) -> np.ndarray:
    """Greedy control table from value vectors; ties -> smallest index."""
    u = np.zeros((p.N, p.D_x), dtype=np.int64)
    for k in range(p.N):
        u[k] = np.argmin(p.ell[k] + V[k + 1][p.f[k]], axis=1)
    return u


def seq_bellman(p: FiniteProblem) -> FinitePolicy:
    """Classic backward value recursion; reference oracle for the scans."""
    V = np.empty((p.N + 1, p.D_x))
    V[p.N] = p.ell_T
    for k in range(p.N - 1, -1, -1):
        V[k] = (p.ell[k] + V[k + 1][p.f[k]]).min(axis=1)
    if not V[0, p.x_S] < np.inf:
        raise SolverError("infeasible problem")
    return FinitePolicy(u=_policy_from_values(p, V), V=V)


def solve_backward(p: FiniteProblem, return_stats: bool = False):
    """Backward pass as a reverse parallel scan of min-plus matrices.

    The scan starts from the terminal costs as the one-column matrix
    ell_T[:, None], and each of the N stage elements is combined with the
    column after it (D_x² per product instead of D_x³, D_x·D_u where the
    element gathers from its tables), so slot k holds V_k. Matches
    :func:`seq_bellman` exactly for integer-valued costs (min-plus
    arithmetic then involves no reordering-sensitive rounding).
    """
    (V,), stats = par_scan_stacked(
        _stage_elements(p), _combine, ScanDirection.REVERSE, start=(p.ell_T[:, None],)
    )
    V = V[:, :, 0]
    if not V[0, p.x_S] < np.inf:
        raise SolverError("infeasible problem")
    pol = FinitePolicy(u=_policy_from_values(p, V), V=V)
    return (pol, stats) if return_stats else pol


def forward_conditional(p: FiniteProblem) -> np.ndarray:
    """V_{S->k}(x_S, .) for k = S+1..T via a forward scan; row k-S-1 of the
    returned (N, D_x) array holds step k.

    The scan runs over pairs, the first level of the up-sweep: one batched
    :func:`_combine` forms P_j = E_2j (x) E_2j+1 for j < N // 2, with
    composed tables where they are narrow, so products with a pair on the
    left gather from them. The first element is pinned at the start state:
    the (1, D_x) row x_S of P_0. Every prefix is then the conditional value
    row of an even step S + 2j + 2, and each product with it is a
    (1, D_x) (x) (D_x, D_x) one. Each odd step's row is the even row before
    it times one stage matrix, r_2j+1 = r_2j (x) E_2j, all in one batched
    one-row product from r_0, the row that is 0 at x_S and +inf elsewhere.

    This is the one library scan on the object engine :func:`par_scan`.
    ``par_scan_stacked`` from the degenerate start ``start=(r_0,)`` would
    serve as well; the object engine stays here only because the
    benchmark's tracer expects a ``scan.object`` span on the routing
    workload.
    """
    N, m = p.N, p.N // 2
    stage = _stage_elements(p)
    rows = np.empty((N + 1, 1, p.D_x))
    rows[0] = np.inf
    rows[0, 0, p.x_S] = 0.0
    if m:
        pairs = _combine(*(tuple(a[i : 2 * m : 2] for a in stage) for i in (0, 1)))
        elements = [(pairs[0][0, p.x_S][None],), *zip(*(a[1:] for a in pairs))]
        prefix, _ = par_scan(elements, _combine, ScanDirection.FORWARD)
        rows[2::2] = [r[0] for r in prefix]
    rows[1::2] = min_plus_matmul(rows[: N : 2], stage[0][::2])
    return rows[1:, 0]


def recover_traj_m1(p: FiniteProblem, pol: FinitePolicy) -> np.ndarray:
    """Trajectory via composition of closed-loop state maps (Method 1).

    Map k is x -> f_k(x, u_k(x)), row k of an (N, D_x) index stack. The
    scan starts from [x_S], the map from a one-point set to x_S, so every
    prefix is the map to the state reached, and each composition with it
    is one lookup.
    """
    maps = np.take_along_axis(p.f, pol.u[:, :, None], axis=2)[:, :, 0]
    start = (np.array([p.x_S], dtype=np.int64),)
    (traj,), _ = par_scan_stacked((maps,), _compose_maps, ScanDirection.FORWARD, start=start)
    traj = traj[:, 0]
    if not (pol.V[np.arange(p.N + 1), traj] < np.inf).all():
        raise SolverError("policy undefined on reached state")
    return traj


def _connecting_controls(p: FiniteProblem, V: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """For each step k the smallest control that moves xs[k] to xs[k+1]
    optimally, or -1 where none does.

    A move is optimal when f[k, x_k, u] = x_{k+1} and
    ell[k, x_k, u] + V[k+1, x_{k+1}] is finite and equal to the minimum over
    u at x_k. These are the sums :func:`_policy_from_values` forms, so the
    test is exact, and along a path of the policy's own moves the result is
    the policy's control. One vectorized pass, O(N·D_u).
    """
    k = np.arange(p.N)
    f = p.f[k, xs[:-1]]
    q = p.ell[k, xs[:-1]] + V[k[:, None] + 1, f]
    ok = (f == xs[1:, None]) & (q == q.min(axis=1, keepdims=True)) & (q < np.inf)
    return np.where(ok.any(axis=1), ok.argmax(axis=1), -1)


def recover_traj_m2(p: FiniteProblem, fw: np.ndarray, pol: FinitePolicy) -> np.ndarray:
    """Trajectory by minimizing forward conditional + backward value sums.

    ``fw`` is the (N, D_x) output of :func:`forward_conditional`; ties go to
    the smallest state index. Each step's minimizer is taken on its own, so
    when optimal paths tie and cross, consecutive states may come from
    different paths. Every step is therefore checked to be an optimal move
    (:func:`_connecting_controls`), and a SolverError names the first that
    is not.
    """
    total = fw + pol.V[1:]
    if not (total < np.inf).any(axis=1).all():
        raise SolverError("infeasible")
    traj = np.empty(p.N + 1, dtype=np.int64)
    traj[0] = p.x_S
    traj[1:] = np.argmin(total, axis=1)
    bad = np.flatnonzero(_connecting_controls(p, pol.V, traj) < 0)
    if bad.size:
        k = bad[0]
        raise SolverError(
            f"Method 2 states are no optimal path at step {p.S + k}:"
            f" no optimal control moves state {traj[k]} to {traj[k + 1]} (tied optima)"
        )
    return traj


def solve(
    p: FiniteProblem, backend: str = "parallel", traj_method: int = 1
) -> tuple[np.ndarray, np.ndarray, ScanStats]:
    """Optimal states (N+1,), controls (N,) and the backward pass's stats.

    The "sequential" backend runs :func:`seq_bellman` and the closed-loop
    rollout and reports ScanStats(N, N); "parallel" runs
    :func:`solve_backward` and trajectory Method ``traj_method`` (1 or 2),
    and its controls are those that connect consecutive states optimally
    (:func:`_connecting_controls`; on Method 1's path, the policy's). When
    optimal paths tie so that Method 2's states are no path
    (:func:`recover_traj_m2` raises), Method 1's path over the same policy
    is returned instead: it is exact and has log depth too.
    """
    if backend not in ("sequential", "parallel"):
        raise ValueError(f"unknown backend {backend!r}")
    if traj_method not in (1, 2):
        raise ValueError(f"unknown trajectory method {traj_method!r}")
    if backend == "sequential":
        xs, us = rollout_policy(p, seq_bellman(p))
        return xs, us, ScanStats(p.N, p.N)
    pol, stats = solve_backward(p, return_stats=True)
    if traj_method == 2:
        try:
            xs = recover_traj_m2(p, forward_conditional(p), pol)
        except SolverError:  # tied optima crossed
            xs = recover_traj_m1(p, pol)
    else:
        xs = recover_traj_m1(p, pol)
    return xs, _connecting_controls(p, pol.V, xs), stats


def rollout_policy(p: FiniteProblem, pol: FinitePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Sequential closed-loop rollout; oracle for Method 1."""
    xs = np.empty(p.N + 1, dtype=np.int64)
    us = np.empty(p.N, dtype=np.int64)
    xs[0] = p.x_S
    for k in range(p.N):
        us[k] = pol.u[k, xs[k]]
        xs[k + 1] = p.f[k, xs[k], us[k]]
    return xs, us


def trajectory_cost(p: FiniteProblem, xs: np.ndarray, us: np.ndarray):
    """Accumulated cost of a control/state sequence, terminal included."""
    cost = p.ell_T[xs[p.N]]
    for k in range(p.N):
        cost = cost + p.ell[k, xs[k], us[k]]
    return cost


def brute_force_oracle(p: FiniteProblem):
    """Exhaustive minimum over all D_u^(T-S) control sequences.

    Ties resolve to the lexicographically smallest control sequence.
    Returns (cost, controls, states).
    """
    n = p.N
    total = p.D_u**n
    if total > _BRUTE_FORCE_BUDGET:
        raise ValueError(f"brute-force budget exceeded: {total} sequences")
    best_cost = np.inf
    best_idx = -1
    chunk = 1 << 16
    weights = p.D_u ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        x = np.full(idx.shape, p.x_S, dtype=np.int64)
        cost = np.zeros(idx.shape)
        for k in range(n):
            u = (idx // weights[k]) % p.D_u
            cost = cost + p.ell[k][x, u]
            x = p.f[k][x, u]
        cost = cost + p.ell_T[x]
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best_cost = cost[i]
            best_idx = int(idx[i])
    if not best_cost < np.inf:
        raise SolverError("infeasible problem")

    us = (best_idx // weights) % p.D_u
    xs = np.empty(n + 1, dtype=np.int64)
    xs[0] = p.x_S
    for k in range(n):
        xs[k + 1] = p.f[k, xs[k], us[k]]
    return best_cost, us, xs


# --- JSON interchange (1-based indices on disk) ---


def _encode_costs(arr: np.ndarray):
    def conv(v):
        if isinstance(v, list):
            return [conv(x) for x in v]
        return "inf" if v == np.inf else v

    return conv(arr.tolist())


def _decode_costs(nested):
    """Nested cost lists with "inf" strings as numbers; FiniteProblem casts
    them to float64 and rejects NaN and -inf."""

    def conv(v):
        if isinstance(v, list):
            return [conv(x) for x in v]
        if isinstance(v, str):
            if v.lower() in ("inf", "infinity", "+inf"):
                return np.inf
            raise ValueError(f"bad cost entry {v!r}")
        return v

    return conv(nested)


def problem_to_dict(p: FiniteProblem) -> dict:
    return {
        "D_x": p.D_x,
        "D_u": p.D_u,
        "S": p.S,
        "T": p.T,
        "f": (p.f + 1).tolist(),
        "ell": _encode_costs(p.ell),
        "ell_T": _encode_costs(p.ell_T),
        "x_S": p.x_S + 1,
    }


def problem_from_dict(d: dict) -> FiniteProblem:
    return FiniteProblem(
        D_x=d["D_x"],
        D_u=d["D_u"],
        S=d["S"],
        T=d["T"],
        f=as_int_array(d["f"], "f") - 1,
        ell=_decode_costs(d["ell"]),
        ell_T=_decode_costs(d["ell_T"]),
        x_S=as_int(d["x_S"], "x_S") - 1,
    )


def save_problem(p: FiniteProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(p), fh)


def load_problem(path) -> FiniteProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
