"""Shared test fixtures: random problem generators and independent oracles.

The enumeration oracles here are deliberately written with plain Python
loops/itertools so they share no code path with the library's vectorized
implementations.
"""

import csv
import itertools
import re
import shlex
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tempo_dp import lqt
from tempo_dp.finite_dp import FiniteProblem
from tempo_dp.lqt import LqtProblem

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """The argv of each ``tempo-dp`` line in README's Examples block, its
    ``--out`` and directory dropped: the repository's one list of CLI
    runs. The block holds only such lines and ``#`` lines, which give
    the reason for the run below them."""
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    runs = []
    for line in block.splitlines():
        if line.startswith("#"):
            continue
        if not line.startswith("tempo-dp "):
            raise ValueError(f"README Examples: not a tempo-dp run or a # line: {line!r}")
        words = shlex.split(line)[1:]
        i = words.index("--out")
        runs.append(words[:i] + words[i + 2 :])
    return runs


def random_finite_problem(rng, D_x=4, D_u=3, N=8, dtype=np.int64, inf_frac=0.0, cost_max=9):
    """Random integer costs in arrays of ``dtype``, which FiniteProblem casts
    to float64; only float tables can hold the ``inf_frac`` of +inf entries."""
    f = rng.integers(0, D_x, size=(N, D_x, D_u))
    ell = rng.integers(0, cost_max + 1, size=(N, D_x, D_u)).astype(dtype)
    ell_T = rng.integers(0, cost_max + 1, size=D_x).astype(dtype)
    if inf_frac > 0 and not np.issubdtype(np.dtype(dtype), np.integer):
        mask = rng.random(size=ell.shape) < inf_frac
        # keep at least one feasible control per state
        mask[..., 0] = False
        ell[mask] = np.inf
    return FiniteProblem(
        D_x=D_x, D_u=D_u, S=0, T=N, f=f, ell=ell, ell_T=ell_T,
        x_S=int(rng.integers(0, D_x)),
    )


def enumerate_all_sequences(p):
    """Yield (controls, states, cost) for every control sequence (itertools)."""
    for us in itertools.product(range(p.D_u), repeat=p.N):
        x = p.x_S
        cost = 0.0
        xs = [x]
        for k, u in enumerate(us):
            cost += float(p.ell[k, x, u])
            x = int(p.f[k, x, u])
            xs.append(x)
        cost += float(p.ell_T[x])
        yield us, xs, cost


def enumeration_oracle(p):
    """(best cost, best controls, best states, multiplicity of optima)."""
    best = None
    count = 0
    for us, xs, cost in enumerate_all_sequences(p):
        if best is None or cost < best[0] - 1e-12:
            best = (cost, us, xs)
            count = 1
        elif abs(cost - best[0]) <= 1e-12:
            count += 1
    return best[0], np.array(best[1]), np.array(best[2]), count


def enumerate_conditional(p, k):
    """V_{S->k}(x_S, .) by enumerating all control prefixes of length k."""
    inf = np.inf
    out = np.full(p.D_x, inf)
    for us in itertools.product(range(p.D_u), repeat=k):
        x = p.x_S
        cost = 0.0
        for step, u in enumerate(us):
            cost += float(p.ell[step, x, u])
            x = int(p.f[step, x, u])
        out[x] = min(out[x], cost)
    return out


def unique_optimal_trajectory(p):
    """All optimal trajectories coincide? (states, not just controls)."""
    best_cost, _, best_states, _ = enumeration_oracle(p)
    for us, xs, cost in enumerate_all_sequences(p):
        if abs(cost - best_cost) <= 1e-12 and list(xs) != list(best_states):
            return False
    return True


def make_psd(rng, n, scale=0.4, ridge=0.0):
    G = rng.normal(size=(n, n)) * scale
    return G @ G.T + ridge * np.eye(n)


def random_lqt_problem(rng, n_x=4, n_u=2, N=8, cross=False, n_r=None, s_ref=False):
    """Well-conditioned random tracking problem (stable-ish dynamics)."""
    n_r = n_x if n_r is None else n_r
    F = rng.normal(size=(N, n_x, n_x)) * (0.5 / np.sqrt(n_x)) + 0.4 * np.eye(n_x)
    L = rng.normal(size=(N, n_x, n_u)) * 0.7
    c = rng.normal(size=(N, n_x)) * 0.5
    H = rng.normal(size=(N, n_r, n_x)) * 0.4
    H[:, :, :n_r] += np.eye(n_r)
    X = np.stack([make_psd(rng, n_r, 0.4, 0.05) for _ in range(N)])
    r = rng.normal(size=(N, n_r))
    U = np.stack([make_psd(rng, n_u, 0.3, 1.0) for _ in range(N)])
    M = None
    s = None
    if cross:
        # keep X - M U^-1 M' comfortably PSD
        M = rng.normal(size=(N, n_r, n_u)) * 0.05
        s = rng.normal(size=(N, n_u)) * 0.5
        X = X + 0.5 * np.broadcast_to(np.eye(n_r), (N, n_r, n_r))
    elif s_ref:
        s = rng.normal(size=(N, n_u)) * 0.5
    return LqtProblem(
        S=0, T=N, x0=rng.normal(size=n_x),
        F=F, c=c, L=L, H=H, X=X, r=r, U=U,
        HT=np.eye(n_x) + 0.2 * rng.normal(size=(n_x, n_x)),
        XT=make_psd(rng, n_x, 0.4, 0.2),
        rT=rng.normal(size=n_x),
        M=M, s=s,
    )


# --- the LQT element algebra as readable Python objects: the reference that
# the library's stacked scans are checked against


@dataclass(frozen=True)
class LqtElement:
    """Dual parameters (A, b, C, eta, J) of one interval's value function."""

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray
    eta: np.ndarray
    J: np.ndarray


@dataclass(frozen=True)
class AffineMap:
    """Closed-loop transition x -> Ft x + ct."""

    Ft: np.ndarray
    ct: np.ndarray


def lqt_identity(n_x):
    z = np.zeros((n_x, n_x))
    return LqtElement(A=np.eye(n_x), b=np.zeros(n_x), C=z.copy(), eta=np.zeros(n_x), J=z.copy())


def affine_identity(n_x):
    return AffineMap(Ft=np.eye(n_x), ct=np.zeros(n_x))


def compose_affine(a, b):
    """a (x) b = f_b o f_a."""
    return AffineMap(Ft=b.Ft @ a.Ft, ct=lqt._mv(b.Ft, a.ct) + b.ct)


def combine_lqt(e1, e2):
    """Combine two adjacent interval elements (e1 earlier in time)."""
    if e1.A.shape != e2.A.shape:
        raise ValueError(f"dimension mismatch: {e1.A.shape} vs {e2.A.shape}")
    out = lqt._combine_element_arrays(
        (e1.A, e1.b, e1.C, e1.eta, e1.J), (e2.A, e2.b, e2.C, e2.eta, e2.J)
    )
    return LqtElement(*out)


def densified(e):
    """An element stack (A, b, C, eta, J) with C in slot 2: a thin factor Gt
    there (r x n_x, as lqt._element_arrays and the combine leave on wide
    states) becomes C = (Gt'Gt + (Gt'Gt)') / 2."""
    A, b, C, eta, J = e
    if C.shape[-2] != C.shape[-1]:
        C = np.swapaxes(C, -1, -2) @ C
        C = (C + np.swapaxes(C, -1, -2)) / 2
    return A, b, C, eta, J


def make_lqt_elements(p):
    """The N stage elements of lqt._element_arrays, then the terminal element
    (0, 0, 0, HT'XT rT, HT'XT HT) written out here: a reverse scan of all
    N + 1 gives the value functions as the suffixes' (eta, J). A thin factor
    in slot 2 is densified to C, so their combines take the dense path."""
    A, b, C, eta, J = densified(lqt._element_arrays(p))
    HtXT = p.HT.T @ p.XT
    JT = HtXT @ p.HT
    z = np.zeros((p.n_x, p.n_x))
    terminal = LqtElement(A=z, b=np.zeros(p.n_x), C=z, eta=HtXT @ p.rT, J=(JT + JT.T) / 2)
    return [LqtElement(A[k], b[k], C[k], eta[k], J[k]) for k in range(p.N)] + [terminal]


def random_lqt_element(rng, n_x):
    """Element with PSD C, J drawn as G G'."""
    return LqtElement(
        A=rng.normal(size=(n_x, n_x)) * 0.6,
        b=rng.normal(size=n_x),
        C=make_psd(rng, n_x, 0.5),
        eta=rng.normal(size=n_x),
        J=make_psd(rng, n_x, 0.5),
    )


def value_at(values, k, x):
    """0.5 x'S_k x - v_k'x; meaningful only in differences (constant dropped)."""
    return float(0.5 * x @ (values.S[k] @ x) - values.v[k] @ x)


def max_value_dev(values_a, values_b):
    """Norm-relative deviation between two stacked backward-pass values.

    Each step k is normalized by its own max(1, max|b_k|), so a small-magnitude
    step next to large ones is judged at its own scale.
    """
    dS = np.abs(values_a.S - values_b.S).max(axis=(1, 2))
    dv = np.abs(values_a.v - values_b.v).max(axis=1)
    dS = dS / np.maximum(1.0, np.abs(values_b.S).max(axis=(1, 2)))
    dv = dv / np.maximum(1.0, np.abs(values_b.v).max(axis=1))
    return float(max(dS.max(), dv.max()))


def min_plus_identity(D_x):
    """0 on the diagonal, "no path" (inf) elsewhere: the identity of the
    min-plus product."""
    V = np.full((D_x, D_x), np.inf)
    np.fill_diagonal(V, 0)
    return V


def min_plus_loops(A, B):
    """out[.., x, y] = min_z A[.., x, z] + B[.., z, y] by a triple loop over
    Python numbers."""
    a = A.reshape((-1,) + A.shape[-2:]).tolist()
    b = B.reshape((-1,) + B.shape[-2:]).tolist()
    out = []
    for ai, bi in zip(a, b):
        rows = []
        for x in range(A.shape[-2]):
            row = []
            for y in range(B.shape[-1]):
                best = np.inf
                for z in range(A.shape[-1]):
                    best = min(best, ai[x][z] + bi[z][y])
                row.append(best)
            rows.append(row)
        out.append(rows)
    shape = A.shape[:-1] + B.shape[-1:]
    return np.array(out, dtype=np.result_type(A, B)).reshape(shape)


def write_trajectory_csv_rows(path, xs, us=None, S=0):
    """Row-by-row csv-module writer: reference for lqt.write_trajectory_csv."""
    xs = np.asarray(xs)
    if xs.ndim == 1:
        xs = xs[:, None]
    if us is not None:
        us = np.asarray(us)
        if us.ndim == 1:
            us = us[:, None]
    n_x = xs.shape[1]
    n_u = 0 if us is None or len(us) == 0 else us.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k"] + [f"x_{i + 1}" for i in range(n_x)] + [f"u_{i + 1}" for i in range(n_u)])
        for k in range(xs.shape[0]):
            row = [S + k] + [repr(float(v)) for v in xs[k]]
            if n_u:
                if us is not None and k < len(us):
                    row += [repr(float(v)) for v in us[k]]
                else:
                    row += [""] * n_u
            w.writerow(row)


def condense_loop(p, B):
    """Block condensing one block and one step at a time, with one lstsq
    reference fit per block: reference for lqt.condense.

    Returns the condensed stage arrays (F, c, L, X, U, M, r, s) by name.
    """
    nx, nu, nB = p.n_x, p.n_u, p.N // B
    out = {name: [] for name in ("F", "c", "L", "X", "U", "M", "r", "s")}
    for g in range(nB):
        Phi, Gam, d = np.eye(nx), np.zeros((nx, B * nu)), np.zeros(nx)
        Qxx, Qxu, Quu = np.zeros((nx, nx)), np.zeros((nx, B * nu)), np.zeros((B * nu, B * nu))
        qx, qu = np.zeros(nx), np.zeros(B * nu)
        for m in range(B):
            k = g * B + m
            Hx, Hu, off = p.H[k] @ Phi, p.H[k] @ Gam, p.H[k] @ d - p.r[k]
            Qxx += Hx.T @ p.X[k] @ Hx
            Qxu += Hx.T @ p.X[k] @ Hu
            Quu += Hu.T @ p.X[k] @ Hu
            qx += Hx.T @ p.X[k] @ off
            qu += Hu.T @ p.X[k] @ off
            sl = slice(m * nu, (m + 1) * nu)
            Quu[sl, sl] += p.U[k]
            d = p.F[k] @ d + p.c[k]
            Gam = p.F[k] @ Gam
            Gam[:, sl] = p.L[k]
            Phi = p.F[k] @ Phi
        Q = np.block([[Qxx, Qxu], [Qxu.T, Quu]])
        t = np.linalg.lstsq(Q, -np.concatenate([qx, qu]), rcond=None)[0]
        for name, value in zip(out, (Phi, d, Gam, (Qxx + Qxx.T) / 2, (Quu + Quu.T) / 2, Qxu,
                                     t[:nx], t[nx:])):
            out[name].append(value)
    return {name: np.array(values) for name, values in out.items()}
