"""LQT tests: Riccati vs parallel scan, element algebra against a numeric
minimization oracle, trajectory recovery, cost transform, condensing, KKT."""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from tempo_dp import lqt
from tempo_dp.errors import SolverError
from tempo_dp.scan import ScanDirection, par_scan

from helpers import (
    AffineMap,
    LqtElement,
    combine_lqt,
    compose_affine,
    condense_loop,
    lqt_identity,
    make_lqt_elements,
    max_value_dev,
    random_lqt_element,
    random_lqt_problem,
    write_trajectory_csv_rows,
)

FWD, REV = ScanDirection.FORWARD, ScanDirection.REVERSE


def scalar_problem(N=1, F=1.0, L=1.0, c=0.0, H=1.0, X=1.0, r=0.0, U=1.0, x0=1.0,
                   HT=1.0, XT=1.0, rT=0.0):
    one = np.ones((N, 1, 1))
    vec = np.ones((N, 1))
    return lqt.LqtProblem(
        S=0, T=N, x0=[x0],
        F=F * one, c=c * vec, L=L * one, H=H * one, X=X * one, r=r * vec, U=U * one,
        HT=[[HT]], XT=[[XT]], rT=[rT],
    )


class TestRiccatiBackward:
    def test_scalar_hand_example(self):
        p = scalar_problem()
        values, gains = lqt.riccati_backward(p)
        assert values.S[1, 0, 0] == pytest.approx(1.0)
        assert values.v[1, 0] == pytest.approx(0.0)
        assert gains.K[0, 0, 0] == pytest.approx(0.5)
        assert values.S[0, 0, 0] == pytest.approx(1.5)
        assert values.v[0, 0] == pytest.approx(0.0)

    def test_zero_stage_weight_ignores_stage_reference(self):
        rng = np.random.default_rng(0)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=6)
        pz = lqt.LqtProblem(
            S=0, T=p.N, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H,
            X=np.zeros_like(p.X), r=p.r, U=p.U, HT=p.HT, XT=p.XT, rT=p.rT,
        )
        pz2 = lqt.LqtProblem(
            S=0, T=p.N, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H,
            X=np.zeros_like(p.X), r=p.r + 5.0, U=p.U, HT=p.HT, XT=p.XT, rT=p.rT,
        )
        va, _ = lqt.riccati_backward(pz)
        vb, _ = lqt.riccati_backward(pz2)
        assert max_value_dev(va, vb) == 0.0

    def test_singular_normal_matrix_reports_step(self):
        p = scalar_problem(N=3)
        U = p.U.copy()
        L = p.L.copy()
        U[1] = 0.0
        L[1] = 0.0
        bad = lqt.LqtProblem(S=0, T=3, x0=p.x0, F=p.F, c=p.c, L=L, H=p.H,
                             X=p.X, r=p.r, U=U, HT=p.HT, XT=p.XT, rT=p.rT)
        with pytest.raises(SolverError, match="step 1"):
            lqt.riccati_backward(bad)

    def test_rejects_general_cost(self):
        rng = np.random.default_rng(1)
        p = random_lqt_problem(rng, N=4, cross=True)
        with pytest.raises(ValueError, match="transform_general_cost"):
            lqt.riccati_backward(p)


class TestElements:
    def test_scalar_stage_element(self):
        p = scalar_problem(N=2)
        e = make_lqt_elements(p)[0]
        for got, want in zip((e.A, e.b, e.C, e.eta, e.J), (1, 0, 1, 0, 1)):
            assert float(np.asarray(got).ravel()[0]) == pytest.approx(want)

    def test_zero_reference_zero_eta(self):
        rng = np.random.default_rng(2)
        p = random_lqt_problem(rng, N=5)
        pz = lqt.LqtProblem(S=0, T=5, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H, X=p.X,
                            r=np.zeros_like(p.r), U=p.U, HT=p.HT, XT=p.XT,
                            rT=np.zeros_like(p.rT))
        for e in make_lqt_elements(pz):
            assert np.all(e.eta == 0)

    def test_zero_weight_pure_dynamics(self):
        p = scalar_problem(N=1, X=0.0)
        e = make_lqt_elements(p)[0]
        assert e.J[0, 0] == 0.0 and e.eta[0] == 0.0

    def test_terminal_element(self):
        p = scalar_problem(N=1, HT=2.0, XT=3.0, rT=4.0)
        e = make_lqt_elements(p)[-1]
        assert e.J[0, 0] == pytest.approx(2.0 * 3.0 * 2.0)
        assert e.eta[0] == pytest.approx(2.0 * 3.0 * 4.0)  # includes the XT factor
        assert np.all(e.A == 0) and np.all(e.b == 0) and np.all(e.C == 0)

    def test_singular_u_rejected(self):
        p = scalar_problem(N=2)
        U = p.U.copy()
        U[0] = 0.0
        bad = lqt.LqtProblem(S=0, T=2, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H,
                             X=p.X, r=p.r, U=U, HT=p.HT, XT=p.XT, rT=p.rT)
        with pytest.raises(SolverError, match="factorization failed at step 0"):
            make_lqt_elements(bad)


def eval_element(e, x, y):
    """Direct evaluation of an interval value via the primal form (C > 0)."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    resid = y - e.A @ x - e.b
    return float(0.5 * x @ (e.J @ x) - x @ e.eta + 0.5 * resid @ np.linalg.solve(e.C, resid))


def min_over_z(e1, e2, x, y):
    """min_z V1(x, z) + V2(z, y), scalar z, solved exactly via 3-point fit."""
    zs = np.array([-1.0, 0.0, 1.0])
    vals = [eval_element(e1, x, [z]) + eval_element(e2, [z], y) for z in zs]
    a, b, c0 = np.polyfit(zs, vals, 2)
    assert a > 0
    return c0 - b * b / (4 * a)


class TestCombine:
    def test_identity_two_sided_exact(self):
        rng = np.random.default_rng(3)
        ident = lqt_identity(3)
        e = random_lqt_element(rng, 3)
        for out in (combine_lqt(e, ident), combine_lqt(ident, e)):
            for f in ("A", "b", "C", "eta", "J"):
                assert np.array_equal(getattr(out, f), getattr(e, f))

    def test_scalar_worked_example(self):
        e1 = LqtElement(A=[[2.0]], b=[1.0], C=[[1.0]], eta=[0.0], J=[[1.0]])
        e2 = LqtElement(A=[[1.0]], b=[0.0], C=[[1.0]], eta=[1.0], J=[[2.0]])
        e1 = LqtElement(*(np.asarray(v, float) for v in (e1.A, e1.b, e1.C, e1.eta, e1.J)))
        e2 = LqtElement(*(np.asarray(v, float) for v in (e2.A, e2.b, e2.C, e2.eta, e2.J)))
        out = combine_lqt(e1, e2)
        assert out.A[0, 0] == pytest.approx(2 / 3)
        assert out.b[0] == pytest.approx(2 / 3)
        assert out.C[0, 0] == pytest.approx(4 / 3)
        assert out.eta[0] == pytest.approx(-2 / 3)
        assert out.J[0, 0] == pytest.approx(11 / 3)
        # numeric oracle: minimize the summed interval values over the middle
        # state and compare up to the dropped constant
        ref0 = min_over_z(e1, e2, [0.0], [0.0])
        got0 = eval_element(out, [0.0], [0.0])
        for x in (-1.0, 0.5, 2.0):
            for y in (-0.7, 0.0, 1.3):
                ref = min_over_z(e1, e2, [x], [y]) - ref0
                got = eval_element(out, [x], [y]) - got0
                assert got == pytest.approx(ref, abs=1e-9)

    def test_chain_matches_riccati(self):
        rng = np.random.default_rng(4)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=10)
        elems = make_lqt_elements(p)
        suffix = elems[-1]
        for e in reversed(elems[:-1]):
            suffix = combine_lqt(e, suffix)
        values, _ = lqt.riccati_backward(p)
        np.testing.assert_allclose(suffix.J, values.S[0], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(suffix.eta, values.v[0], rtol=1e-9, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, c = (random_lqt_element(rng, 3) for _ in range(3))
            lhs = combine_lqt(combine_lqt(a, b), c)
            rhs = combine_lqt(a, combine_lqt(b, c))
            for f in ("A", "b", "C", "eta", "J"):
                num = np.max(np.abs(getattr(lhs, f) - getattr(rhs, f)))
                den = max(1.0, np.max(np.abs(getattr(rhs, f))))
                assert num / den <= 1e-8

    def test_symmetry_after_combine(self):
        rng = np.random.default_rng(6)
        a, b = random_lqt_element(rng, 4), random_lqt_element(rng, 4)
        out = combine_lqt(a, b)
        assert np.max(np.abs(out.C - out.C.T)) == 0.0
        assert np.max(np.abs(out.J - out.J.T)) == 0.0

    def test_ill_conditioned_errors(self):
        big = 1e14
        e1 = LqtElement(A=np.eye(2), b=np.zeros(2),
                            C=np.array([[1.0, 0.0], [0.0, 0.0]]),
                            eta=np.zeros(2), J=np.zeros((2, 2)))
        e2 = LqtElement(A=np.eye(2), b=np.zeros(2), C=np.zeros((2, 2)),
                            eta=np.zeros(2),
                            J=np.array([[1.0, big], [big, big**2]]))
        with pytest.raises(SolverError, match="ill-conditioned combine"):
            combine_lqt(e1, e2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            combine_lqt(lqt_identity(2), lqt_identity(3))


def object_backward(p):
    """Values and gains from the element algebra (make_lqt_elements,
    combine_lqt) scanned as Python objects by par_scan."""
    out, _ = par_scan(make_lqt_elements(p), combine_lqt, REV)
    values = lqt.QuadValue(np.stack([e.J for e in out]), np.stack([e.eta for e in out]))
    return values, lqt.Gains(*lqt._gains_from_values(p, values.S))


def backward(p, engine):
    return lqt.parallel_backward(p) if engine == "stacked" else object_backward(p)


def object_method1(p, values, gains):
    """Method 1 by par_scan over AffineMap objects (compose_affine), the
    first map pinned at the initial state."""
    Ft, ct = lqt._closed_loop_maps(p, values, gains)
    maps = [AffineMap(np.zeros_like(Ft[0]), Ft[0] @ p.x0 + ct[0])]
    maps += [AffineMap(Ft[k], ct[k]) for k in range(1, p.N)]
    prefix, _ = par_scan(maps, compose_affine, FWD)
    return np.stack([p.x0] + [m.ct for m in prefix])


def object_method2(p, values):
    """Method 2 step by step from LqtElement prefixes scanned by par_scan."""
    n = p.n_x
    z = np.zeros((n, n))
    start = LqtElement(A=z, b=p.x0, C=z, eta=np.zeros(n), J=z)
    prefix, _ = par_scan([start] + make_lqt_elements(p)[:-1], combine_lqt, FWD)
    return np.stack([
        np.linalg.solve(np.eye(n) + e.C @ values.S[k], e.A @ p.x0 + e.b + e.C @ values.v[k])
        for k, e in enumerate(prefix)
    ])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestConditioningGate:
    """combine_lqt raises exactly when cond_1(I + C1 J2) exceeds COND_LIMIT."""

    def test_gate_matches_condition_number(self):
        rng = np.random.default_rng(21)
        below = above = 0
        for scale in np.logspace(8, 16, 33):
            Q1, Q2 = rotation(rng.uniform(0, np.pi)), rotation(rng.uniform(0, np.pi))
            C1 = Q1 @ np.diag([1.0, 0.5]) @ Q1.T
            J2 = Q2 @ np.diag([0.3, scale]) @ Q2.T
            cond = np.linalg.cond(np.eye(2) + C1 @ J2, 1)
            if lqt.COND_LIMIT / 10 <= cond <= lqt.COND_LIMIT * 10:
                continue
            e1 = LqtElement(A=rng.normal(size=(2, 2)), b=rng.normal(size=2), C=C1,
                                eta=rng.normal(size=2), J=np.eye(2))
            e2 = LqtElement(A=rng.normal(size=(2, 2)), b=rng.normal(size=2), C=np.eye(2),
                                eta=rng.normal(size=2), J=J2)
            if cond > lqt.COND_LIMIT:
                above += 1
                with pytest.raises(SolverError, match="ill-conditioned combine"):
                    combine_lqt(e1, e2)
            else:
                below += 1
                out = combine_lqt(e1, e2)
                assert all(np.isfinite(getattr(out, f)).all() for f in ("A", "b", "C", "eta", "J"))
        assert below >= 5 and above >= 5

    @pytest.mark.parametrize("engine", ["stacked", "object"])
    def test_gate_fires_inside_parallel_backward(self, engine):
        # only the first state is actuated, nearly free to control, and
        # heavily weighted at the end: I + C J has condition ~1e14 at the
        # last stage/terminal combine, although Riccati itself is fine
        N = 6
        p = lqt.LqtProblem(
            S=0, T=N, x0=[1.0, 0.0],
            F=np.tile(np.eye(2), (N, 1, 1)), c=np.zeros((N, 2)),
            L=np.tile([[1.0], [0.0]], (N, 1, 1)),
            H=np.tile(np.eye(2), (N, 1, 1)), X=np.tile(np.eye(2), (N, 1, 1)),
            r=np.zeros((N, 2)), U=np.full((N, 1, 1), 1e-7),
            HT=np.eye(2), XT=np.diag([1e7, 1.0]), rT=np.zeros(2),
        )
        lqt.riccati_backward(p)
        with pytest.raises(SolverError, match="ill-conditioned combine"):
            backward(p, engine)

    def test_gate_fires_in_fill_slots(self, monkeypatch):
        # step 2 is nearly free to control in state 0 and step 3 weights that
        # state heavily: I + C J has condition ~1e14 only across the boundary
        # between steps 2 and 3. With N = 6 both scans have 7 elements and
        # that boundary sits at tree position 4, which no pair combine spans
        # (pairs meet at 1, 3, 5 and 2), so the gate must fire inside a fill.
        N = 6
        U = np.ones((N, 1, 1))
        U[2] = 1e-7
        X = np.tile(np.eye(2), (N, 1, 1))
        X[3] = np.diag([1e7, 1.0])
        p = lqt.LqtProblem(
            S=0, T=N, x0=[1.0, 0.0],
            F=np.tile(np.eye(2), (N, 1, 1)), c=np.zeros((N, 2)),
            L=np.tile([[1.0], [0.0]], (N, 1, 1)),
            H=np.tile(np.eye(2), (N, 1, 1)), X=X, r=np.zeros((N, 2)), U=U,
            HT=np.eye(2), XT=np.eye(2), rT=np.zeros(2),
        )
        values, _ = lqt.riccati_backward(p)
        raised_in = []

        def watched(name):
            fill = getattr(lqt, name)

            def wrapper(a, b):
                try:
                    return fill(a, b)
                except SolverError:
                    raised_in.append(name)
                    raise

            return wrapper

        for name in ("_fill_suffix", "_fill_prefix"):
            monkeypatch.setattr(lqt, name, watched(name))
        match = "ill-conditioned combine: condition number"
        with pytest.raises(SolverError, match=match):
            lqt.parallel_backward(p)
        with pytest.raises(SolverError, match=match):
            lqt.traj_method2(p, values)
        assert raised_in == ["_fill_suffix", "_fill_prefix"]


def stacked(elements):
    return tuple(np.stack([getattr(e, f) for e in elements]) for f in ("A", "b", "C", "eta", "J"))


class TestPinnedFills:
    """Each scan fill equals the full combine on operands of its pinned form,
    bit for bit in the arrays it forms and exactly zero in the others."""

    def test_suffix_fill(self):
        rng = np.random.default_rng(31)
        e1 = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        _, _, _, eta2, J2 = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        zero = np.zeros_like(e1[0])
        e2 = (zero, np.zeros_like(eta2), zero, eta2, J2)  # pinned at the terminal
        full = lqt._combine_element_arrays(e1, e2)
        fill = lqt._fill_suffix(e1, e2)
        for i in (3, 4):
            assert fill[i].tobytes() == full[i].tobytes()
        for i in (0, 1, 2):
            assert np.all(full[i] == 0) and np.all(fill[i] == 0)

    def test_prefix_fill(self):
        rng = np.random.default_rng(32)
        _, b1, C1, _, _ = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        e2 = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        zero = np.zeros_like(C1)
        e1 = (zero, b1, C1, np.zeros_like(b1), zero)  # pinned at the initial state
        full = lqt._combine_element_arrays(e1, e2)
        fill = lqt._fill_prefix(e1, e2)
        for i in (1, 2):
            assert fill[i].tobytes() == full[i].tobytes()
        for i in (0, 3, 4):
            assert np.all(full[i] == 0) and np.all(fill[i] == 0)

    def test_affine_fill(self):
        rng = np.random.default_rng(33)
        a = (np.zeros((5, 3, 3)), rng.normal(size=(5, 3)))  # pinned: the state itself
        b = (rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3)))
        full = lqt._compose_affine_arrays(a, b)
        fill = lqt._fill_affine(a, b)
        assert fill[1].tobytes() == full[1].tobytes()
        assert np.all(full[0] == 0) and np.all(fill[0] == 0)


def gate_problem(N, bad):
    """2-state problem whose combines across the boundary between steps
    ``bad`` and ``bad + 1`` have cond(I + C J) ~ 1e14 (step ``bad`` is nearly
    free to control in state 0, step ``bad + 1`` weights it heavily)."""
    U = np.ones((N, 1, 1))
    U[bad] = 1e-7
    X = np.tile(np.eye(2), (N, 1, 1))
    X[bad + 1] = np.diag([1e7, 1.0])
    return lqt.LqtProblem(
        S=0, T=N, x0=[1.0, 0.0],
        F=np.tile(np.eye(2), (N, 1, 1)), c=np.zeros((N, 2)),
        L=np.tile([[1.0], [0.0]], (N, 1, 1)),
        H=np.tile(np.eye(2), (N, 1, 1)), X=X, r=np.zeros((N, 2)), U=U,
        HT=np.eye(2), XT=np.eye(2), rT=np.zeros(2),
    )


@pytest.fixture
def split(monkeypatch):
    """Two block threads (also on one core) and a block budget of ``pairs``
    pairs of an n-state operator; records (m, k) of every split call."""
    calls = []
    run_blocks = lqt._run_blocks

    def spy(op, e1, e2, m, k):
        calls.append((m, k))
        return run_blocks(op, e1, e2, m, k)

    def configure(n, pairs, workers=2):
        monkeypatch.setattr(lqt, "_WORKERS", workers)
        monkeypatch.setattr(lqt, "_BLOCK_BUDGET", pairs * n**3)
        return calls

    monkeypatch.setattr(lqt, "_run_blocks", spy)
    return configure


def solve_bytes(p):
    values, gains, stats = lqt.parallel_backward(p, return_stats=True)
    arrays = (values.S, values.v, gains.K, gains.Kv, gains.Kc, lqt.traj_method2(p, values))
    return [a.tobytes() for a in arrays], stats


class TestBlockRunner:
    """The LQT operators split a batch into blocks run across threads; the
    results must not depend on the split."""

    @pytest.mark.parametrize("scenario", ["mass_spring", "tracking2d"])
    def test_byte_identical_to_single_block(self, split, scenario):
        from tempo_dp.scenarios import build_mass_spring, build_tracking2d

        p = build_mass_spring(3, 37) if scenario == "mass_spring" else build_tracking2d(51, seed=4)
        calls = split(p.n_x, 3, workers=1)
        ref = solve_bytes(p)
        assert calls == []
        split(p.n_x, 3, workers=2)
        assert solve_bytes(p) == ref
        # level-0 batches of 19 (mass_spring) or 26 (tracking2d) pairs cut
        # into blocks of about 3 pairs
        assert any(k >= 2 and m % k for m, k in calls)

    def test_lowest_failing_block_raises(self, split, monkeypatch):
        rng = np.random.default_rng(40)
        e1 = stacked([random_lqt_element(rng, 2) for _ in range(7)])
        e2 = stacked([random_lqt_element(rng, 2) for _ in range(7)])
        e1[2][3], e2[4][3] = np.diag([1.0, 0.5]), np.diag([0.3, 1e14])  # cond ~ 1e14
        e1[2][5], e2[4][5] = np.eye(2), -np.eye(2)  # singular I + C1 J2
        calls = split(2, 2)
        gated_inverse = lqt._gated_inverse
        first = [e1[2][i, 0, 0] for i in (0, 2, 4)]  # tells blocks [0, 2), [2, 4), [4, 7) apart

        def delayed(C1, J2):
            time.sleep(delay.get(C1[0, 0, 0], 0.0))
            return gated_inverse(C1, J2)

        monkeypatch.setattr(lqt, "_gated_inverse", delayed)
        # block 1's failure arrives after block 2's (when another thread
        # runs block 1), then before it; either way block 1's is raised
        for delay in ({first[0]: 0.02, first[1]: 0.1}, {first[0]: 0.05, first[2]: 0.1}):
            for _ in range(2):
                with pytest.raises(SolverError, match="ill-conditioned combine: condition number"):
                    lqt._combine_element_arrays(e1, e2)
        e1[2][3], e2[4][3] = np.eye(2), np.eye(2)
        with pytest.raises(SolverError, match="ill-conditioned combine: Singular"):
            lqt._combine_element_arrays(e1, e2)
        assert calls == [(7, 3)] * 5

    def test_gate_in_later_block_raises_from_both_scans(self, split, monkeypatch):
        p = gate_problem(40, 27)
        values, _ = lqt.riccati_backward(p)
        split(2, 1)  # one pair per block
        active, finished, raised = [0], [0], []
        lock = threading.Lock()
        gated_inverse, run_blocks = lqt._gated_inverse, lqt._run_blocks

        def slow_gate(C1, J2):
            with lock:
                active[0] += 1
            try:
                time.sleep(0.002)
                return gated_inverse(C1, J2)
            finally:
                with lock:
                    active[0] -= 1
                    finished[0] += 1

        def record(op, e1, e2, m, k):
            start = finished[0]
            try:
                return run_blocks(op, e1, e2, m, k)
            except SolverError:
                # pairs that fail the gate, and whether every block ran
                bad = np.flatnonzero(np.linalg.cond(np.eye(2) + e1[2] @ e2[4], 1) > lqt.COND_LIMIT)
                raised.append((m, k, bad, finished[0] - start, active[0]))
                raise

        monkeypatch.setattr(lqt, "_gated_inverse", slow_gate)
        monkeypatch.setattr(lqt, "_run_blocks", record)
        match = "ill-conditioned combine: condition number"
        with pytest.raises(SolverError, match=match):
            lqt.parallel_backward(p)
        with pytest.raises(SolverError, match=match):
            lqt.traj_method2(p, values)
        assert len(raised) == 2
        for m, k, bad, ran, running in raised:
            assert k >= 2 and len(bad) and bad.min() >= m // k  # not in block 0
            assert ran == k and running == 0

    def test_more_threads_than_cores(self, split, monkeypatch):
        from tempo_dp.scenarios import build_mass_spring

        p = build_mass_spring(3, 61)
        split(p.n_x, 1, workers=1)
        ref = solve_bytes(p)
        monkeypatch.setattr(lqt, "_pool", None)
        calls = split(p.n_x, 1, workers=8)  # a fresh pool of 7 threads, one pair per block
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.append(solve_bytes(p)))
            runner.start()
            runner.join(120)
            assert not runner.is_alive(), "multi-block solve did not finish"
        finally:
            sys.setswitchinterval(interval)
            lqt._pool.shutdown(wait=False)
        # a block claimed twice or never would change the bytes or hang
        assert got == [ref] and max(k for _, k in calls) >= 30

    def test_one_worker_never_creates_a_pool(self, split, monkeypatch):
        monkeypatch.setattr(lqt, "_pool", None)
        calls = split(4, 1, workers=1)
        lqt.solve(random_lqt_problem(np.random.default_rng(41), N=30), traj_method=2)
        assert lqt._pool is None and calls == []

    def test_unbatched_input_runs_inline(self, split):
        rng = np.random.default_rng(42)
        a, b = random_lqt_element(rng, 3), random_lqt_element(rng, 3)
        calls = split(3, 1)  # any batched call of two or more pairs would split
        out = combine_lqt(a, b)
        assert calls == []
        ref = lqt._combine_element_arrays(
            *(tuple(getattr(e, f)[None] for f in ("A", "b", "C", "eta", "J")) for e in (a, b))
        )
        assert all(getattr(out, f).tobytes() == r[0].tobytes()
                   for f, r in zip(("A", "b", "C", "eta", "J"), ref))

    def test_forked_child_solves(self, split):
        from tempo_dp.scenarios import build_mass_spring

        p = build_mass_spring(3, 37)
        split(p.n_x, 3)
        ref = solve_bytes(p)  # the parent's pool exists now
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=lambda: os._exit(0 if solve_bytes(p) == ref else 1))
        child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
            pytest.fail("forked child hung in a multi-block solve")
        assert child.exitcode == 0


class TestParallelBackward:
    def test_terminal_only(self):
        p = lqt.LqtProblem(
            S=0, T=0, x0=[1.0, 2.0],
            F=np.zeros((0, 2, 2)), c=np.zeros((0, 2)), L=np.zeros((0, 2, 1)),
            H=np.zeros((0, 2, 2)), X=np.zeros((0, 2, 2)), r=np.zeros((0, 2)),
            U=np.zeros((0, 1, 1)),
            HT=np.array([[1.0, 0.0], [0.0, 2.0]]), XT=3.0 * np.eye(2), rT=[1.0, 1.0],
        )
        values, gains = lqt.parallel_backward(p)
        np.testing.assert_allclose(values.S[0], p.HT.T @ p.XT @ p.HT)
        np.testing.assert_allclose(values.v[0], p.HT.T @ p.XT @ p.rT)
        assert gains.K.shape == gains.Kv.shape == gains.Kc.shape == (0, 1, 2)

    @pytest.mark.parametrize("engine", ["stacked", "object"])
    def test_matches_riccati(self, engine):
        rng = np.random.default_rng(7)
        p = random_lqt_problem(rng, n_x=4, n_u=2, N=64)
        ref, gains_ref = lqt.riccati_backward(p)
        values, gains = backward(p, engine)
        assert max_value_dev(values, ref) <= 1e-9
        assert np.allclose(gains.K, gains_ref.K, rtol=1e-8, atol=1e-10)

    def test_stats_depth(self):
        rng = np.random.default_rng(8)
        p = random_lqt_problem(rng, n_x=2, n_u=1, N=100)
        _, _, stats = lqt.parallel_backward(p, return_stats=True)
        assert stats.combine_depth <= 2 * int(np.ceil(np.log2(101))) + 1

    def test_mass_spring_controls_agree(self):
        from tempo_dp.scenarios import build_mass_spring

        p = build_mass_spring(4, 100)
        values_s, gains_s = lqt.riccati_backward(p)
        _, us_s = lqt.closed_loop_rollout(p, values_s, gains_s)
        values_p, gains_p = lqt.parallel_backward(p)
        xs_p = lqt.traj_method1(p, gains_p, values_p)
        us_p = lqt.controls_along(p, values_p, gains_p, xs_p)
        assert np.max(np.abs(us_s - us_p)) <= 1e-8


def truncated(p, N):
    """The first N stages of p with its terminal cost."""
    return lqt.LqtProblem(
        S=0, T=N, x0=p.x0, F=p.F[:N], c=p.c[:N], L=p.L[:N], H=p.H[:N], X=p.X[:N],
        r=p.r[:N], U=p.U[:N], HT=p.HT, XT=p.XT, rT=p.rT,
    )


class TestStackedResults:
    @pytest.mark.parametrize("solver", [lqt.riccati_backward, lqt.parallel_backward])
    @pytest.mark.parametrize("n_x,n_u", [(1, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("N", [0, 1, 7])
    def test_shapes_and_value_at(self, solver, n_x, n_u, N):
        rng = np.random.default_rng(10 * N + n_x + n_u)
        p = truncated(random_lqt_problem(rng, n_x=n_x, n_u=n_u, N=7), N)
        values, gains = solver(p)
        assert values.S.shape == (N + 1, n_x, n_x)
        assert values.v.shape == (N + 1, n_x)
        for g in (gains.K, gains.Kv, gains.Kc):
            assert g.shape == (N, n_u, n_x)
        x = rng.normal(size=n_x)
        for k in range(N + 1):
            want = 0.5 * x @ values.S[k] @ x - values.v[k] @ x
            assert lqt.value_at(values, k, x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_max_value_dev_is_per_step(self):
        # one small-magnitude step among large ones: a 1e-3 error there is
        # reported as 1e-3, not diluted by the large steps' scale
        S = np.full((5, 2, 2), 1e6)
        v = np.full((5, 2), 1e6)
        S[2] = 1.0
        v[2] = 1.0
        ref = lqt.QuadValue(S, v)
        S_bad = S.copy()
        S_bad[2, 0, 1] += 1e-3
        assert max_value_dev(lqt.QuadValue(S_bad, v), ref) == pytest.approx(1e-3)
        v_bad = v.copy()
        v_bad[2, 1] -= 1e-3
        assert max_value_dev(lqt.QuadValue(S, v_bad), ref) == pytest.approx(1e-3)


class TestControlLaw:
    def test_zero_inputs(self):
        p = scalar_problem()
        values, gains = lqt.riccati_backward(p)
        u = lqt.control(np.zeros(1), 0, gains, np.zeros(1), np.zeros(1))
        assert u[0] == 0.0

    def test_scalar_gain(self):
        p = scalar_problem()
        values, gains = lqt.riccati_backward(p)
        u = lqt.control(np.array([2.0]), 0, gains, values.v[1], p.c[0])
        assert u[0] == pytest.approx(-1.0)  # -(1/2) x

    def test_grid_search_oracle(self):
        # u from the gain formula equals the minimizer of the one-step
        # quadratic cost-to-go, found independently by quadratic fit
        p = scalar_problem(N=3, F=0.8, L=0.5, c=0.2, X=2.0, r=1.5, U=0.7, rT=0.3)
        values, gains = lqt.riccati_backward(p)
        x = np.array([1.7])
        k = 0
        u_law = lqt.control(x, k, gains, values.v[k + 1], p.c[k])[0]

        def q(u):
            e = p.H[k] @ x - p.r[k]
            step = 0.5 * e @ (p.X[k] @ e) + 0.5 * u * p.U[k, 0, 0] * u
            xn = p.F[k] @ x + p.c[k] + p.L[k] @ [u]
            return float(step + 0.5 * xn @ (values.S[k + 1] @ xn) - values.v[k + 1] @ xn)

        us = np.array([-1.0, 0.0, 1.0])
        a, b, _ = np.polyfit(us, [q(u) for u in us], 2)
        assert u_law == pytest.approx(-b / (2 * a), abs=1e-10)


class TestTrajectoryRecovery:
    def test_affine_composition_example(self):
        out = compose_affine(
            AffineMap(np.array([[2.0]]), np.array([1.0])),
            AffineMap(np.array([[3.0]]), np.array([1.0])),
        )
        assert out.Ft[0, 0] == 6.0 and out.ct[0] == 4.0

    def test_zero_closed_loop_matrix(self):
        # with F = L K exactly, x_{k+1} is the offset term alone
        rng = np.random.default_rng(9)
        p = random_lqt_problem(rng, n_x=2, n_u=2, N=5)
        values, gains = lqt.riccati_backward(p)
        Ft, ct = lqt._closed_loop_maps(p, values, gains)
        xs, _ = lqt.closed_loop_rollout(p, values, gains)
        for k in range(p.N):
            np.testing.assert_allclose(Ft[k] @ xs[k] + ct[k], xs[k + 1], atol=1e-12)

    @pytest.mark.parametrize("engine", ["stacked", "object"])
    def test_method1_matches_rollout(self, engine):
        rng = np.random.default_rng(10)
        p = random_lqt_problem(rng, n_x=4, n_u=2, N=40)
        values, gains = lqt.parallel_backward(p)
        xs_ref, _ = lqt.closed_loop_rollout(p, values, gains)
        if engine == "stacked":
            xs = lqt.traj_method1(p, gains, values)
        else:
            xs = object_method1(p, values, gains)
        np.testing.assert_allclose(xs, xs_ref, atol=1e-8)

    def test_method2_start_state(self):
        rng = np.random.default_rng(11)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=6)
        values, _ = lqt.parallel_backward(p)
        xs = lqt.traj_method2(p, values)
        np.testing.assert_allclose(xs[0], p.x0, atol=1e-12)

    def test_method2_huge_control_penalty_is_open_loop(self):
        rng = np.random.default_rng(12)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=6)
        stiff = lqt.LqtProblem(S=0, T=p.N, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H,
                               X=p.X, r=p.r, U=p.U * 1e12, HT=p.HT, XT=p.XT, rT=p.rT)
        values, _ = lqt.parallel_backward(stiff)
        xs = lqt.traj_method2(stiff, values)
        open_loop = [np.asarray(stiff.x0)]
        for k in range(stiff.N):
            open_loop.append(stiff.F[k] @ open_loop[-1] + stiff.c[k])
        np.testing.assert_allclose(xs, open_loop, atol=1e-5)

    @pytest.mark.parametrize("engine", ["stacked", "object"])
    def test_method2_matches_method1(self, engine):
        rng = np.random.default_rng(13)
        p = random_lqt_problem(rng, n_x=4, n_u=2, N=40)
        values, gains = lqt.parallel_backward(p)
        xs1 = lqt.traj_method1(p, gains, values)
        xs2 = lqt.traj_method2(p, values) if engine == "stacked" else object_method2(p, values)
        np.testing.assert_allclose(xs2, xs1, atol=1e-7)


class TestGeneralCostTransform:
    def test_no_terms_returns_same_object(self):
        rng = np.random.default_rng(14)
        p = random_lqt_problem(rng, N=5)
        q, rec = lqt.transform_general_cost(p)
        assert q is p
        xs = np.zeros((p.N + 1, p.n_x))
        ut = rng.normal(size=(p.N, p.n_u))
        np.testing.assert_array_equal(rec.controls(xs, ut), ut)

    def test_control_reference_shifts_offset(self):
        rng = np.random.default_rng(15)
        p = random_lqt_problem(rng, N=6, s_ref=True)
        q, rec = lqt.transform_general_cost(p)
        np.testing.assert_allclose(q.c, p.c + lqt._mv(p.L, p.s), atol=1e-12)
        np.testing.assert_array_equal(q.F, p.F)
        np.testing.assert_array_equal(q.X, p.X)
        # controls shift by s
        values, gains = lqt.riccati_backward(q)
        xs, ut = lqt.closed_loop_rollout(q, values, gains)
        us = rec.controls(xs, ut)
        np.testing.assert_allclose(us, ut + p.s, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_cross_term_kkt(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=10, cross=True)
        cost_ref, us_ref, xs_ref = lqt.kkt_oracle(p)
        q, rec = lqt.transform_general_cost(p)
        values, gains = lqt.riccati_backward(q)
        xs, ut = lqt.closed_loop_rollout(q, values, gains)
        us = rec.controls(xs, ut)
        np.testing.assert_allclose(xs, xs_ref, atol=1e-8)
        np.testing.assert_allclose(us, us_ref, atol=1e-8)
        assert lqt.lqt_cost(p, xs, us) == pytest.approx(cost_ref, abs=1e-8)

    def test_indefinite_schur_rejected(self):
        rng = np.random.default_rng(16)
        p = random_lqt_problem(rng, n_x=2, n_u=2, N=3)
        M = np.repeat((10.0 * np.eye(2))[None], 3, axis=0)
        bad = lqt.LqtProblem(S=0, T=3, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H,
                             X=p.X, r=p.r, U=p.U, HT=p.HT, XT=p.XT, rT=p.rT,
                             M=M, s=np.zeros((3, 2)))
        with pytest.raises(SolverError, match="not jointly convex"):
            lqt.transform_general_cost(bad)


class TestCondensing:
    def test_block_one_identity_reduction(self):
        rng = np.random.default_rng(17)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=8)
        values, gains = lqt.riccati_backward(p)
        xs_ref, us_ref = lqt.closed_loop_rollout(p, values, gains)
        xs, us = lqt.solve(p, block_size=1)[:2]
        np.testing.assert_allclose(xs, xs_ref, atol=1e-10)
        np.testing.assert_allclose(us, us_ref, atol=1e-10)

    def test_single_block_matches_kkt(self):
        rng = np.random.default_rng(18)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=8)
        cost_ref, us_ref, xs_ref = lqt.kkt_oracle(p)
        xs, us = lqt.solve(p, block_size=p.N)[:2]
        assert lqt.lqt_cost(p, xs, us) == pytest.approx(cost_ref, abs=1e-8)
        np.testing.assert_allclose(xs, xs_ref, atol=1e-7)

    @pytest.mark.parametrize("B", [2, 4])
    def test_blocks_match_uncondensed(self, B):
        rng = np.random.default_rng(19)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=16)
        values, gains = lqt.parallel_backward(p)
        xs_ref = lqt.traj_method1(p, gains, values)
        xs, us = lqt.solve(p, block_size=B)[:2]
        np.testing.assert_allclose(xs, xs_ref, atol=1e-7)

    @pytest.mark.parametrize("n_r", [1, 3], ids=["rank_deficient", "full"])
    @pytest.mark.parametrize("B", [1, 2, 4])
    def test_matches_per_block_loop(self, B, n_r):
        # with one output per step, a block of fewer than n_x = 3 steps has a
        # singular Q, so its references must be lstsq's minimum-norm fit
        p = random_lqt_problem(np.random.default_rng(23), n_x=3, n_u=1, N=8, n_r=n_r)
        q, rec = lqt.condense(p, B)
        ref = condense_loop(p, B)
        got = {"F": q.F, "c": q.c, "L": q.L, "X": q.X, "U": q.U, "M": q.M, "r": q.r, "s": q.s,
               "Phi": rec.Phi, "Gam": rec.Gam, "d": rec.d}
        for name, want in ref.items():
            np.testing.assert_allclose(got[name], want, rtol=1e-9, atol=1e-9, err_msg=name)

    def test_non_divisible_errors(self):
        rng = np.random.default_rng(20)
        p = random_lqt_problem(rng, N=7)
        with pytest.raises(ValueError, match="not divisible"):
            lqt.condense(p, 2)

    def test_condensed_dimensions(self):
        rng = np.random.default_rng(21)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=12)
        q, _ = lqt.condense(p, 4)
        assert q.N == 3 and q.n_x == 3 and q.n_u == 8
        assert q.has_general_cost


class TestSolve:
    """``lqt.solve`` over every dispatch choice, against the dense KKT oracle."""

    @pytest.mark.parametrize("cross", [False, True], ids=["standard", "cross"])
    @pytest.mark.parametrize("block_size", [None, 1, 2, 4])
    @pytest.mark.parametrize("traj_method", [1, 2])
    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    def test_matches_kkt(self, backend, traj_method, block_size, cross):
        rng = np.random.default_rng(22)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=8, cross=cross)
        cost_ref, us_ref, xs_ref = lqt.kkt_oracle(p)
        xs, us, stats = lqt.solve(p, backend, traj_method, block_size)
        assert xs.shape == (p.N + 1, p.n_x) and us.shape == (p.N, p.n_u)
        assert lqt.lqt_cost(p, xs, us) == pytest.approx(cost_ref, abs=1e-8)
        np.testing.assert_allclose(xs, xs_ref, atol=1e-7)
        np.testing.assert_allclose(us, us_ref, atol=1e-7)
        N = p.N // (block_size or 1)  # steps of the problem actually solved
        n = N + 1  # its stage elements plus the terminal one
        if backend == "sequential":
            assert (stats.combine_count, stats.combine_depth) == (N, N)
        else:
            assert stats.combine_count <= 2 * n - 2
            assert stats.combine_depth <= 2 * int(np.ceil(np.log2(n))) + 1

    @pytest.mark.parametrize(
        "backend, traj_method, expected",
        [("sequential", 1, {"riccati_backward", "closed_loop_rollout"}),
         ("sequential", 2, {"riccati_backward", "closed_loop_rollout"}),
         ("parallel", 1, {"parallel_backward", "traj_method1", "controls_along"}),
         ("parallel", 2, {"parallel_backward", "traj_method2", "controls_along"})],
    )
    @pytest.mark.parametrize("block_size", [None, 2])
    def test_dispatch(self, monkeypatch, backend, traj_method, expected, block_size):
        called = set()
        for name in ("riccati_backward", "closed_loop_rollout", "parallel_backward",
                     "traj_method1", "traj_method2", "controls_along"):
            def spy(*args, _name=name, _fn=getattr(lqt, name), **kwargs):
                called.add(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(lqt, name, spy)
        p = random_lqt_problem(np.random.default_rng(25), N=4)
        lqt.solve(p, backend, traj_method, block_size)
        assert called == expected

    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    @pytest.mark.parametrize("block_size", [None, 1])
    def test_zero_horizon(self, backend, block_size):
        q = random_lqt_problem(np.random.default_rng(23), n_x=3, n_u=2, N=1)
        p = lqt.LqtProblem(S=0, T=0, x0=q.x0, F=q.F[:0], c=q.c[:0], L=q.L[:0], H=q.H[:0],
                           X=q.X[:0], r=q.r[:0], U=q.U[:0], HT=q.HT, XT=q.XT, rT=q.rT)
        xs, us, stats = lqt.solve(p, backend, block_size=block_size)
        np.testing.assert_array_equal(xs, p.x0[None, :])
        assert us.shape == (0, 2)
        assert (stats.combine_count, stats.combine_depth) == (0, 0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"backend": "seq"}, "unknown backend"),
         ({"traj_method": 7}, "unknown trajectory method"),
         ({"traj_method": 0, "block_size": 2}, "unknown trajectory method"),
         ({"block_size": 0}, "block size must be >= 1")],
    )
    def test_rejects_bad_arguments(self, kwargs, match):
        p = random_lqt_problem(np.random.default_rng(24), N=4)
        with pytest.raises(ValueError, match=match):
            lqt.solve(p, **kwargs)


class TestKktOracle:
    def test_zero_problem(self):
        p = scalar_problem(N=4, x0=0.0, r=0.0, rT=0.0, c=0.0)
        cost, us, xs = lqt.kkt_oracle(p)
        assert cost == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(us, 0.0, atol=1e-12)

    def test_scalar_cost_difference_matches_value(self):
        p = scalar_problem(N=1, x0=1.0)
        values, _ = lqt.riccati_backward(p)
        cost_a, _, _ = lqt.kkt_oracle(p)
        p_b = scalar_problem(N=1, x0=-0.5)
        cost_b, _, _ = lqt.kkt_oracle(p_b)
        va = lqt.value_at(values, 0, np.array([1.0]))
        vb = lqt.value_at(values, 0, np.array([-0.5]))
        assert cost_a - cost_b == pytest.approx(va - vb, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_parallel_rollout(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=20)
        values, gains = lqt.parallel_backward(p)
        xs = lqt.traj_method1(p, gains, values)
        us = lqt.controls_along(p, values, gains, xs)
        cost, us_ref, xs_ref = lqt.kkt_oracle(p)
        np.testing.assert_allclose(us, us_ref, atol=1e-7)
        np.testing.assert_allclose(xs, xs_ref, atol=1e-7)

    def test_size_guard(self):
        rng = np.random.default_rng(22)
        p = random_lqt_problem(rng, n_x=8, n_u=4, N=500)
        with pytest.raises(ValueError, match="too large"):
            lqt.kkt_oracle(p)


class TestInvariants:
    def test_cost_difference_check(self):
        rng = np.random.default_rng(23)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=12)
        values, _ = lqt.parallel_backward(p)
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        pa = lqt.LqtProblem(S=0, T=p.N, x0=x, F=p.F, c=p.c, L=p.L, H=p.H, X=p.X,
                            r=p.r, U=p.U, HT=p.HT, XT=p.XT, rT=p.rT)
        pb = lqt.LqtProblem(S=0, T=p.N, x0=y, F=p.F, c=p.c, L=p.L, H=p.H, X=p.X,
                            r=p.r, U=p.U, HT=p.HT, XT=p.XT, rT=p.rT)
        ca, _, _ = lqt.kkt_oracle(pa)
        cb, _, _ = lqt.kkt_oracle(pb)
        dv = lqt.value_at(values, 0, x) - lqt.value_at(values, 0, y)
        assert ca - cb == pytest.approx(dv, abs=1e-7)

    def test_cost_scaling_invariance(self):
        rng = np.random.default_rng(24)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=10)
        lam = 7.3
        ps = lqt.LqtProblem(S=0, T=p.N, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H,
                            X=lam * p.X, r=p.r, U=lam * p.U, HT=p.HT,
                            XT=lam * p.XT, rT=p.rT)
        va, ga = lqt.riccati_backward(p)
        vb, gb = lqt.riccati_backward(ps)
        np.testing.assert_allclose(ga.K, gb.K, rtol=1e-9, atol=1e-12)
        xa, ua = lqt.closed_loop_rollout(p, va, ga)
        xb, ub = lqt.closed_loop_rollout(ps, vb, gb)
        np.testing.assert_allclose(xa, xb, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(ua, ub, rtol=1e-9, atol=1e-9)

    def test_stored_matrices_exactly_symmetric(self):
        rng = np.random.default_rng(25)
        p = random_lqt_problem(rng, n_x=4, n_u=2, N=32)
        values, _ = lqt.parallel_backward(p)
        for S in values.S:
            assert np.max(np.abs(S - S.T)) == 0.0
        for e in make_lqt_elements(p):
            assert np.max(np.abs(e.C - e.C.T)) == 0.0
            assert np.max(np.abs(e.J - e.J.T)) == 0.0


class TestFileInterchange:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(26)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=5, cross=True)
        path = tmp_path / "lqt.json"
        lqt.save_problem(p, path)
        q = lqt.load_problem(path)
        for f in ("F", "c", "L", "H", "X", "r", "U", "HT", "XT", "rT", "x0", "M", "s"):
            np.testing.assert_array_equal(getattr(p, f), getattr(q, f))
        assert (p.S, p.T) == (q.S, q.T)

    def test_trajectory_csv(self, tmp_path):
        xs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        us = np.array([[0.5], [0.25]])
        path = tmp_path / "traj.csv"
        lqt.write_trajectory_csv(path, xs, us)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,x_1,x_2,u_1"
        assert lines[1].startswith("0,1.0,2.0,0.5")
        assert lines[-1].endswith(",")  # terminal row: control cell blank
        assert len(lines) == 4

    _special = np.array([[np.inf, -np.inf], [np.nan, -0.0], [5e-324, 0.1]])
    _rng = np.random.default_rng(27)

    @pytest.mark.parametrize(
        "xs, us, S",
        [
            (_rng.normal(size=(6, 3)) * 1e3, _rng.normal(size=(6, 2)), 0),
            (np.array([3, 1, 4, 1], dtype=np.int64), np.array([2, 0, 3], dtype=np.int64), 0),
            (_rng.normal(size=(4, 2)), None, 0),
            (_rng.normal(size=(5, 2)), _rng.normal(size=(4, 3)), 0),
            (_rng.normal(size=(5, 2)), np.empty((0, 2)), 0),
            (_rng.normal(size=(3, 2)), _rng.normal(size=(2, 1)), 7),
            (_special, _special[:2], 0),
        ],
        ids=["float-2d", "int-1d", "no-controls", "controls-short", "controls-empty", "offset", "special"],
    )
    def test_trajectory_csv_matches_row_writer(self, tmp_path, xs, us, S):
        lqt.write_trajectory_csv(tmp_path / "new.csv", xs, us, S=S)
        write_trajectory_csv_rows(tmp_path / "ref.csv", xs, us, S=S)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_trajectory_csv_integer_cells_read_as_floats(self, tmp_path):
        lqt.write_trajectory_csv(tmp_path / "t.csv", np.array([3, 1], dtype=np.int64), np.array([2]))
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == ["0,3.0,2.0", "1,1.0,"]
