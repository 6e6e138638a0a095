"""LQT tests: Riccati vs parallel scan, element algebra against a numeric
minimization oracle, trajectory recovery, cost transform, condensing, KKT."""

from dataclasses import fields, replace

import numpy as np
import pytest

from tempo_dp import lqt
from tempo_dp.errors import SolverError
from tempo_dp.scan import ScanDirection, par_scan, par_scan_stacked
from tempo_dp.scenarios import build_mass_spring, build_tracking2d

from helpers import (
    AffineMap,
    LqtElement,
    combine_lqt,
    compose_affine,
    condense_loop,
    densified,
    lqt_identity,
    make_lqt_elements,
    max_value_dev,
    random_lqt_element,
    random_lqt_problem,
    value_at,
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


class TestProblemData:
    @pytest.mark.parametrize("name", ["x0", "F", "c", "L", "H", "X", "r", "U", "HT", "XT", "rT", "M", "s"])
    def test_non_finite_entry_names_field(self, name):
        p = random_lqt_problem(np.random.default_rng(30), n_x=3, n_u=2, N=4, cross=True)
        a = getattr(p, name).copy()
        a.flat[-1] = np.nan  # on the diagonal of X, U and XT, so they stay symmetric
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(p, **{name: a})


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
        v, S = lqt._terminal(p)
        assert S[0, 0] == pytest.approx(2.0 * 3.0 * 2.0)
        assert v[0] == pytest.approx(2.0 * 3.0 * 4.0)  # includes the XT factor
        e = make_lqt_elements(p)[-1]
        assert (e.eta.tobytes(), e.J.tobytes()) == (v.tobytes(), S.tobytes())
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

    @pytest.mark.parametrize(
        "rho",
        [1e6, 1e8, *(pytest.param(rho, marks=pytest.mark.xfail(
            strict=True, reason="S is off by 1.4e-7 to 1.0e-4, Method 2's states by up to"
                                " 1.8e-3, and nothing raises (ROADMAP item 6)")) for rho in (1e9, 1e10, 1e12))],
    )
    def test_large_weight_ratio_accurate_or_raises(self, rho):
        # X and XT weighted by sqrt(rho), U by 1/sqrt(rho): Riccati stays
        # accurate, while the combine forms C J ~ L U^-1 L' H'X H. The
        # parallel pass must match Riccati or raise.
        base = build_mass_spring(4, 400)
        w = np.sqrt(rho)
        p = replace(base, X=base.X * w, XT=base.XT * w, U=base.U / w)
        ref_values, ref_gains = lqt.riccati_backward(p)
        xs_ref = lqt.closed_loop_rollout(p, ref_values, ref_gains)[0]
        try:
            values, gains = lqt.parallel_backward(p)
            trajectories = lqt.traj_method1(p, gains, values), lqt.traj_method2(p, values)
        except SolverError:
            return
        assert np.abs(values.S - ref_values.S).max() <= 1e-7 * np.abs(ref_values.S).max()
        for xs in trajectories:
            np.testing.assert_allclose(xs, xs_ref, rtol=0, atol=1e-7 * np.abs(xs_ref).max())

    def test_thin_level_accurate_at_large_weight_ratio(self):
        # the sweep above at rho = 1e10: level 0 of mass_spring(4, 400)
        # (n_x = 8, n_u = 2) is thin, and its combines, in both sweeps,
        # keep S within 1e-5 of Riccati, where the dense path reads 6.5e-5
        base = build_mass_spring(4, 400)
        w = np.sqrt(1e10)
        p = replace(base, X=base.X * w, XT=base.XT * w, U=base.U / w)
        assert lqt._element_arrays(p)[2].shape == (400, 2, 8)  # slot 2 holds the factor
        ref_values, _ = lqt.riccati_backward(p)
        values, _ = lqt.parallel_backward(p)
        assert np.abs(values.S - ref_values.S).max() <= 1e-5 * np.abs(ref_values.S).max()

    def test_gate_fires_in_fill_slots(self, monkeypatch):
        # step j is nearly free to control in state 0 and step j + 1 weights
        # that state heavily: I + C J has condition ~1e14 only across the
        # boundary between steps j and j + 1. With N = 6 the up-sweep, which
        # both scans share, pairs the elements across boundaries 1, 3 and 5
        # and the level-1 nodes across boundary 2; the odd level-1 node
        # [4, 6) stays unpaired. So no up-sweep pair crosses boundary 4, the
        # one between steps 3 and 4, and each gate must fire in its scan's
        # down-sweep, on a value: an operand with a zero-dimensional end.
        N = 6

        def problem(j):
            U = np.ones((N, 1, 1))
            U[j] = 1e-7
            X = np.tile(np.eye(2), (N, 1, 1))
            X[j + 1] = np.diag([1e7, 1.0])
            return lqt.LqtProblem(
                S=0, T=N, x0=[1.0, 0.0],
                F=np.tile(np.eye(2), (N, 1, 1)), c=np.zeros((N, 2)),
                L=np.tile([[1.0], [0.0]], (N, 1, 1)),
                H=np.tile(np.eye(2), (N, 1, 1)), X=X, r=np.zeros((N, 2)), U=U,
                HT=np.eye(2), XT=np.eye(2), rT=np.zeros(2),
            )

        raised_on = []
        combine = lqt._combine_element_arrays

        def watched(e1, e2):
            try:
                return combine(e1, e2)
            except SolverError:
                raised_on.append("suffix" if e2[0].shape[-2] == 0 else "prefix" if e1[0].shape[-1] == 0 else "")
                raise

        monkeypatch.setattr(lqt, "_combine_element_arrays", watched)
        match = "ill-conditioned combine: condition number"
        p = problem(3)
        with pytest.raises(SolverError, match=match):
            lqt.parallel_backward(p)
        values, _ = lqt.riccati_backward(p)
        with pytest.raises(SolverError, match=match):
            lqt.traj_method2(p, values)
        assert raised_on == ["suffix", "prefix"]


def stacked(elements):
    return tuple(np.stack([getattr(e, f) for e in elements]) for f in ("A", "b", "C", "eta", "J"))


def terminal_start(eta, J):
    """Batched values (eta, J) as the backward scan's start: elements into a
    zero-dimensional endpoint."""
    k, n = eta.shape
    return np.zeros((k, 0, n)), np.zeros((k, 0)), np.zeros((k, 0, 0)), eta, J


def initial_start(b, C):
    """Batched (b, C) as Method 2's start: elements out of a zero-dimensional
    start."""
    k, n = b.shape
    return np.zeros((k, n, 0)), b, C, np.zeros((k, 0)), np.zeros((k, 0, 0))


def check_degenerate(out, full, kept):
    """``out`` of a combine with a degenerate operand equals ``full``, the
    combine with the zero-padded element it stands for, bit for bit in the
    slots ``kept``; its other slots are empty, and full's are zero."""
    for i, (got, want) in enumerate(zip(out, full, strict=True)):
        if i in kept:
            assert got.tobytes() == want.tobytes()
        else:
            assert got.size == 0 and not want.any()


class TestPinnedFills:
    """Each scan starts from a degenerate element, whose pinned endpoint is
    zero-dimensional. A combine with it equals the combine with the full
    element it stands for, zero-padded, in the arrays the scan reads, and
    the scan from it equals the plain scan with that full element at the
    pinned end."""

    def test_suffix_fill(self):
        rng = np.random.default_rng(31)
        e1 = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        _, _, _, eta2, J2 = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        zero = np.zeros_like(e1[0])
        full = lqt._combine_element_arrays(e1, (zero, np.zeros_like(eta2), zero, eta2, J2))
        out = lqt._combine_element_arrays(e1, terminal_start(eta2, J2))
        assert [a.shape for a in out] == [(5, 0, 3), (5, 0), (5, 0, 0), (5, 3), (5, 3, 3)]
        check_degenerate(out, full, kept=(3, 4))

    def test_prefix_fill(self):
        rng = np.random.default_rng(32)
        _, b1, C1, _, _ = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        e2 = stacked([random_lqt_element(rng, 3) for _ in range(5)])
        zero = np.zeros_like(C1)
        full = lqt._combine_element_arrays((zero, b1, C1, np.zeros_like(b1), zero), e2)
        out = lqt._combine_element_arrays(initial_start(b1, C1), e2)
        assert [a.shape for a in out] == [(5, 3, 0), (5, 3), (5, 3, 3), (5, 0), (5, 0, 0)]
        check_degenerate(out, full, kept=(1, 2))

    def test_affine_fill(self):
        rng = np.random.default_rng(33)
        c = rng.normal(size=(5, 3))
        b = (rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3)))
        full = lqt._compose_affine_arrays((np.zeros((5, 3, 3)), c), b)  # the constant map to c
        out = lqt._compose_affine_arrays((np.zeros((5, 3, 0)), c), b)  # c as a map from R^0
        assert out[0].shape == (5, 3, 0)
        check_degenerate(out, full, kept=(1,))

    @pytest.mark.parametrize("level", [0, 3])
    def test_zero_width_operands(self, level):
        # mass_spring with n_x = 32 and n_u = 2: level 0 holds thin factors,
        # level 3 (width 16) dense C. Each level's nodes with the values
        # after them (the backward scan) and with the prefixes before them
        # (Method 2), as degenerate and as zero-padded full elements
        nodes = lqt._element_arrays(build_mass_spring(16, 64))
        for _ in range(level):
            nodes = lqt._combine_element_arrays(tuple(a[0::2] for a in nodes), tuple(a[1::2] for a in nodes))
        k, n = nodes[1].shape
        assert lqt._factored(nodes[2]) == (level == 0)
        rng = np.random.default_rng(36 + level)
        R = rng.normal(size=(2, k, n, n)) / n
        J, C = R @ np.swapaxes(R, -1, -2)  # PSD
        eta, b = rng.normal(size=(2, k, n))
        zero, empty = np.zeros((k, n, n)), np.zeros((k, n))
        out = lqt._combine_element_arrays(nodes, terminal_start(eta, J))
        full = lqt._combine_element_arrays(nodes, (zero, empty, zero, eta, J))
        check_degenerate(out, full, kept=(3, 4))
        out = lqt._combine_element_arrays(initial_start(b, C), nodes)
        full = lqt._combine_element_arrays((zero, b, C, empty, zero), nodes)
        check_degenerate(out, full, kept=(1, 2))

    @pytest.mark.parametrize("N", [1, 2, 5, 37])
    def test_pinned_scans_equal_plain_scans(self, N, monkeypatch):
        # parallel_backward, traj_method1 and traj_method2 (its own up-sweep)
        # against the same scans run over the start as a full element
        # followed (preceded) by the stage elements: the arrays they read,
        # byte for byte, Method 2's states to 1e-12, and the stats
        p = random_lqt_problem(np.random.default_rng(34 + N), n_x=3, n_u=2, N=N)
        seen = []
        scan = lqt.par_scan_stacked

        def recording(*args, **kwargs):
            out, stats = scan(*args, **kwargs)
            seen.append(stats)
            return out, stats

        monkeypatch.setattr(lqt, "par_scan_stacked", recording)
        full, full_stats = par_scan_stacked(
            stacked(make_lqt_elements(p)), lqt._combine_element_arrays, REV
        )
        values, gains, stats = lqt.parallel_backward(p, return_stats=True)
        assert values.v.tobytes() == full[3].tobytes()
        assert values.S.tobytes() == full[4].tobytes()
        assert stats == full_stats
        Ft, ct = lqt._closed_loop_maps(p, values, gains)
        maps = (np.concatenate([np.zeros((1, 3, 3)), Ft]), np.concatenate([p.x0[None], ct]))
        (_, xs), m1_stats = par_scan_stacked(maps, lqt._compose_affine_arrays, FWD)
        assert lqt.traj_method1(p, gains, values).tobytes() == xs.tobytes()
        z = np.zeros((1, 3, 3))
        first = (z, p.x0[None], z, np.zeros((1, 3)), z)
        elements = tuple(np.concatenate([a, e]) for a, e in zip(first, lqt._element_arrays(p)))
        (_, b, C, _, _), m2_stats = par_scan_stacked(elements, lqt._combine_element_arrays, FWD)
        want = np.linalg.solve(np.eye(3) + C @ values.S, (b + lqt._mv(C, values.v))[..., None])[..., 0]
        got = lqt.traj_method2(p, lqt.QuadValue(values.S, values.v))
        assert rel_dev(got, want) <= 1e-12
        assert seen == [stats, m1_stats, m2_stats]


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


def rel_err(got, want):
    assert got.shape == want.shape
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


class TestSmallBlockKernels:
    """The hand-batched small dense kernels against numpy's general ones."""

    @pytest.mark.parametrize("N", [0, 1, 7])
    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 8, 16])
    def test_substitution_solve_matches_lu(self, m, width, N):
        rng = np.random.default_rng(100 * m + 10 * width + N)
        G = rng.normal(size=(N, m, m))
        U = G @ lqt._t(G) + 0.5 * np.eye(m)
        rhs = lqt._t(rng.normal(size=(N, width, m)))  # a transposed view, as the callers pass
        kept = rhs.copy()
        got = lqt._spd_solve_batched(U, rhs, 0)
        assert rel_err(got, np.linalg.solve(U, rhs)) <= 1e-12
        np.testing.assert_array_equal(rhs, kept)

    @pytest.mark.parametrize(
        "case", ["plain", "transposed", "slot_view", "broadcast_matrix", "broadcast_vector"]
    )
    def test_mv_matches_matmul(self, case):
        rng = np.random.default_rng(31)
        P = rng.normal(size=(9, 4, 4))
        v = rng.normal(size=(9, 4))
        M, x = {
            "plain": (P, v),
            "transposed": (lqt._t(P), v),
            "slot_view": (P[1::2], v[0::2][:4]),
            "broadcast_matrix": (P[:1], v),
            "broadcast_vector": (P.reshape(3, 3, 4, 4)[:, :1], v.reshape(3, 3, 4)[:1]),
        }[case]
        assert rel_err(lqt._mv(M, x), (M @ x[..., None])[..., 0]) <= 1e-14

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 4, 4), (3, 2, 5, 5)])
    def test_gate_norm_is_matrix_one_norm(self, shape):
        Z = np.random.default_rng(5).normal(size=shape)
        want = np.linalg.norm(Z, 1, axis=(-2, -1))
        np.testing.assert_allclose(lqt._norm1(Z), want, rtol=1e-15, atol=0)


class TestStepNaming:
    """Every batched solve or factorization names its first failing step."""

    def test_gains_name_singular_normal_matrix(self):
        p = replace(scalar_problem(N=4), S=10, T=14)
        Ss = np.zeros((5, 1, 1))
        Ss[3] = -1.0  # L'S_3 L + U = 0 at k = 2
        with pytest.raises(SolverError, match="control normal matrix singular at step 12$"):
            lqt._gains_from_values(p, Ss)

    def test_gains_come_from_one_solve(self):
        rng = np.random.default_rng(21)
        p = random_lqt_problem(rng, n_x=4, n_u=2, N=30)
        values, gains = lqt.parallel_backward(p)
        np.testing.assert_array_equal(gains.Kc, gains.Kv @ values.S[1:])
        np.testing.assert_array_equal(gains.K, gains.Kc @ p.F)
        _, ref = lqt.riccati_backward(p)
        for got, want in zip((gains.K, gains.Kv, gains.Kc), (ref.K, ref.Kv, ref.Kc)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_method2_names_singular_recovery_step(self):
        # with X = 0 the Method-2 prefix ending at x_{S+k} has C = k, so
        # S_4 = -1/4 makes I + C S singular at x_{S+4} alone
        p = replace(scalar_problem(N=6, X=0.0), S=10, T=16)
        S = np.zeros((7, 1, 1))
        S[4] = -0.25
        values = lqt.QuadValue(S, np.zeros((7, 1)))
        with pytest.raises(SolverError, match=r"\(I \+ C S\) singular at step 14$"):
            lqt.traj_method2(p, values)

    def test_non_pd_control_weight_names_step(self):
        rng = np.random.default_rng(22)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=6, cross=True)
        U = p.U.copy()
        U[3] = [[1.0, 2.0], [2.0, 1.0]]  # symmetric, indefinite
        bad = replace(p, S=10, T=16, U=U)
        std = replace(bad, M=None, s=None)
        values = lqt.QuadValue(np.zeros((7, 3, 3)), np.zeros((7, 3)))
        match = "control weight U not positive definite: factorization failed at step 13$"
        for call in (
            lambda: lqt.parallel_backward(std),
            lambda: lqt.traj_method2(std, values),
            lambda: lqt.transform_general_cost(bad),
            lambda: lqt.solve(std, "sequential"),
            lambda: lqt.solve(std, "parallel"),
        ):
            with pytest.raises(SolverError, match=match):
                call()

    def test_even_elements_name_step(self):
        # Method 2 over carried nodes rebuilds the even stage elements alone;
        # a failure there still names the step, not the batch row
        p = random_lqt_problem(np.random.default_rng(23), n_x=3, n_u=2, N=6)
        U = p.U.copy()
        U[4] = [[1.0, 2.0], [2.0, 1.0]]
        bad = replace(p, S=10, T=16, U=U)
        with pytest.raises(SolverError, match="factorization failed at step 14$"):
            lqt._element_arrays(bad, 2)

    def test_batch_only_failure_raises_solver_error(self):
        def fn(a):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("whole batch")
            return a

        with pytest.raises(SolverError, match="^batch op failed$"):
            lqt._batched(fn, "batch op failed", 0, np.zeros((3, 2, 2)))


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
            assert value_at(values, k, x) == pytest.approx(want, rel=1e-12, abs=1e-12)

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


def combine_spy(monkeypatch):
    """Counts the interval combines (pairs) the library makes from here on,
    up-sweep and down-sweep."""
    calls = []
    combine = lqt._combine_element_arrays

    def spy(e1, e2):
        calls.append(len(e1[0]))
        return combine(e1, e2)

    monkeypatch.setattr(lqt, "_combine_element_arrays", spy)
    return calls


class TestCarriedTree:
    """parallel_backward's values carry its up-sweep's nodes to Method 2."""

    def test_method2_makes_no_up_sweep(self, monkeypatch):
        # a scan from a start over N elements pairs N - popcount(N) in its
        # up-sweep and N in its down-sweep
        N = 37
        p = random_lqt_problem(np.random.default_rng(40), n_x=3, n_u=2, N=N)
        calls = combine_spy(monkeypatch)
        values, _ = lqt.parallel_backward(p)
        assert sum(calls) == 2 * N - bin(N).count("1")
        calls.clear()
        lqt.traj_method2(p, values)
        assert sum(calls) == N
        calls.clear()
        lqt.traj_method2(p, lqt.QuadValue(values.S, values.v))
        assert sum(calls) == 2 * N - bin(N).count("1")

    @pytest.mark.parametrize("N", [1, 2, 3, 6, 7, 64, 65, 500])
    def test_matches_own_up_sweep_and_riccati(self, N):
        p = random_lqt_problem(np.random.default_rng(41 + N), n_x=4, n_u=2, N=N)
        values, _ = lqt.parallel_backward(p)
        assert values.tree is not None and values.tree.problem is p
        xs = lqt.traj_method2(p, values)
        xs_own = lqt.traj_method2(p, lqt.QuadValue(values.S, values.v))
        np.testing.assert_allclose(xs, xs_own, rtol=0, atol=1e-12)
        ref_values, ref_gains = lqt.riccati_backward(p)
        xs_ref, _ = lqt.closed_loop_rollout(p, ref_values, ref_gains)
        assert np.max(np.abs(xs - xs_ref)) <= 1e-9

    def test_tree_of_another_problem_is_not_used(self, monkeypatch):
        # q has p's shapes but other stage elements; values that carry p's
        # tree next to q's S and v must still give q's trajectory
        p = random_lqt_problem(np.random.default_rng(42), n_x=3, n_u=2, N=20)
        q = random_lqt_problem(np.random.default_rng(43), n_x=3, n_u=2, N=20)
        values_p, _ = lqt.parallel_backward(p)
        ref_values, ref_gains = lqt.riccati_backward(q)
        mixed = replace(values_p, S=ref_values.S, v=ref_values.v)
        assert mixed.tree is values_p.tree
        calls = combine_spy(monkeypatch)
        xs = lqt.traj_method2(q, mixed)
        assert sum(calls) == 2 * 20 - bin(20).count("1")  # q ran its own up-sweep
        xs_ref, _ = lqt.closed_loop_rollout(q, ref_values, ref_gains)
        assert np.max(np.abs(xs - xs_ref)) <= 1e-9
        # p's own values with an equal but separate copy of p: its own
        # up-sweep, and the same states
        twin = replace(p)
        calls.clear()
        xs_twin = lqt.traj_method2(twin, values_p)
        assert sum(calls) == 2 * 20 - bin(20).count("1")
        np.testing.assert_allclose(xs_twin, lqt.traj_method2(p, values_p), rtol=0, atol=1e-12)

    def test_eq_and_repr_ignore_tree(self):
        p = random_lqt_problem(np.random.default_rng(44), n_x=2, n_u=1, N=9)
        values, _ = lqt.parallel_backward(p)
        bare = lqt.QuadValue(values.S, values.v)
        assert values.tree is not None and bare.tree is None
        assert values == bare
        assert repr(values) == repr(bare) and "tree" not in repr(values)
        assert lqt.riccati_backward(p)[0].tree is None


def rel_dev(a, b):
    """Largest deviation of a from b, relative to b's largest entry."""
    return float(np.abs(a - b).max() / np.abs(b).max())


def without_factor(monkeypatch):
    """From here on no element or node holds a thin factor, so every
    combine takes the dense path."""
    monkeypatch.setattr(lqt, "_thin", lambda n_x, width: False)


def thin_levels(n_x, n_u):
    """The tree levels whose nodes hold a thin factor: level L has width
    2^L n_u while twice that stays below n_x."""
    return sum(1 for L in range(n_x.bit_length()) if 2 * (n_u << L) < n_x)


class TestThinElements:
    """Elements whose C = G G' has a factor G thinner than half the state
    hold Gt = G' in slot 2 in place of C. Their combines, with each other
    and with the values after them, factor an r x r matrix instead of
    inverting an n_x x n_x one, and must
    agree with the dense path that the same problem takes when no element
    is thin."""

    @pytest.mark.parametrize("n_x,n_u", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (8, 4), (8, 2), (16, 2)])
    def test_factor_carried_by_rule(self, n_x, n_u, monkeypatch):
        p = random_lqt_problem(np.random.default_rng(50 + n_x), n_x=n_x, n_u=n_u, N=5)
        e = lqt._element_arrays(p)
        C = p.L @ np.linalg.solve(p.U, np.swapaxes(p.L, 1, 2))
        thin = 2 * n_u < n_x
        assert lqt._thin(n_x, n_u) == thin
        assert len(e) == 5
        assert e[2].shape == ((5, n_u, n_x) if thin else (5, n_x, n_x))
        without_factor(monkeypatch)
        dense = lqt._element_arrays(p)
        np.testing.assert_allclose(dense[2], C, rtol=1e-12, atol=1e-14)
        assert np.array_equal(dense[2], np.swapaxes(dense[2], 1, 2))
        assert [el.C.tobytes() for el in make_lqt_elements(p)[:-1]] == [C_k.tobytes() for C_k in dense[2]]
        for k in (0, 1, 3, 4):
            assert e[k].tobytes() == dense[k].tobytes()
        if thin:
            Gt = e[2]
            np.testing.assert_allclose(np.swapaxes(Gt, 1, 2) @ Gt, dense[2], rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(np.swapaxes(Gt, 1, 2) @ Gt, C, rtol=1e-12, atol=1e-14)
        else:
            assert e[2].tobytes() == dense[2].tobytes()

    @pytest.mark.parametrize("n_u", [1, 2])
    @pytest.mark.parametrize("n_x", [8, 16])
    def test_combine_and_fills_match_dense(self, n_x, n_u):
        # up the thin levels of a 64-element tree, pair by pair: the combine,
        # the combine with random values after the nodes (backward) and with
        # random prefixes before them (forward), each on the thin nodes and
        # on their densified twins
        rng = np.random.default_rng(60 + n_x + n_u)
        level = lqt._element_arrays(random_lqt_problem(rng, n_x=n_x, n_u=n_u, N=64))
        seen = 0
        while lqt._factored(level[2]):
            e1, e2 = tuple(a[0::2] for a in level), tuple(a[1::2] for a in level)
            d1, d2 = densified(e1), densified(e2)
            out = lqt._combine_element_arrays(e1, e2)
            assert len(out) == 5
            for got, want in zip(densified(out), lqt._combine_element_arrays(d1, d2), strict=True):
                assert rel_dev(got, want) <= 1e-12
            width = 2 * level[2].shape[-2]
            if lqt._thin(n_x, width):
                assert out[2].shape == (len(e1[0]), width, n_x)
            else:
                assert np.array_equal(out[2], np.swapaxes(out[2], -1, -2))
            other = stacked([random_lqt_element(rng, n_x) for _ in range(len(e1[0]))])
            after = terminal_start(*other[3:])
            for got, want in zip(lqt._combine_element_arrays(e1, after)[3:],
                                 lqt._combine_element_arrays(d1, after)[3:], strict=True):
                assert rel_dev(got, want) <= 1e-12
            before = initial_start(*other[1:3])
            prefix = lqt._combine_element_arrays(before, e2)
            assert [a.tobytes() for a in prefix] == [a.tobytes() for a in lqt._combine_element_arrays(before, d2)]
            level = out
            seen += 1
        assert seen == thin_levels(n_x, n_u)

    @pytest.mark.parametrize("N", [1, 2, 5, 37, 64])
    @pytest.mark.parametrize("n_u", [1, 2])
    @pytest.mark.parametrize("n_x", [8, 16])
    def test_scans_match_dense(self, n_x, n_u, N, monkeypatch):
        # the reverse scan, Method 2 over its kept nodes, and Method 2's own
        # forward scan, against the same scans with no thin element
        p = random_lqt_problem(np.random.default_rng(70 + N), n_x=n_x, n_u=n_u, N=N)
        widths = []
        thin_inverse = lqt._thin_inverse

        def spy(e1, J2):
            widths.append(e1[2].shape[-2])
            return thin_inverse(e1, J2)

        monkeypatch.setattr(lqt, "_thin_inverse", spy)
        values, _ = lqt.parallel_backward(p)
        # every level has a down-sweep; the thin ones take the thin path
        assert sorted(set(widths)) == [n_u << L for L in range(min(thin_levels(n_x, n_u), N.bit_length()))]
        # the kept nodes of level L hold the factor exactly where it is thin
        for L, level in enumerate(values.tree.levels, start=1):
            width = n_u << L
            assert len(level) == 5
            assert level[2].shape[1:] == ((width, n_x) if lqt._thin(n_x, width) else (n_x, n_x))
        xs = lqt.traj_method2(p, values), lqt.traj_method2(p, lqt.QuadValue(values.S, values.v))
        without_factor(monkeypatch)
        widths.clear()
        ref_values, _ = lqt.parallel_backward(p)
        assert widths == []
        assert rel_dev(values.S, ref_values.S) <= 1e-12
        assert rel_dev(values.v, ref_values.v) <= 1e-12
        for level, ref_level in zip(values.tree.levels, ref_values.tree.levels, strict=True):
            for got, want in zip(densified(level), ref_level, strict=True):
                assert rel_dev(got, want) <= 1e-12
        ref_xs = lqt.traj_method2(p, ref_values)
        for got in xs:
            assert rel_dev(got, ref_xs) <= 1e-12

    @pytest.mark.parametrize("block_size", [None, 2])
    @pytest.mark.parametrize("traj_method", [1, 2])
    def test_no_controls_take_dense_path(self, traj_method, block_size):
        # n_u = 0: L is (N, 4, 0) and U (N, 0, 0), so C = 0 and the empty
        # factor is not thin; condensed blocks have no controls either
        p = random_lqt_problem(np.random.default_rng(90), n_x=4, n_u=0, N=8)
        assert p.L.shape == (8, 4, 0) and p.U.shape == (8, 0, 0)
        xs, us, _ = lqt.solve(p, "parallel", traj_method, block_size)
        xs_ref, us_ref, _ = lqt.solve(p, "sequential")
        assert us.shape == us_ref.shape == (8, 0)
        np.testing.assert_allclose(xs, xs_ref, rtol=0, atol=1e-12 * np.abs(xs_ref).max())
        assert not lqt._thin(4, 0)
        C = lqt._element_arrays(p)[2]
        assert C.shape == (8, 4, 4) and not C.any()

    def test_gate_sees_dense_condition_numbers(self, monkeypatch):
        # the thin path forms Z = I + Gt1'(Gt1 J2) and Zi for the gate alone:
        # the condition numbers it checks are those of the dense path
        rng = np.random.default_rng(85)
        level = lqt._element_arrays(random_lqt_problem(rng, n_x=8, n_u=1, N=16))
        e1, e2 = tuple(a[0::2] for a in level), tuple(a[1::2] for a in level)
        conds = []
        monkeypatch.setattr(lqt, "_gate", conds.append)
        lqt._combine_element_arrays(e1, e2)
        lqt._combine_element_arrays(densified(e1), densified(e2))
        thin, dense = conds
        assert thin.shape == dense.shape == (8,)
        np.testing.assert_allclose(thin, dense, rtol=1e-10, atol=0)

    def test_indefinite_values_rejected(self):
        # M = I + G1' J2 G1 = 1 - 2 has no Cholesky factor
        e1 = stacked([random_lqt_element(np.random.default_rng(80), 4)])
        e1 = (e1[0], e1[1], np.array([[[1.0, 0.0, 0.0, 0.0]]]), e1[3], e1[4])
        J2 = np.diag([-2.0, 1.0, 1.0, 1.0])[None]
        with pytest.raises(SolverError, match="ill-conditioned combine: I \\+ G'JG not positive definite"):
            lqt._combine_element_arrays(e1, terminal_start(np.zeros((1, 4)), J2))

    @pytest.mark.parametrize("N,sweep", [(6, "up"), (5, "down")])
    def test_gate_fires_on_thin_level(self, N, sweep, monkeypatch):
        # n_x = 4, n_u = 1: only level 0 is thin. Step j is nearly free to
        # control in state 0 and the state after it is weighted heavily, so
        # I + C J has condition ~1e14 only across that boundary. Elements 0
        # and 1 form a level-0 pair of the up-sweep; with N = 5 the last
        # element stays unpaired, and its combine with the terminal value,
        # in the down-sweep, is the first that crosses the last boundary
        j = 0 if sweep == "up" else N - 1
        U = np.ones((N, 1, 1))
        U[j] = 1e-7
        X = np.tile(np.eye(4), (N + 1, 1, 1))
        X[j + 1, 0, 0] = 1e7
        p = lqt.LqtProblem(
            S=0, T=N, x0=[1.0, 0.0, 0.0, 0.0],
            F=np.tile(np.eye(4), (N, 1, 1)), c=np.zeros((N, 4)),
            L=np.tile([[1.0], [0.0], [0.0], [0.0]], (N, 1, 1)),
            H=np.tile(np.eye(4), (N, 1, 1)), X=X[:N], r=np.zeros((N, 4)), U=U,
            HT=np.eye(4), XT=X[N], rT=np.zeros(4),
        )
        assert lqt._element_arrays(p)[2].shape == (N, 1, 4)
        raised = []

        def watched(name):
            fn = getattr(lqt, name)

            def wrapper(*args):
                try:
                    return fn(*args)
                except SolverError:
                    if name == "_thin_inverse":
                        raised.append(name)
                    else:  # a down-sweep combine's second operand is a value, with a 0-dimensional end
                        raised.append("down" if args[1][0].shape[-2] == 0 else "up")
                    raise

            return wrapper

        for name in ("_thin_inverse", "_combine_element_arrays"):
            monkeypatch.setattr(lqt, name, watched(name))
        with pytest.raises(SolverError, match=r"ill-conditioned combine: condition number 1\.000e\+14"):
            lqt.parallel_backward(p)
        assert raised == ["_thin_inverse", sweep]


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
        p = random_lqt_problem(rng, n_x=2, n_u=2, N=4)
        M = np.zeros((4, 2, 2))
        M[2] = 10.0 * np.eye(2)  # only step 2's Schur complement goes indefinite
        bad = lqt.LqtProblem(S=7, T=11, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H,
                             X=p.X, r=p.r, U=p.U, HT=p.HT, XT=p.XT, rT=p.rT,
                             M=M, s=np.zeros((4, 2)))
        with pytest.raises(SolverError, match="not jointly convex after Schur complement at step 9 "):
            lqt.transform_general_cost(bad)

    @staticmethod
    def weighted(X, M, U):
        N, n = X.shape[0], X.shape[-1]
        eye = np.tile(np.eye(n), (N, 1, 1))
        return lqt.LqtProblem(S=0, T=N, x0=np.zeros(n), F=eye, c=np.zeros((N, n)),
                              L=eye[:, :, : U.shape[-1]], H=eye, X=X, r=np.zeros((N, n)),
                              U=U, HT=np.eye(n), XT=np.eye(n), rT=np.zeros(n), M=M)

    @pytest.mark.parametrize("s", [1.0, 1e4, 1e8, 1e12])
    def test_convex_rank_one_weights_accepted_at_any_scale(self, s):
        # X = s a a', M = 0.5 sqrt(s) a, U = 1: X - M U^-1 M' = 0.75 X is PSD,
        # with rounding near eps * s in its zero eigenvalues
        rng = np.random.default_rng(17)
        a = rng.normal(size=(50, 3))
        X = s * a[:, :, None] * a[:, None, :]
        M = 0.5 * np.sqrt(s) * a[:, :, None]
        q, _ = lqt.transform_general_cost(self.weighted(X, M, np.ones((50, 1, 1))))
        np.testing.assert_allclose(q.X, 0.75 * X, rtol=1e-12, atol=1e-12 * s)

    @pytest.mark.parametrize("s", [1e-4, 1.0, 1e8])
    def test_slightly_indefinite_rejected_at_any_scale(self, s):
        # X = s I, and M = sqrt(s (1 + d)) e1 at step 1 (sqrt(s) e1 elsewhere)
        # leaves X - M M' = s diag(-d, 1) there: PSD up to rounding at d = 0,
        # and 100 times past CONVEX_RTOL at d = 1e-8, at every scale
        def problem(d):
            M = np.zeros((3, 2, 1))
            M[:, 0, 0] = np.sqrt(s)
            M[1, 0, 0] = np.sqrt(s * (1 + d))
            return self.weighted(s * np.tile(np.eye(2), (3, 1, 1)), M, np.ones((3, 1, 1)))

        lqt.transform_general_cost(problem(0.0))
        with pytest.raises(SolverError, match="not jointly convex after Schur complement at step 1 "):
            lqt.transform_general_cost(problem(1e-8))


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
        q = lqt.condense(p, B)
        for name, want in condense_loop(p, B).items():
            np.testing.assert_allclose(getattr(q, name), want, rtol=1e-9, atol=1e-9, err_msg=name)

    @pytest.mark.parametrize("zero_block", [None, 1], ids=["all_pd", "one_singular"])
    def test_eigen_fit_only_on_singular_blocks(self, zero_block, monkeypatch):
        # a block whose steps weigh no state has Q_xx = 0: only that block
        # leaves the batched Cholesky solve for lstsq's minimum-norm fit
        p = random_lqt_problem(np.random.default_rng(24), n_x=3, n_u=1, N=8)
        if zero_block is not None:
            X = p.X.copy()
            X[2 * zero_block : 2 * zero_block + 2] = 0.0
            p = replace(p, X=X)
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda Q: sizes.append(len(Q)) or eigh(Q))
        q = lqt.condense(p, 2)
        assert sizes == ([] if zero_block is None else [1])
        for name, want in condense_loop(p, 2).items():
            np.testing.assert_allclose(getattr(q, name), want, rtol=1e-9, atol=1e-9, err_msg=name)

    @pytest.mark.parametrize("traj_method", [1, 2])
    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    @pytest.mark.parametrize("n_r", [1, 3], ids=["rank_deficient", "full"])
    @pytest.mark.parametrize("B", [1, 2, 4, 8])
    def test_states_follow_dynamics(self, B, n_r, backend, traj_method):
        # the states inside a block are rolled forward from its head, and
        # the next head comes from the condensed solve: the dynamics must
        # hold at every step, block boundaries included
        p = random_lqt_problem(np.random.default_rng(27), n_x=3, n_u=2, N=16, n_r=n_r)
        xs, us = lqt.solve(p, backend, traj_method, B)[:2]
        pred = np.einsum("kij,kj->ki", p.F, xs[:-1]) + p.c + np.einsum("kij,kj->ki", p.L, us)
        np.testing.assert_allclose(xs[1:], pred, rtol=1e-12, atol=1e-12 * np.abs(xs).max())

    def test_non_divisible_errors(self):
        rng = np.random.default_rng(20)
        p = random_lqt_problem(rng, N=7)
        with pytest.raises(ValueError, match="not divisible"):
            lqt.condense(p, 2)

    def test_condensed_dimensions(self):
        rng = np.random.default_rng(21)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=12)
        q = lqt.condense(p, 4)
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

    @pytest.mark.parametrize("block_size", [None, 2])
    @pytest.mark.parametrize("traj_method", [1, 2])
    def test_leaves_problem_unchanged(self, traj_method, block_size):
        # the stage elements are views of p.F and p.c, so an in-place fold
        # into any element would write into the problem
        p = random_lqt_problem(np.random.default_rng(26), n_x=3, n_u=2, N=8)
        arrays = {f.name: getattr(p, f.name) for f in fields(p)}
        before = {name: a.tobytes() for name, a in arrays.items() if isinstance(a, np.ndarray)}
        lqt.solve(p, "parallel", traj_method, block_size)
        assert {name: arrays[name].tobytes() for name in before} == before

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
        va = value_at(values, 0, np.array([1.0]))
        vb = value_at(values, 0, np.array([-0.5]))
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

    def test_singular_kkt_matrix_raises(self):
        # with no cost at all the Hessian block is zero and the controls are
        # free, so the KKT matrix is singular
        p = build_tracking2d(20)
        p = replace(p, X=0 * p.X, U=0 * p.U, XT=0 * p.XT)
        with pytest.raises(SolverError, match="^KKT matrix singular"):
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
        dv = value_at(values, 0, x) - value_at(values, 0, y)
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

    @pytest.mark.parametrize("name", ["n_x", "n_u", "n_r"])
    def test_declared_dimension_must_match_arrays(self, name):
        p = random_lqt_problem(np.random.default_rng(26), n_x=4, n_u=2, N=5)
        d = lqt.problem_to_dict(p)
        d[name] = 7
        with pytest.raises(ValueError, match=f"declared {name} = 7 but the arrays give {getattr(p, name)}$"):
            lqt.problem_from_dict(d)

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
