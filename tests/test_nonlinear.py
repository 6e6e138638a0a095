"""Iterated-linearization tests: Taylor exactness on linear systems,
finite-difference fallback, backend equivalence, fixed-point behavior."""

from dataclasses import replace

import numpy as np
import pytest

from tempo_dp import lqt, nonlinear as nl
from tempo_dp.errors import SolverError
from tempo_dp.scan import ScanStats
from tempo_dp.scenarios import build_unicycle

from helpers import random_lqt_problem


def mv(A, x):
    """Matrix-vector product over any leading stack axes."""
    return np.einsum("...ij,...j->...i", A, x)


def linear_as_nonlinear(p: lqt.LqtProblem, g_scale: float | None = None) -> nl.NonlinearProblem:
    """Wrap an LQT problem as stacked callables (optionally with a scaled g map)."""

    def f(k, x, u):
        return mv(p.F[k], x) + p.c[k] + mv(p.L[k], u)

    def h(k, x):
        return mv(p.H[k], x)

    g = None
    U = p.U.copy()
    if g_scale is not None:
        def g(k, u):
            return g_scale * u
        U = U / g_scale**2

    return nl.NonlinearProblem(
        x0=p.x0, f=f, h=h,
        X=p.X.copy(), U=U, r=p.r.copy(), s=np.zeros((p.N, p.n_u)),
        hT=lambda x: p.HT @ x, XT=p.XT.copy(), rT=p.rT.copy(), g=g,
    )


class TestFiniteDiffJacobian:
    def test_linear_map_exact(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 4))
        J = nl.finite_diff_jacobian(lambda x: A @ x, rng.normal(size=4))
        np.testing.assert_allclose(J, A, atol=1e-9)

    def test_scalar_quadratic(self):
        J = nl.finite_diff_jacobian(lambda x: np.array([x[0] ** 2]), np.array([1.0]))
        assert J[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_batched_equals_single_point_calls(self):
        def fn(x):
            return np.stack(
                [np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 2 + np.exp(x[..., 2]),
                 x[..., 1] * x[..., 2] ** 3], axis=-1,
            )

        rng = np.random.default_rng(10)
        pts = rng.normal(size=(6, 3)) * np.array([1.0, 10.0, 0.1])
        J = nl.finite_diff_jacobian(fn, pts)
        assert J.shape == (6, 3, 3)
        for m in range(6):
            np.testing.assert_array_equal(J[m], nl.finite_diff_jacobian(fn, pts[m]))
        # any number of leading axes
        J2 = nl.finite_diff_jacobian(fn, pts.reshape(2, 3, 3))
        np.testing.assert_array_equal(J2, J.reshape(2, 3, 3, 3))

    def test_zero_width_point(self):
        J = nl.finite_diff_jacobian(lambda x: np.ones(x.shape[:-1] + (3,)), np.zeros((5, 0)))
        assert J.shape == (5, 3, 0)

    def test_calls_fn_on_whole_stacks(self):
        shapes = []

        def fn(x):
            shapes.append(x.shape)
            return 2.0 * x[..., :2]

        nl.finite_diff_jacobian(fn, np.ones((5, 4)))
        assert shapes == [(5, 4)] * 8  # 2n calls, each on the full stack

    def test_unicycle_stacked_analytic_matches_fd(self):
        p = build_unicycle(20, seed=1)
        rng = np.random.default_rng(11)
        k = np.arange(50) % p.N
        x = rng.normal(size=(50, 4))
        u = rng.normal(size=(50, 2))
        Jx = nl.finite_diff_jacobian(lambda xx: p.f(k, xx, u), x)
        Ju = nl.finite_diff_jacobian(lambda uu: p.f(k, x, uu), u)
        assert p.jac_f_x(k, x, u).shape == (50, 4, 4)
        assert p.jac_f_u(k, x, u).shape == (50, 4, 2)
        # central differences at _FD_STEP = 1e-6 land about 1e-10 from the
        # analytic Jacobians; a step of 1e-3 would miss by about 2e-7
        np.testing.assert_allclose(Jx, p.jac_f_x(k, x, u), atol=1e-8)
        np.testing.assert_allclose(Ju, p.jac_f_u(k, x, u), atol=1e-8)
        np.testing.assert_allclose(
            nl.finite_diff_jacobian(lambda xx: p.h(k, xx), x), p.jac_h(k, x), atol=1e-8
        )

    def test_unicycle_matches_analytic(self):
        p = build_unicycle(20, seed=1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=4)
            u = rng.normal(size=2)
            Jx = nl.finite_diff_jacobian(lambda xx: p.f(0, xx, u), x)
            Ju = nl.finite_diff_jacobian(lambda uu: p.f(0, x, uu), u)
            np.testing.assert_allclose(Jx, p.jac_f_x(0, x, u), atol=1e-5)
            np.testing.assert_allclose(Ju, p.jac_f_u(0, x, u), atol=1e-5)


class TestLinearize:
    def test_linear_system_exact_and_nominal_independent(self):
        rng = np.random.default_rng(2)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=6)
        npb = linear_as_nonlinear(p)
        for seed in (0, 1):
            r2 = np.random.default_rng(seed)
            nom = nl.Nominal(
                xbar=r2.normal(size=(p.N + 1, p.n_x)),
                ubar=r2.normal(size=(p.N, p.n_u)),
            )
            lin = nl.linearize(npb, nom)
            np.testing.assert_allclose(lin.F, p.F, atol=1e-8)
            np.testing.assert_allclose(lin.L, p.L, atol=1e-8)
            np.testing.assert_allclose(lin.c, p.c, atol=1e-7)
            np.testing.assert_allclose(lin.H, p.H, atol=1e-8)
            np.testing.assert_allclose(lin.r, p.r, atol=1e-7)
            np.testing.assert_allclose(lin.HT, p.HT, atol=1e-8)
            assert lin.s is None  # zero references stay standard-form

    @pytest.mark.parametrize("N", [0, 1, 7])
    def test_horizons(self, N):
        rng = np.random.default_rng(12)
        full = random_lqt_problem(rng, n_x=3, n_u=2, N=7)
        p = replace(
            full, T=N, F=full.F[:N], c=full.c[:N], L=full.L[:N], H=full.H[:N],
            X=full.X[:N], r=full.r[:N], U=full.U[:N],
        )
        base = linear_as_nonlinear(p)
        seen = []

        def f(k, x, u):
            seen.append(k.shape)
            return base.f(k, x, u)

        npb = replace(base, f=f)
        nom = nl.Nominal(xbar=rng.normal(size=(N + 1, 3)), ubar=rng.normal(size=(N, 2)))
        lin = nl.linearize(npb, nom)
        assert lin.N == N and lin.F.shape == (N, 3, 3) and lin.L.shape == (N, 3, 2)
        np.testing.assert_allclose(lin.F, p.F, atol=1e-8)
        np.testing.assert_allclose(lin.L, p.L, atol=1e-8)
        np.testing.assert_allclose(lin.c, p.c, atol=1e-7)
        assert set(seen) == {(N,)}  # every call covers the whole horizon
        cost = nl.nonlinear_cost(npb, nom.xbar, nom.ubar)
        ref = sum(
            0.5 * (p.H[k] @ nom.xbar[k] - p.r[k]) @ p.X[k] @ (p.H[k] @ nom.xbar[k] - p.r[k])
            + 0.5 * nom.ubar[k] @ p.U[k] @ nom.ubar[k]
            for k in range(N)
        )
        eT = p.HT @ nom.xbar[N] - p.rT
        assert cost == pytest.approx(ref + 0.5 * eT @ p.XT @ eT, rel=1e-12)

    def test_singular_control_output_names_step(self):
        rng = np.random.default_rng(13)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=6)
        scale = np.ones(6)
        scale[4] = 0.0  # g collapses every control at step 4

        def g(k, u):
            return scale[k][..., None] * u

        npb = replace(linear_as_nonlinear(p), g=g)
        with pytest.raises(SolverError, match="control-output Jacobian singular at step 4"):
            nl.linearize(npb, nl.default_nominal(npb))

    def test_unicycle_jacobian_entries(self):
        p = build_unicycle(20, seed=0)
        x = np.array([0.0, 0.0, 0.0, 1.0])
        u = np.zeros(2)
        F = p.jac_f_x(0, x, u)
        assert F[0, 2] == pytest.approx(0.0)  # d px / d theta = -s sin(0) dt
        assert F[0, 3] == pytest.approx(0.1)  # d px / d speed = cos(0) dt
        L = p.jac_f_u(0, x, u)
        assert L[3, 0] == pytest.approx(0.1) and L[2, 1] == pytest.approx(0.1)

    def test_invertible_control_output_supported(self):
        rng = np.random.default_rng(3)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=5)
        base = linear_as_nonlinear(p)
        scaled = linear_as_nonlinear(p, g_scale=2.0)
        # same underlying objective: iterates must coincide
        xs_a, us_a, _ = nl.ilqt(base, iters=1, backend="sequential")
        xs_b, us_b, _ = nl.ilqt(scaled, iters=1, backend="sequential")
        np.testing.assert_allclose(xs_a, xs_b, atol=1e-8)
        np.testing.assert_allclose(us_a, us_b, atol=1e-8)

    def test_nonsquare_control_output_rejected(self):
        rng = np.random.default_rng(4)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=4)
        npb = linear_as_nonlinear(p)
        npb = nl.NonlinearProblem(**{
            **{f.name: getattr(npb, f.name) for f in npb.__dataclass_fields__.values()},
            "g": lambda k, u: u[..., :1] + u[..., 1:],
        })
        with pytest.raises(SolverError, match="not invertible"):
            nl.linearize(npb, nl.default_nominal(npb))


class TestIlqt:
    def test_linear_converges_first_iteration(self):
        rng = np.random.default_rng(5)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=10)
        npb = linear_as_nonlinear(p)
        xs, us, costs = nl.ilqt(npb, iters=4, backend="sequential")
        xs1, us1, _ = nl.ilqt(npb, iters=1, backend="sequential")
        np.testing.assert_allclose(xs, xs1, atol=1e-10)
        np.testing.assert_allclose(us, us1, atol=1e-10)
        assert max(abs(c - costs[0]) for c in costs) <= 1e-9

    def test_linear_matches_kkt(self):
        rng = np.random.default_rng(6)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=10)
        npb = linear_as_nonlinear(p)
        xs, us, _ = nl.ilqt(npb, iters=1, backend="parallel")
        _, us_ref, xs_ref = lqt.kkt_oracle(p)
        np.testing.assert_allclose(xs, xs_ref, atol=1e-9)
        np.testing.assert_allclose(us, us_ref, atol=1e-9)

    def test_backends_identical(self):
        p = build_unicycle(60, seed=2)
        xs_s, us_s, cs = nl.ilqt(p, iters=6, backend="sequential")
        xs_p, us_p, cp = nl.ilqt(p, iters=6, backend="parallel")
        assert np.max(np.abs(xs_s - xs_p)) <= 1e-6
        assert np.max(np.abs(us_s - us_p)) <= 1e-6
        np.testing.assert_allclose(cs, cp, rtol=1e-9)

    def test_cost_decreases_on_unicycle(self):
        p = build_unicycle(100, seed=0)
        nom = nl.default_nominal(p)
        c0 = nl.nonlinear_cost(p, nom.xbar, nom.ubar)
        _, _, costs = nl.ilqt(p, iters=10, backend="parallel")
        assert costs[-1] < c0

    def test_fixed_point(self):
        # nominal that already solves the linearized problem stays put
        rng = np.random.default_rng(7)
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=8)
        npb = linear_as_nonlinear(p)
        xs, us, _ = nl.ilqt(npb, iters=1, backend="sequential")
        xs2, us2, _ = nl.ilqt(npb, init=nl.Nominal(xs, us), iters=1, backend="sequential")
        assert np.max(np.abs(xs2 - xs)) <= 1e-8
        assert np.max(np.abs(us2 - us)) <= 1e-8

    def test_early_stop(self):
        rng = np.random.default_rng(8)
        p = random_lqt_problem(rng, n_x=2, n_u=1, N=6)
        npb = linear_as_nonlinear(p)
        _, _, costs = nl.ilqt(npb, iters=10, backend="sequential", stop_tol=1e-9)
        assert len(costs) < 10  # linear problem: fixed point after iteration 1

    def test_error_tags_iteration(self):
        rng = np.random.default_rng(9)
        p = random_lqt_problem(rng, n_x=2, n_u=1, N=4)
        U = p.U.copy()
        U[2] = 0.0
        L = p.L.copy()
        L[2] = 0.0
        bad = lqt.LqtProblem(S=0, T=4, x0=p.x0, F=p.F, c=p.c, L=L, H=p.H, X=p.X,
                             r=p.r, U=U, HT=p.HT, XT=p.XT, rT=p.rT)
        npb = linear_as_nonlinear(bad)
        with pytest.raises(SolverError, match="iteration 1"):
            nl.ilqt(npb, iters=2, backend="sequential")

    def test_x_S_override(self):
        p = build_unicycle(30, seed=3)
        x_other = p.x0 + np.array([0.5, -0.5, 0.1, 0.0])
        xs, _, _ = nl.ilqt(replace(p, x0=x_other), iters=2, backend="sequential")
        np.testing.assert_allclose(xs[0], x_other, atol=1e-12)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"backend": "seq"}, "unknown backend"),
         ({"traj_method": 7}, "unknown trajectory method"),
         ({"backend": "sequential", "traj_method": 7}, "unknown trajectory method")],
    )
    def test_rejects_unknown_choices(self, kwargs, match):
        p = build_unicycle(20, seed=0)
        with pytest.raises(ValueError, match=match):
            nl.ilqt(p, iters=1, **kwargs)

    def test_rejects_no_iterations(self):
        with pytest.raises(ValueError, match="^need iters >= 1$"):
            nl.ilqt(build_unicycle(20, seed=0), iters=0)

    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    def test_return_stats(self, backend):
        N = 20
        p = build_unicycle(N, seed=0)
        xs, us, costs, stats = nl.ilqt(p, iters=2, backend=backend, return_stats=True)
        assert len(costs) == 2
        if backend == "sequential":
            assert stats == ScanStats(N, N)
        else:
            assert 0 < stats.combine_count <= 2 * (N + 1) - 2
