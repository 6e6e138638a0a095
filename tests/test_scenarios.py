"""Scenario builder tests: printed model parameters, determinism, ZOH."""

import numpy as np
import pytest

from tempo_dp import scenarios as sc


class TestZohDiscretize:
    def test_zero_dynamics(self):
        B = np.array([[1.0], [2.0]])
        F, L = sc.zoh_discretize(np.zeros((2, 2)), B, 0.3)
        np.testing.assert_allclose(F, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(L, B * 0.3, atol=1e-14)

    def test_scalar_closed_form(self):
        a, dt = -0.7, 0.25
        F, L = sc.zoh_discretize([[a]], [[2.0]], dt)
        assert F[0, 0] == pytest.approx(np.exp(a * dt), rel=1e-12)
        assert L[0, 0] == pytest.approx((np.exp(a * dt) - 1) / a * 2.0, rel=1e-12)

    def test_double_integrator_matches_tracking_model(self):
        dt = 0.1
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        F, L = sc.zoh_discretize(A, B, dt)
        np.testing.assert_allclose(F, [[1.0, dt], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(L, [[dt**2 / 2], [dt]], atol=1e-14)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            sc.zoh_discretize(np.zeros((1, 1)), np.ones((1, 1)), 0.0)


class TestTracking2d:
    def test_dynamics_entries(self):
        p = sc.build_tracking2d(100)
        assert p.F[0, 0, 2] == pytest.approx(0.1)  # velocity coupling dt
        assert p.L[0, 0, 0] == pytest.approx(0.005)  # dt^2 / 2
        assert p.L[0, 2, 0] == pytest.approx(0.1)

    def test_waypoint_weights(self):
        p = sc.build_tracking2d(100)
        np.testing.assert_allclose(p.X[10], 100.0 * np.eye(2))
        np.testing.assert_allclose(p.X[11], 1e-6 * np.eye(2))
        np.testing.assert_allclose(p.U[0], 0.1 * np.eye(2))

    def test_terminal(self):
        p = sc.build_tracking2d(50)
        np.testing.assert_array_equal(p.HT, np.eye(4))
        np.testing.assert_array_equal(p.XT, np.eye(4))
        np.testing.assert_array_equal(p.rT[2:], [0.0, 0.0])  # zero ref velocity

    def test_intermediate_holds_previous_waypoint(self):
        p = sc.build_tracking2d(60, seed=4)
        for k in range(60):
            np.testing.assert_array_equal(p.r[k], p.r[10 * (k // 10)])

    def test_starts_at_five_five(self):
        p = sc.build_tracking2d(20)
        np.testing.assert_array_equal(p.x0, [5.0, 5.0, 0.0, 0.0])
        np.testing.assert_array_equal(p.r[0], [5.0, 5.0])

    def test_deterministic(self):
        a = sc.build_tracking2d(100, seed=7)
        b = sc.build_tracking2d(100, seed=7)
        for f in ("F", "c", "L", "H", "X", "r", "U", "HT", "XT", "rT", "x0"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    def test_requires_minimum_horizon(self):
        with pytest.raises(ValueError):
            sc.build_tracking2d(5)

    @pytest.mark.parametrize("T", [25, 10000])
    def test_weights_and_references_per_step(self, T):
        # the docstring's definition, one step at a time; T = 25 has trailing steps
        p = sc.build_tracking2d(T, seed=1)
        wps = sc._smooth_waypoints(T // 10 + 1, np.array([5.0, 5.0]), np.random.default_rng(1))
        X = np.empty((T, 2, 2))
        r = np.empty((T, 2))
        for k in range(T):
            X[k] = (100.0 if k % 10 == 0 else 1e-6) * np.eye(2)
            r[k] = wps[k // 10]
        np.testing.assert_array_equal(p.X, X)
        np.testing.assert_array_equal(p.r, r)
        np.testing.assert_array_equal(p.rT[:2], wps[-1])

    def test_trailing_steps_hold_last_waypoint(self):
        p = sc.build_tracking2d(128, seed=0)
        np.testing.assert_array_equal(p.r[127], p.r[120])
        np.testing.assert_array_equal(p.rT[:2], p.r[120])


class TestMassSpring:
    def test_two_mass_continuous_terms(self):
        # rebuild the continuous matrix through a tiny dt ZOH: F ~ I + A dt
        p = sc.build_mass_spring(2, 10000)
        dt = 10.0 / 10000
        A = (p.F[0] - np.eye(4)) / dt  # first-order estimate
        assert A[1, 0] == pytest.approx(-2.0, abs=0.02)  # -2c/m on own position
        assert A[1, 2] == pytest.approx(1.0, abs=0.02)  # c/m coupling
        assert A[1, 1] == pytest.approx(-0.4, abs=0.02)  # -2d/m damping
        assert A[3, 3] == pytest.approx(-0.4, abs=0.02)

    def test_control_enters_first_and_last(self):
        p = sc.build_mass_spring(3, 10000)
        dt = 10.0 / 10000
        Bap = p.L[0] / dt  # L ~ B dt for small dt
        assert Bap[1, 0] == pytest.approx(1.0, abs=0.01)
        assert Bap[5, 1] == pytest.approx(-1.0, abs=0.01)
        assert abs(Bap[3, 0]) < 0.01 and abs(Bap[3, 1]) < 0.01

    @pytest.mark.parametrize("N, idx", [(2, 2), (4, 4), (5, 4)])
    def test_initial_condition(self, N, idx):
        p = sc.build_mass_spring(N, 100)
        expect = np.zeros(2 * N)
        expect[0] = 1.0
        expect[idx] = 1.0
        np.testing.assert_array_equal(p.x0, expect)

    def test_costs(self):
        p = sc.build_mass_spring(3, 50)
        np.testing.assert_array_equal(p.X[0], np.eye(6))
        np.testing.assert_array_equal(p.XT, np.eye(6))
        np.testing.assert_allclose(p.U[0], 0.1 * np.eye(2))


class TestRouting:
    def test_straight_on_free_cell(self):
        p = sc.build_routing(5, 20, seed=0)
        # find a straight move landing on a zero-cost cell
        found = False
        for k in range(p.N):
            for x in range(5):
                if p.ell[k, x, 1] == 0.0:
                    found = True
        assert found  # grid has zero-cost cells; straight adds nothing

    def test_vertical_move_costs_one_plus_cell(self):
        p = sc.build_routing(5, 10, seed=1)
        for k in range(p.N):
            for x in range(1, 5):
                nxt = x - 1
                cell = p.ell[k, x, 0] - 1.0  # up move minus unit cost
                assert cell in (0.0, 1.0, 2.0)
                assert p.f[k, x, 0] == nxt

    def test_boundary_infeasible(self):
        p = sc.build_routing(5, 10)
        assert np.all(np.isinf(p.ell[:, 0, 0]))  # up out of the grid
        assert np.all(np.isinf(p.ell[:, 4, 2]))  # down out of the grid

    def test_starts_middle(self):
        assert sc.build_routing(11, 10).x_S == 5

    def test_requires_odd(self):
        with pytest.raises(ValueError):
            sc.build_routing(4, 10)

    def test_deterministic(self):
        a = sc.build_routing(5, 30, seed=5)
        b = sc.build_routing(5, 30, seed=5)
        np.testing.assert_array_equal(a.ell, b.ell)
        np.testing.assert_array_equal(a.f, b.f)


class TestUnicycle:
    def test_control_weight(self):
        p = sc.build_unicycle(50)
        np.testing.assert_array_equal(p.U[0], [[1.0, 0.0], [0.0, 100.0]])

    def test_reference_step_weights(self):
        p = sc.build_unicycle(50)
        np.testing.assert_allclose(np.diag(p.X[10]), [100.0, 100.0, 1000.0])
        np.testing.assert_allclose(np.diag(p.X[11]), [1e-6, 1e-6, 1e-6])
        np.testing.assert_allclose(np.diag(p.XT), [1e-6, 1e-6, 1e-6])

    def test_dynamics_model(self):
        p = sc.build_unicycle(20)
        x = np.array([1.0, 2.0, np.pi / 2, 3.0])
        u = np.array([0.5, 0.2])
        nxt = p.f(0, x, u)
        np.testing.assert_allclose(
            nxt, [1.0 + 0.0, 2.0 + 0.3, np.pi / 2 + 0.02, 3.05], atol=1e-12
        )

    def test_deterministic(self):
        a = sc.build_unicycle(40, seed=9)
        b = sc.build_unicycle(40, seed=9)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(a.x0, b.x0)
