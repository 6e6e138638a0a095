"""Scenario builder tests: printed model parameters, determinism, ZOH."""

import numpy as np
import pytest
import scipy.linalg

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

    @pytest.mark.parametrize("b", [0.5, 7.0, 60.0, 1000.0])
    def test_damped_rotation_closed_form(self, b):
        # exp([[a, b], [-b, a]]) = e^a [[cos b, sin b], [-sin b, cos b]]; up to 8 squarings
        a = -0.01 * b
        E = sc._expm(np.array([[a, b], [-b, a]]))
        exact = np.exp(a) * np.array([[np.cos(b), np.sin(b)], [-np.sin(b), np.cos(b)]])
        np.testing.assert_allclose(E, exact, rtol=0, atol=1e-12 * np.exp(a))

    def test_double_integrator_matches_tracking_model(self):
        dt = 0.1
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        F, L = sc.zoh_discretize(A, B, dt)
        np.testing.assert_allclose(F, [[1.0, dt], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(L, [[dt**2 / 2], [dt]], atol=1e-14)

    def test_bad_dt(self):
        for dt in (0.0, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite dt > 0"):
                sc.zoh_discretize(np.zeros((1, 1)), np.ones((1, 1)), dt)

    @pytest.mark.parametrize("A, B", [
        ([[np.nan, 0.0], [0.0, 0.0]], np.ones((2, 1))),
        ([[0.0, np.inf], [0.0, 0.0]], np.ones((2, 1))),
        (np.zeros((2, 2)), [[1.0], [-np.inf]]),
        (np.zeros((2, 2)), [[np.nan], [0.0]]),
        ([[1e308, 0.0], [0.0, 0.0]], np.ones((2, 1))),  # finite A, A dt overflows
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_model(self, A, B):
        with pytest.raises(ValueError, match="must be finite"):
            sc.zoh_discretize(A, B, 10.0)

    @pytest.mark.parametrize("A, B, match", [
        (np.zeros((2, 2)), np.ones(2), "B must be"),
        (np.zeros((2, 2)), np.ones((3, 1)), "B must be"),
        (np.zeros((2, 2)), np.ones((2, 1, 1)), "B must be"),
        (np.zeros((2, 3)), np.ones((2, 1)), "A must be square"),
        (np.zeros(2), np.ones((2, 1)), "A must be square"),
    ])
    def test_mismatched_shapes(self, A, B, match):
        with pytest.raises(ValueError, match=match):
            sc.zoh_discretize(A, B, 0.1)

    @pytest.mark.parametrize("N", [2, 4, 16, 32])
    @pytest.mark.parametrize("T", [2, 10, 500, 5000])
    def test_mass_spring_blocks_match_scipy(self, N, T, monkeypatch):
        zoh = sc.zoh_discretize
        seen = []

        def spy(A, B, dt):
            seen.append((A, B, dt))
            return zoh(A, B, dt)

        monkeypatch.setattr(sc, "zoh_discretize", spy)
        p = sc.build_mass_spring(N, T)
        [(A, B, dt)] = seen
        n = 2 * N
        blk = np.zeros((n + 2, n + 2))
        blk[:n, :n] = A * dt
        blk[:n, n:] = B * dt
        E = scipy.linalg.expm(blk)
        # scipy picks the same degree and squarings but rounds differently;
        # against a 40-digit reference both err by up to 1.3e-15 on these blocks
        np.testing.assert_allclose(p.F[0], E[:n, :n], rtol=0, atol=2e-15)
        np.testing.assert_allclose(p.L[0], E[:n, n:], rtol=0, atol=2e-15)

    def test_expm_matches_scipy_across_squarings(self):
        # rotation plus damping, so exp(M) stays bounded at every norm;
        # 1-norms 1e-3 .. 1e3 take 0 to 8 squarings. No n < 5: on 2x2 and 3x3
        # matrices scipy's own error reaches 1e-11 (2x2 cases are closed-form above)
        rng = np.random.default_rng(11)
        squarings = set()
        for norm in np.logspace(-3, 3, 25):
            for n in (5, 9, 16):
                G = rng.normal(size=(n, n))
                H = rng.normal(size=(n, n))
                M = (G - G.T) - 0.2 * (H @ H.T) / n
                M *= norm / np.linalg.norm(M, 1)
                squarings.add(max(0, int(np.ceil(np.log2(norm / 5.371920351148152)))))
                E = scipy.linalg.expm(M)
                dev = np.abs(sc._expm(M) - E).max() / np.abs(E).max()
                assert dev <= 1e-11, (norm, n, dev)
        assert squarings == set(range(9))


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

    @pytest.mark.parametrize("T", [10, 25, 1000, 1003])
    def test_weights_and_references_per_step(self, T):
        # the docstring's definition, one step at a time; T = 25 and 1003 have trailing steps
        p = sc.build_unicycle(T, seed=1)
        lap = sc._race_track(40, np.random.default_rng(1))
        j = np.arange(T // 10 + 1)
        pos = lap[j % 40]
        seg = lap[(j + 1) % 40] - pos
        heading = np.unwrap(np.arctan2(seg[:, 1], seg[:, 0]))
        X = np.empty((T, 3, 3))
        r = np.empty((T, 3))
        for k in range(T):
            X[k] = np.diag((100.0, 100.0, 1000.0) if k % 10 == 0 else (1e-6, 1e-6, 1e-6))
            r[k] = (*pos[k // 10], heading[k // 10])
        np.testing.assert_array_equal(p.X, X)
        np.testing.assert_array_equal(p.r, r)
        np.testing.assert_array_equal(p.rT, (*pos[T // 10], heading[T // 10]))

    def test_deterministic(self):
        a = sc.build_unicycle(40, seed=9)
        b = sc.build_unicycle(40, seed=9)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(a.x0, b.x0)


@pytest.mark.parametrize(
    "build, args, match",
    [(sc.build_tracking2d, (9,), "^need T >= 10$"),
     (sc.build_mass_spring, (1, 10), "^need at least two masses$"),
     (sc.build_mass_spring, (2, 1), "^need T >= 2$"),
     (sc.build_routing, (5, 0), "^need T >= 1$"),
     (sc.build_unicycle, (9,), "^need T >= 10$")],
    ids=["tracking2d-T", "mass_spring-N", "mass_spring-T", "routing-T", "unicycle-T"],
)
def test_builders_reject_small_sizes(build, args, match):
    with pytest.raises(ValueError, match=match):
        build(*args)
