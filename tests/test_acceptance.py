"""Acceptance suite: ten go/no-go criteria, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are fixed here, not calibrated elsewhere.
"""

import functools
import math
import operator
import os
import time

import numpy as np
import pytest

from tempo_dp import finite_dp as fd
from tempo_dp import lqt
from tempo_dp import nonlinear as nl
from tempo_dp.scan import ScanDirection, par_scan, par_scan_stacked, seq_scan
from tempo_dp.scenarios import build_mass_spring, build_tracking2d, build_unicycle

from helpers import (
    LqtElement,
    combine_lqt,
    make_lqt_elements,
    max_value_dev,
    random_finite_problem,
    random_lqt_element,
    random_lqt_problem,
    unique_optimal_trajectory,
)

FWD, REV = ScanDirection.FORWARD, ScanDirection.REVERSE


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"\ncriterion {num:2d} ({name}): SKIP")
                raise
            except BaseException:
                print(f"\ncriterion {num:2d} ({name}): FAIL")
                raise
            print(f"\ncriterion {num:2d} ({name}): PASS")
            return out

        return wrapper

    return deco


@criterion(1, "finite-state exactness, 100 instances < 60 s")
def test_criterion_1_finite_state_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked_traj = 0
    for i in range(100):
        # alternate exact-integer instances and float ones with +inf entries
        dtype, inf_frac = (np.int64, 0.0) if i % 2 == 0 else (np.float64, 0.2)
        p = random_finite_problem(
            rng,
            D_x=int(rng.integers(2, 6)),
            D_u=int(rng.integers(2, 4)),
            N=int(rng.integers(1, 9)),
            dtype=dtype,
            inf_frac=inf_frac,
            cost_max=12,
        )
        pol_par = fd.solve_backward(p)
        pol_seq = fd.seq_bellman(p)
        cost_bf, us_bf, xs_bf = fd.brute_force_oracle(p)
        assert np.array_equal(pol_par.V, pol_seq.V)
        assert cost_bf == pol_par.V[0, p.x_S]
        # trajectory comparison only where the optimum is provably unique
        if p.D_u ** p.N <= 3**7 and unique_optimal_trajectory(p):
            traj = fd.recover_traj_m1(p, pol_par)
            np.testing.assert_array_equal(traj, xs_bf)
            traj2 = fd.recover_traj_m2(p, fd.forward_conditional(p), pol_par)
            np.testing.assert_array_equal(traj2, xs_bf)
            checked_traj += 1
    elapsed = time.perf_counter() - t0
    assert checked_traj >= 10
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@criterion(2, "LQT backward parallel == Riccati <= 1e-9, < 30 s")
def test_criterion_2_lqt_backward_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for n_x in (1, 2, 4, 8):
        for T in (1, 8, 64, 1000):
            n_u = max(1, n_x // 2)
            p = random_lqt_problem(rng, n_x=n_x, n_u=n_u, N=T)
            ref, _ = lqt.riccati_backward(p)
            values, _ = lqt.parallel_backward(p)
            worst = max(worst, max_value_dev(values, ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"max relative deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


@criterion(3, "trajectory tri-equivalence <= 1e-7 (+ KKT for short horizons)")
def test_criterion_3_trajectory_tri_equivalence():
    for p in (build_tracking2d(1000), build_mass_spring(4, 1000)):
        values, gains = lqt.parallel_backward(p)
        xs_roll, us_roll = lqt.closed_loop_rollout(p, values, gains)
        xs_m1 = lqt.traj_method1(p, gains, values)
        xs_m2 = lqt.traj_method2(p, values)
        assert np.max(np.abs(xs_m1 - xs_roll)) <= 1e-7
        assert np.max(np.abs(xs_m2 - xs_roll)) <= 1e-7
    for p in (build_tracking2d(50), build_mass_spring(4, 50)):
        values, gains = lqt.parallel_backward(p)
        xs = lqt.traj_method1(p, gains, values)
        us = lqt.controls_along(p, values, gains, xs)
        _, us_kkt, xs_kkt = lqt.kkt_oracle(p)
        assert np.max(np.abs(us - us_kkt)) <= 1e-7
        assert np.max(np.abs(xs - xs_kkt)) <= 1e-7


@criterion(4, "combination-rule associativity (1000 triples; min-plus exact)")
def test_criterion_4_associativity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, b, c = (random_lqt_element(rng, 3) for _ in range(3))
        lhs = combine_lqt(combine_lqt(a, b), c)
        rhs = combine_lqt(a, combine_lqt(b, c))
        for f in ("A", "b", "C", "eta", "J"):
            num = np.max(np.abs(getattr(lhs, f) - getattr(rhs, f)))
            den = max(1.0, np.max(np.abs(getattr(rhs, f))))
            assert num / den <= 1e-8
    for _ in range(200):
        mats = []
        for _ in range(3):
            V = rng.integers(0, 60, size=(4, 4)).astype(float)
            V[rng.random(size=(4, 4)) < 0.3] = np.inf
            mats.append(V)
        a, b, c = mats
        lhs = fd.min_plus_matmul(fd.min_plus_matmul(a, b), c)
        rhs = fd.min_plus_matmul(a, fd.min_plus_matmul(b, c))
        assert np.array_equal(lhs, rhs)


@criterion(5, "combine depth <= 2 ceil(log2 T) + 1 up to 2^17, all operators")
def test_criterion_5_depth_bound():
    rng = np.random.default_rng(13)
    sizes = [1, 2, 3, 7, 8, 100, 1024, 131072]

    def bound(T):
        return 2 * math.ceil(math.log2(T)) + 1 if T > 1 else 1

    for T in sizes:
        xs = [int(v) for v in rng.integers(0, 100, size=T)]
        _, stats = par_scan(xs, operator.add, FWD)
        assert stats.combine_depth <= bound(T), f"add T={T}"
        _, sstats = seq_scan(xs, operator.add)
        assert sstats.combine_depth == T - 1
        _, stats = par_scan(xs, min, REV)
        assert stats.combine_depth <= bound(T), f"min T={T}"

    # matrix-valued operators: vectorized engine, same tree/instrumentation
    for T in sizes:
        V = rng.integers(0, 40, size=(T, 3, 3)).astype(float)
        _, stats = par_scan_stacked(
            (V,),
            lambda a, b: (fd.min_plus_matmul(a[0], b[0]),),
            REV,
        )
        assert stats.combine_depth <= bound(T), f"min-plus T={T}"

        # LQT elements, stacked
        n = 2
        A = rng.normal(size=(T, n, n)) * 0.5
        b = rng.normal(size=(T, n))
        G = rng.normal(size=(T, n, n)) * 0.4
        C = G @ np.swapaxes(G, -1, -2)
        eta = rng.normal(size=(T, n))
        G2 = rng.normal(size=(T, n, n)) * 0.4
        J = G2 @ np.swapaxes(G2, -1, -2)
        _, stats = par_scan_stacked(
            (A, b, C, eta, J),
            lqt._combine_element_arrays,
            REV,
        )
        assert stats.combine_depth <= bound(T), f"lqt T={T}"

        Fa = rng.normal(size=(T, n, n)) * 0.6
        ca = rng.normal(size=(T, n))
        _, stats = par_scan_stacked(
            (Fa, ca),
            lqt._compose_affine_arrays,
            FWD,
        )
        assert stats.combine_depth <= bound(T), f"affine T={T}"


@criterion(6, "partial condensing B in {1,2,4,8} on tracking2d T=128 <= 1e-7")
def test_criterion_6_partial_condensing():
    p = build_tracking2d(128)
    values, gains = lqt.parallel_backward(p)
    xs_ref = lqt.traj_method1(p, gains, values)
    us_ref = lqt.controls_along(p, values, gains, xs_ref)
    for B in (1, 2, 4, 8):
        xs, us = lqt.solve(p, block_size=B)[:2]
        assert np.max(np.abs(xs - xs_ref)) <= 1e-7, f"B={B}"
        assert np.max(np.abs(us - us_ref)) <= 1e-7, f"B={B}"
    # B = 1 is the identity reduction: same optimum as the plain solve
    xs1, us1 = lqt.solve(p, block_size=1)[:2]
    assert np.max(np.abs(xs1 - xs_ref)) <= 1e-10


@criterion(7, "generalized-cost transform vs cross-term KKT, 50 instances")
def test_criterion_7_general_cost_transform():
    rng = np.random.default_rng(17)
    for i in range(50):
        N = int(rng.integers(1, 31))
        p = random_lqt_problem(rng, n_x=3, n_u=2, N=N, cross=True)
        cost_ref, us_ref, xs_ref = lqt.kkt_oracle(p)
        q, rec = lqt.transform_general_cost(p)
        values, gains = lqt.riccati_backward(q)
        xs, ut = lqt.closed_loop_rollout(q, values, gains)
        us = rec.controls(xs, ut)
        assert np.max(np.abs(us - us_ref)) <= 1e-8, f"instance {i}"
        assert abs(lqt.lqt_cost(p, xs, us) - cost_ref) <= 1e-8, f"instance {i}"


@criterion(8, "nonlinear iLQT: backend equality, cost decrease, linear exactness")
def test_criterion_8_nonlinear_ilqt():
    p = build_unicycle(200, seed=0)
    xs_s, us_s, costs_s = nl.ilqt(p, iters=10, backend="sequential")
    xs_p, us_p, costs_p = nl.ilqt(p, iters=10, backend="parallel")
    assert np.max(np.abs(xs_s - xs_p)) <= 1e-6
    assert np.max(np.abs(us_s - us_p)) <= 1e-6
    nom0 = nl.default_nominal(p)
    assert costs_p[-1] < nl.nonlinear_cost(p, nom0.xbar, nom0.ubar)

    rng = np.random.default_rng(19)
    lp = random_lqt_problem(rng, n_x=3, n_u=2, N=12)

    def f(k, x, u):  # stacked: k (M,), x (M, n_x), u (M, n_u)
        return (
            np.einsum("kij,kj->ki", lp.F[k], x) + lp.c[k] + np.einsum("kij,kj->ki", lp.L[k], u)
        )

    npb = nl.NonlinearProblem(
        x0=lp.x0, f=f,
        h=lambda k, x: np.einsum("kij,kj->ki", lp.H[k], x),
        X=lp.X.copy(), U=lp.U.copy(), r=lp.r.copy(), s=np.zeros((12, 2)),
        hT=lambda x: lp.HT @ x, XT=lp.XT.copy(), rT=lp.rT.copy(),
    )
    xs, us, _ = nl.ilqt(npb, iters=1, backend="parallel")
    _, us_kkt, xs_kkt = lqt.kkt_oracle(lp)
    assert np.max(np.abs(xs - xs_kkt)) <= 1e-9
    assert np.max(np.abs(us - us_kkt)) <= 1e-9


@criterion(9, "scaling trend at T = 1e5 (soft, multicore)")
def test_criterion_9_scaling_trend():
    # stated for >= 4 workers; on narrower machines the check is strictly
    # harder, so it runs everywhere and reports what it saw
    workers = os.cpu_count() or 1
    p = build_tracking2d(100_000)

    def run_seq():
        return lqt.riccati_backward(p)

    def run_par():
        return lqt.parallel_backward(p)

    run_seq()
    run_par()  # warm-up both
    seq_times, par_times = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        run_seq()
        seq_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_par()
        par_times.append(time.perf_counter() - t0)
    t_seq = sorted(seq_times)[1]
    t_par = sorted(par_times)[1]
    print(
        f"\n  T=1e5 tracking2d backward: sequential {t_seq:.2f} s, "
        f"parallel {t_par:.2f} s, ratio {t_seq / t_par:.2f}x "
        f"({workers} workers available)"
    )
    assert t_par < t_seq, f"parallel {t_par:.2f} s not below sequential {t_seq:.2f} s"


@criterion(10, "terminal-element correction (recorded typo regression)")
def test_criterion_10_terminal_eta_correction():
    rng = np.random.default_rng(23)
    p = random_lqt_problem(rng, n_x=3, n_u=2, N=24)
    # make the terminal weight and reference clearly non-trivial
    p = lqt.LqtProblem(
        S=0, T=p.N, x0=p.x0, F=p.F, c=p.c, L=p.L, H=p.H, X=p.X, r=p.r, U=p.U,
        HT=p.HT, XT=3.0 * np.eye(3), rT=np.array([1.0, -2.0, 0.5]),
    )
    ref, _ = lqt.riccati_backward(p)
    values, _ = lqt.parallel_backward(p)
    assert max_value_dev(values, ref) <= 1e-9

    # the printed variant drops the XT factor in the terminal eta: it must
    # visibly deviate from the Riccati values
    elems = make_lqt_elements(p)
    bad_term = LqtElement(
        A=elems[-1].A, b=elems[-1].b, C=elems[-1].C,
        eta=p.HT.T @ p.rT, J=elems[-1].J,
    )
    out, _ = par_scan(elems[:-1] + [bad_term], combine_lqt, REV)
    bad_values = lqt.QuadValue(np.stack([e.J for e in out]), np.stack([e.eta for e in out]))
    assert max_value_dev(bad_values, ref) > 1e-3
