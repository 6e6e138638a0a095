"""Finite-state DP tests: element construction, min-plus algebra, oracle
agreement (scan vs Bellman vs brute force), trajectory recovery, file I/O."""

import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tempo_dp import finite_dp as fd
from tempo_dp.errors import SolverError
from tempo_dp.scan import ScanDirection, ScanStats, par_scan, par_scan_stacked, seq_scan

from helpers import (
    enumerate_conditional,
    enumeration_oracle,
    min_plus_identity,
    min_plus_loops,
    random_finite_problem,
    unique_optimal_trajectory,
)


def with_terminal(p):
    """build_elements plus the terminal costs as a last element, ell_T
    broadcast over the second argument: the stack of the plain backward
    scan, whose suffixes have identical columns."""
    term = np.repeat(p.ell_T[None, :, None], p.D_x, axis=2)
    return np.concatenate([fd.build_elements(p), term])


def two_state_problem():
    # f(x, u) = u: controls select the next state directly
    f = np.array([[[0, 1], [0, 1]]])
    ell = np.array([[[0.0, 5.0], [3.0, 1.0]]])
    return fd.FiniteProblem(D_x=2, D_u=2, S=0, T=1, f=f, ell=ell, ell_T=[0.0, 0.0], x_S=0)


class TestFiniteProblem:
    def test_integer_costs_cast_to_float(self):
        p = fd.FiniteProblem(
            D_x=2, D_u=2, S=0, T=1, f=[[[0, 1], [0, 1]]], ell=[[[0, 5], [3, 1]]], ell_T=[0, 2], x_S=0,
        )
        assert p.ell.dtype == p.ell_T.dtype == np.float64
        np.testing.assert_array_equal(p.ell, two_state_problem().ell)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("name", ["ell", "ell_T"])
    def test_nan_or_negative_inf_rejected(self, name, bad):
        p = two_state_problem()
        costs = {"ell": p.ell.copy(), "ell_T": p.ell_T.copy()}
        costs[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{name} holds NaN or -inf"):
            fd.FiniteProblem(D_x=2, D_u=2, S=0, T=1, f=p.f, x_S=0, **costs)


    @pytest.mark.parametrize(
        "name,shape",
        [("f", (1, 3, 4)), ("ell", (1, 3, 4)), ("ell", (2, 4, 3)), ("ell_T", (2, 2)), ("ell_T", (3,))],
        ids=["f-transposed", "ell-transposed", "ell-extra-step", "ell_T-square", "ell_T-short"],
    )
    def test_mis_shaped_table_rejected(self, name, shape):
        # D_x = 4, D_u = 3, N = 1: a (1, 3, 4) or (2, 2) table has the
        # declared size, and a reshape would read it scrambled
        tables = {"f": np.zeros((1, 4, 3), dtype=np.int64), "ell": np.zeros((1, 4, 3)), "ell_T": np.zeros(4)}
        tables[name] = np.zeros(shape, dtype=tables[name].dtype)
        with pytest.raises(ValueError, match=rf"^{name} has shape {re.escape(str(shape))}, expected"):
            fd.FiniteProblem(D_x=4, D_u=3, S=0, T=1, x_S=0, **tables)

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", None])
    @pytest.mark.parametrize("name", ["D_x", "D_u", "S", "T", "x_S"])
    def test_non_integer_field_rejected(self, name, value):
        fields = dict(D_x=2, D_u=2, S=0, T=1, x_S=0)
        fields[name] = value
        p = two_state_problem()
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            fd.FiniteProblem(f=p.f, ell=p.ell, ell_T=p.ell_T, **fields)

    @pytest.mark.parametrize("f", [[[[1.7], [0.2]]], [[[1.0], [0.0]]], [[["1"], ["0"]]]],
                             ids=["fractional", "integral-float", "string"])
    def test_non_integer_next_states_rejected(self, f):
        # an int64 cast would store 1.7 as 1 and parse "1" as 1
        with pytest.raises(ValueError, match=r"^f must hold integers, got "):
            fd.FiniteProblem(D_x=2, D_u=1, S=0, T=1, f=f, ell=[[[0.0], [0.0]]], ell_T=[0.0, 0.0], x_S=0)

    @pytest.mark.parametrize(
        "name, value",
        [("ell", [[["5"], ["1e300000"]]]), ("ell_T", ["0", " 1.5 "]), ("ell", [[["inf"], [0.0]]]),
         ("ell", [[[True], [False]]]), ("ell_T", [None, 0.0])],
        ids=["numeric-strings", "padded-strings", "inf-string", "booleans", "none"],
    )
    def test_non_numeric_costs_rejected(self, name, value):
        # a float64 cast would parse "1e300000" as inf and " 1.5 " as 1.5,
        # where problem files admit no string but "inf"
        tables = {"ell": [[[0.0], [0.0]]], "ell_T": [0.0, 0.0], name: value}
        with pytest.raises(ValueError, match=rf"^{name} must hold numbers, got "):
            fd.FiniteProblem(D_x=2, D_u=1, S=0, T=1, f=[[[1], [0]]], x_S=0, **tables)

    def test_numpy_integers_stored_as_int(self):
        p = two_state_problem()
        q = fd.FiniteProblem(D_x=np.int64(2), D_u=np.int32(2), S=np.int64(0), T=np.uint8(1), f=p.f, ell=p.ell,
                             ell_T=p.ell_T, x_S=np.int16(1))
        for name in ("D_x", "D_u", "S", "T", "x_S"):
            assert type(getattr(q, name)) is int
        json.dumps(fd.problem_to_dict(q))  # numpy integers would not serialize

    @pytest.mark.parametrize(
        "change, match",
        [({"S": 2}, "^need T >= S$"),
         ({"f": [[[0, 2], [0, 1]]]}, "^next-state table entries out of range$"),
         ({"f": [[[0, 1], [-1, 1]]]}, "^next-state table entries out of range$"),
         ({"x_S": 2}, "^initial state out of range$"),
         ({"x_S": -1}, "^initial state out of range$"),
         ({"ell_T": [np.inf, np.inf]}, "^terminal cost must be finite for at least one state$")],
        ids=["T-before-S", "f-above", "f-below", "x_S-above", "x_S-below", "ell_T-all-inf"],
    )
    def test_out_of_range_rejected(self, change, match):
        p = two_state_problem()
        fields = dict(D_x=2, D_u=2, S=0, T=1, f=p.f, ell=p.ell, ell_T=p.ell_T, x_S=0)
        with pytest.raises(ValueError, match=match):
            fd.FiniteProblem(**{**fields, **change})

    @pytest.mark.parametrize("D_u", [0, -1])
    def test_no_controls_rejected(self, D_u):
        for T in (0, 1):
            with pytest.raises(ValueError, match=rf"D_u >= 1 .* D_u = {D_u}$"):
                fd.FiniteProblem(
                    D_x=2, D_u=D_u, S=0, T=T, f=np.zeros((T, 2, 0), dtype=np.int64),
                    ell=np.zeros((T, 2, 0)), ell_T=[0.0, 1.0], x_S=0,
                )


class TestBuildElements:
    def test_controls_select_next_state(self):
        elems = fd.build_elements(two_state_problem())
        np.testing.assert_array_equal(elems[0], [[0.0, 5.0], [3.0, 1.0]])

    def test_frozen_state_dynamics(self):
        # controls never move the state: off-diagonal entries unreachable
        f = np.zeros((1, 3, 2), dtype=int)
        f[0] = np.arange(3)[:, None]
        ell = np.ones((1, 3, 2))
        p = fd.FiniteProblem(D_x=3, D_u=2, S=0, T=1, f=f, ell=ell, ell_T=np.zeros(3), x_S=0)
        V = fd.build_elements(p)[0]
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.isinf(V[off]))
        np.testing.assert_array_equal(np.diag(V), [1, 1, 1])

    def test_stage_matrices_only(self):
        # the terminal costs are the backward scan's start, not an element
        p = fd.FiniteProblem(
            D_x=2, D_u=1, S=0, T=0, f=np.zeros((0, 2, 1), dtype=int),
            ell=np.zeros((0, 2, 1)), ell_T=[7.0, 9.0], x_S=0,
        )
        assert fd.build_elements(p).shape == (0, 2, 2)
        assert fd.build_elements(two_state_problem()).shape == (1, 2, 2)

    def test_duplicate_targets_take_min(self):
        f = np.array([[[1, 1], [0, 0]]])
        ell = np.array([[[4.0, 2.0], [8.0, 6.0]]])
        p = fd.FiniteProblem(D_x=2, D_u=2, S=0, T=1, f=f, ell=ell, ell_T=[0.0, 0.0], x_S=0)
        V = fd.build_elements(p)[0]
        assert V[0, 1] == 2.0 and V[1, 0] == 6.0
        assert np.isinf(V[0, 0]) and np.isinf(V[1, 1])


    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_matches_triple_loop(self, dtype):
        # integer cost tables are cast to float64; only float ones hold +inf
        rng = np.random.default_rng(20)
        D_x, D_u, N = 4, 3, 6
        f = rng.integers(0, D_x, size=(N, D_x, D_u))
        f[2, 1] = [3, 3, 0]  # two controls reach state 3 from x = 1 at k = 2
        ell = rng.integers(0, 10, size=(N, D_x, D_u)).astype(dtype)
        ell[2, 1] = [7, 5, 1]
        if dtype is np.float64:
            ell[4, 2] = np.inf  # every control infeasible from x = 2 at k = 4
        ell_T = rng.integers(0, 10, size=D_x).astype(dtype)
        p = fd.FiniteProblem(D_x=D_x, D_u=D_u, S=0, T=N, f=f, ell=ell, ell_T=ell_T, x_S=0)
        ref = np.full((N, D_x, D_x), np.inf)
        for k in range(N):
            for x in range(D_x):
                for u in range(D_u):
                    ref[k, x, f[k, x, u]] = min(ref[k, x, f[k, x, u]], ell[k, x, u])
        V = fd.build_elements(p)
        assert V.dtype == np.float64 and V.shape == (N, D_x, D_x)
        np.testing.assert_array_equal(V, ref)
        assert V[2, 1, 3] == 5
        assert np.all(np.isinf(V[4, 2])) == (dtype is np.float64)


class TestCombineMinPlus:
    def test_worked_example(self):
        a = np.array([[0.0, 5.0], [3.0, 1.0]])
        out = fd.min_plus_matmul(a, a)
        np.testing.assert_array_equal(out, [[0.0, 5.0], [3.0, 2.0]])

    def test_identity(self):
        a = np.array([[2.0, np.inf], [0.0, 7.0]])
        ident = min_plus_identity(2)
        np.testing.assert_array_equal(fd.min_plus_matmul(a, ident), a)
        np.testing.assert_array_equal(fd.min_plus_matmul(ident, a), a)

    def test_inf_row_propagates(self):
        a = np.array([[np.inf, np.inf], [1.0, 2.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = fd.min_plus_matmul(a, b)
        assert np.all(np.isinf(out[0]))

    def test_dimension_mismatch(self):
        a = np.zeros((2, 2))
        b = np.zeros((3, 3))
        with pytest.raises(ValueError, match="inner dimensions must agree"):
            fd.min_plus_matmul(a, b)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_pinned_row_is_row_of_product(self, dtype):
        # forward_conditional's prefixes are (1, D) rows
        rng = np.random.default_rng(1)
        a = random_cost_stack(rng, (6, 6), dtype)
        b = random_cost_stack(rng, (6, 6), dtype)
        full = fd.min_plus_matmul(a, b)
        for x in range(6):
            row = fd.min_plus_matmul(a[x][None], b)
            assert row.shape == (1, 6)
            assert row.tobytes() == full[x : x + 1].tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_associativity_exact(self, dtype):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c = (random_cost_stack(rng, (4, 4), dtype) for _ in range(3))
            lhs = fd.min_plus_matmul(fd.min_plus_matmul(a, b), c)
            rhs = fd.min_plus_matmul(a, fd.min_plus_matmul(b, c))
            np.testing.assert_array_equal(lhs, rhs)


def random_cost_stack(rng, shape, dtype=np.float64, inf_frac=0.3):
    """float64 costs with an ``inf_frac`` of +inf entries, drawn as
    integers (int64) or as eighths (float64). Sums of either are exact, so
    min-plus products of them are exactly associative."""
    V = rng.integers(0, 40, size=shape) / (1 if dtype is np.int64 else 8)
    V[rng.random(size=shape) < inf_frac] = np.inf
    return V


class TestMinPlusMatmul:
    """The blocked kernel against an explicit triple loop, exact equality."""

    D = 31
    c = fd._MIN_PLUS_BUDGET // D**3  # products per batch block at D = 31

    def test_two_dimensional(self):
        rng = np.random.default_rng(1)
        A, B = random_cost_stack(rng, (6, 6)), random_cost_stack(rng, (6, 6))
        np.testing.assert_array_equal(fd.min_plus_matmul(A, B), min_plus_loops(A, B))

    @pytest.mark.parametrize("which", ["1", "c-1", "c", "c+1", "2c+3"])
    def test_batch_around_block_size(self, which):
        assert self.c >= 2
        n = {"1": 1, "c-1": self.c - 1, "c": self.c, "c+1": self.c + 1, "2c+3": 2 * self.c + 3}[which]
        rng = np.random.default_rng(n)
        A = random_cost_stack(rng, (n, self.D, self.D))
        B = random_cost_stack(rng, (n, self.D, self.D))
        np.testing.assert_array_equal(fd.min_plus_matmul(A, B), min_plus_loops(A, B))

    def test_non_square(self):
        rng = np.random.default_rng(2)
        A, B = random_cost_stack(rng, (3, 5, 7)), random_cost_stack(rng, (3, 7, 2))
        out = fd.min_plus_matmul(A, B)
        assert out.shape == (3, 5, 2)
        np.testing.assert_array_equal(out, min_plus_loops(A, B))

    # the last two: batch axes must be equal, they do not broadcast
    @pytest.mark.parametrize(
        "shapes", [((2, 3, 4), (2, 3, 4)), ((3, 0), (0, 3)), ((2, 3, 4), (4, 5)), ((1, 3, 4), (2, 4, 5))]
    )
    def test_inner_dimension_rejected(self, shapes):
        with pytest.raises(ValueError, match="inner dimensions"):
            fd.min_plus_matmul(np.zeros(shapes[0]), np.zeros(shapes[1]))

    def test_strided_views(self):
        # the scan's operands: even/odd slots of a stack, and a flipped stack
        m = self.c + 3
        rng = np.random.default_rng(3)
        S = random_cost_stack(rng, (2 * m, self.D, self.D))
        for X in (S, np.flip(S, axis=0)):
            a, b = X[0 : 2 * m : 2], X[1 : 2 * m : 2]
            np.testing.assert_array_equal(fd.min_plus_matmul(a, b), min_plus_loops(a, b))
            np.testing.assert_array_equal(fd.min_plus_matmul(b, a), min_plus_loops(b, a))

    @pytest.mark.parametrize("batch", [(), (2,)])
    def test_blocks_over_z_above_budget(self, batch):
        D = 70
        assert D**3 > fd._MIN_PLUS_BUDGET
        rng = np.random.default_rng(4)
        A, B = random_cost_stack(rng, batch + (D, D)), random_cost_stack(rng, batch + (D, D))
        np.testing.assert_array_equal(fd.min_plus_matmul(A, B), min_plus_loops(A, B))

    def test_float_inf_rows_and_columns(self):
        rng = np.random.default_rng(6)
        A, B = random_cost_stack(rng, (4, 8, 8)), random_cost_stack(rng, (4, 8, 8))
        A[:, 2, :] = np.inf
        B[:, :, 5] = np.inf
        out = fd.min_plus_matmul(A, B)
        np.testing.assert_array_equal(out, min_plus_loops(A, B))
        assert np.all(np.isinf(out[:, 2, :])) and np.all(np.isinf(out[:, :, 5]))

    @pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
    def test_one_row(self, batch):
        # the forward scan's (1, D_x) prefix rows: batched and unbatched
        rng = np.random.default_rng(10 + len(batch))
        A = random_cost_stack(rng, batch + (1, self.D))
        B = random_cost_stack(rng, batch + (self.D, 7))
        out = fd.min_plus_matmul(A, B)
        assert out.shape == batch + (1, 7)
        np.testing.assert_array_equal(out, min_plus_loops(A, B))

    def test_one_row_equals_general_path_bitwise(self):
        # sums of arbitrary floats round, and the one-row path rounds them
        # as the general path does: row 0 of a two-row product
        rng = np.random.default_rng(11)
        A = rng.normal(size=(4, 2, self.D)) * 10.0 ** rng.integers(-8, 8, size=(4, 2, self.D))
        B = rng.normal(size=(4, self.D, self.D)) * 10.0 ** rng.integers(-8, 8, size=(4, self.D, self.D))
        out = fd.min_plus_matmul(A[:, :1], B)
        assert out.tobytes() == fd.min_plus_matmul(A, B)[:, :1].tobytes()
        np.testing.assert_array_equal(out, min_plus_loops(A[:, :1], B))

    def test_one_row_inf(self):
        rng = np.random.default_rng(12)
        A = random_cost_stack(rng, (4, 1, 8))
        B = random_cost_stack(rng, (4, 8, 8))
        A[1] = np.inf  # a row that reaches nothing
        B[:, :, 5] = np.inf
        B[2, 3, :] = np.inf
        out = fd.min_plus_matmul(A, B)
        np.testing.assert_array_equal(out, min_plus_loops(A, B))
        assert np.all(np.isinf(out[1])) and np.all(np.isinf(out[:, :, 5]))

    def test_one_row_strided_views(self):
        # rows cut from a stack's strided slots, and a flipped stack
        m = 9
        rng = np.random.default_rng(13)
        S = random_cost_stack(rng, (2 * m, self.D, self.D))
        for X in (S, np.flip(S, axis=0)):
            a, b = X[0 : 2 * m : 2, 3:4], X[1 : 2 * m : 2]
            np.testing.assert_array_equal(fd.min_plus_matmul(a, b), min_plus_loops(a, b))
            row = X[1, ::-1][None, 4, ::2]  # a (1, 16) row with negative strides
            np.testing.assert_array_equal(fd.min_plus_matmul(row, X[0, ::2]), min_plus_loops(row, X[0, ::2]))

    @pytest.mark.parametrize("which", ["r", "r+1", "2r+3"])
    def test_one_row_batch_around_block_size(self, which):
        r = fd._MIN_PLUS_BUDGET // self.D**2  # one-row products per batch block
        assert r >= 2
        n = {"r": r, "r+1": r + 1, "2r+3": 2 * r + 3}[which]
        rng = np.random.default_rng(n)
        A = random_cost_stack(rng, (n, 1, self.D))
        B = random_cost_stack(rng, (n, self.D, self.D))
        np.testing.assert_array_equal(fd.min_plus_matmul(A, B), min_plus_loops(A, B))

    def test_temporaries_bounded(self):
        rng = np.random.default_rng(7)
        A = rng.random((256, self.D, self.D))
        B = rng.random((256, self.D, self.D))
        tracemalloc.start()
        try:
            out = fd.min_plus_matmul(A, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * fd._MIN_PLUS_BUDGET * out.itemsize


class TestSuffixFill:
    """solve_backward's start is the one-column matrix ell_T[:, None], so its
    down-sweep takes min_plus_matmul's one-column case, which equals the
    general product on the suffix it stands for (identical columns) bit for
    bit, inf rows and columns included; and the scan from ell_T[:, None]
    equals the plain scan with the terminal matrix as its last element."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_equals_full_product(self, dtype):
        rng = np.random.default_rng(9)
        E = random_cost_stack(rng, (5, 9, 9), dtype)
        E[:, 3, :] = np.inf
        E[:, :, 6] = np.inf
        v = random_cost_stack(rng, (5, 9, 1), dtype)
        v[:, 1] = np.inf
        full = fd.min_plus_matmul(E, np.repeat(v, 9, axis=2))
        col = fd.min_plus_matmul(E, v)
        assert col.shape == (5, 9, 1)
        assert np.broadcast_to(col, full.shape).tobytes() == full.tobytes()
        assert np.all(col[:, 3] == np.inf)
        np.testing.assert_array_equal(col, min_plus_loops(E, v))

    def test_blocks_over_batch(self):
        # 64 products of D = 64 fill the budget, so 131 run in three blocks
        D = 64
        n = 2 * (fd._MIN_PLUS_BUDGET // D**2) + 3
        rng = np.random.default_rng(13)
        E = random_cost_stack(rng, (n, D, D))
        v = random_cost_stack(rng, (n, D, 1))
        col = fd.min_plus_matmul(E[::-1], v[::-1])  # REVERSE hands in flipped views
        full = fd.min_plus_matmul(E[::-1], np.repeat(v[::-1], 2, axis=2))
        assert col.tobytes() == full[:, :, :1].copy().tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_scan_with_fill_matches_scan_without(self, dtype):
        rng = np.random.default_rng(10)
        p = random_finite_problem(rng, D_x=5, D_u=3, N=37, dtype=dtype, inf_frac=0.3)
        (suffix,), full_stats = par_scan_stacked(
            (with_terminal(p),), lambda a, b: (fd.min_plus_matmul(a[0], b[0]),), ScanDirection.REVERSE
        )
        assert np.all(suffix == suffix[:, :, :1])  # identical columns
        pol, stats = fd.solve_backward(p, return_stats=True)
        assert pol.V.tobytes() == suffix[:, :, 0].tobytes()
        assert stats == full_stats


class TestMapFill:
    """recover_traj_m1 starts from [x_S], the map from a one-point set, whose
    composition with a map equals the full composition with the constant
    map it stands for; and the scan from it equals the plain scan with that
    constant map as its first element."""

    def test_equals_full_compose(self):
        rng = np.random.default_rng(11)
        a = np.repeat(rng.integers(0, 9, size=(5, 1)), 9, axis=1)  # constant maps
        b = rng.integers(0, 9, size=(5, 9))
        (full,) = fd._compose_maps((a,), (b,))
        (ent,) = fd._compose_maps((a[:, :1],), (b,))
        assert ent.shape == (5, 1)
        np.testing.assert_array_equal(np.broadcast_to(ent, full.shape), full)
        np.testing.assert_array_equal(ent[:, 0], b[np.arange(5), a[:, 0]])

    @pytest.mark.parametrize("N", [0, 1, 2, 37])
    def test_scan_with_fill_matches_scan_without(self, N):
        rng = np.random.default_rng(12)
        maps = rng.integers(0, 7, size=(N, 7))
        start = np.full((1, 7), 3)  # the constant map at start state 3
        (full,), full_stats = par_scan_stacked(
            (np.concatenate([start, maps]),), fd._compose_maps, ScanDirection.FORWARD
        )
        (states,), stats = par_scan_stacked(
            (maps,), fd._compose_maps, ScanDirection.FORWARD, start=(start[0, :1],)
        )
        assert states.shape == (N + 1, 1)
        assert states.tobytes() == full[:, :1].copy().tobytes()
        assert stats == full_stats
        p = fd.FiniteProblem(
            D_x=7, D_u=1, S=0, T=N, f=maps[:, :, None], ell=np.zeros((N, 7, 1)), ell_T=np.zeros(7), x_S=3
        )
        assert fd.recover_traj_m1(p, fd.seq_bellman(p)).tobytes() == full[:, 0].tobytes()


def gather_problem(rng, D_x, D_u, N, costs):
    """Random tables where control 1 often reaches control 0's next state
    (duplicate next states), 30% of moves but control 0's forbidden, and
    integer, eighth or arbitrary float costs."""
    f = rng.integers(0, D_x, size=(N, D_x, D_u))
    if D_u > 1:
        f[..., 1] = np.where(rng.random((N, D_x)) < 0.5, f[..., 0], f[..., 1])
    shape = (N, D_x, D_u)
    ell = {
        "integer": lambda: rng.integers(0, 10, size=shape).astype(float),
        "eighths": lambda: rng.integers(0, 80, size=shape) / 8,
        "float": lambda: rng.uniform(0.0, 10.0, size=shape),
    }[costs]()
    forbidden = rng.random(shape) < 0.3
    forbidden[..., 0] = False
    ell[forbidden] = np.inf
    return fd.FiniteProblem(
        D_x=D_x, D_u=D_u, S=0, T=N, f=f, ell=ell, ell_T=rng.integers(0, 10, size=D_x) / 4,
        x_S=int(rng.integers(0, D_x)),
    )


def dense_backward(p):
    """solve_backward's scan over the dense stage matrices alone."""
    (V,), stats = par_scan_stacked(
        (fd.build_elements(p),),
        lambda a, b: (fd.min_plus_matmul(a[0], b[0]),),
        ScanDirection.REVERSE,
        start=(p.ell_T[:, None],),
    )
    return V[:, :, 0], stats


def dense_forward(p):
    """forward_conditional's association over the dense stage matrices
    alone: dense pairs E_2j (x) E_2j+1, the object scan over them from row
    x_S of the first pair, then each odd row r_2j+1 = r_2j (x) E_2j from
    r_0, the row that is 0 at x_S."""
    E = fd.build_elements(p)
    m = p.N // 2
    rows = np.full((p.N + 1, 1, p.D_x), np.inf)
    rows[0, 0, p.x_S] = 0.0
    if m:
        P = fd.min_plus_matmul(E[0 : 2 * m : 2], E[1 : 2 * m : 2])
        prefix, _ = par_scan([P[0, p.x_S][None], *P[1:]], fd.min_plus_matmul, ScanDirection.FORWARD)
        rows[2::2] = prefix
    rows[1::2] = fd.min_plus_matmul(rows[: p.N : 2], E[::2])
    return rows[1:, 0]


@pytest.fixture
def spies(monkeypatch):
    """Operand shapes of every min_plus_matmul and _gather_min_plus call."""
    calls = {"dense": [], "gather": []}
    dense, gather = fd.min_plus_matmul, fd._gather_min_plus

    def spy_dense(A, B):
        calls["dense"].append((A.shape, B.shape))
        return dense(A, B)

    def spy_gather(f, ell, B):
        calls["gather"].append((f.shape, B.shape))
        return gather(f, ell, B)

    monkeypatch.setattr(fd, "min_plus_matmul", spy_dense)
    monkeypatch.setattr(fd, "_gather_min_plus", spy_gather)
    return calls


class TestStageGather:
    """With D_u < D_x a stage element carries its tables, and a product
    with it on the left gathers D_u rows of the right operand. That equals
    the dense min-plus product bit for bit, so every scan output equals
    the dense scans' and, for sums without rounding, Bellman's."""

    @pytest.mark.parametrize("costs", ["integer", "eighths", "float"])
    @pytest.mark.parametrize("Y", [1, 4, 9])
    def test_equals_dense_product(self, costs, Y):
        rng = np.random.default_rng(Y)
        p = gather_problem(rng, D_x=9, D_u=3, N=6, costs=costs)
        E = fd.build_elements(p)
        B = random_cost_stack(rng, (6, 9, Y))
        if costs == "float":
            B[B < np.inf] = rng.uniform(0.0, 10.0, size=int((B < np.inf).sum()))
        out = fd._gather_min_plus(p.f, p.ell, B)
        assert out.shape == (6, 9, Y)
        assert out.tobytes() == fd.min_plus_matmul(E, B).tobytes()
        np.testing.assert_array_equal(out, min_plus_loops(E, B))
        single = fd._gather_min_plus(p.f[2], p.ell[2], B[2])  # the object scan's unbatched operands
        assert single.tobytes() == out[2].tobytes()
        flipped = fd._gather_min_plus(p.f[::-2], p.ell[::-2], B[::-2])  # strided views
        assert flipped.tobytes() == out[::-2].tobytes()

    def test_duplicate_next_states_take_min(self):
        # both controls of state 0 reach state 1; the cheaper one counts
        f = np.array([[[1, 1], [0, 1], [2, 0]]])
        ell = np.array([[[5.0, 2.0], [np.inf, 1.0], [3.0, np.inf]]])
        B = np.array([[[0.0, 1.0], [10.0, np.inf], [4.0, 4.0]]])
        np.testing.assert_array_equal(
            fd._gather_min_plus(f, ell, B), [[[12.0, np.inf], [11.0, np.inf], [7.0, 7.0]]]
        )

    @pytest.mark.parametrize("costs", ["integer", "eighths", "float"])
    @pytest.mark.parametrize("D_x, D_u, widths", [(19, 3, [9]), (40, 2, [4, 16])])
    def test_composed_tables_equal_dense_product(self, D_x, D_u, widths, costs):
        # up the tree from the stage elements: a product of two elements with
        # tables keeps f_b[f_a] and ell_a + ell_b[f_a] while 2W < D_x, and a
        # gather from them equals the dense product with B bit for bit
        rng = np.random.default_rng(D_x)
        p = gather_problem(rng, D_x=D_x, D_u=D_u, N=8, costs=costs)
        level, dense = fd._stage_elements(p), fd.build_elements(p)
        kept = []
        while len(level) == 3 and len(dense) > 1:
            a, b = (tuple(x[i::2] for x in level) for i in (0, 1))
            level, dense = fd._combine(a, b), fd.min_plus_matmul(dense[0::2], dense[1::2])
            assert level[0].tobytes() == dense.tobytes()
            single = fd._combine(tuple(x[-1] for x in a), tuple(x[-1] for x in b))  # the object scan's operands
            flipped = fd._combine(tuple(x[::-2] for x in a), tuple(x[::-2] for x in b))  # strided views
            assert len(single) == len(flipped) == len(level)
            if len(level) == 1:
                break
            kept.append(level[1].shape[-1])
            f, ell = level[1:]
            assert np.isinf(ell).any()  # forbidden moves
            assert (np.sort(f, axis=-1)[..., 1:] == np.sort(f, axis=-1)[..., :-1]).any()  # repeated next states
            B = random_cost_stack(rng, (len(dense), D_x, 5))
            if costs == "float":
                B[B < np.inf] = rng.uniform(0.0, 10.0, size=int((B < np.inf).sum()))
            out = fd._gather_min_plus(f, ell, B)
            assert out.tobytes() == fd.min_plus_matmul(dense, B).tobytes()
            assert fd._gather_min_plus(single[1], single[2], B[-1]).tobytes() == out[-1].tobytes()
            assert fd._gather_min_plus(flipped[1], flipped[2], B[::-2]).tobytes() == out[::-2].tobytes()
        assert kept == widths

    @pytest.mark.parametrize("D_x, kept", [(31, True), (15, False)])
    def test_tables_kept_below_half_the_states(self, D_x, kept):
        # two stage elements of D_u = 3 controls compose to width 9
        from tempo_dp.scenarios import build_routing

        stage = fd._stage_elements(build_routing(D_x, 8, seed=1))
        pairs = fd._combine(*(tuple(x[i::2] for x in stage) for i in (0, 1)))
        assert len(pairs) == (3 if kept else 1)
        if kept:
            assert pairs[1].shape == pairs[2].shape == (4, 31, 9)
            assert len(fd._combine(*(tuple(x[i::2] for x in pairs) for i in (0, 1)))) == 1  # width 81

    @pytest.mark.parametrize("costs", ["integer", "eighths", "float"])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5, 37, 64, 65])
    def test_scans_equal_dense_scans_and_bellman(self, N, costs):
        # D_x = 6: no product keeps tables; 19: level-1 nodes keep width
        # D_u² = 9; 40: level-2 nodes too, width 16, composed from composed
        rng = np.random.default_rng(N)
        for D_x, D_u in [(6, 3), (19, 3), (40, 2)]:
            p = gather_problem(rng, D_x=D_x, D_u=D_u, N=N, costs=costs)
            V, stats = dense_backward(p)
            pol, got_stats = fd.solve_backward(p, return_stats=True)
            assert pol.V.tobytes() == V.tobytes()
            assert got_stats == stats
            fw = fd.forward_conditional(p)
            assert fw.tobytes() == dense_forward(p).tobytes()
            if costs == "float":
                continue
            # exact sums: no reordering-sensitive rounding
            ref = fd.seq_bellman(p)
            np.testing.assert_array_equal(pol.V, ref.V)
            np.testing.assert_array_equal(pol.u, ref.u)
            E = fd.build_elements(p)
            rows, _ = seq_scan([E[0, p.x_S][None], *E[1:]], min_plus_loops) if N else ([], None)
            np.testing.assert_array_equal(fw, np.reshape(rows, (N, D_x)))
            for k in range(1, min(N, 5) + 1):  # odd rows 1, 3, 5 and even rows 2, 4
                np.testing.assert_array_equal(fw[k - 1], enumerate_conditional(p, k))
            xs, _ = fd.rollout_policy(p, ref)
            np.testing.assert_array_equal(fd.solve(p, "parallel", 1)[0], xs)
            xs2, us2, _ = fd.solve(p, "parallel", 2)
            assert (us2 >= 0).all() and fd.trajectory_cost(p, xs2, us2) == ref.V[0, p.x_S]
            if ((fw + ref.V[1:] == ref.V[0, p.x_S]).sum(axis=1) == 1).all():  # one optimal path
                np.testing.assert_array_equal(xs2, xs)

    @pytest.mark.parametrize("D_u", [5, 7])
    def test_dense_path_when_controls_cover_states(self, D_u, spies):
        p = gather_problem(np.random.default_rng(D_u), D_x=5, D_u=D_u, N=13, costs="integer")
        pol = fd.solve_backward(p)
        fw = fd.forward_conditional(p)
        assert spies["gather"] == [] and spies["dense"]
        np.testing.assert_array_equal(pol.V, fd.seq_bellman(p).V)
        assert fw.tobytes() == dense_forward(p).tobytes()

    @pytest.mark.parametrize("budget", [4 * 8 * 3 * 8, 2 * 8 * 8, 1], ids=["batch-blocks", "u-blocks", "one"])
    def test_blocked_gathers_equal(self, budget, monkeypatch, spies):
        # level 0 of the up-sweep pairs 20 of the 41 stage elements; at 4
        # products of 8x3x8 sums per block that batch splits in five, at two
        # (x, y) slabs per block the three controls split in two
        p = gather_problem(np.random.default_rng(3), D_x=8, D_u=3, N=41, costs="eighths")
        V, stats = dense_backward(p)
        fw = dense_forward(p)
        monkeypatch.setattr(fd, "_MIN_PLUS_BUDGET", budget)
        pol, got_stats = fd.solve_backward(p, return_stats=True)
        assert ((20, 8, 3), (20, 8, 8)) in spies["gather"]
        assert pol.V.tobytes() == V.tobytes() and got_stats == stats
        assert fd.forward_conditional(p).tobytes() == fw.tobytes()
        np.testing.assert_array_equal(pol.V, fd.seq_bellman(p).V)

    def test_level_zero_never_dense(self, spies):
        from tempo_dp.scenarios import build_routing

        p = build_routing(31, 500, seed=2)
        pol, stats = fd.solve_backward(p, return_stats=True)
        # levels 0 and 1 of the up-sweep and of the down-sweep gather, from
        # the stage tables and from the level-1 nodes' composed tables of
        # width 9; from level 2 up the products are dense
        assert spies["gather"] == [
            ((250, 31, 3), (250, 31, 31)),
            ((125, 31, 9), (125, 31, 31)),
            ((125, 31, 9), (125, 31, 1)),
            ((250, 31, 3), (250, 31, 1)),
        ]
        assert not [c for c in spies["dense"] if c[0][0] in (250, 125)]
        spies["dense"].clear()
        spies["gather"].clear()
        fw = fd.forward_conditional(p)
        # one batched gather forms the 250 pairs with their tables; the
        # object scan over them pairs the 249 after the pinned row, 124 by
        # gathers on its level 0 and 119 dense above, and its down-sweep
        # makes 249 one-row products; one batched one-row product forms
        # the 250 odd rows
        assert spies["gather"] == [((250, 31, 3), (250, 31, 31))] + [((31, 9), (31, 31))] * 124
        assert Counter(spies["dense"]) == {
            ((1, 31), (31, 31)): 249, ((31, 31), (31, 31)): 119, ((250, 1, 31), (250, 31, 31)): 1
        }
        V, dense_stats = dense_backward(p)
        assert stats == dense_stats
        assert pol.V.tobytes() == V.tobytes()
        assert fw.tobytes() == dense_forward(p).tobytes()


class TestSolve:
    """finite_dp.solve against the Bellman rollout, exactly, on integer
    and float cost tables."""

    @pytest.mark.parametrize("args, message", [
        (("gpu",), "unknown backend 'gpu'"),
        (("parallel", 3), "unknown trajectory method 3"),
        (("sequential", 0), "unknown trajectory method 0"),
    ])
    def test_unknown_backend_or_method(self, args, message):
        with pytest.raises(ValueError, match=message):
            fd.solve(two_state_problem(), *args)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("N", [0, 1, 9, 33])
    def test_matches_bellman_rollout(self, N, dtype):
        rng = np.random.default_rng(600 + N)
        p = random_finite_problem(rng, D_x=5, D_u=3, N=N, dtype=dtype, inf_frac=0.3)
        ref = fd.seq_bellman(p)
        xs_ref, us_ref = fd.rollout_policy(p, ref)
        xs, us, stats = fd.solve(p, "sequential")
        np.testing.assert_array_equal(xs, xs_ref)
        np.testing.assert_array_equal(us, us_ref)
        assert stats == ScanStats(N, N)
        _, back_stats = fd.solve_backward(p, return_stats=True)
        xs, us, stats = fd.solve(p, "parallel", 1)
        assert xs.dtype == us.dtype == np.int64
        np.testing.assert_array_equal(xs, xs_ref)
        np.testing.assert_array_equal(us, us_ref)
        assert stats == back_stats
        xs, us, stats = fd.solve(p, "parallel", 2)
        assert xs.shape == (N + 1,) and us.shape == (N,)
        assert fd.trajectory_cost(p, xs, us) == ref.V[0, p.x_S]
        assert stats == back_stats


    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("traj_method", [1, 2])
    def test_leaves_problem_unchanged(self, traj_method, dtype):
        # the backward scan starts from p.ell_T itself, so writing into its
        # start value would write into the problem
        p = random_finite_problem(np.random.default_rng(27), D_x=5, D_u=3, N=9, dtype=dtype, inf_frac=0.3)
        arrays = (p.f, p.ell, p.ell_T)
        before = [a.tobytes() for a in arrays]
        fd.solve(p, "parallel", traj_method)
        assert [a.tobytes() for a in arrays] == before


class TestBackwardSolvers:
    def test_single_step_bellman(self):
        p = two_state_problem()
        pol = fd.solve_backward(p)
        # V[S][x] = min_u ell(x, u) + ell_T[f(x, u)]
        np.testing.assert_array_equal(pol.V[0], [0.0, 1.0])
        np.testing.assert_array_equal(pol.u[0], [0, 1])

    def test_bellman_terminal_only(self):
        p = fd.FiniteProblem(
            D_x=3, D_u=2, S=0, T=0, f=np.zeros((0, 3, 2), dtype=int),
            ell=np.zeros((0, 3, 2)), ell_T=[4.0, 2.0, 8.0], x_S=1,
        )
        pol = fd.seq_bellman(p)
        np.testing.assert_array_equal(pol.V[0], [4.0, 2.0, 8.0])
        assert pol.u.shape == (0, 3)

    def test_two_step_hand_fold(self):
        # chain the combine example: V[S] = rowwise min of [[0,5],[3,2]] + ell_T
        f = np.array([[[0, 1], [0, 1]], [[0, 1], [0, 1]]])
        ell = np.array([[[0.0, 5.0], [3.0, 1.0]]] * 2)
        ell_T = np.array([10.0, 0.0])
        p = fd.FiniteProblem(D_x=2, D_u=2, S=0, T=2, f=f, ell=ell, ell_T=ell_T, x_S=0)
        pol = fd.seq_bellman(p)
        expected = np.min(np.array([[0.0, 5.0], [3.0, 2.0]]) + ell_T[None, :], axis=1)
        np.testing.assert_array_equal(pol.V[0], expected)

    @pytest.mark.parametrize("engine", ["stacked", "object"])
    @pytest.mark.parametrize("seed", range(8))
    def test_scan_matches_bellman(self, seed, engine):
        rng = np.random.default_rng(seed)
        p = random_finite_problem(rng, D_x=4, D_u=3, N=8)
        ref = fd.seq_bellman(p)
        if engine == "stacked":
            pol = fd.solve_backward(p)
        else:  # element algebra scanned as Python objects
            elems = list(with_terminal(p))
            out, _ = par_scan(elems, fd.min_plus_matmul, ScanDirection.REVERSE)
            V = np.stack([m[:, 0] for m in out])
            pol = fd.FinitePolicy(u=fd._policy_from_values(p, V), V=V)
        np.testing.assert_array_equal(pol.V, ref.V)
        np.testing.assert_array_equal(pol.u, ref.u)

    def test_routing_grid_matches_bellman(self):
        from tempo_dp.scenarios import build_routing

        p = build_routing(5, 16, seed=0)
        ref = fd.seq_bellman(p)
        pol = fd.solve_backward(p)
        np.testing.assert_array_equal(pol.V, ref.V)
        np.testing.assert_array_equal(pol.u, ref.u)
        xs, _ = fd.rollout_policy(p, ref)
        np.testing.assert_array_equal(fd.recover_traj_m1(p, pol), xs)
        fw = fd.forward_conditional(p)
        np.testing.assert_array_equal(fd.recover_traj_m2(p, fw, pol), xs)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = random_finite_problem(rng, D_x=4, D_u=3, N=8)
        pol = fd.solve_backward(p)
        cost, us, xs = fd.brute_force_oracle(p)
        assert cost == pol.V[0, p.x_S]

    def test_infeasible(self):
        f = np.zeros((1, 2, 1), dtype=int)
        ell = np.full((1, 2, 1), np.inf)
        p = fd.FiniteProblem(D_x=2, D_u=1, S=0, T=1, f=f, ell=ell, ell_T=[0.0, 0.0], x_S=0)
        with pytest.raises(SolverError, match="infeasible"):
            fd.solve_backward(p)
        with pytest.raises(SolverError, match="infeasible"):
            fd.seq_bellman(p)

    def test_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_finite_problem(rng, D_x=4, D_u=3, N=6, dtype=np.float64)
            base = fd.seq_bellman(p).V[0, p.x_S]
            k = int(rng.integers(0, p.N))
            x = int(rng.integers(0, p.D_x))
            u = int(rng.integers(0, p.D_u))
            ell2 = p.ell.copy()
            ell2[k, x, u] = max(0.0, ell2[k, x, u] - rng.uniform(0.5, 3.0))
            p2 = fd.FiniteProblem(
                D_x=p.D_x, D_u=p.D_u, S=p.S, T=p.T, f=p.f, ell=ell2,
                ell_T=p.ell_T, x_S=p.x_S,
            )
            assert fd.seq_bellman(p2).V[0, p.x_S] <= base


class TestForwardConditional:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("N", [0, 1, 7])
    def test_returns_stacked_array(self, N, dtype):
        rng = np.random.default_rng(N)
        p = random_finite_problem(rng, D_x=4, D_u=2, N=N, dtype=dtype, inf_frac=0.3)
        fw = fd.forward_conditional(p)
        assert isinstance(fw, np.ndarray)
        assert fw.shape == (N, 4) and fw.dtype == np.float64

    def test_first_entry_is_element_row(self):
        p = two_state_problem()
        fw = fd.forward_conditional(p)
        elem = fd.build_elements(p)[0]
        np.testing.assert_array_equal(fw[0], elem[p.x_S])

    def test_unique_path_chain(self):
        # deterministic cycle 0 -> 1 -> 0 with unit costs: running path cost
        f = np.array([[[1]], [[0]]]).repeat(2, axis=1).reshape(2, 2, 1)
        f[0, 0, 0], f[0, 1, 0] = 1, 0
        f[1, 0, 0], f[1, 1, 0] = 1, 0
        ell = np.ones((2, 2, 1))
        p = fd.FiniteProblem(D_x=2, D_u=1, S=0, T=2, f=f, ell=ell, ell_T=[0.0, 0.0], x_S=0)
        fw = fd.forward_conditional(p)
        np.testing.assert_array_equal(fw[0], [np.inf, 1.0])
        np.testing.assert_array_equal(fw[1], [2.0, np.inf])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = random_finite_problem(rng, D_x=4, D_u=2, N=6, dtype=np.float64)
        fw = fd.forward_conditional(p)
        for k in range(1, p.N + 1):
            np.testing.assert_array_equal(fw[k - 1], enumerate_conditional(p, k))


def tied_problem(seed):
    """A random problem whose integer costs in 0..2 and terminal costs in
    0..1 tie many optimal paths."""
    rng = np.random.default_rng(700 + seed)
    D_x, D_u, N = int(rng.integers(3, 12)), int(rng.integers(2, 4)), int(rng.integers(1, 30))
    return fd.FiniteProblem(D_x=D_x, D_u=D_u, S=0, T=N, f=rng.integers(0, D_x, (N, D_x, D_u)),
                            ell=rng.integers(0, 3, (N, D_x, D_u)), ell_T=rng.integers(0, 2, D_x), x_S=0)


class TestTrajectoryRecovery:
    def test_m1_identity_dynamics(self):
        f = np.zeros((3, 2, 2), dtype=int)
        f[:, 1, :] = 1
        ell = np.ones((3, 2, 2))
        p = fd.FiniteProblem(D_x=2, D_u=2, S=0, T=3, f=f, ell=ell, ell_T=[0.0, 0.0], x_S=1)
        pol = fd.solve_backward(p)
        np.testing.assert_array_equal(fd.recover_traj_m1(p, pol), [1, 1, 1, 1])

    def test_m1_two_state_swap(self):
        # the map (0 -> 1, 1 -> 0) applied twice from x_S = 0
        f = np.array([[[1]], [[0]]]).reshape(2, 1, 1).repeat(2, axis=1)
        f[:, 0, 0] = [1, 1]
        f[:, 1, 0] = [0, 0]
        ell = np.zeros((2, 2, 1))
        p = fd.FiniteProblem(D_x=2, D_u=1, S=0, T=2, f=f, ell=ell, ell_T=[0.0, 0.0], x_S=0)
        pol = fd.solve_backward(p)
        np.testing.assert_array_equal(fd.recover_traj_m1(p, pol), [0, 1, 0])

    @pytest.mark.parametrize("seed", range(6))
    def test_m1_matches_rollout(self, seed):
        rng = np.random.default_rng(300 + seed)
        p = random_finite_problem(rng, D_x=5, D_u=3, N=8)
        pol = fd.solve_backward(p)
        xs, _ = fd.rollout_policy(p, pol)
        np.testing.assert_array_equal(fd.recover_traj_m1(p, pol), xs)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_m2_infeasible_row(self, dtype):
        # a step whose forward costs are all infinite
        rng = np.random.default_rng(3)
        p = random_finite_problem(rng, D_x=4, D_u=2, N=5, dtype=dtype, inf_frac=0.3)
        pol = fd.solve_backward(p)
        fw = fd.forward_conditional(p)
        fw[2] = np.inf
        with pytest.raises(SolverError, match="infeasible"):
            fd.recover_traj_m2(p, fw, pol)

    def test_m2_unique_chain_endpoint(self):
        f = np.array([[[1, 1], [0, 0]]])
        ell = np.array([[[0.0, 5.0], [1.0, 1.0]]])
        p = fd.FiniteProblem(D_x=2, D_u=2, S=0, T=1, f=f, ell=ell, ell_T=[9.0, 0.0], x_S=0)
        pol = fd.solve_backward(p)
        fw = fd.forward_conditional(p)
        traj = fd.recover_traj_m2(p, fw, pol)
        assert traj[-1] == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_methods_agree_when_unique(self, seed):
        rng = np.random.default_rng(400 + seed)
        p = random_finite_problem(rng, D_x=4, D_u=3, N=6, cost_max=30)
        if not unique_optimal_trajectory(p):
            pytest.skip("optimum not unique; methods may legitimately differ")
        pol = fd.solve_backward(p)
        t1 = fd.recover_traj_m1(p, pol)
        t2 = fd.recover_traj_m2(p, fd.forward_conditional(p), pol)
        np.testing.assert_array_equal(t1, t2)
        _, _, xs, _ = enumeration_oracle(p)
        np.testing.assert_array_equal(t1, xs)

    def test_m2_crossing_ties_raise_and_solve_falls_back(self):
        # all stage costs 0, ell_T = [9, 9, 9, 0, 0]: step 0 sends state 0 to
        # 1 (u = 0) or 2 (u = 1), step 1 sends 1 to 4 and 2 to 3 under both
        # controls, every other state stays. The per-step minimizers of
        # Method 2 are 1 and then 3, which no control reaches from 1
        D_x, D_u, N = 5, 2, 2
        f = np.tile(np.arange(D_x)[:, None], (N, 1, D_u))
        f[0, 0] = [1, 2]
        f[1, 1] = [4, 4]
        f[1, 2] = [3, 3]
        p = fd.FiniteProblem(D_x=D_x, D_u=D_u, S=3, T=3 + N, f=f, ell=np.zeros((N, D_x, D_u)),
                             ell_T=[9, 9, 9, 0, 0], x_S=0)
        pol = fd.solve_backward(p)
        fw = fd.forward_conditional(p)
        np.testing.assert_array_equal(np.argmin(fw + pol.V[1:], axis=1), [1, 3])
        with pytest.raises(SolverError, match="^Method 2 states are no optimal path at step 4: "
                                              "no optimal control moves state 1 to 3"):
            fd.recover_traj_m2(p, fw, pol)
        xs_ref, us_ref, _ = fd.solve(p, "sequential")
        assert xs_ref.tolist() == [0, 1, 4]
        for traj_method in (1, 2):
            xs, us, stats = fd.solve(p, "parallel", traj_method)
            np.testing.assert_array_equal(xs, xs_ref)
            np.testing.assert_array_equal(us, us_ref)
            assert stats == fd.solve_backward(p, return_stats=True)[1]

    @pytest.mark.parametrize("seed", range(40))
    def test_tied_optima_give_optimal_paths(self, seed):
        # every result of both methods is a path, its controls move it, and
        # its cost is V[0, x_S] exactly. Whether Method 2 raised decides
        # which path the solve returns
        p = tied_problem(seed)
        N = p.N
        pol = fd.solve_backward(p)
        try:
            m2 = fd.recover_traj_m2(p, fd.forward_conditional(p), pol)
        except SolverError:
            m2 = None
        for traj_method in (1, 2):
            xs, us, _ = fd.solve(p, "parallel", traj_method)
            assert xs[0] == p.x_S
            np.testing.assert_array_equal(p.f[np.arange(N), xs[:-1], us], xs[1:])
            assert fd.trajectory_cost(p, xs, us) == pol.V[0, p.x_S]
            want = m2 if traj_method == 2 and m2 is not None else fd.recover_traj_m1(p, pol)
            np.testing.assert_array_equal(xs, want)

    def test_tied_sweep_exercises_both_outcomes(self):
        # the sweep above holds problems where Method 2's states are a path
        # and problems where they are not (28 of 40)
        raised = 0
        for seed in range(40):
            p = tied_problem(seed)
            try:
                fd.recover_traj_m2(p, fd.forward_conditional(p), fd.solve_backward(p))
            except SolverError:
                raised += 1
        assert 0 < raised < 40

    @pytest.mark.parametrize("D_x,T", [(5, 16), (7, 64), (15, 64), (31, 500)])
    def test_routing_method2_needs_no_fallback(self, D_x, T):
        # build_routing's ties do not cross: Method 2's own states are the
        # Bellman rollout's, and the controls are the policy's along them
        from tempo_dp.scenarios import build_routing

        for seed in range(3):
            p = build_routing(D_x, T, seed=seed)
            pol = fd.solve_backward(p)
            m2 = fd.recover_traj_m2(p, fd.forward_conditional(p), pol)
            xs, us, _ = fd.solve(p, "parallel", 2)
            xs_ref, us_ref, _ = fd.solve(p, "sequential")
            np.testing.assert_array_equal(xs, m2)
            np.testing.assert_array_equal(xs, xs_ref)
            np.testing.assert_array_equal(us, pol.u[np.arange(p.N), xs[:-1]])
            np.testing.assert_array_equal(us, us_ref)

    def test_recovered_cost_equals_value(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_finite_problem(rng, D_x=4, D_u=3, N=7)
            pol = fd.solve_backward(p)
            xs, us = fd.rollout_policy(p, pol)
            assert fd.trajectory_cost(p, xs, us) == pol.V[0, p.x_S]

    def test_policy_undefined_error(self):
        # from state 0, control 0 stays and control 1 enters state 1, a dead
        # end of infinite cost; a policy steered there by hand reaches a
        # state whose value is infinite
        f = np.tile([[0, 1], [1, 1]], (2, 1, 1))
        ell = np.tile([[0.0, 0.0], [np.inf, np.inf]], (2, 1, 1))
        p = fd.FiniteProblem(D_x=2, D_u=2, S=0, T=2, f=f, ell=ell, ell_T=[0.0, np.inf], x_S=0)
        pol = fd.solve_backward(p)
        assert fd.recover_traj_m1(p, pol).tolist() == [0, 0, 0]
        u = pol.u.copy()
        u[0, 0] = 1
        assert pol.V[1, 1] == np.inf
        with pytest.raises(SolverError, match="policy undefined on reached state"):
            fd.recover_traj_m1(p, fd.FinitePolicy(u=u, V=pol.V))


class TestBruteForce:
    def test_one_step(self):
        p = two_state_problem()
        cost, us, xs = fd.brute_force_oracle(p)
        assert cost == 0.0 and list(us) == [0] and list(xs) == [0, 0]

    def test_zero_cost_certificate(self):
        # a planted zero-cost path; everything else costs >= 1
        rng = np.random.default_rng(9)
        N, D_x, D_u = 5, 3, 2
        f = rng.integers(0, D_x, size=(N, D_x, D_u))
        ell = rng.uniform(1.0, 5.0, size=(N, D_x, D_u))
        path_x, path_u = [0], []
        for k in range(N):
            u = int(rng.integers(0, D_u))
            path_u.append(u)
            ell[k, path_x[-1], u] = 0.0
            path_x.append(int(f[k, path_x[-1], u]))
        ell_T = np.full(D_x, 3.0)
        ell_T[path_x[-1]] = 0.5
        p = fd.FiniteProblem(D_x=D_x, D_u=D_u, S=0, T=N, f=f, ell=ell, ell_T=ell_T, x_S=0)
        cost, us, xs = fd.brute_force_oracle(p)
        assert cost == 0.5
        np.testing.assert_array_equal(xs, path_x)

    def test_zero_steps(self):
        p = fd.FiniteProblem(
            D_x=2, D_u=1, S=0, T=0, f=np.zeros((0, 2, 1), dtype=int),
            ell=np.zeros((0, 2, 1)), ell_T=[7.0, np.inf], x_S=0,
        )
        cost, us, xs = fd.brute_force_oracle(p)
        assert cost == 7.0 and us.shape == (0,) and list(xs) == [0]
        q = fd.FiniteProblem(D_x=2, D_u=1, S=0, T=0, f=p.f, ell=p.ell, ell_T=p.ell_T, x_S=1)
        with pytest.raises(SolverError, match="infeasible problem"):
            fd.brute_force_oracle(q)
        with pytest.raises(SolverError, match="infeasible problem"):
            fd.seq_bellman(q)

    def test_budget_guard(self):
        rng = np.random.default_rng(1)
        p = random_finite_problem(rng, D_x=3, D_u=3, N=20)
        with pytest.raises(ValueError, match="budget"):
            fd.brute_force_oracle(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_independent_enumeration(self, seed):
        rng = np.random.default_rng(500 + seed)
        p = random_finite_problem(rng, D_x=3, D_u=2, N=6)
        cost, us, xs = fd.brute_force_oracle(p)
        ref_cost, ref_us, ref_xs, _ = enumeration_oracle(p)
        assert float(cost) == ref_cost
        np.testing.assert_array_equal(us, ref_us)  # lexicographic tie-break
        np.testing.assert_array_equal(xs, ref_xs)


def oracle_draw(seed):
    """A small random problem for the differential test against
    brute_force_oracle: D_x in [1, 11], D_u in [1, 3], N in [0, 8] (up to 11
    when D_u <= 2), costs in {0, 1, 2} so that optima tie often, 20% of ell
    and 30% of ell_T +inf, at least one finite terminal cost."""
    rng = np.random.default_rng(seed)
    D_x = int(rng.integers(1, 12))
    D_u = int(rng.integers(1, 4))
    N = int(rng.integers(0, 9 if D_u == 3 else 12))
    f = rng.integers(0, D_x, size=(N, D_x, D_u))
    ell = rng.integers(0, 3, size=(N, D_x, D_u)).astype(np.float64)
    ell[rng.random(ell.shape) < 0.2] = np.inf
    ell_T = rng.integers(0, 3, size=D_x).astype(np.float64)
    ell_T[rng.random(D_x) < 0.3] = np.inf
    if not (ell_T < np.inf).any():
        ell_T[rng.integers(0, D_x)] = rng.integers(0, 3)
    return fd.FiniteProblem(D_x=D_x, D_u=D_u, S=0, T=N, f=f, ell=ell, ell_T=ell_T,
                            x_S=int(rng.integers(0, D_x)))


ORACLE_SEEDS = range(600)
SOLVES = (("sequential",), ("parallel", 1), ("parallel", 2))


class TestAgainstBruteForce:
    """solve's three paths against the exhaustive oracle on seeded draws:
    each returns a path from x_S whose cost is the optimum, and each raises
    where the oracle finds no finite path."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_solves_match_oracle(self, seed):
        p = oracle_draw(seed)
        try:
            cost, _, _ = fd.brute_force_oracle(p)
        except SolverError as exc:
            assert "infeasible" in str(exc)
            for args in SOLVES:
                with pytest.raises(SolverError):
                    fd.solve(p, *args)
            return
        for args in SOLVES:
            xs, us, _ = fd.solve(p, *args)
            assert xs[0] == p.x_S and xs.shape == (p.N + 1,) and us.shape == (p.N,)
            np.testing.assert_array_equal(xs[1:], p.f[np.arange(p.N), xs[:-1], us])
            assert fd.trajectory_cost(p, xs, us) == cost, args

    def test_draws_reach_edge_cases(self, monkeypatch):
        # the corners the seeds are there for: one state, one control, no
        # steps, stage elements without tables (D_u >= D_x), pairs that keep
        # composed tables (2 D_u^2 < D_x), infeasible draws, and Method 2's
        # states crossing between tied optima, so that solve falls back
        fallbacks = []
        m2 = fd.recover_traj_m2

        def watched(*args):
            try:
                return m2(*args)
            except SolverError as exc:
                fallbacks.append("tied optima" in str(exc))
                raise

        monkeypatch.setattr(fd, "recover_traj_m2", watched)
        reached = Counter()
        for seed in ORACLE_SEEDS:
            p = oracle_draw(seed)
            reached.update({
                "D_x = 1": p.D_x == 1, "D_u = 1": p.D_u == 1, "N = 0": p.N == 0,
                "no tables": p.D_u >= p.D_x and p.N > 0,
                "composed tables": 2 * p.D_u**2 < p.D_x and p.N > 1,
            })
            try:
                fd.solve(p, "parallel", 2)
            except SolverError:
                reached["infeasible"] += 1
        reached["Method 2 fallback"] = sum(fallbacks)
        assert all(reached[case] for case in (
            "D_x = 1", "D_u = 1", "N = 0", "no tables", "composed tables",
            "infeasible", "Method 2 fallback")), reached


class TestJsonInterchange:
    def test_roundtrip_with_inf(self, tmp_path):
        rng = np.random.default_rng(2)
        p = random_finite_problem(rng, D_x=3, D_u=2, N=4, dtype=np.float64, inf_frac=0.3)
        path = tmp_path / "problem.json"
        fd.save_problem(p, path)
        text = path.read_text()
        assert '"inf"' in text  # infinities serialized as strings
        q = fd.load_problem(path)
        np.testing.assert_array_equal(p.f, q.f)
        np.testing.assert_array_equal(p.ell, q.ell)
        np.testing.assert_array_equal(p.ell_T, q.ell_T)
        assert (p.D_x, p.D_u, p.S, p.T, p.x_S) == (q.D_x, q.D_u, q.S, q.T, q.x_S)

    def test_one_based_on_disk(self, tmp_path):
        p = two_state_problem()
        d = fd.problem_to_dict(p)
        assert d["x_S"] == 1
        assert min(min(min(row) for row in step) for step in d["f"]) == 1

    def test_integer_entries_load_as_float(self, tmp_path):
        # integer cost entries next to "inf": the form the integer mode wrote
        rng = np.random.default_rng(3)
        p = random_finite_problem(rng, D_x=3, D_u=2, N=4, dtype=np.float64, inf_frac=0.3)
        d = fd.problem_to_dict(p)
        d["ell"] = [[[c if c == "inf" else int(c) for c in row] for row in step] for step in d["ell"]]
        d["ell_T"] = [int(c) for c in d["ell_T"]]
        path = tmp_path / "int.json"
        path.write_text(json.dumps(d))
        assert '"inf"' in path.read_text() and ".0" not in path.read_text()
        q = fd.load_problem(path)
        assert q.ell.dtype == q.ell_T.dtype == np.float64
        np.testing.assert_array_equal(q.ell, p.ell)
        np.testing.assert_array_equal(q.ell_T, p.ell_T)
        np.testing.assert_array_equal(fd.solve_backward(q).V, fd.seq_bellman(p).V)

    def test_declared_dimensions_must_match_arrays(self):
        d = fd.problem_to_dict(two_state_problem())
        d["D_u"] = 3
        with pytest.raises(ValueError, match=r"^f has shape \(1, 2, 2\), expected \(1, 2, 3\)"):
            fd.problem_from_dict(d)

    def test_zero_steps_roundtrip(self, tmp_path):
        # the empty tables are written as [], which carries no shape
        p = fd.FiniteProblem(D_x=3, D_u=2, S=4, T=4, f=np.zeros((0, 3, 2), dtype=np.int64),
                             ell=np.zeros((0, 3, 2)), ell_T=[1.0, 0.0, 2.0], x_S=2)
        fd.save_problem(p, tmp_path / "empty.json")
        q = fd.load_problem(tmp_path / "empty.json")
        assert q.f.shape == q.ell.shape == (0, 3, 2)
        np.testing.assert_array_equal(q.ell_T, p.ell_T)

    @pytest.mark.parametrize("bad", ["-inf", "nan", ""])
    def test_bad_cost_string_rejected(self, bad):
        d = fd.problem_to_dict(two_state_problem())
        d["ell"][0][1][0] = bad
        with pytest.raises(ValueError, match=f"^bad cost entry {bad!r}$"):
            fd.problem_from_dict(d)

    @pytest.mark.parametrize("name, value", [("x_S", 1.5), ("x_S", "2"), ("T", 1.0), ("D_x", "2")])
    def test_non_integer_field_in_file_rejected(self, name, value):
        d = fd.problem_to_dict(two_state_problem())
        d[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            fd.problem_from_dict(d)

    @pytest.mark.parametrize("f", [[[[1.5], [2.9]]], [[[2.0], [1.0]]], [[["2"], ["1"]]]],
                             ids=["fractional", "integral-float", "string"])
    def test_non_integer_next_states_in_file_rejected(self, f, tmp_path):
        p = fd.FiniteProblem(D_x=2, D_u=1, S=0, T=1, f=[[[1], [0]]], ell=[[[0.0], [0.0]]],
                             ell_T=[0.0, 0.0], x_S=0)
        d = fd.problem_to_dict(p)
        assert d["f"] == [[[2], [1]]]
        d["f"] = f
        (tmp_path / "f.json").write_text(json.dumps(d))
        with pytest.raises(ValueError, match=r"^f must hold integers, got "):
            fd.load_problem(tmp_path / "f.json")

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    @pytest.mark.parametrize("name", ["ell", "ell_T"])
    def test_nan_or_negative_inf_rejected(self, name, bad):
        d = fd.problem_to_dict(two_state_problem())
        (d["ell"][0][1] if name == "ell" else d["ell_T"])[0] = bad
        with pytest.raises(ValueError, match=f"^{name} holds NaN or -inf"):
            fd.problem_from_dict(d)
