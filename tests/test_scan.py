"""Scan engine tests: examples, identity laws, depth bounds, duality, and
object/stacked engine agreement for every operator used in the repo."""

import math
import operator

import numpy as np
import pytest

from tempo_dp.scan import (
    ScanDirection,
    par_scan,
    par_scan_stacked,
    seq_scan,
)
from tempo_dp import finite_dp as fd
from tempo_dp import lqt

from helpers import (
    AffineMap,
    affine_identity,
    combine_lqt,
    compose_affine,
    lqt_identity,
    min_plus_identity,
    random_lqt_element,
)

FWD = ScanDirection.FORWARD
REV = ScanDirection.REVERSE


def depth_bound(T):
    return 2 * math.ceil(math.log2(T)) + 1 if T > 1 else 1


class TestSeqScan:
    def test_running_sums(self):
        out, stats = seq_scan([1, 2, 3, 4], operator.add)
        assert out == [1, 3, 6, 10]
        assert stats.combine_count == stats.combine_depth == 3

    def test_suffix_sums(self):
        out, _ = seq_scan([1, 2, 3, 4], operator.add, REV)
        assert out == [10, 9, 7, 4]

    def test_running_min(self):
        out, _ = seq_scan([3, 1, 2], min)
        assert out == [3, 1, 1]

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty scan"):
            seq_scan([], operator.add)

    @pytest.mark.parametrize("T", [1, 2, 5, 100])
    def test_stats(self, T):
        out, stats = seq_scan(list(range(T)), operator.add)
        assert stats.combine_count == T - 1
        assert stats.combine_depth == T - 1


class TestParScan:
    def test_matches_trivial(self):
        out, _ = par_scan([1, 2, 3, 4], operator.add)
        assert out == [1, 3, 6, 10]

    def test_single_element_reverse(self):
        out, _ = par_scan([5], max, REV)
        assert out == [5]

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty scan"):
            par_scan([], operator.add)

    def test_random_floats_match_seq(self):
        rng = np.random.default_rng(0)
        xs = list(rng.normal(size=1000))
        ref, _ = seq_scan(xs, operator.add)
        out, _ = par_scan(xs, operator.add)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 100, 1024])
    def test_matches_seq_int(self, T, direction):
        rng = np.random.default_rng(T)
        xs = [int(v) for v in rng.integers(-50, 50, size=T)]
        ref, _ = seq_scan(xs, operator.add, direction)
        out, _ = par_scan(xs, operator.add, direction)
        assert out == ref

    @pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 100, 1024, 131072])
    def test_depth_bound(self, T):
        xs = list(range(T))
        _, stats = par_scan(xs, operator.add)
        assert stats.combine_depth <= depth_bound(T)
        _, stats = par_scan(xs, min, REV)
        assert stats.combine_depth <= depth_bound(T)

    def test_direction_duality(self):
        rng = np.random.default_rng(2)
        xs = [tuple(v) for v in rng.integers(0, 9, size=(23, 2))]

        def op(a, b):  # noncommutative on purpose
            return (a[0] + b[0], a[1] + 2 * b[1])

        def op_swapped(a, b):
            return op(b, a)

        rev, _ = par_scan(xs, op, REV)
        fwd_of_reversed, _ = par_scan(list(reversed(xs)), op_swapped, FWD)
        assert rev == list(reversed(fwd_of_reversed))


def lqt_elem_tuple(e):
    return (e.A, e.b, e.C, e.eta, e.J)


class TestIdentityLaws:
    """combine(identity, a) == a == combine(a, identity), 100 random a each."""

    def test_addition(self):
        rng = np.random.default_rng(3)
        for v in rng.normal(size=100):
            assert v + 0.0 == v and 0.0 + v == v

    def test_min(self):
        rng = np.random.default_rng(4)
        for v in rng.normal(size=100):
            assert min(v, math.inf) == v and min(math.inf, v) == v

    def test_min_plus(self):
        rng = np.random.default_rng(5)
        ident = min_plus_identity(4)
        for _ in range(100):
            a = rng.integers(0, 20, size=(4, 4)).astype(float)
            a[rng.random(size=(4, 4)) < 0.2] = np.inf
            for out in (fd.min_plus_matmul(a, ident), fd.min_plus_matmul(ident, a)):
                assert np.array_equal(out, a)

    def test_lqt_element(self):
        rng = np.random.default_rng(6)
        ident = lqt_identity(3)
        for _ in range(100):
            a = random_lqt_element(rng, 3)
            for out in (combine_lqt(a, ident), combine_lqt(ident, a)):
                for f in ("A", "b", "C", "eta", "J"):
                    assert np.array_equal(getattr(out, f), getattr(a, f))

    def test_affine(self):
        rng = np.random.default_rng(7)
        ident = affine_identity(3)
        for _ in range(100):
            a = AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3))
            for out in (compose_affine(a, ident), compose_affine(ident, a)):
                assert np.allclose(out.Ft, a.Ft) and np.allclose(out.ct, a.ct)


class TestOperatorEquivalence:
    """par_scan == seq_scan for every operator used in this repository."""

    @pytest.mark.parametrize("direction", [FWD, REV])
    def test_min_plus_exact(self, direction):
        rng = np.random.default_rng(8)
        elems = []
        for _ in range(37):
            V = rng.integers(0, 30, size=(5, 5)).astype(float)
            V[rng.random(size=(5, 5)) < 0.25] = np.inf
            elems.append(V)
        ref, _ = seq_scan(elems, fd.min_plus_matmul, direction)
        out, _ = par_scan(elems, fd.min_plus_matmul, direction)
        for a, b in zip(out, ref):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("direction", [FWD, REV])
    def test_lqt_combine(self, direction):
        rng = np.random.default_rng(9)
        elems = [random_lqt_element(rng, 3) for _ in range(41)]
        ref, _ = seq_scan(elems, combine_lqt, direction)
        out, _ = par_scan(elems, combine_lqt, direction)
        for a, b in zip(out, ref):
            for f in ("A", "b", "C", "eta", "J"):
                num = np.max(np.abs(getattr(a, f) - getattr(b, f)))
                den = max(1.0, np.max(np.abs(getattr(b, f))))
                assert num / den <= 1e-9

    @pytest.mark.parametrize("direction", [FWD, REV])
    def test_affine(self, direction):
        rng = np.random.default_rng(10)
        elems = [
            AffineMap(rng.normal(size=(3, 3)) * 0.7, rng.normal(size=3))
            for _ in range(29)
        ]
        ref, _ = seq_scan(elems, compose_affine, direction)
        out, _ = par_scan(elems, compose_affine, direction)
        for a, b in zip(out, ref):
            assert np.allclose(a.Ft, b.Ft, rtol=1e-9, atol=1e-12)
            assert np.allclose(a.ct, b.ct, rtol=1e-9, atol=1e-12)


class TestStackedEngine:
    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 100, 1024])
    def test_matches_object_engine_add(self, T, direction):
        rng = np.random.default_rng(T + 100)
        xs = rng.integers(-40, 40, size=T).astype(np.int64)
        ref, ref_stats = par_scan(list(xs), operator.add, direction)
        out, stats = par_scan_stacked((xs,), lambda a, b: (a[0] + b[0],), direction)
        assert list(out[0]) == ref
        assert (stats.combine_count, stats.combine_depth) == (
            ref_stats.combine_count,
            ref_stats.combine_depth,
        )

    @pytest.mark.parametrize("direction", [FWD, REV])
    def test_matches_object_engine_lqt(self, direction):
        rng = np.random.default_rng(11)
        elems = [random_lqt_element(rng, 3) for _ in range(19)]
        stack = tuple(
            np.stack([getattr(e, f) for e in elems]) for f in ("A", "b", "C", "eta", "J")
        )
        ref, _ = par_scan(elems, combine_lqt, direction)
        out, _ = par_scan_stacked(
            stack,
            lqt._combine_element_arrays,
            direction,
        )
        for i, e in enumerate(ref):
            for j, f in enumerate(("A", "b", "C", "eta", "J")):
                np.testing.assert_allclose(out[j][i], getattr(e, f), rtol=1e-9, atol=1e-11)

    def test_depth_bound_large(self):
        T = 131072
        rng = np.random.default_rng(12)
        xs = rng.integers(0, 100, size=T).astype(np.int64)
        out, stats = par_scan_stacked((xs,), lambda a, b: (a[0] + b[0],), FWD)
        assert stats.combine_depth <= depth_bound(T)
        np.testing.assert_array_equal(out[0], np.cumsum(xs))

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty scan"):
            par_scan_stacked((np.zeros((0, 2)),), lambda a, b: a)

    def test_pin_needs_fill(self):
        with pytest.raises(ValueError, match="pin needs a fill"):
            par_scan_stacked((np.arange(4),), lambda a, b: (a[0] + b[0],), pin=lambda e: e)


TREE_SIZES = list(range(1, 71)) + [1023, 1024, 1025]
PRIME = 1_000_003  # 2x2 products mod PRIME stay exact in int64


def check_tree_stats(obj_stats, stacked_stats, T):
    assert (obj_stats.combine_count, obj_stats.combine_depth) == (
        stacked_stats.combine_count,
        stacked_stats.combine_depth,
    )
    assert obj_stats.combine_count <= max(0, 2 * T - 2)
    assert obj_stats.combine_depth <= depth_bound(T)


class TestOddEvenTree:
    """Both engines against the sequential oracle for every length 1..70 and
    around 2^10, with non-commutative operators so any misordered pair shows."""

    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", TREE_SIZES)
    def test_matrix_product(self, T, direction):
        rng = np.random.default_rng(T)
        M = rng.integers(0, PRIME, size=(T, 2, 2))

        def mul(a, b):
            return (a @ b) % PRIME

        ref, _ = seq_scan(list(M), mul, direction)
        out, stats = par_scan(list(M), mul, direction)
        (sout,), sstats = par_scan_stacked((M,), lambda a, b: (mul(a[0], b[0]),), direction)
        assert len(out) == T
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sout, np.stack(ref))
        check_tree_stats(stats, sstats, T)

    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", TREE_SIZES)
    def test_compose_affine(self, T, direction):
        rng = np.random.default_rng(T + 7)
        Ft = rng.normal(size=(T, 3, 3)) * 0.5
        ct = rng.normal(size=(T, 3))
        elems = [AffineMap(Ft[k], ct[k]) for k in range(T)]
        ref, _ = seq_scan(elems, compose_affine, direction)
        out, stats = par_scan(elems, compose_affine, direction)
        (sF, sc), sstats = par_scan_stacked((Ft, ct), lqt._compose_affine_arrays, direction)
        for k, e in enumerate(ref):
            for got in ((out[k].Ft, out[k].ct), (sF[k], sc[k])):
                np.testing.assert_allclose(got[0], e.Ft, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(got[1], e.ct, rtol=1e-9, atol=1e-12)
        check_tree_stats(stats, sstats, T)

    @pytest.mark.parametrize("T", TREE_SIZES)
    def test_combine_count(self, T):
        def expected(n):  # pairs, then the even fill-in, then the half-length scan
            return 0 if n <= 1 else n - 1 + expected(n // 2)

        _, stats = par_scan_stacked((np.arange(T),), lambda a, b: (a[0] + b[0],))
        assert stats.combine_count == expected(T)

    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", TREE_SIZES)
    def test_combine_depth(self, T, direction):
        # an operator that carries each node's depth, max(children) + 1,
        # gives the deepest prefix node without the engine's own bookkeeping
        def deeper(a, b):
            return (np.maximum(a[0], b[0]) + 1,)

        (depths,), stats = par_scan_stacked((np.zeros(T, dtype=np.int64),), deeper, direction)
        assert stats.combine_depth == depths.max()

    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", TREE_SIZES)
    def test_fill_gets_pinned_operand(self, T, direction):
        # elements are index intervals (lo, hi); combine checks adjacency and
        # fill that its pinned operand reaches the endpoint of the sequence
        calls = {"pairs": 0, "fills": 0}

        def interval(a, b):
            assert np.array_equal(a[1] + 1, b[0])
            return a[0], b[1]

        def combine(a, b):
            calls["pairs"] += len(a[0])
            return interval(a, b)

        def fill(a, b):
            if direction is FWD:
                assert np.all(a[0] == 0)
            else:
                assert np.all(b[1] == T - 1)
            calls["fills"] += len(a[0])
            return interval(a, b)

        idx = np.arange(T)
        ref, ref_stats = par_scan_stacked((idx, idx), interval, direction)
        out, stats = par_scan_stacked((idx, idx), combine, direction, fill=fill)
        lo, hi = (np.zeros(T), idx) if direction is FWD else (idx, np.full(T, T - 1))
        for got in (ref, out):
            np.testing.assert_array_equal(got[0], lo)
            np.testing.assert_array_equal(got[1], hi)
        assert (stats.combine_count, stats.combine_depth) == (
            ref_stats.combine_count,
            ref_stats.combine_depth,
        )
        assert calls["pairs"] + calls["fills"] == stats.combine_count
        assert (calls["fills"] > 0) == (T > 2)

    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 8, 37])
    def test_pin_equals_pin_of_plain_outputs(self, T, direction):
        # 2x2 matrices mod PRIME, pinned to one row of each prefix (one
        # column of each suffix under REVERSE): fill multiplies a row by a
        # matrix, and combine must only ever see whole matrices
        rng = np.random.default_rng(T + 50)
        M = rng.integers(0, PRIME, size=(T, 2, 2))
        w = rng.integers(0, PRIME, size=2)

        def combine(a, b):
            assert a[0].shape[1:] == b[0].shape[1:] == (2, 2)
            return ((a[0] @ b[0]) % PRIME,)

        if direction is FWD:
            def pin(e):
                return ((w @ e[0]) % PRIME,)

            def fill(r, e):
                return (((r[0][:, None, :] @ e[0])[:, 0]) % PRIME,)
        else:
            def pin(e):
                return ((e[0] @ w) % PRIME,)

            def fill(e, r):
                return (((e[0] @ r[0][:, :, None])[:, :, 0]) % PRIME,)

        (full,), full_stats = par_scan_stacked((M,), combine, direction)
        (pinned,), stats = par_scan_stacked((M,), combine, direction, fill=fill, pin=pin)
        ref, _ = seq_scan(list(M), lambda a, b: (a @ b) % PRIME, direction)
        np.testing.assert_array_equal(full, np.stack(ref))
        (want,) = pin((full,))
        assert pinned.shape == (T, 2)
        assert pinned.tobytes() == want.tobytes()
        assert stats == full_stats
