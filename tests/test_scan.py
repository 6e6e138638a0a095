"""Scan engine tests: examples, identity laws, depth bounds, duality, and
object/stacked engine agreement for every operator used in the repo."""

import math
import operator

import numpy as np
import pytest

from tempo_dp.scan import (
    ScanDirection,
    forward_from_tree,
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
        xs = list(rng.integers(0, PRIME, size=(23, 2, 2)))

        def op(a, b):  # 2x2 products mod PRIME: associative, not commutative
            return (a @ b) % PRIME

        def op_swapped(a, b):
            return op(b, a)

        rev, _ = par_scan(xs, op, REV)
        fwd_of_reversed, _ = par_scan(list(reversed(xs)), op_swapped, FWD)
        for a, b in zip(rev, reversed(fwd_of_reversed)):
            np.testing.assert_array_equal(a, b)


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

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="^stacked arrays disagree on length$"):
            par_scan_stacked((np.zeros(3), np.zeros(4)), lambda a, b: a, FWD)


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
    """The up-sweep/down-sweep tree: both engines against the sequential
    oracle for every length 1..70 and around 2^10, with non-commutative
    operators so any misordered pair shows, and its operator-call counts."""

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
        # the plain scan starts from element 0 (T - 1 under REVERSE) and runs
        # over the n = T - 1 others: level L + 1 of the up-sweep pairs the
        # n_L nodes of level L, so sum_L floor(n_L / 2) pairs, and each down-
        # sweep combines a value with each element once, n pairs
        n, pairs = T - 1, 0
        while n > 1:
            n //= 2
            pairs += n
        for direction in (FWD, REV):
            _, stats = par_scan_stacked((np.arange(T),), lambda a, b: (a[0] + b[0],), direction)
            assert stats.combine_count == pairs + T - 1

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
    @pytest.mark.parametrize("T", [0] + TREE_SIZES)
    def test_pin_equals_pin_of_plain_outputs(self, T, direction):
        # 2x2 matrices mod PRIME, started from a vector as a degenerate
        # element: a 1x2 row going forward, a 2x1 column under REVERSE, so
        # one matrix product serves the whole tree. The scan from the start
        # equals the sequential fold from it exactly, and row 0 (column 0)
        # of the plain scan with the start as a full element, tree and
        # stats included
        rng = np.random.default_rng(T + 50)
        M = rng.integers(0, PRIME, size=(T, 2, 2))
        w = rng.integers(0, PRIME, size=2)

        def mul(a, b):
            return ((a[0] @ b[0]) % PRIME,)

        full_start = np.zeros((1, 2, 2), dtype=M.dtype)
        if direction is FWD:
            start = w[None]
            fold = [w]
            for k in range(T):
                fold.append((fold[-1] @ M[k]) % PRIME)
            full_start[0, 0] = w  # its row 0
            plain = np.concatenate([full_start, M])
        else:
            start = w[:, None]
            fold = [w]
            for k in range(T - 1, -1, -1):
                fold.insert(0, (M[k] @ fold[0]) % PRIME)
            full_start[0, :, 0] = w  # its column 0
            plain = np.concatenate([M, full_start])
        (out,), stats = par_scan_stacked((M,), mul, direction, start=(start,))
        assert out.shape == (T + 1,) + start.shape
        assert out.reshape(T + 1, 2).tobytes() == np.stack(fold).tobytes()
        (full,), plain_stats = par_scan_stacked((plain,), mul, direction)
        assert stats == plain_stats
        np.testing.assert_array_equal(full[:, :1] if direction is FWD else full[:, :, :1], out)

    @pytest.mark.parametrize("direction", [FWD, REV])
    @pytest.mark.parametrize("T", [0] + TREE_SIZES)
    def test_fill_gets_pinned_operand(self, T, direction):
        # elements are index intervals (lo, hi) and the start the empty
        # interval at the pinned end, (-1, -1) going forward and (T, T)
        # under REVERSE. Every combine gets adjacent intervals, the earlier
        # first; a down-sweep batch gets values, intervals that reach the
        # pinned end, on the pinned side, and an up-sweep batch none
        end = -1 if direction is FWD else T
        calls = {"pairs": 0, "values": 0}

        def combine(a, b):
            assert len(a) == len(b) == 2
            assert np.array_equal(a[1] + 1, b[0])
            pinned = a[0] == end if direction is FWD else b[1] == end
            assert pinned.all() or not pinned.any()
            calls["values" if pinned.any() else "pairs"] += len(pinned)
            return a[0], b[1]

        idx = np.arange(T)
        (lo, hi), stats = par_scan_stacked((idx, idx), combine, direction, start=(np.int64(end),) * 2)
        if direction is FWD:
            np.testing.assert_array_equal(lo, np.full(T + 1, -1))
            np.testing.assert_array_equal(hi, np.arange(-1, T))
        else:
            np.testing.assert_array_equal(lo, np.arange(T + 1))
            np.testing.assert_array_equal(hi, np.full(T + 1, T))
        assert calls["pairs"] + calls["values"] == stats.combine_count
        assert calls["values"] == T

    @pytest.mark.parametrize("T", [0] + TREE_SIZES)
    def test_directions_share_up_sweep(self, T):
        # elements are index intervals (lo, hi) and the start the empty
        # interval at the pinned end, as above: combine records every node
        # it forms from two nodes and every node it combines with a value.
        # Both directions form the same nodes in the same order,
        # T - popcount(T) of them, and combine values only with elements
        # and those nodes
        def run(direction):
            end = -1 if direction is FWD else T
            formed, read = [], []

            def combine(a, b):
                if (a[0] if direction is FWD else b[1])[0] == end:  # a value and a node
                    lo, hi = b if direction is FWD else a
                    read.extend(zip(lo.tolist(), hi.tolist()))
                else:
                    formed.extend(zip(a[0].tolist(), b[1].tolist()))
                return a[0], b[1]

            idx = np.arange(T)
            par_scan_stacked((idx, idx), combine, direction, start=(np.int64(end),) * 2)
            return formed, read

        fwd_formed, fwd_read = run(FWD)
        rev_formed, rev_read = run(REV)
        assert fwd_formed == rev_formed
        assert len(set(fwd_formed)) == len(fwd_formed) == T - bin(T).count("1")
        nodes = set(fwd_formed) | {(k, k) for k in range(T)}
        assert set(fwd_read) <= nodes and set(rev_read) <= nodes
        assert len(fwd_read) == len(rev_read) == T

    @pytest.mark.parametrize("T", [0] + TREE_SIZES)
    def test_forward_from_reverse_tree(self, T):
        # 2x2 matrices mod PRIME from a vector as a degenerate element, as
        # in test_pin_equals_pin_of_plain_outputs: the tree a reverse scan
        # leaves, with the even elements, gives the forward scan exactly,
        # with no up-sweep
        rng = np.random.default_rng(T + 90)
        M = rng.integers(0, PRIME, size=(T, 2, 2))
        w = rng.integers(0, PRIME, size=2)
        row, col = w[None], w[:, None]

        def mul(a, b):
            return ((a[0] @ b[0]) % PRIME,)

        tree = []
        par_scan_stacked((M,), mul, REV, start=(col,), tree=tree)
        assert len(tree) == max(0, T.bit_length() - 1)
        assert all(a.flags.c_contiguous for level in tree for a in level)
        (ref,), ref_stats = par_scan_stacked((M,), mul, FWD, start=(row,))
        (out,), stats = forward_from_tree([(M[::2],), *tree], T, (row,), mul)
        assert out.tobytes() == ref.tobytes()
        assert stats.combine_count == T
        assert stats.combine_depth == ref_stats.combine_depth
        if T > 1:
            with pytest.raises(ValueError, match="tree does not match"):
                forward_from_tree([(M[::2],), *tree[1:]], T, (row,), mul)
            with pytest.raises(ValueError, match="tree does not match"):
                forward_from_tree([(M[::2],), *tree], T + 2, (row,), mul)

    def test_forward_from_tree_over_no_elements(self):
        # n = 0 has no level (a reverse scan over one element leaves an
        # empty tree, and Method 2 scans its N // 2 pairs from that tree):
        # the output is the start alone, with no combine
        def mul(a, b):
            raise AssertionError("no combine over no elements")

        row = np.array([[3, 4]])
        for evens in ([], [(np.zeros((0, 2, 2), int),)]):
            (out,), stats = forward_from_tree(evens, 0, (row,), mul)
            assert out.tobytes() == row[None].tobytes()
            assert (stats.combine_count, stats.combine_depth) == (0, 0)
        for evens, n in (([(np.zeros((1, 2, 2), int),)], 0), ([], 1)):
            with pytest.raises(ValueError, match="tree does not match"):
                forward_from_tree(evens, n, (row,), mul)

    def test_tree_only_from_reverse_start(self):
        def add(a, b):
            return (a[0] + b[0],)

        x = (np.arange(4),)
        for kwargs in ({"direction": FWD, "start": (np.int64(0),)}, {"direction": REV}):
            with pytest.raises(ValueError, match="only a reverse scan from start keeps its tree"):
                par_scan_stacked(x, add, tree=[], **kwargs)
