"""Associative scans: sequential reference and a work-efficient parallel tree.

Two implementations of the all-prefix (and all-suffix) computation under an
associative operator:

* ``seq_scan`` / ``par_scan`` operate on a list of arbitrary Python elements
  and a binary combine callable.
* ``par_scan_stacked`` operates on element sequences stored as tuples of
  numpy arrays with a leading time axis, executing the combines of each
  tree level as batched vectorized calls on strided views.

Both parallel engines run one up-sweep/down-sweep tree (Blelloch 1990,
"Prefix sums and their applications"), anchored at element 0, and call one
operator, ``combine``. A scan runs from the value at a pinned endpoint,
``start``, over n elements. The start is itself an element of the scan's
algebra, one more element at the pinned end; it may be degenerate, an
element out of (into) a trivial endpoint, so that the outputs have its
smaller shapes. The up-sweep combines the n elements pairwise: node j of
level L + 1 is node 2j of level L combined with node 2j + 1, and an odd
last node stays unpaired, so level L holds the n >> L intervals
[j 2^L, (j + 1) 2^L). The down-sweeps only combine values at interval
boundaries with nodes, level by level from the top, where the even
boundaries of a level are those of the level above:

* forward, from slot 0: each odd boundary 2j + 1 of a level is the value at
  boundary 2j combined with node 2j;
* reverse, from slot n: on an odd-sized level the last node is first
  combined with the level's end; then each odd boundary 2j + 1 is node
  2j + 1 combined with the value at boundary 2j + 2.

The combined intervals therefore depend neither on the direction nor on
the start, and the up-sweep's ``combine`` only ever sees elements and
nodes. A reverse scan can hand its up-sweep to a forward one over the same
elements: the forward down-sweep reads only the even nodes of each level,
which ``par_scan_stacked(..., tree=[])`` keeps and :func:`forward_from_tree`
reads. A scan from a start makes ``sum_L floor(n_L / 2) = n - popcount(n)``
combines in the up-sweep and n in the down-sweep, with no padding and no
identity element. Without ``start``, element 0 (element T - 1 under
REVERSE) is the start, so a plain length-T scan costs
``2(T - 1) - popcount(T - 1) <= 2T - 3`` combines (none for T = 1).

Depth accounting gives an element and the start depth 0, a level-L node
depth L, and a value one more than the deeper of the value and the node
it came from; ``ScanStats`` reports the deepest output slot, a span
surrogate. For T elements the parallel depth is at most
``2*ceil(log2 T) + 1`` while the sequential scan has depth ``T - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, TypeVar

import numpy as np

E = TypeVar("E")

__all__ = [
    "ScanDirection",
    "ScanStats",
    "seq_scan",
    "par_scan",
    "par_scan_stacked",
    "forward_from_tree",
]


class ScanDirection(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass
class ScanStats:
    """Operator-call accounting for one scan.

    combine_count: total number of combined pairs, up-sweep and down-sweep
        (vectorized engines count one per pair of a batched call).
    combine_depth: longest chain of dependent combines.
    """

    combine_count: int = 0
    combine_depth: int = 0


def seq_scan(
    elements: Sequence[E],
    combine: Callable[[E, E], E],
    direction: ScanDirection = ScanDirection.FORWARD,
) -> tuple[list[E], ScanStats]:
    """Reference scan.

    Forward returns s_k = a_1 (x) ... (x) a_k; Reverse returns
    s_k = a_k (x) ... (x) a_T (folded as a_k (x) s_{k+1}, the classic
    backward recursion).
    """
    n = len(elements)
    if n == 0:
        raise ValueError("empty scan")
    out = list(elements)
    if direction is ScanDirection.FORWARD:
        for k in range(1, n):
            out[k] = combine(out[k - 1], elements[k])
    else:
        for k in range(n - 2, -1, -1):
            out[k] = combine(elements[k], out[k + 1])
    return out, ScanStats(combine_count=n - 1, combine_depth=n - 1)


Stack = tuple[np.ndarray, ...]


def _up_sweep(x: Stack, combine: Callable[[Stack, Stack], Stack], stats: ScanStats) -> list[Stack]:
    """The nonempty levels of the up-sweep over ``x``: level 0 is ``x`` and
    node j of level L + 1 is ``combine`` of nodes 2j and 2j + 1 of level L,
    one batched call per level."""
    n = int(x[0].shape[0])
    levels = [x] if n else []
    while n > 1:
        m = n // 2
        lv = levels[-1]
        pairs = tuple(a[0 : 2 * m : 2] for a in lv), tuple(a[1 : 2 * m : 2] for a in lv)
        levels.append(combine(*pairs))
        stats.combine_count += m
        n = m
    return levels


def _outputs(s: Stack, n: int, at: int) -> tuple[Stack, np.ndarray]:
    """n + 1 slots of the batch-of-one start ``s``'s shapes and dtypes, with
    ``s`` in slot ``at``, and the depth of each slot."""
    out = tuple(np.empty((n + 1,) + a.shape[1:], a.dtype) for a in s)
    for o, a in zip(out, s):
        o[at] = a[0]
    return out, np.zeros(n + 1, dtype=np.int64)


def _sweep_forward(
    evens: list[Stack],
    s: Stack,
    n: int,
    combine: Callable[[Stack, Stack], Stack],
    stats: ScanStats,
) -> Stack:
    """Forward down-sweep from the start ``s`` over n elements.

    ``evens[L]`` are the even nodes 0, 2, ... of level L, consumed from
    the top. Boundary j of level L is slot j 2^L, so each level is one
    batched ``combine`` of values and nodes on strided views of the outputs.
    """
    out, dout = _outputs(s, n, 0)
    while evens:
        L = len(evens) - 1
        ev = evens.pop()
        k = int(ev[0].shape[0])
        view = tuple(o[:: 1 << L] for o in out)
        res = combine(tuple(v[0 : 2 * k : 2] for v in view), ev)
        for v, r in zip(view, res):
            v[1 : 2 * k : 2] = r
        dv = dout[:: 1 << L]
        dv[1 : 2 * k : 2] = np.maximum(dv[0 : 2 * k : 2], L) + 1
        stats.combine_count += k
    stats.combine_depth = int(dout.max())
    return out


def _sweep_reverse(
    levels: list[Stack],
    s: Stack,
    n: int,
    combine: Callable[[Stack, Stack], Stack],
    stats: ScanStats,
    tree: list | None,
) -> Stack:
    """Reverse down-sweep from the start ``s`` over n elements.

    Consumes the up-sweep ``levels`` from the top. With ``tree`` a list,
    each level from 1 up leaves a contiguous copy of its even nodes there
    (level 1 first) before it is dropped.
    """
    out, dout = _outputs(s, n, n)
    for L, lv in enumerate(levels):  # the end of each odd-sized level, bottom up
        nl = n >> L
        if nl % 2:
            i, e = (nl - 1) << L, nl << L
            res = combine(tuple(a[nl - 1 :] for a in lv), tuple(o[e : e + 1] for o in out))
            for o, r in zip(out, res):
                o[i] = r[0]
            dout[i] = max(dout[e], L) + 1
            stats.combine_count += 1
    while levels:
        L = len(levels) - 1
        lv = levels.pop()
        m = (n >> L) // 2
        if m:
            view = tuple(o[:: 1 << L] for o in out)
            res = combine(tuple(a[1 : 2 * m : 2] for a in lv), tuple(v[2 : 2 * m + 1 : 2] for v in view))
            for v, r in zip(view, res):
                v[1 : 2 * m : 2] = r
            dv = dout[:: 1 << L]
            dv[1 : 2 * m : 2] = np.maximum(dv[2 : 2 * m + 1 : 2], L) + 1
            stats.combine_count += m
        if tree is not None and L:
            tree.insert(0, tuple(np.ascontiguousarray(a[::2]) for a in lv))
    stats.combine_depth = int(dout.max())
    return out


def par_scan(
    elements: Sequence[E],
    combine: Callable[[E, E], E],
    direction: ScanDirection = ScanDirection.FORWARD,
) -> tuple[list[E], ScanStats]:
    """Up-sweep/down-sweep scan over Python elements.

    The elements go through :func:`par_scan_stacked` as one object array,
    so both engines run the same tree. ``combine`` must be associative.
    """
    objs = np.empty(len(elements), dtype=object)
    for i, e in enumerate(elements):  # element-wise: elements may be sequences
        objs[i] = e

    def batched(a: Stack, b: Stack) -> Stack:
        res = np.empty(len(a[0]), dtype=object)
        for i, r in enumerate(map(combine, a[0], b[0])):
            res[i] = r
        return (res,)

    (out,), stats = par_scan_stacked((objs,), batched, direction)
    return list(out), stats


def par_scan_stacked(
    arrays: Stack,
    combine: Callable[[Stack, Stack], Stack],
    direction: ScanDirection = ScanDirection.FORWARD,
    start: Stack | None = None,
    tree: list | None = None,
) -> tuple[Stack, ScanStats]:
    """Up-sweep/down-sweep scan over a time-stacked element sequence.

    ``arrays`` is a tuple of ndarrays sharing leading axis T (one slot per
    element); ``combine`` maps two equally-batched stacks (possibly strided
    views), the earlier intervals first, to their combination.

    Without ``start`` this is the plain inclusive scan: T output slots,
    slot k the prefix ending at element k (the suffix starting at k under
    REVERSE), of the elements' shapes.

    ``start`` is a tuple of unbatched arrays, one more element at the
    pinned end, first (last under REVERSE). It may be degenerate: an element
    out of (into) a trivial endpoint, whose arrays have other, possibly
    zero, sizes than the elements', as long as ``combine`` takes it as an
    operand and returns its shapes. The outputs then have T + 1 slots of
    ``start``'s shapes and dtypes: ``start`` in slot 0 (slot T under
    REVERSE), and in slot k + 1 (slot k) ``start`` combined with the
    elements up to k (from k). The tree and ``ScanStats`` are those of the
    plain scan of ``start`` followed (preceded under REVERSE) by the
    elements, and the up-sweep combines elements and nodes alone.

    ``tree``, a list, asks a REVERSE scan from ``start`` to leave the
    up-sweep's even nodes of levels 1, 2, ... in it, one contiguous stack
    per level, for :func:`forward_from_tree` over the same elements.
    """
    n = int(arrays[0].shape[0])
    if any(int(x.shape[0]) != n for x in arrays[1:]):
        raise ValueError("stacked arrays disagree on length")
    forward = direction is ScanDirection.FORWARD
    if tree is not None and (forward or start is None):
        raise ValueError("only a reverse scan from start keeps its tree")
    if start is None:  # the first (last) element is the start
        if n == 0:
            raise ValueError("empty scan")
        s = tuple(a[:1] if forward else a[-1:] for a in arrays)
        arrays = tuple(a[1:] if forward else a[:-1] for a in arrays)
        n -= 1
    else:
        s = tuple(np.asarray(a)[None] for a in start)
    stats = ScanStats()
    levels = _up_sweep(arrays, combine, stats)
    if forward:
        evens = [tuple(a[::2] for a in lv) for lv in levels]
        del levels  # the views alone hold each level, until it is swept
        return _sweep_forward(evens, s, n, combine, stats), stats
    return _sweep_reverse(levels, s, n, combine, stats, tree), stats


def forward_from_tree(
    evens: Sequence[Stack],
    n: int,
    start: Stack,
    combine: Callable[[Stack, Stack], Stack],
) -> tuple[Stack, ScanStats]:
    """The FORWARD ``par_scan_stacked`` from ``start`` over n elements, from
    the even nodes of its up-sweep alone: ``evens[0]`` holds elements 0, 2,
    4, ... and ``evens[1:]`` the ``tree`` that a REVERSE scan over the same
    elements left. Only the down-sweep runs, n combines of values with
    nodes, and the stats count those."""
    sizes = [((n >> L) + 1) // 2 for L in range(max(1, n.bit_length()))]
    if [int(e[0].shape[0]) for e in evens] != sizes:
        raise ValueError("tree does not match the elements")
    s = tuple(np.asarray(a)[None] for a in start)
    stats = ScanStats()
    return _sweep_forward(list(evens) if n else [], s, n, combine, stats), stats
