"""Associative scans: sequential reference and a work-efficient parallel tree.

Two implementations of the all-prefix (and all-suffix) computation under an
associative operator:

* ``seq_scan`` / ``par_scan`` operate on a list of arbitrary Python elements
  and a binary combine callable.
* ``par_scan_stacked`` operates on element sequences stored as tuples of
  numpy arrays with a leading time axis, executing the combines of each
  tree level as batched vectorized calls on strided views.

Both parallel engines run the same odd-even inclusive scan (Blelloch 1990,
"Prefix sums and their applications"): combine adjacent pairs, scan the
half-length sequence of pair results recursively, then fill in the even
positions from their left neighbours. A length-T scan costs
``C(T) = T - 1 + C(floor(T/2))`` combines (``C(1) = 0``, so
``C(T) <= 2T - 2``) with no padding and no identity element. The combined
pairs are a function of T only.

The left operand of every fill-in is a prefix of the whole sequence (under
REVERSE the right operand is a suffix), and so is every output slot: slot 0
of each recursion level is the first 2^L elements combined. When a scan
runs toward a pinned endpoint, those prefixes have a known special form (a
value vector, a state), so ``par_scan_stacked`` accepts a ``pin`` map that
reduces a prefix to the arrays its caller reads and a ``fill`` operator
that forms the fill-in product in that reduced form alone.
``combine`` then only ever sees input elements and pair results; the
outputs are ``pin`` of what the plain scan would return, and the tree and
the stats are unchanged.

Depth accounting tags every produced node with
``depth(parent) = max(depth(children)) + 1`` and reports the maximum, a
span surrogate: for T elements the parallel depth is at most
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
]


class ScanDirection(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass
class ScanStats:
    """Operator-call accounting for one scan.

    combine_count: total number of combine invocations (vectorized engines
        count one per combined pair, fill-in products included).
    combine_depth: longest chain of dependent combine calls, fill-ins
        included; ``fill`` and ``pin`` change neither count.
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


def _odd_even(
    x: Stack,
    d: int,
    out: Stack,
    dout: np.ndarray,
    combine: Callable[[Stack, Stack], Stack],
    fill: Callable[[Stack, Stack], Stack],
    pin: Callable[[Stack], Stack],
    stats: ScanStats,
) -> None:
    """Inclusive forward scan of ``x`` into ``out`` (same length, no aliasing).

    ``out`` holds ``pin`` of each prefix. Every input element has the
    level's depth ``d``; the depth of each prefix is written to ``dout``.
    Every step works on strided views, so a level costs one batched ``combine``
    for the pairs and one batched ``fill`` (pinned prefix (x) element) for
    the even slots.
    """
    n = x[0].shape[0]
    for o, r in zip(out, pin(tuple(a[0:1] for a in x))):
        o[0] = r[0]
    dout[0] = d
    if n == 1:
        return
    m = n // 2  # pairs (x[2i], x[2i+1]); their prefixes land on the odd slots
    y = combine(tuple(a[0 : 2 * m : 2] for a in x), tuple(a[1 : 2 * m : 2] for a in x))
    stats.combine_count += m
    _odd_even(y, d + 1, tuple(o[1::2] for o in out), dout[1::2], combine, fill, pin, stats)
    e = (n - 1) // 2  # even slots 2, 4, ...: left odd prefix (x) own element
    if e:
        res = fill(tuple(o[1 : 2 * e : 2] for o in out), tuple(a[2::2] for a in x))
        for o, r in zip(out, res):
            o[2::2] = r
        dout[2::2] = dout[1 : 2 * e : 2] + 1  # an odd slot is deeper than d
        stats.combine_count += e


def par_scan(
    elements: Sequence[E],
    combine: Callable[[E, E], E],
    direction: ScanDirection = ScanDirection.FORWARD,
) -> tuple[list[E], ScanStats]:
    """Odd-even scan over Python elements.

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
    fill: Callable[[Stack, Stack], Stack] | None = None,
    pin: Callable[[Stack], Stack] | None = None,
) -> tuple[Stack, ScanStats]:
    """Odd-even scan over a time-stacked element sequence.

    ``arrays`` is a tuple of ndarrays sharing leading axis T (one slot per
    element); ``combine`` maps two equally-batched stacks (possibly strided
    views) to their combination. Each tree level costs two batched calls:
    one for the adjacent pairs and one for the even-slot fill-in.

    ``fill``, if given, replaces ``combine`` in the fill-in step. It takes
    its arguments in ``combine``'s order, but its FORWARD left operand is
    always a prefix starting at element 0 and its REVERSE right operand a
    suffix ending at element T-1, so it may assume whatever special form
    the caller's pinned endpoint gives that operand. Without ``fill`` the
    engine uses ``combine``.

    ``pin``, if given, maps a batch of such prefixes (suffixes under
    REVERSE) to the arrays the caller reads of them, and the outputs take
    its shapes: slot k holds ``pin`` of the prefix ending (the suffix
    starting) at k. ``pin`` is applied to slot 0 of every tree level (the
    first element, the last under REVERSE, or a pair result), and ``fill``
    then takes and returns pinned prefixes in place of full ones.
    ``combine`` only ever sees input elements and pair results, and
    ``pin`` needs a ``fill``. The outputs equal ``pin`` applied to the
    outputs of the same scan without ``pin``, with the same stats.
    """
    n = int(arrays[0].shape[0])
    if n == 0:
        raise ValueError("empty scan")
    if any(int(x.shape[0]) != n for x in arrays[1:]):
        raise ValueError("stacked arrays disagree on length")
    if pin is not None and fill is None:
        raise ValueError("pin needs a fill that takes pinned operands")
    fill = combine if fill is None else fill
    pin = (lambda e: e) if pin is None else pin
    src, op, fop = arrays, combine, fill
    if direction is ScanDirection.REVERSE:
        # a reverse scan is a forward scan of the flipped sequence under the
        # swapped operators; the flipped views write straight into ``out``
        src = tuple(np.flip(x, axis=0) for x in arrays)

        def op(a: Stack, b: Stack) -> Stack:
            return combine(b, a)

        def fop(a: Stack, b: Stack) -> Stack:
            return fill(b, a)

    out = tuple(np.empty((n,) + r.shape[1:], r.dtype) for r in pin(tuple(a[0:1] for a in src)))
    dst = tuple(np.flip(o, axis=0) for o in out) if direction is ScanDirection.REVERSE else out
    depth = np.zeros(n, dtype=np.int64)
    stats = ScanStats()
    _odd_even(src, 0, dst, depth, op, fop, pin, stats)
    stats.combine_depth = int(depth.max())
    return out, stats
