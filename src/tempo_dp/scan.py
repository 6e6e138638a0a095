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
of each recursion level is the first 2^L elements combined. A scan toward
a pinned endpoint therefore never needs a prefix as an element. Given the
value at that endpoint as ``start`` (a value vector, a state) and an
``apply`` that acts with a batch of elements on a batch of values,
``par_scan_stacked`` runs the first pair of each level and every fill-in
as ``apply`` calls, so ``combine`` only ever sees elements and pair
results. Without ``start``, element 0 is the start and ``combine`` the
action; the tree and the stats are the same either way.

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

    combine_count: total number of combine and apply invocations
        (vectorized engines count one per pair, fill-ins included).
    combine_depth: longest chain of dependent combine and apply calls.
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
    s: Stack,
    x: Stack,
    d: int,
    out: Stack,
    dout: np.ndarray,
    combine: Callable[[Stack, Stack], Stack],
    apply: Callable[[Stack, Stack], Stack],
    stats: ScanStats,
) -> None:
    """Forward scan of ``x`` from the batch-of-one value ``s`` into ``out``.

    ``out`` has one slot more than ``x`` (no aliasing): slot 0 is ``s`` and
    slot k + 1 is ``s`` acted on by elements 0..k. ``s`` and every element
    have the level's depth ``d``; the depth of each slot is written to
    ``dout``. Every step works on strided views, so a level costs one
    batched ``combine`` for the element pairs and two batched ``apply``
    calls: ``s`` on element 0, and each odd slot on the element after it
    for the even slots.
    """
    for o, a in zip(out, s):
        o[0] = a[0]
    dout[0] = d
    n = x[0].shape[0]
    if n == 0:
        return
    # the pairs (s, x[0]), (x[1], x[2]), ... land on the odd slots 1, 3, ...
    s1 = apply(s, tuple(a[0:1] for a in x))
    m = (n - 1) // 2
    pairs = tuple(a[1 : 2 * m : 2] for a in x), tuple(a[2 : 2 * m + 1 : 2] for a in x)
    y = combine(*pairs) if m else pairs[0]
    stats.combine_count += 1 + m
    _odd_even(s1, y, d + 1, tuple(o[1::2] for o in out), dout[1::2], combine, apply, stats)
    e = n // 2  # even slots 2, 4, ...: left odd slot acted on by its own element
    if e:
        res = apply(tuple(o[1 : 2 * e : 2] for o in out), tuple(a[1 : 2 * e : 2] for a in x))
        for o, r in zip(out, res):
            o[2::2] = r
        dout[2::2] = dout[1 : 2 * e : 2] + 1  # an odd slot is deeper than d
        stats.combine_count += e


def _swapped(op: Callable[[Stack, Stack], Stack]) -> Callable[[Stack, Stack], Stack]:
    return lambda a, b: op(b, a)


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
    start: Stack | None = None,
    apply: Callable[[Stack, Stack], Stack] | None = None,
) -> tuple[Stack, ScanStats]:
    """Odd-even scan over a time-stacked element sequence.

    ``arrays`` is a tuple of ndarrays sharing leading axis T (one slot per
    element); ``combine`` maps two equally-batched stacks (possibly strided
    views) to their combination.

    Without ``start`` this is the plain inclusive scan: T output slots,
    slot k the prefix ending at element k (the suffix starting at k under
    REVERSE), of the elements' shapes.

    ``start`` and ``apply`` go together. ``start`` is a tuple of unbatched
    arrays, the value at a pinned endpoint, and ``apply(values, elements)``
    (``apply(elements, values)`` under REVERSE) maps a batch of values and
    a batch of elements to the values they reach. The outputs then have
    T + 1 slots of ``start``'s shapes and dtypes: ``start`` in slot 0 (slot
    T under REVERSE), and in slot k + 1 (slot k) ``start`` acted on by the
    elements up to k (from k). ``combine`` only ever sees elements and
    ``apply`` only values, and the tree and ``ScanStats`` are those of the
    plain scan of ``start`` as an element followed by the elements.
    """
    n = int(arrays[0].shape[0])
    if any(int(x.shape[0]) != n for x in arrays[1:]):
        raise ValueError("stacked arrays disagree on length")
    if (start is None) != (apply is None):
        raise ValueError("start and apply go together")
    apply = combine if start is None else apply
    src = arrays
    if direction is ScanDirection.REVERSE:
        # a reverse scan is a forward scan of the flipped sequence under the
        # swapped operators; the flipped views write straight into ``out``
        src = tuple(np.flip(x, axis=0) for x in arrays)
        combine, apply = _swapped(combine), _swapped(apply)
    if start is None:  # element 0 is the start and combine the action
        if n == 0:
            raise ValueError("empty scan")
        s, src = tuple(a[0:1] for a in src), tuple(a[1:] for a in src)
    else:
        s = tuple(np.asarray(a)[None] for a in start)
    out = tuple(np.empty((src[0].shape[0] + 1,) + a.shape[1:], a.dtype) for a in s)
    dst = tuple(np.flip(o, axis=0) for o in out) if direction is ScanDirection.REVERSE else out
    depth = np.zeros(len(out[0]), dtype=np.int64)
    stats = ScanStats()
    _odd_even(s, src, 0, dst, depth, combine, apply, stats)
    stats.combine_depth = int(depth.max())
    return out, stats
