"""Strict Gelfand-Tsetlin patterns and their ice counterparts.

A strict pattern of rank r is a triangular array of r + 1 rows, each row a
strictly decreasing tuple of nonnegative integers one shorter than the row
above, consecutive rows interleaving:

        a[0] = (l_1, .., l_{r+1})        (top row, the boundary data)
        a[1] = (..)                      (r entries)
        ..
        a[r] = (single entry)

The set of such patterns with fixed top row is in bijection with the
admissible states of the full system whose top boundary - positions are that
row: row k of the pattern is exactly ``layers[k]`` of the state (and the
forced empty ``layers[r+1]`` is dropped).

The statistic
-------------
Everything on the pattern side is read off one per-row statistic,
:func:`row_statistic`: for a row under the row above it (``up``) and a
family, the (case, box) of each entry.  The case compares entry j with the
two entries above it:

* equal to above-right ``up[j + 1]`` - "right",
* equal to above-left ``up[j]``      - "left",
* strictly between                   - "free".

The box is a running sum of the row against the row above: gamma sums
``row[l] - up[l + 1]`` over l >= j, delta sums ``up[l] - row[l]`` over
l <= j.  One table per family (:data:`KINDS`) turns a case into a weight
kind: gamma weighs left by g(box) and free by h(box), delta weighs right by
g(box) and free by h(box); every other entry weighs 1.

:func:`pattern_factors` lists the (kind, box) of every g/h entry for any
list of row families, in the row kernel's (kind, charge) format: a full
pattern reads every row under one family, a short pattern (three rows
l / a / m, :class:`ShortPattern`) reads its middle and bottom rows under the
two families of a two-row order.  ``coeffs.packed_sums`` sums the weights of
such factors exactly (``lattice.fill_weight`` folds one set), and
:func:`pattern_exponents` gives the monomial from the row sums.  Together
they reproduce the weight of the corresponding ice state; the pattern side
keeps its own box sums and row -> variable rule, so comparing the two
(``partition.matching_check``) tests the row kernel.  That check reads the
pattern side off :func:`pattern_profiles`, which walks every pattern under a
top row in the states' enumeration order and computes each (row above, row)
pair's factors once, without building a pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterator

from .lattice import Boundary, Factors, IceState, strict_interleavings

#: weight kind of each entry case, per family; a case left out weighs 1
KINDS = {"gamma": {"left": "g", "free": "h"},
         "delta": {"right": "g", "free": "h"}}


def _check_rows(rows) -> None:
    """Each row strictly decreasing, one shorter than the row above it and
    interleaving with it; raises ValueError otherwise."""
    for i, row in enumerate(rows):
        if any(a <= b for a, b in zip(row, row[1:])):
            raise ValueError("rows must be strictly decreasing")
        if i == 0:
            continue
        up = rows[i - 1]
        if len(row) != len(up) - 1:
            raise ValueError("row lengths must decrease by one")
        if any(not (up[j] >= v >= up[j + 1]) for j, v in enumerate(row)):
            raise ValueError("consecutive rows must interleave")


@dataclass(frozen=True)
class GTPattern:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_rows(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows) - 1

    @property
    def top(self) -> tuple[int, ...]:
        return self.rows[0]


def pattern_from_state(state: IceState) -> GTPattern:
    return GTPattern(rows=state.layers[:-1])


def state_from_pattern(pattern: GTPattern) -> IceState:
    """The state whose layers are the pattern's rows, the top one its boundary."""
    return IceState(boundary=Boundary(top_minus=pattern.top), layers=pattern.rows + ((),))


def enumerate_patterns(top: tuple[int, ...]) -> Iterator[GTPattern]:
    """All strict patterns with the given top row, in decreasing
    lexicographic order of their rows.

    Depth first over an explicit stack: each row's interleavings are pushed
    in increasing order, so the greatest is popped first."""
    stack = [(tuple(top),)]
    while stack:
        rows = stack.pop()
        if len(rows[-1]) <= 1:
            yield GTPattern(rows=rows)
        else:
            stack += [rows + (y,) for y in reversed(list(strict_interleavings(rows[-1])))]


def entry_case(up: tuple[int, ...], j: int, value: int) -> str:
    """'right' if the entry equals its above-right neighbour, 'left' if it
    equals above-left, 'free' otherwise."""
    if value == up[j + 1]:
        return "right"
    if value == up[j]:
        return "left"
    return "free"


def row_statistic(up: tuple[int, ...], row: tuple[int, ...],
                  family: str) -> list[tuple[str, int]]:
    """The (case, box) of each entry of `row` under `up`, left to right.

    gamma: box j = sum over l >= j of (row[l] - up[l + 1]);
    delta: box j = sum over l <= j of (up[l] - row[l]).
    """
    if family == "gamma":
        diffs = [a - b for a, b in zip(row, up[1:])]
        boxes = list(accumulate(diffs[::-1]))[::-1]
    elif family == "delta":
        diffs = [a - b for a, b in zip(up, row)]
        boxes = list(accumulate(diffs))
    else:
        raise ValueError(f"unknown family {family!r}")
    return [(entry_case(up, j, v), box) for j, (v, box) in enumerate(zip(row, boxes))]


def pattern_factors(rows, families) -> Factors:
    """(kind, box) of every g/h entry below the first row, row by row, with
    row i + 1 read under families[i] (weight-1 entries are left out)."""
    factors: list[tuple[str, int]] = []
    for up, row, family in zip(rows, rows[1:], families):
        entries = row_statistic(up, row, family)
        kinds = KINDS[family]
        factors += [(kinds[case], box) for case, box in entries if case in kinds]
    return tuple(factors)


def _exponents_of_sums(d, family: str) -> tuple[int, ...]:
    """Exponents of z_1, .., z_{r+1} from the row sums d_0, .., d_r, 0."""
    steps = tuple(map(sub, d, d[1:]))
    if family == "gamma":
        return steps[::-1]
    if family == "delta":
        return steps
    raise ValueError(f"unknown family {family!r}")


def pattern_exponents(pattern: GTPattern, family: str) -> tuple[int, ...]:
    """Exponent of z_1, .., z_{r+1} carried by the pattern.

    Vertex row k (between pattern rows k and k + 1) has exponent
    d_k - d_{k+1}, d_k the sum of pattern row k (d_{r+1} = 0); it carries
    z_{r+1-k} for gamma and z_{k+1} for delta.
    """
    return _exponents_of_sums([sum(row) for row in pattern.rows] + [0], family)


def pattern_profiles(top: tuple[int, ...], family: str) -> Iterator[tuple[Factors, tuple[int, ...]]]:
    """(:func:`pattern_factors`, :func:`pattern_exponents`) of every strict
    pattern with the given top row, every row read under `family`, in
    increasing lexicographic order of the rows: the order of
    ``lattice.enumerate_states`` and of the profiles the row kernel gives.

    Depth first over an explicit stack, each row's interleavings pushed in
    decreasing order so that the least is popped first.  The factors and
    sum of each row under the row above are computed once per call, and each
    row writes its sum in place; no pattern is built."""
    top = tuple(top)
    _check_rows((top,))
    if not top:
        raise ValueError("the top row needs at least one entry")
    if family not in KINDS:
        raise ValueError(f"unknown family {family!r}")
    rank = len(top) - 1
    sums = [0] * (rank + 2)  # d_0, .., d_r of the current pattern, then d_{r+1} = 0
    children: dict[tuple[int, ...], list] = {}  # layer -> (row, factors, sum) below it
    stack = [(0, top, sum(top), ())]  # (depth, row, its sum, factors down to it)
    while stack:
        depth, layer, total, factors = stack.pop()
        sums[depth] = total
        if depth == rank:
            yield factors, _exponents_of_sums(sums, family)
            continue
        below = children.get(layer)
        if below is None:
            below = children[layer] = [(row, pattern_factors((layer, row), (family,)), sum(row))
                                       for row in strict_interleavings(layer)]
        stack += [(depth + 1, row, row_sum, factors + row_factors)
                  for row, row_factors, row_sum in below]


# ---------------------------------------------------------------------------
#  Short patterns: three interleaved rows l / a / m with the middle row free
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShortPattern:
    """Rows l (length p + 1), a (length p), m (length p - 1), each strictly
    decreasing, with l/a interleaving and a/m interleaving."""

    top: tuple[int, ...]
    mid: tuple[int, ...]
    bot: tuple[int, ...]

    def __post_init__(self):
        _check_rows(self.rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return (self.top, self.mid, self.bot)


def middle_rows(top: tuple[int, ...], bot: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The strict interleavings of `top` that `bot` interleaves, descending:
    the middle rows of the short patterns, or slab states, between them."""
    return (mid for mid in strict_interleavings(top)
            if all(a >= b >= c for a, b, c in zip(mid, bot, mid[1:])))


def enumerate_short_patterns(top: tuple[int, ...], bot: tuple[int, ...]) -> list[ShortPattern]:
    """All short patterns with the given outer rows, in decreasing
    lexicographic order of the middle row (:func:`middle_rows`)."""
    top, bot = tuple(top), tuple(bot)
    if len(bot) != len(top) - 2:
        raise ValueError("bottom row must be two shorter than the top row")
    return [ShortPattern(top=top, mid=mid, bot=bot) for mid in middle_rows(top, bot)]
