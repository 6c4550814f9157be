"""Square-ice grids: boundaries, admissible states, the row kernel.

Geometry conventions
--------------------
A system of rank r has r + 1 numbered rows of vertices and C columns labeled
0..C-1 *increasing from right to left* (the leftmost column has the largest
label).  Every edge carries a spin, written +1 / -1.

Boundary conditions for a dominant weight lam = (lam_r, .., lam_1, 0):
the top edge of column lam_j + j is -, every other top edge is +, the bottom
edge of every column is +, each row starts with + on its left end and ends
with - on its right end, and C = lam_r + r + 1.

A state is recorded by its vertical spins only: ``layers[k]`` is the
descending tuple of column labels whose vertical edge between vertex row k-1
and vertex row k carries -, with ``layers[0]`` the top boundary and
``layers[r+1]`` the (empty) bottom boundary.  Horizontal spins are never
stored; each row's horizontal edges are forced from the vertical spins by the
even-parity rule (an admissible vertex has an even number of + among its four
edges).

Vertex configurations are keyed (N, S, W, E).  Of the eight even-parity
configurations the two "crossing" ones, (+,-,+,-) and (-,+,-,+), are
inadmissible; the remaining six receive weights from the gamma or delta
table.  The charge argument of a g/h weight counts + spins strictly east of
the vertex in its row (gamma) or - spins strictly west of it (delta), reduced
mod n at evaluation time.

The row kernel
--------------
Every lattice weight in the package is built from one row transfer matrix.
:func:`row_fills` walks one row below a given top layer and returns, for each
bottom layer that admits a fill, the (kind, raw charge) of its g/h vertices
left to right and its z-exponent.  The result does not depend on n or on the
coefficient mode; :func:`fill_weight` folds such factors into a coefficient
of a mode, and is the only place a weight kind becomes ``mode.g`` or
``mode.h``.  Enumeration, contraction, two-row slabs, functional equations
and the Yang-Baxter vertex weights all go through these functions.

:func:`fill_row`, :func:`row_configs` and :func:`row_charges` recompute one
row from both of its layers by a direct per-vertex count.  They share no
code with the kernel and serve as the reference it is checked against
(``partition.weight_grid``, ``weyl.charge_duality_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

PLUS = 1
MINUS = -1

Config = tuple[int, int, int, int]  # (N, S, W, E)

FORBIDDEN: frozenset[Config] = frozenset({(PLUS, MINUS, PLUS, MINUS),
                                          (MINUS, PLUS, MINUS, PLUS)})

ADMISSIBLE: tuple[Config, ...] = tuple(sorted(
    (n, s, w, e)
    for n in (PLUS, MINUS) for s in (PLUS, MINUS)
    for w in (PLUS, MINUS) for e in (PLUS, MINUS)
    if n * s * w * e == 1 and (n, s, w, e) not in FORBIDDEN
))

# weight kind per admissible configuration: ("1" | "g" | "h", z-exponent)
GAMMA_TABLE: dict[Config, tuple[str, int]] = {
    (PLUS, PLUS, PLUS, PLUS): ("1", 0),
    (MINUS, MINUS, MINUS, MINUS): ("1", 1),
    (MINUS, MINUS, PLUS, PLUS): ("g", 0),
    (PLUS, PLUS, MINUS, MINUS): ("1", 1),
    (PLUS, MINUS, MINUS, PLUS): ("h", 1),
    (MINUS, PLUS, PLUS, MINUS): ("1", 0),
}

DELTA_TABLE: dict[Config, tuple[str, int]] = {
    (PLUS, PLUS, PLUS, PLUS): ("1", 0),
    (MINUS, MINUS, MINUS, MINUS): ("g", 1),
    (MINUS, MINUS, PLUS, PLUS): ("1", 0),
    (PLUS, PLUS, MINUS, MINUS): ("1", 1),
    (PLUS, MINUS, MINUS, PLUS): ("h", 1),
    (MINUS, PLUS, PLUS, MINUS): ("1", 0),
}

FAMILIES = ("gamma", "delta")


def weight_table(family: str) -> dict[Config, tuple[str, int]]:
    if family == "gamma":
        return GAMMA_TABLE
    if family == "delta":
        return DELTA_TABLE
    raise ValueError(f"unknown family {family!r}")


def row_variable(family: str, row: int, rank: int) -> int:
    """0-based index of the z variable carried by vertex row `row` (counted
    from the top) in a full system of the given rank.

    gamma rows carry z_{r+1}, .., z_1 top to bottom; delta rows z_1, .., z_{r+1}.
    """
    if family == "gamma":
        return rank - row
    if family == "delta":
        return row
    raise ValueError(f"unknown family {family!r}")


def is_admissible(config: Config) -> bool:
    n, s, w, e = config
    return n * s * w * e == 1 and config not in FORBIDDEN


@dataclass(frozen=True)
class Boundary:
    """Fixed boundary data of a full system: C columns, top - positions."""

    columns: int
    top_minus: tuple[int, ...]  # descending column labels carrying - on top

    def __post_init__(self):
        cols = tuple(self.top_minus)
        if list(cols) != sorted(cols, reverse=True) or len(set(cols)) != len(cols):
            raise ValueError("top_minus must be strictly decreasing")
        if cols and (cols[0] >= self.columns or cols[-1] < 0):
            raise ValueError("top_minus out of column range")
        if not cols:
            raise ValueError("top boundary needs at least one - spin")

    @property
    def rank(self) -> int:
        return len(self.top_minus) - 1

    @property
    def rows(self) -> int:
        return len(self.top_minus)

    @property
    def top_row(self) -> tuple[int, ...]:
        """The strictly dominant vector lam + rho, largest entry first."""
        return self.top_minus


def boundary_from_lambda(lam) -> Boundary:
    """Boundary for a dominant weight given as (lam_r, .., lam_1, lam_0 = 0)."""
    lam = tuple(int(x) for x in lam)
    if not lam:
        raise ValueError("lam must have at least one part")
    if lam[-1] != 0:
        raise ValueError("lam must end with the part 0")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("lam must be weakly decreasing")
    r = len(lam) - 1
    # entry lam_j of the paper indexing is lam[r - j]; top - at lam_j + j
    top = tuple(sorted((lam[r - j] + j for j in range(r + 1)), reverse=True))
    return Boundary(columns=lam[0] + r + 1, top_minus=top)


def lambda_of(boundary: Boundary) -> tuple[int, ...]:
    """Inverse of :func:`boundary_from_lambda`."""
    r = boundary.rank
    return tuple(v - (r - i) for i, v in enumerate(boundary.top_minus))


@dataclass(frozen=True)
class IceState:
    """Vertical-spin data of one admissible state of a full system."""

    boundary: Boundary
    layers: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.boundary.rank

    def vertex_rows(self) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """Yield (row index from the top, layer above, layer below)."""
        for k in range(self.boundary.rows):
            yield k, self.layers[k], self.layers[k + 1]


Factors = tuple[tuple[str, int], ...]  # (kind, raw charge) of each g/h vertex
Fill = tuple[Factors, int]  # (factors left to right, z-exponent)


def row_fills(top: tuple[int, ...], columns: int, family: str) -> dict[tuple[int, ...], Fill]:
    """The row kernel: every admissible fill of one row below `top`.

    Returns {bottom layer: (factors, z-exponent)}, where the factors are the
    (kind, raw charge) of the row's g/h vertices left to right.  Both layers
    force the horizontal spins, so a fill is unique once the bottom layer is
    fixed.  The walk goes left to right from the + boundary, branching on the
    bottom spin; parity forces the east spin, and a walk dies on a crossing
    configuration or when it does not end on -.  Bottom layers come out in
    the walk's order (+ branch first).
    """
    table = weight_table(family)
    gamma = family == "gamma"
    mark = PLUS if gamma else MINUS  # the spin a charge counts
    north = [MINUS if columns - 1 - p in top else PLUS for p in range(columns)]
    fills: dict[tuple[int, ...], Fill] = {}
    bottom: list[int] = []
    factors: list[tuple[str, int]] = []  # (kind, marks on edges 0..p)

    def walk(p: int, west: int, marks: int, zexp: int) -> None:
        if p == columns:
            if west == MINUS:
                # gamma: marks is now the row's + count, and the charge counts
                # the + edges east of the vertex; delta counts - edges west
                fills[tuple(bottom)] = (
                    tuple((kind, marks - m) for kind, m in factors) if gamma
                    else tuple(factors), zexp)
            return
        nsp = north[p]
        marks += west == mark
        for ssp in (PLUS, MINUS):
            east = nsp * ssp * west
            entry = table.get((nsp, ssp, west, east))
            if entry is None:
                continue
            kind, inc = entry
            if ssp == MINUS:
                bottom.append(columns - 1 - p)
            if kind != "1":
                factors.append((kind, marks))
            walk(p + 1, east, marks, zexp + inc)
            if kind != "1":
                factors.pop()
            if ssp == MINUS:
                bottom.pop()

    walk(0, PLUS, 0, 0)
    return fills


def fill_weight(factors, mode):
    """Coefficient of a fill: the product, left to right, of g(charge) or
    h(charge) over its factors; factors of kind "1" contribute 1."""
    coeff = mode.one
    for kind, charge in factors:
        if kind != "1":
            coeff = coeff * (mode.g(charge) if kind == "g" else mode.h(charge))
            if mode.is_zero(coeff):
                break
    return coeff


def fill_row(top: tuple[int, ...], bot: tuple[int, ...], columns: int):
    """Forced horizontal spins of one row, or None if no admissible fill.

    `top`/`bot` list the column labels carrying - above/below the row.  The
    result is a tuple of C + 1 spins, left boundary first (always +), east
    edge of the rightmost vertex last (must come out -).
    """
    topset = frozenset(top)
    botset = frozenset(bot)
    edges = [PLUS]
    w = PLUS
    for p in range(columns):
        c = columns - 1 - p
        nsp = MINUS if c in topset else PLUS
        ssp = MINUS if c in botset else PLUS
        e = nsp * ssp * w  # even parity forces the east spin
        if (nsp, ssp, w, e) in FORBIDDEN:
            return None
        edges.append(e)
        w = e
    if edges[-1] != MINUS:
        return None
    return tuple(edges)


def row_configs(top: tuple[int, ...], bot: tuple[int, ...], columns: int):
    """List of (N,S,W,E) configurations left to right, or None."""
    edges = fill_row(top, bot, columns)
    if edges is None:
        return None
    topset = frozenset(top)
    botset = frozenset(bot)
    out = []
    for p in range(columns):
        c = columns - 1 - p
        nsp = MINUS if c in topset else PLUS
        ssp = MINUS if c in botset else PLUS
        out.append((nsp, ssp, edges[p], edges[p + 1]))
    return out


def row_charges(edges: tuple[int, ...], family: str) -> list[int]:
    """Raw (unreduced) charge of each vertex, left to right.

    gamma: number of + horizontal spins strictly east of the vertex;
    delta: number of - horizontal spins strictly west of the vertex.
    """
    columns = len(edges) - 1
    if family == "gamma":
        # charge at p counts + among the edges strictly east: indices p+1..C
        charges = [0] * columns
        suffix = 0
        for p in range(columns - 1, -1, -1):
            suffix += 1 if edges[p + 1] == PLUS else 0
            charges[p] = suffix
        return charges
    if family == "delta":
        charges = []
        acc = 0
        for p in range(columns):
            acc += 1 if edges[p] == MINUS else 0
            charges.append(acc)
        return charges
    raise ValueError(f"unknown family {family!r}")


def row_vertices(top: tuple[int, ...], bot: tuple[int, ...], columns: int,
                 family: str):
    """(kind, z-exponent, raw charge) of each vertex of one row, left to
    right, counted directly from both layers; None if the row has no fill."""
    configs = row_configs(top, bot, columns)
    if configs is None:
        return None
    table = weight_table(family)
    charges = row_charges(fill_row(top, bot, columns), family)
    return [table[config] + (charge,) for config, charge in zip(configs, charges)]


def direct_fill(vertices) -> Fill:
    """The :func:`row_fills` entry of a row, from its :func:`row_vertices`."""
    return (tuple((kind, charge) for kind, _, charge in vertices if kind != "1"),
            sum(zexp for _, zexp, _ in vertices))


def strict_interleavings(upper: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All strictly decreasing tuples y with upper[i] >= y[i] >= upper[i+1]."""
    m = len(upper)
    if m <= 1:
        yield ()
        return
    acc: list[int] = []

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == m - 1:
            yield tuple(acc)
            return
        hi = upper[i] if not acc else min(upper[i], acc[-1] - 1)
        lo = upper[i + 1]
        for y in range(hi, lo - 1, -1):
            acc.append(y)
            yield from rec(i + 1)
            acc.pop()

    yield from rec(0)


def enumerate_states(boundary: Boundary) -> list[IceState]:
    """All admissible states, sorted lexicographically by their layers."""
    states: list[IceState] = []
    layers: list[tuple[int, ...]] = [boundary.top_minus]

    def rec(k: int):
        if k == boundary.rows:
            states.append(IceState(boundary=boundary, layers=tuple(layers) + ((),)))
            return
        for y in strict_interleavings(layers[-1]):
            layers.append(y)
            rec(k + 1)
            layers.pop()

    rec(1)
    states.sort(key=lambda s: s.layers)
    return states


def count_states(boundary: Boundary) -> int:
    """Number of admissible states, by recursion on the layers, memoised on
    the layer for the duration of one call."""

    @lru_cache(maxsize=None)
    def rec(upper: tuple[int, ...]) -> int:
        if len(upper) <= 1:
            return 1
        return sum(rec(y) for y in strict_interleavings(upper))

    return rec(boundary.top_minus)
