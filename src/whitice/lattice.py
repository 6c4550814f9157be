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
left to right and its z-exponent.  The result depends on neither n, the
coefficient mode nor a lattice width.  :func:`state_profiles` is the one
walker over states: it stacks the kernel down any list of (family, variable)
rows, a full system or a two-row slab, and returns each state's factors and
exponents, which ``coeffs.packed_sums`` sums exactly.  Contraction applies
the kernel layer by layer instead.  :func:`fill_weight` folds the factors of
one state or one vertex into an exact-ring coefficient, for single weights
and references.

:func:`row_vertices` recomputes one row from both of its layers by a
direct per-vertex count: :func:`fill_row` forces its horizontal spins once
and :func:`row_charges` counts each vertex's charge from them.  They share
no code with the kernel and serve as the reference it is checked against
(``weyl.charge_duality_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
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


@dataclass(frozen=True)
class Boundary:
    """Fixed boundary data of a full system: its top - positions."""

    top_minus: tuple[int, ...]  # descending column labels carrying - on top

    def __post_init__(self):
        cols = tuple(self.top_minus)
        if list(cols) != sorted(cols, reverse=True) or len(set(cols)) != len(cols):
            raise ValueError("top_minus must be strictly decreasing")
        if not cols or cols[-1] < 0:
            raise ValueError("top_minus needs at least one - spin and no negative column")

    @property
    def columns(self) -> int:  # C = lam_r + r + 1
        return self.top_minus[0] + 1

    @property
    def rank(self) -> int:
        return len(self.top_minus) - 1

    @property
    def rows(self) -> int:
        return len(self.top_minus)


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
    return Boundary(top_minus=top)


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


Factors = tuple[tuple[str, int], ...]  # (kind, raw charge) of each g/h vertex
Fill = tuple[Factors, int]  # (factors left to right, z-exponent)


def _row_steps(table: dict[Config, tuple[str, int]]) -> dict[tuple, dict[int, tuple]]:
    """(north, south or None for either) -> {west: the admissible steps of
    one vertex, + south first: (south is -, east spin, g/h kind or None for
    weight 1, z-increment)}."""
    steps = {}
    for nsp in (PLUS, MINUS):
        for forced in (None, PLUS, MINUS):
            by_west = {}
            for west in (PLUS, MINUS):
                found = []
                for ssp in (PLUS, MINUS) if forced is None else (forced,):
                    east = nsp * ssp * west
                    entry = table.get((nsp, ssp, west, east))
                    if entry is not None:
                        kind, inc = entry
                        found.append((ssp == MINUS, east, None if kind == "1" else kind, inc))
                by_west[west] = tuple(found)
            steps[nsp, forced] = by_west
    return steps


ROW_STEPS = {family: _row_steps(weight_table(family)) for family in FAMILIES}


def row_fills(top: tuple[int, ...], family: str,
              bottom: tuple[int, ...] | None = None) -> dict[tuple[int, ...], Fill]:
    """The row kernel: every admissible fill of one row below `top`, or,
    given a `bottom` layer, the fill that ends on it (if any).

    Returns {bottom layer: (factors, z-exponent)}, where the factors are the
    (kind, raw charge) of the row's g/h vertices left to right.  Both layers
    force the horizontal spins, so a fill is unique once the bottom layer is
    fixed.

    The walk covers the ``top[0] + 1`` columns from the leftmost top - east.
    West of it every vertex is all +: weight 1, no z, and only + edges to
    the west, which neither charge counts (gamma counts + edges east, delta
    - edges west).  So a wider lattice changes no fill and adds no bottom -.

    The walk goes column by column, left to right from the + boundary, over
    a frontier of partial walks (west spin, marks so far, z-exponent, bottom
    layer, factors).  Each vertex branches on its bottom spin, which a given
    `bottom` forces, so then at most one walk lives; parity forces the east
    spin, and a branch dies on a crossing configuration.  A branch
    whose east spin is + with no - left on the top layer from there on is cut
    at once: north + and west + admit only south +, which keeps east +, so it
    could only end on +; the cut also drops every walk that would end on +.
    Each partial walk is expanded + branch before - branch, in frontier
    order, so the frontier stays in the order of a depth-first walk taking +
    first, and bottom layers come out in that order.  Numeric sums over the
    fills depend on it.
    """
    weight_table(family)  # rejects an unknown family
    if not top:
        return {}
    steps = ROW_STEPS[family]
    gamma = family == "gamma"
    mark = PLUS if gamma else MINUS  # the spin a charge counts
    top_set = frozenset(top)
    below = None if bottom is None else frozenset(bottom)
    last = top[-1]  # label of the last top -
    # (west, marks on the edges west of the vertex, z-exponent, bottom, (kind, marks))
    frontier = [(PLUS, 0, 0, (), ())]
    for label in range(top[0], -1, -1):
        north = MINUS if label in top_set else PLUS
        by_west = steps[north, None if below is None else MINUS if label in below else PLUS]
        live_plus = label > last  # an east + still meets a top - further east
        grown = []
        for west, marks, zexp, walked, factors in frontier:
            marks += west == mark
            for south_minus, east, kind, inc in by_west[west]:
                if east == PLUS and not live_plus:
                    continue
                grown.append((east, marks, zexp + inc,
                              walked + (label,) if south_minus else walked,
                              factors + ((kind, marks),) if kind else factors))
        frontier = grown
    if bottom is not None:  # a bottom label west of top[0] is never walked
        frontier = [walk for walk in frontier if walk[3] == tuple(bottom)]
    # every walk left ends on -; gamma: marks is now the row's + count, and
    # the charge counts the + edges east of the vertex; delta counts - edges west
    if gamma:
        return {walked: (tuple([(kind, marks - m) for kind, m in factors]), zexp)
                for _, marks, zexp, walked, factors in frontier}
    return {walked: (factors, zexp) for _, _, zexp, walked, factors in frontier}


def state_profiles(top: tuple[int, ...], rows,
                   bottom: tuple[int, ...] = ()) -> tuple[tuple[Factors, tuple[int, ...]], ...]:
    """The row kernel stacked: the (factors, exponents) profile of every state
    of the rows below `top` that ends on `bottom`.

    `rows` gives each row's (family, variable) top to bottom; every row
    carries its own variable, numbered 0..len(rows)-1.  A profile is the
    state's (kind, raw charge) factors, row by row and left to right, and
    its exponent per variable.  The walk is depth first over an explicit
    stack, each layer's children in ascending order, so a full system's
    profiles come out in :func:`enumerate_states` order.  The fills below a
    layer are computed once per call, and each row writes its z-exponent in
    place; the last row walks toward `bottom` alone.
    """
    variables = [var for _, var in rows]
    if sorted(variables) != list(range(len(rows))):
        raise ValueError("each row needs its own variable, numbered from 0")
    last = len(rows) - 1
    bottom = tuple(bottom)
    memo: list[dict] = [{} for _ in rows]  # per row: layer -> its children
    exponents = [0] * len(rows)
    profiles = []
    stack = [(0, tuple(top), (), 0)]  # (row, layer above it, factors, z-exponent above)
    while stack:
        row, layer, factors, zexp = stack.pop()
        if row:
            exponents[variables[row - 1]] = zexp
        children = memo[row].get(layer)
        if children is None:
            if row == last:
                children = row_fills(layer, rows[row][0], bottom).get(bottom)
            else:  # descending, so that the stack pops the least layer first
                children = sorted(row_fills(layer, rows[row][0]).items(), reverse=True)
            memo[row][layer] = children
        if row < last:
            stack += [(row + 1, bot, factors + row_factors, z)
                      for bot, (row_factors, z) in children]
        elif children is not None:
            exponents[variables[row]] = children[1]
            profiles.append((factors + children[0], tuple(exponents)))
    return tuple(profiles)


def fill_weight(factors, mode):
    """Coefficient of a fill: the product, left to right, of g(charge) or
    h(charge) over its factors, in the exact ring of `mode` (a SymbolicMode,
    or a free-ring mode with the same ``one``, ``g`` and ``h``)."""
    coeff = mode.one
    for kind, charge in factors:
        if kind != "1":
            coeff = coeff * (mode.g(charge) if kind == "g" else mode.h(charge))
            if not coeff:
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
    edges = fill_row(top, bot, columns)
    if edges is None:
        return None
    table = weight_table(family)
    topset = frozenset(top)
    botset = frozenset(bot)
    charges = row_charges(edges, family)
    vertices = []
    for p in range(columns):
        c = columns - 1 - p
        config = (MINUS if c in topset else PLUS, MINUS if c in botset else PLUS,
                  edges[p], edges[p + 1])
        vertices.append(table[config] + (charges[p],))
    return vertices


def direct_fill(vertices) -> Fill:
    """The :func:`row_fills` entry of a row, from its :func:`row_vertices`."""
    return (tuple((kind, charge) for kind, _, charge in vertices if kind != "1"),
            sum(zexp for _, zexp, _ in vertices))


def strict_interleavings(upper: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All strictly decreasing tuples y with upper[i] >= y[i] >= upper[i+1],
    in decreasing lexicographic order.  Each such y is weakly decreasing, so
    it is strict exactly when its entries are distinct."""
    ranges = [range(hi, lo - 1, -1) for hi, lo in zip(upper, upper[1:])]
    return (y for y in product(*ranges) if len(set(y)) == len(y))


def layer_rows(boundary: Boundary) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Each distinct row of the boundary once, as (depth, top layer, bottom
    layer): depth by depth from the top, the distinct layers of a depth in
    ascending order, and below each layer its :func:`strict_interleavings`.
    The rows below one layer come together, and a one-entry layer has only
    the bottom ``()``, so the last row is not special.  The walk holds one
    depth's layers, never a state."""
    layers = {boundary.top_minus}
    for depth in range(boundary.rows):
        below = set()
        for top in sorted(layers):
            for bottom in strict_interleavings(top):
                below.add(bottom)
                yield depth, top, bottom
        layers = below


def count_rows(boundary: Boundary, limit: int) -> int:
    """Number of rows :func:`layer_rows` walks, or limit + 1 once the count
    passes `limit`: the walk stops there, so it never holds more layers
    than the rows it counted."""
    rows = 0
    for _ in layer_rows(boundary):
        rows += 1
        if rows > limit:
            return limit + 1
    return rows


def enumerate_states(boundary: Boundary) -> list[IceState]:
    """All admissible states, sorted lexicographically by their layers.

    Depth first over an explicit stack: each layer's interleavings are
    pushed in decreasing order, so the least is popped first and the states
    come out sorted."""
    states: list[IceState] = []
    stack = [(boundary.top_minus,)]
    while stack:
        layers = stack.pop()
        if len(layers) == boundary.rows:
            states.append(IceState(boundary=boundary, layers=layers + ((),)))
        else:
            stack += [layers + (y,) for y in strict_interleavings(layers[-1])]
    return states


#: most distinct layers :func:`count_states` keeps for one row.  The staircase
#: (12, 10, .., 2, 0) reaches 5,314; the top row of (24, 22, .., 2, 0) alone
#: has 7,865,521, which took 1.42 GB to hold
MAX_COUNTED_LAYERS = 500_000


def count_states(boundary: Boundary, limit: int | None = None) -> int:
    """Number of admissible states: the paths down the layers, counted one
    row at a time over the distinct layers that row can reach.

    With a `limit`, returns limit + 1 once the paths counted into one row
    pass it: a strict layer always has an interleaving (``upper[:-1]``), so
    the number of paths never falls from one row to the next.  ValueError
    once a row reaches more than :data:`MAX_COUNTED_LAYERS` distinct layers,
    checked as each layer is added."""
    bound = MAX_COUNTED_LAYERS if limit is None else min(limit, MAX_COUNTED_LAYERS)
    paths = {boundary.top_minus: 1}
    for _ in range(boundary.rank):
        below: dict[tuple[int, ...], int] = {}
        total = 0
        for upper, count in paths.items():
            for y in strict_interleavings(upper):
                below[y] = below.get(y, 0) + count
                total += count
                if total > bound:  # each layer adds a path: len(below) <= total
                    if limit is not None and total > limit:
                        return limit + 1
                    if len(below) > MAX_COUNTED_LAYERS:
                        raise ValueError(f"a row of the boundary reaches more than the "
                                         f"{MAX_COUNTED_LAYERS} distinct layers a count keeps")
        paths = below
    return sum(paths.values())
