"""Row transfer contraction: layer-by-layer evaluation of ice systems.

The one-row transfer operator of width C is conceptually a 2^C x 2^C matrix
V(alpha, beta) holding the weight of the unique admissible horizontal
completion of a row with vertical spins alpha on top and beta below (zero if
none exists).  It is never materialized: applying it to a supported layer
vector asks the row kernel (:func:`.lattice.row_fills`) for the fills below
each alpha and folds their factors into coefficients.  This module has no
row walker of its own.

Contraction sweeps a full system top to bottom, merging layer vectors as it
goes; many enumeration paths share layers, which is the speedup over direct
state enumeration.

One loop contracts every mode, numeric and symbolic, exactly in the reduced
ring of its n, in the format the mode's ``packing`` chooses (:mod:`.coeffs`,
"Packed coefficients"): a layer vector maps each layer to {g-part: {packed
z-monomial: int}}.  The z-monomial packs the exponent of variable v into
bits [v*b, (v+1)*b), b = C.bit_length(); one row adds at most C to its one
variable, and each variable belongs to one row.  A row's fills are packed
once per factor tuple, scaled for the - spins below the row, and the
u-power of a product of g-parts is folded into the multiplier once
per (weight part, layer part) pair, so the inner step is one int
multiply-add.  :func:`contract_packed` returns Z packed, and
:func:`contract_partition` unpacks it once (:func:`unpack_partition`).
:func:`apply_row` is the same step on LaurentPoly vectors through
:func:`.lattice.fill_weight`, kept as the exact-ring reference.

Two-row systems (a gamma row above a delta row or the reverse, top boundary
carrying two more - spins than the bottom) are slabs with explicit per-row
(family, variable) assignments: their states are walked by
:func:`.lattice.state_profiles`, the way a full system's are by
enumeration.  The two-row and statement-B checks compare the packed sums
of :func:`slab_sums`, which walks each row order once;
:func:`two_row_partition` unpacks one order's Z for a report.
"""

from __future__ import annotations

import random
from math import comb, prod

from .coeffs import Mode, packed_sums, weigh
from .lattice import Boundary, fill_weight, row_fills, row_variable, state_profiles
from .laurent import LaurentPoly

Layer = tuple[int, ...]
LayerVector = dict[Layer, LaurentPoly]


def apply_row(support: LayerVector, family: str, var_index: int,
              columns: int, mode: Mode, nvars: int) -> LayerVector:
    """One transfer step on LaurentPoly layer vectors in the exact ring of a
    :func:`.lattice.fill_weight` mode: w(beta) = sum_alpha v(alpha) *
    V(alpha, beta).  The reference of :func:`contract_packed`'s row
    loop; no contraction calls it."""
    out: LayerVector = {}
    for alpha, acc in support.items():
        for beta, (factors, zexp) in row_fills(alpha, columns, family).items():
            shift = [0] * nvars
            shift[var_index] = zexp
            term = acc.mul_monomial(shift, fill_weight(factors, mode))
            out[beta] = out[beta] + term if beta in out else term
    return {key: val for key, val in out.items() if not val.is_zero()}


def contract_packed(boundary: Boundary, family: str, mode: Mode) -> tuple:
    """Z of a full system by top-to-bottom layer contraction with the mode's
    packed coefficients (module docstring), left packed: (packing, slots,
    {g-part: {packed z: int}}), zero ints dropped.  :func:`exponent_reader`
    reads a packed z."""
    r = boundary.rank
    columns = boundary.columns
    slots = r * (r + 1) // 2  # the - spins below the top row
    # layer sequences: they bound the paths to any layer and the states
    packing = mode.packing(slots, prod(comb(columns, j) for j in range(1, r + 1)))
    ring = packing.ring
    products = ring.products
    times_u = packing.times_u
    zbits = columns.bit_length()
    support = {boundary.top_minus: {(): {0: 1}}}  # the constant 1
    for row in range(r + 1):
        zshift = zbits * row_variable(family, row, r)
        weights: dict[tuple, tuple] = {}  # fill factors -> packed weight
        out: dict[Layer, dict] = {}
        for alpha, parts in support.items():
            for beta, (factors, zexp) in row_fills(alpha, columns, family).items():
                weight = weights.get(factors)
                if weight is None:
                    weight = weights[factors] = packing.pack(factors, r - row)
                if not weight:
                    continue
                dz = zexp << zshift
                target = out.setdefault(beta, {})
                for fpart, mult in weight:
                    for part, values in parts.items():
                        tpart, s = products.get((part, fpart)) or ring.g_product(part, fpart)
                        m = times_u(mult, s) if s else mult
                        acc = target.setdefault(tpart, {})
                        for z, value in values.items():
                            key = z + dz
                            acc[key] = acc.get(key, 0) + value * m
        support = {}
        for beta, parts in out.items():
            kept = {}
            for part, values in parts.items():
                values = {z: value for z, value in values.items() if value}
                if values:
                    kept[part] = values
            if kept:
                support[beta] = kept
    return packing, slots, support.get((), {})


def exponent_reader(boundary: Boundary):
    """The exponent vector (z_1, .., z_{r+1}) of a packed z of
    :func:`contract_packed`."""
    zbits = boundary.columns.bit_length()
    mask = (1 << zbits) - 1
    shifts = [zbits * v for v in range(boundary.rank + 1)]
    return lambda z: tuple([(z >> shift) & mask for shift in shifts])


def unpack_partition(boundary: Boundary, packed: tuple) -> LaurentPoly:
    """Z from :func:`contract_packed`'s (packing, slots, parts), unpacked once."""
    packing, slots, parts = packed
    exponents = exponent_reader(boundary)
    return LaurentPoly(boundary.rank + 1, packing.mode, {
        exponents(z): coeff for z, coeff in packing.unpack(parts, slots).items()})


def contract_partition(boundary: Boundary, family: str, mode: Mode) -> LaurentPoly:
    """Z of a full system: :func:`contract_packed`, unpacked once."""
    return unpack_partition(boundary, contract_packed(boundary, family, mode))


# ---------------------------------------------------------------------------
#  Two-row systems
# ---------------------------------------------------------------------------

TWO_ROW_ORDERS = ("gamma-delta", "delta-gamma")

NO_STATE = "the boundary admits no state"


def two_row_rows(order: str) -> tuple[tuple[str, int], tuple[str, int]]:
    """(family, variable) of the top and bottom row.  The variable travels
    with the family: gamma rows always carry z1, delta rows z2."""
    if order == "gamma-delta":
        return (("gamma", 0), ("delta", 1))
    if order == "delta-gamma":
        return (("delta", 1), ("gamma", 0))
    raise ValueError(f"unknown two-row order {order!r}")


def check_two_row_boundary(top: Layer, bottom: Layer, columns: int | None) -> int:
    top = tuple(top)
    bottom = tuple(bottom)
    for row in (top, bottom):
        if any(a <= b for a, b in zip(row, row[1:])):
            raise ValueError("boundary - positions must be strictly decreasing")
    if any(c < 0 for c in top + bottom):
        raise ValueError("boundary - positions must be nonnegative")
    if len(top) != len(bottom) + 2:
        raise ValueError("top boundary must carry two more - spins than the bottom")
    columns = top[0] + 1 if columns is None else columns
    if top[0] >= columns:
        raise ValueError("top - position out of range")
    if bottom and bottom[0] >= columns:
        raise ValueError("bottom - position out of range")
    return columns


def slab_partition(top: Layer, bottom: Layer, rows, mode: Mode,
                   columns: int) -> LaurentPoly:
    """Z of a two-row slab with explicit (family, variable) per row, in
    (z1, z2): its state profiles weighed with a slot for each - spin below
    the top layer."""
    profiles = state_profiles(tuple(top), rows, columns, tuple(bottom))
    return LaurentPoly(2, mode, weigh(profiles, mode, 2 * len(top) - 3))


def two_row_partition(top: Layer, bottom: Layer, order: str, mode: Mode,
                      columns: int | None = None) -> LaurentPoly:
    """Z of the two-row system with the given boundary, in (z1, z2)."""
    columns = check_two_row_boundary(top, bottom, columns)
    return slab_partition(top, bottom, two_row_rows(order), mode, columns)


def slab_sums(top: Layer, bottom: Layer, mode: Mode, columns: int) -> tuple:
    """(ks, gamma-delta sums, delta-gamma sums) of a checked two-row boundary,
    each row order walked once: the ascending middle-row sums k of its
    states, and each order's zero-free packed {g-part: {(z1, z2) exponents:
    int}} (:func:`.coeffs.packed_sums`).  Both weight tables have the same
    six admissible configurations, so admissibility does not depend on the
    family: both orders admit the same states and share one packing, and
    equal maps mean equal Z.  A state with middle-row sum k carries
    z1^(sum(top) - k) in the gamma-delta order, so k is read off it there."""
    gd, dg = (state_profiles(tuple(top), two_row_rows(order), columns, tuple(bottom))
              for order in TWO_ROW_ORDERS)
    slots = 2 * len(top) - 3
    return (sorted({sum(top) - exponents[0] for _, exponents in gd}),
            packed_sums(gd, mode, slots)[1], packed_sums(dg, mode, slots)[1])


def graded_entries(sums: dict, exponents: tuple[int, int]) -> dict:
    """{g-part: int} of one monomial in packed slab sums: its coefficient, packed."""
    return {part: values[exponents] for part, values in sums.items() if exponents in values}


def two_row_check(top: Layer, bottom: Layer, mode: Mode, columns: int | None = None) -> bool:
    """Whether Z(gamma-delta) equals Z(delta-gamma) on one boundary: their
    packed sums (:func:`slab_sums`) compared by ``==``.  A boundary that
    admits no state raises ValueError rather than passing with 0 = 0."""
    ks, sums_gd, sums_dg = slab_sums(top, bottom, mode,
                                     check_two_row_boundary(top, bottom, columns))
    if not ks:
        raise ValueError(NO_STATE)
    return sums_gd == sums_dg


def random_two_row_boundary(rng: random.Random,
                            max_width: int = 8) -> tuple[Layer, Layer, int]:
    """A random (top, bottom, columns) with |top| = |bottom| + 2, preferring
    boundaries whose systems are nonempty."""
    for _ in range(200):
        columns = rng.randint(3, max_width)
        size = rng.randint(2, columns // 2 + 1)
        top = tuple(sorted(rng.sample(range(columns), size), reverse=True))
        bottom = tuple(sorted(rng.sample(range(columns), size - 2), reverse=True))
        if state_profiles(top, two_row_rows("gamma-delta"), columns, bottom):
            return top, bottom, columns
    return top, bottom, columns
