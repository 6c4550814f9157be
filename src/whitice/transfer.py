"""Row transfer contraction: layer-by-layer evaluation of ice systems.

The one-row transfer operator of width C is conceptually a 2^C x 2^C matrix
V(alpha, beta) holding the weight of the unique admissible horizontal
completion of a row with vertical spins alpha on top and beta below (zero if
none exists).  It is never materialized: applying it to a supported layer
vector asks the row kernel (:func:`.lattice.row_fills`) for the fills below
each alpha and folds their factors into coefficients with
:func:`.lattice.fill_weight`.  This module has no row walker of its own.

Contraction sweeps a full system top to bottom, merging layer vectors as it
goes; many enumeration paths share layers, which is the speedup over direct
state enumeration.  Two-row systems (a gamma row above a delta row or the
reverse, top boundary carrying two more - spins than the bottom) use the same
kernel with explicit per-row (family, variable) assignments.
"""

from __future__ import annotations

import random

from .coeffs import Mode
from .lattice import Boundary, fill_weight, row_fills, row_variable
from .laurent import LaurentPoly

Layer = tuple[int, ...]
LayerVector = dict[Layer, LaurentPoly]


def apply_row(support: LayerVector, family: str, var_index: int,
              columns: int, mode: Mode, nvars: int) -> LayerVector:
    """One transfer step: w(beta) = sum_alpha v(alpha) * V(alpha, beta)."""
    out: LayerVector = {}
    for alpha, acc in support.items():
        for beta, (factors, zexp) in row_fills(alpha, columns, family).items():
            coeff = fill_weight(factors, mode)
            if mode.is_zero(coeff):
                continue
            shift = [0] * nvars
            shift[var_index] = zexp
            term = acc.mul_monomial(shift, coeff)
            if beta in out:
                out[beta] = out[beta] + term
            else:
                out[beta] = term
    return {key: val for key, val in out.items() if not val.is_zero()}


def contract_partition(boundary: Boundary, family: str, mode: Mode) -> LaurentPoly:
    """Z of a full system by top-to-bottom layer contraction."""
    r = boundary.rank
    nvars = r + 1
    support: LayerVector = {
        boundary.top_minus: LaurentPoly.const(nvars, mode, mode.one)
    }
    for row in range(r + 1):
        var = row_variable(family, row, r)
        support = apply_row(support, family, var, boundary.columns, mode, nvars)
    return support.get((), LaurentPoly.zero(nvars, mode))


# ---------------------------------------------------------------------------
#  Two-row systems
# ---------------------------------------------------------------------------

TWO_ROW_ORDERS = ("gamma-delta", "delta-gamma")


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
    if columns is None:
        columns = (top[0] + 1) if top else 1
    if top and top[0] >= columns:
        raise ValueError("top - position out of range")
    if bottom and bottom[0] >= columns:
        raise ValueError("bottom - position out of range")
    return columns


def slab_middle_values(top: Layer, bottom: Layer,
                       rows: tuple[tuple[str, int], tuple[str, int]],
                       mode: Mode, columns: int) -> dict[Layer, LaurentPoly]:
    """Weights of a two-row slab with explicit (family, variable) per row,
    split by the middle layer: middle layer -> two-variable weight."""
    (fam1, var1), (fam2, var2) = rows
    bottom = tuple(bottom)
    out: dict[Layer, LaurentPoly] = {}
    for mid, (factors1, zexp1) in row_fills(tuple(top), columns, fam1).items():
        lower = row_fills(mid, columns, fam2).get(bottom)
        if lower is None:
            continue
        factors2, zexp2 = lower
        exps = [0, 0]
        exps[var1] += zexp1
        exps[var2] += zexp2
        term = LaurentPoly.monomial(2, mode, exps, fill_weight(factors1 + factors2, mode))
        if not term.is_zero():
            out[mid] = term
    return out


def two_row_middle_values(top: Layer, bottom: Layer, order: str, mode: Mode,
                          columns: int | None = None) -> dict[Layer, LaurentPoly]:
    """Weight of the mixed two-row system split by the middle layer."""
    columns = check_two_row_boundary(top, bottom, columns)
    return slab_middle_values(top, bottom, two_row_rows(order), mode, columns)


def two_row_partition(top: Layer, bottom: Layer, order: str, mode: Mode,
                      columns: int | None = None) -> LaurentPoly:
    """Z of the two-row system with the given boundary, in (z1, z2)."""
    total = LaurentPoly.zero(2, mode)
    for value in two_row_middle_values(top, bottom, order, mode, columns).values():
        total = total + value
    return total


def two_row_check(top: Layer, bottom: Layer, mode: Mode, tol: float = 1e-9,
                  columns: int | None = None):
    """Compare Z(gamma-delta) with Z(delta-gamma) on one boundary.

    Returns (equal, Z_gd, Z_dg)."""
    z_gd = two_row_partition(top, bottom, "gamma-delta", mode, columns)
    z_dg = two_row_partition(top, bottom, "delta-gamma", mode, columns)
    return z_gd.equal(z_dg, tol), z_gd, z_dg


def coefficient_pair(l: Layer, m: Layer, k: int, mode: Mode):
    """The matched monomial coefficients refining the two-row equality.

    States of either mixed system with outer layers (l, m) and middle-layer
    sum k all carry the monomial z1^(d0-k) z2^(k-d2), d0 = sum(l),
    d2 = sum(m); this returns that coefficient in both systems.
    """
    d0 = sum(l)
    d2 = sum(m)
    exps = (d0 - k, k - d2)
    z_gd = two_row_partition(l, m, "gamma-delta", mode)
    z_dg = two_row_partition(l, m, "delta-gamma", mode)
    return z_gd.coeff(exps), z_dg.coeff(exps)


def random_two_row_boundary(rng: random.Random, max_width: int = 8,
                            require_states: bool = True) -> tuple[Layer, Layer, int]:
    """A random (top, bottom, columns) with |top| = |bottom| + 2, preferring
    boundaries whose systems are nonempty."""
    for _ in range(200):
        columns = rng.randint(3, max_width)
        size = rng.randint(2, max(2, columns // 2 + 1))
        if size > columns:
            continue
        top = tuple(sorted(rng.sample(range(columns), size), reverse=True))
        bottom = tuple(sorted(rng.sample(range(columns), size - 2), reverse=True))
        if not require_states:
            return top, bottom, columns
        if any(bottom in row_fills(mid, columns, "delta")
               for mid in row_fills(top, columns, "gamma")):
            return top, bottom, columns
    return top, bottom, columns
