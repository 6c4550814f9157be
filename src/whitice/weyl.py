"""Functional equations of the partition function under z_i <-> z_{i+1}.

A monomial with exponent vector a lies in class j (mod n) for the row pair
(i, i+1) when a_i - a_{i+1} = j mod n.  Splitting Z along classes gives the
pieces Z_i^(j); the functional equation, in cleared polynomial form, says

    (z_{i+1}^n - u*z_i^n) * Z_i^(j)(sigma_i z)
        = p_j(z_{i+1}, z_i) * Z_i^(j)(z) + q_j(z_{i+1}, z_i) * Z_i^(n-j)(z)

with p_j(x, y) = (1-u) x^j y^(n-j) and q_j(x, y) = g(j)(x^n - y^n), reading
g(0) = -u.  At n = 1 there is a single class and the identity collapses to
the row-swap endpoint identity checked in the ybe module.

The same exchange is realized locally by a partial crossing vertex that is
only defined on the all-+ and all-- spin configurations, with entries graded
by the charges carried on the horizontal edges; attaching it to the left or
right of a two-row slab must give equal partition functions, which is the
functional equation restricted to that slab.  Whether these two entries
extend to a full crossing-vertex table obeying the braid relation for n > 1
is not settled; nothing here asserts such a completion (for n = 1 the
completion is pinned and verified in the ybe module).

Charge/monomial duality underlies the slab computation: in every gamma row
the z-exponent plus the left-edge charge label (the number of + horizontal
edges) equals the number of columns, hence a_i - a_{i+1} = c_{i+1} - c_i for
the left-edge labels c.  The slab class c_top - c_bot is therefore read off
the z-exponents of the slab's monomials; ``verify charges``
(:func:`charge_duality_check`) checks the duality row by row against a direct
count that shares no code with the row kernel.
"""

from __future__ import annotations

from .coeffs import Mode
from .lattice import (
    FAMILIES,
    PLUS,
    Boundary,
    boundary_from_lambda,
    direct_fill,
    enumerate_states,
    fill_row,
    row_fills,
    row_vertices,
)
from .laurent import LaurentPoly
from .partition import partition_function
from .transfer import check_two_row_boundary, slab_middle_values


# ---------------------------------------------------------------------------
#  Class decomposition
# ---------------------------------------------------------------------------

def decompose(z: LaurentPoly, i: int, n: int) -> dict[int, LaurentPoly]:
    """Split z by the class (a_i - a_{i+1}) mod n of each monomial.

    ``i`` is 1-based: variables i-1 and i of the polynomial.  Every class
    0..n-1 is present in the result (possibly zero).
    """
    if not 1 <= i <= z.nvars - 1:
        raise ValueError(f"row pair index {i} out of range for {z.nvars} variables")
    buckets: dict[int, dict] = {j: {} for j in range(n)}
    for exps, coeff in z.terms.items():
        j = (exps[i - 1] - exps[i]) % n
        buckets[j][exps] = coeff
    return {j: LaurentPoly(z.nvars, z.mode, terms) for j, terms in buckets.items()}


# ---------------------------------------------------------------------------
#  The p/q factors
# ---------------------------------------------------------------------------

def p_poly(j: int, n: int, mode: Mode, nvars: int, x: int, y: int) -> LaurentPoly:
    """(1-u) * x^j * y^(n-j) with x, y variable indices and j taken mod n."""
    j = j % n
    exps = [0] * nvars
    exps[x] += j
    exps[y] += n - j
    return LaurentPoly.monomial(nvars, mode, exps, mode.one_minus_u)


def q_poly(j: int, n: int, mode: Mode, nvars: int, x: int, y: int) -> LaurentPoly:
    """g(j) * (x^n - y^n); the coefficient policy reads g(0) as -u."""
    xe = [0] * nvars
    xe[x] = n
    ye = [0] * nvars
    ye[y] = n
    diff = (LaurentPoly.monomial(nvars, mode, xe, mode.one)
            - LaurentPoly.monomial(nvars, mode, ye, mode.one))
    return diff.scale(mode.g(j))


def clearing_factor(n: int, mode: Mode, nvars: int, x: int, y: int) -> LaurentPoly:
    """x^n - u*y^n, the shared denominator of the rational factor pair."""
    xe = [0] * nvars
    xe[x] = n
    ye = [0] * nvars
    ye[y] = n
    return (LaurentPoly.monomial(nvars, mode, xe, mode.one)
            - LaurentPoly.monomial(nvars, mode, ye, mode.u))


# ---------------------------------------------------------------------------
#  Functional equation on a full system
# ---------------------------------------------------------------------------

def functional_eq_check(lam, i: int, j: int, n: int, mode: Mode,
                        family: str = "gamma", tol: float = 1e-8):
    """Check the cleared exchange identity for the row pair (i, i+1), class j.

    Returns (ok, lhs, rhs).  For n > 1 a numeric coefficient policy is the
    meaningful choice, since the identity relies on g(j)g(n-j) = u.
    """
    boundary = boundary_from_lambda(lam)
    rank = boundary.rank
    if not 1 <= i <= rank:
        raise ValueError(f"row pair index {i} out of range for rank {rank}")
    nvars = rank + 1
    z = partition_function(boundary, family, mode)
    parts = decompose(z, i, n)
    zj = parts[j % n]
    znj = parts[(n - j) % n]
    x, y = i, i - 1  # z_{i+1}, z_i as variable indices
    lhs = clearing_factor(n, mode, nvars, x, y) * zj.swap_vars(i - 1, i)
    rhs = (p_poly(j, n, mode, nvars, x, y) * zj
           + q_poly(j, n, mode, nvars, x, y) * znj)
    return lhs.equal(rhs, tol), lhs, rhs


# ---------------------------------------------------------------------------
#  Charge/monomial duality
# ---------------------------------------------------------------------------

def charge_duality_check(boundary: Boundary):
    """Per-state check of the row kernel against a direct count, and of the
    charge/monomial duality.

    For every state and both families, each row's kernel fill (factors and
    z-exponent) must equal the one counted vertex by vertex from both layers;
    and in each gamma row, the kernel's z-exponent plus the left-edge label
    (the number of + horizontal edges) must equal the number of columns,
    which forces a_i - a_{i+1} = c_{i+1} - c_i across adjacent rows.  A row's
    verdict depends only on its two layers, so each distinct row is checked
    once per call.  Returns (ok, failures) where failures lists
    (layers, row, reason).
    """
    columns = boundary.columns
    fills: dict[tuple, dict] = {}  # (layer, family) -> the kernel's fills below it
    verdicts: dict[tuple, list[str]] = {}  # (layer, layer below) -> failed checks

    def row_verdict(top, bot) -> list[str]:
        failed = []
        for family in FAMILIES:
            if (top, family) not in fills:
                fills[top, family] = row_fills(top, columns, family)
            fill = fills[top, family].get(bot)
            if fill != direct_fill(row_vertices(top, bot, columns, family)):
                failed.append(f"{family} kernel/direct count mismatch")
            if family == "gamma" and (
                    fill is None
                    or fill[1] + fill_row(top, bot, columns).count(PLUS) != columns):
                failed.append("gamma exponent/label duality")
        return failed

    failures = []
    for state in enumerate_states(boundary):
        for k, top, bot in state.vertex_rows():
            if (top, bot) not in verdicts:
                verdicts[top, bot] = row_verdict(top, bot)
            failures.extend((state.layers, k, reason) for reason in verdicts[top, bot])
    return not failures, failures


# ---------------------------------------------------------------------------
#  Partial crossing vertex (odd n) on a two-row slab
# ---------------------------------------------------------------------------

def rvertex_allplus_weight(j: int, jprime: int, n: int,
                           mode: Mode) -> LaurentPoly:
    """All-+ entry of the partial crossing vertex, classes j (outer) and
    jprime (inner), as a polynomial in (z_i, z_{i+1}) = (var 0, var 1)."""
    j %= n
    jprime %= n
    if j == 0:
        if jprime != 0:
            return LaurentPoly.zero(2, mode)
        # p_0 + q_0 = z_i^n - u*z_{i+1}^n
        return clearing_factor(n, mode, 2, x=0, y=1)
    if jprime == j:
        return p_poly(j, n, mode, 2, x=1, y=0)
    if jprime == (n - j) % n:
        return q_poly(j, n, mode, 2, x=1, y=0)
    return LaurentPoly.zero(2, mode)


def rvertex_allminus_weight(n: int, mode: Mode, d_i: int = 0,
                            d_i1: int = 0) -> LaurentPoly:
    """All-- entry: zero unless both charges vanish, else z_{i+1}^n - u*z_i^n."""
    if d_i % n or d_i1 % n:
        return LaurentPoly.zero(2, mode)
    return clearing_factor(n, mode, 2, x=1, y=0)


def fe_via_rvertex_two_row(top, bottom, j: int, n: int, mode: Mode,
                           tol: float = 1e-8, columns: int | None = None):
    """Attach the partial crossing vertex to a two-gamma-row slab, top row
    carrying z2 and bottom row z1.

    Left attachment: each state of the slab is weighted by the all-+ entry
    whose inner class is the state's label difference c_top - c_bot, which
    by the charge duality is exp_z1 - exp_z2 of its monomial.  Right
    attachment: the all-- entry (charges forced to zero at the right
    boundary) times the class-j part of the slab partition function with the
    two variables exchanged.  The two must agree; returns (ok, left, right).
    Only odd n is supported.
    """
    if n % 2 == 0:
        raise ValueError("partial crossing vertex requires odd n")
    columns = check_two_row_boundary(top, bottom, columns)
    slab = slab_middle_values(tuple(top), tuple(bottom), (("gamma", 1), ("gamma", 0)),
                              mode, columns)
    left = LaurentPoly.zero(2, mode)
    z = LaurentPoly.zero(2, mode)
    for monomial in slab.values():  # one state per middle layer
        (exps,) = monomial.terms
        z = z + monomial
        left = left + rvertex_allplus_weight(j, exps[0] - exps[1], n, mode) * monomial
    zj = decompose(z, 1, n)[j % n]
    right = rvertex_allminus_weight(n, mode) * zj.swap_vars(0, 1)
    return left.equal(right, tol), left, right
