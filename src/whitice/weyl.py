"""Functional equations of the partition function under z_i <-> z_{i+1}.

A monomial with exponent vector a lies in class j (mod n) for the row pair
(i, i+1) when a_i - a_{i+1} = j mod n.  Splitting Z along classes gives the
pieces Z_i^(j); the functional equation, in cleared polynomial form, says

    (z_{i+1}^n - u*z_i^n) * Z_i^(j)(sigma_i z)
        = p_j(z_{i+1}, z_i) * Z_i^(j)(z) + q_j(z_{i+1}, z_i) * Z_i^(n-j)(z)

with p_j(x, y) = (1-u) x^j y^(n-j) and q_j(x, y) = g(j)(x^n - y^n), reading
g(0) = -u.  :func:`functional_eq_check` checks it on a polynomial the
caller computed once in the reduced ring, n read off its mode, by ``==``
(products of rounded values differ in the last bits, so a numeric Z is
refused); nothing here computes a full system's Z.  At n = 1 there is a
single class and the identity collapses to the row-swap endpoint identity
of the ybe module.

The same exchange is realized locally by a partial crossing vertex that is
only defined on the all-+ and all-- spin configurations, with entries graded
by the charges carried on the horizontal edges (:func:`rvertex_allplus_weight`,
:func:`rvertex_allminus_weight`): for odd n, attaching it to the left or
right of a two-row slab gives the two sides of the functional equation on
that slab's Z.  Whether these two entries extend to a full crossing-vertex
table obeying the braid relation for n > 1 is not settled; nothing here
asserts such a completion (for n = 1 the completion is pinned and verified
in the ybe module).

Charge/monomial duality underlies the slab computation: in every gamma row
the z-exponent plus the left-edge charge label (the number of + horizontal
edges) equals the number of columns, hence a_i - a_{i+1} = c_{i+1} - c_i for
the left-edge labels c.  The slab class c_top - c_bot is therefore read off
the z-exponents of the slab's monomials; ``verify charges``
(:func:`charge_duality_check`) checks the duality, and the row kernel against
a direct count that shares no code with it, on each distinct row of a
boundary once: one walk over the layer graph, so the cost grows with the
rows, not the states.  A failure names the row's two layers, its depth and
the failed check.
"""

from __future__ import annotations

from .coeffs import Mode, SymbolicMode
from .lattice import (
    FAMILIES,
    Boundary,
    direct_fill,
    row_fills,
    row_vertices,
    strict_interleavings,
)
from .laurent import LaurentPoly


# ---------------------------------------------------------------------------
#  Class decomposition
# ---------------------------------------------------------------------------

def decompose(z: LaurentPoly, i: int) -> dict[int, LaurentPoly]:
    """Split z by the class (a_i - a_{i+1}) mod n, n = ``z.mode.n``, of each
    monomial.  ``i`` is 1-based: variables i-1 and i of the polynomial.
    Every class 0..n-1 is present in the result (possibly zero)."""
    _check_pair(z, i)
    n = z.mode.n
    buckets: dict[int, dict] = {j: {} for j in range(n)}
    for exps, coeff in z.terms.items():
        j = (exps[i - 1] - exps[i]) % n
        buckets[j][exps] = coeff
    return {j: LaurentPoly(z.nvars, z.mode, terms) for j, terms in buckets.items()}


def _check_pair(z: LaurentPoly, i: int) -> None:
    if not 1 <= i <= z.nvars - 1:
        raise ValueError(f"row pair index {i} out of range for {z.nvars} variables")


def _class_part(z: LaurentPoly, i: int, j: int) -> LaurentPoly:
    """Class j of :func:`decompose`, built alone: one pass over z, not n."""
    n = z.mode.n
    return LaurentPoly(z.nvars, z.mode, {exps: coeff for exps, coeff in z.terms.items()
                                         if (exps[i - 1] - exps[i]) % n == j % n})


# ---------------------------------------------------------------------------
#  The cleared functional equation
# ---------------------------------------------------------------------------

def _monomial(mode: Mode, nvars: int, coeff, *powers) -> LaurentPoly:
    """coeff times the product of var^e over the (var, e) pairs."""
    exps = [0] * nvars
    for var, e in powers:
        exps[var] += e
    return LaurentPoly.monomial(nvars, mode, exps, coeff)


def p_poly(j: int, mode: Mode, nvars: int, x: int, y: int) -> LaurentPoly:
    """(1-u) * x^j * y^(n-j) with x, y variable indices and j taken mod n."""
    n = mode.n
    return _monomial(mode, nvars, mode.one_minus_u, (x, j % n), (y, n - j % n))


def q_poly(j: int, mode: Mode, nvars: int, x: int, y: int) -> LaurentPoly:
    """g(j) * (x^n - y^n); the coefficient policy reads g(0) as -u."""
    n = mode.n
    return (_monomial(mode, nvars, mode.one, (x, n))
            - _monomial(mode, nvars, mode.one, (y, n))).scale(mode.g(j))


def clearing_factor(mode: Mode, nvars: int, x: int, y: int) -> LaurentPoly:
    """x^n - u*y^n, the shared denominator of the rational factor pair."""
    n = mode.n
    return (_monomial(mode, nvars, mode.one, (x, n))
            - _monomial(mode, nvars, mode.u, (y, n)))


def functional_eq_check(z: LaurentPoly, i: int, j: int):
    """Check the cleared exchange identity on z, any polynomial of the
    reduced ring (a full system's Z among them), for the variable pair
    (i, i+1) and class j mod n = ``z.mode.n``.  Returns (ok, lhs, rhs).
    For n > 1 the identity relies on g(j)g(n-j) = u, which the reduced ring
    applies at every product.  ValueError on a numeric z."""
    mode, n = z.mode, z.mode.n
    if not isinstance(mode, SymbolicMode):
        raise ValueError(f"the exchange identity is checked on an exact Z, not a {mode.name} one")
    _check_pair(z, i)
    part, partner = _class_part(z, i, j), _class_part(z, i, n - j)
    x, y = i, i - 1  # z_{i+1}, z_i as variable indices
    lhs = clearing_factor(mode, z.nvars, x, y) * part.swap_vars(i - 1, i)
    rhs = (p_poly(j, mode, z.nvars, x, y) * part
           + q_poly(j, mode, z.nvars, x, y) * partner)
    return lhs == rhs, lhs, rhs


# ---------------------------------------------------------------------------
#  Charge/monomial duality
# ---------------------------------------------------------------------------

def charge_duality_check(boundary: Boundary):
    """Check of the row kernel against a direct count, and of the
    charge/monomial duality, on each distinct row of the boundary once.

    A row's verdict depends only on its two layers, so the check walks the
    boundary's layer graph depth by depth: below each distinct layer, in
    ascending order, it asks the kernel once per family for its fills and
    checks every strict interleaving.  For both families the kernel's fill
    (factors and z-exponent) must equal the one counted vertex by vertex from
    both layers; and in each gamma row, the kernel's z-exponent plus the
    left-edge label (the number of + horizontal edges) must equal the number
    of columns, which forces a_i - a_{i+1} = c_{i+1} - c_i across adjacent
    rows.  Returns (ok, failures) where failures lists ((top, bottom), row,
    reason) once per failed check of a row, row counted from the top.
    """
    columns = boundary.columns
    failures = []
    layers = {boundary.top_minus}
    for row in range(boundary.rows):
        below = set()
        for top in sorted(layers):
            fills = [row_fills(top, family) for family in FAMILIES]
            for bot in strict_interleavings(top):
                below.add(bot)
                for family, family_fills in zip(FAMILIES, fills):
                    fill = family_fills.get(bot)
                    vertices = row_vertices(top, bot, columns, family)
                    if fill != direct_fill(vertices):
                        failures.append(((top, bot), row, f"{family} kernel/direct count mismatch"))
                    # the label: the + boundary edge and the + edges east of
                    # the first vertex, which that vertex's gamma charge counts
                    if family == "gamma" and (fill is None
                                              or fill[1] + 1 + vertices[0][2] != columns):
                        failures.append(((top, bot), row, "gamma exponent/label duality"))
        layers = below
    return not failures, failures


# ---------------------------------------------------------------------------
#  Partial crossing vertex (odd n)
# ---------------------------------------------------------------------------

def rvertex_allplus_weight(j: int, jprime: int, mode: Mode) -> LaurentPoly:
    """All-+ entry of the partial crossing vertex, classes j (outer) and
    jprime (inner) mod n, as a polynomial in (z_i, z_{i+1}) = (var 0, var 1)."""
    n = mode.n
    j %= n
    jprime %= n
    if j == 0:
        if jprime != 0:
            return LaurentPoly.zero(2, mode)
        # p_0 + q_0 = z_i^n - u*z_{i+1}^n
        return clearing_factor(mode, 2, x=0, y=1)
    if jprime == j:
        return p_poly(j, mode, 2, x=1, y=0)
    if jprime == (n - j) % n:
        return q_poly(j, mode, 2, x=1, y=0)
    return LaurentPoly.zero(2, mode)


def rvertex_allminus_weight(mode: Mode, d_i: int = 0, d_i1: int = 0) -> LaurentPoly:
    """All-- entry: zero unless both charges vanish mod n, else z_{i+1}^n - u*z_i^n."""
    if d_i % mode.n or d_i1 % mode.n:
        return LaurentPoly.zero(2, mode)
    return clearing_factor(mode, 2, x=1, y=0)

