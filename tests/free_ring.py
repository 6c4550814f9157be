"""Free-ring weights for tests: ``lattice.fill_weight`` over formal symbols.

The packed engine computes only in reduced rings.  Tests that pin which
(kind, charge) factors a weight carries, or how the Gauss relations act on
unreduced tables, weigh states in :class:`FreeSymbols` and sum them with
:func:`profile_sum`; nothing is packed.
"""
from __future__ import annotations

from whitice.coeffs import SymCoeff
from whitice.lattice import fill_weight
from whitice.laurent import LaurentPoly
from whitice.partition import boundary_profiles, spin_vector_of_exponents


class FreeSymbols:
    """A mode for ``fill_weight`` and ``LaurentPoly`` in the free ring:
    g(b) and h(b) are the formal symbols of b mod n, or of the raw charge b
    when n is None; g(0) = -u and h(0) = 1 - u.  It has no packing, so no
    partition function runs in it."""

    def __init__(self, n: int | None = None):
        self.n = n
        self.one = SymCoeff.from_fraction(1)
        self.zero = SymCoeff()
        self.u = SymCoeff.u_power(1)
        self.one_minus_u = self.one - self.u

    def _symbol(self, kind: str, b: int, at_zero: SymCoeff) -> SymCoeff:
        b = b % self.n if self.n else b
        return SymCoeff.symbol(kind, b) if b else at_zero

    def g(self, b: int) -> SymCoeff:
        return self._symbol("g", b, -self.u)

    def h(self, b: int) -> SymCoeff:
        return self._symbol("h", b, self.one_minus_u)


#: raw charges: a product shows every (kind, charge) a weight carries
RAW = FreeSymbols()


def profile_sum(boundary, family: str, mode=RAW) -> LaurentPoly:
    """Reference Z that packs nothing: the products of ``fill_weight`` over
    the boundary's state profiles, summed, in any mode."""
    terms: dict = {}
    for factors, exponents in boundary_profiles(boundary, family):
        terms[exponents] = terms.get(exponents, mode.zero) + fill_weight(factors, mode)
    return LaurentPoly(boundary.rank + 1, mode, terms)


def profile_table(boundary, family: str, mode=RAW) -> dict:
    """The terms of :func:`profile_sum` keyed by spin vector."""
    return {spin_vector_of_exponents(e, boundary, family): c
            for e, c in profile_sum(boundary, family, mode).terms.items()}
