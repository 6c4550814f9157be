"""Sparse multivariate polynomials over either coefficient mode.

A polynomial in variables z1..z{nvars} is a dict mapping exponent vectors
(tuples of ints, one per variable) to coefficients::

    LaurentPoly.terms = { (4, 1, 3): <coeff>, ... }

The zero polynomial is the empty dict.  Coefficients follow the polynomial's
mode object (symbolic: exact, zero terms dropped; numeric: complex, terms
relatively smaller than REL_FLOOR times the largest magnitude are dropped so
that cancellation noise never accumulates).

Partition functions of ice systems are honest polynomials (all exponents
nonnegative); the representation itself does not care about signs of
exponents.
"""

from __future__ import annotations

from typing import Iterable

from .coeffs import Mode

Exponents = tuple[int, ...]

REL_FLOOR = 1e-14


class LaurentPoly:
    __slots__ = ("nvars", "mode", "terms")

    def __init__(self, nvars: int, mode: Mode, terms: dict[Exponents, object] | None = None):
        self.nvars = nvars
        self.mode = mode
        self.terms: dict[Exponents, object] = {}
        if terms:
            for key, val in terms.items():
                if not mode.is_zero(val):
                    self.terms[key] = val
            self._prune()

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, mode: Mode) -> "LaurentPoly":
        return cls(nvars, mode)

    @classmethod
    def const(cls, nvars: int, mode: Mode, coeff) -> "LaurentPoly":
        return cls(nvars, mode, {(0,) * nvars: coeff})

    @classmethod
    def monomial(cls, nvars: int, mode: Mode, exponents: Iterable[int], coeff) -> "LaurentPoly":
        exps = tuple(exponents)
        if len(exps) != nvars:
            raise ValueError(f"expected {nvars} exponents, got {len(exps)}")
        return cls(nvars, mode, {exps: coeff})

    @classmethod
    def var(cls, nvars: int, mode: Mode, index: int, power: int = 1) -> "LaurentPoly":
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, mode, {tuple(exps): mode.one})

    # -- canonical form -------------------------------------------------------

    def _prune(self) -> None:
        if self.mode.name != "numeric" or not self.terms:
            return
        top = max(abs(c) for c in self.terms.values())
        if top == 0:
            self.terms.clear()
            return
        floor = REL_FLOOR * top
        for key in [k for k, c in self.terms.items() if abs(c) < floor]:
            del self.terms[key]

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            if key in out:
                new = out[key] + val
                if self.mode.is_zero(new):
                    del out[key]
                else:
                    out[key] = new
            else:
                out[key] = val
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = out
        result._prune()
        return result

    def __neg__(self) -> "LaurentPoly":
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = {key: -val for key, val in self.terms.items()}
        return result

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[Exponents, object] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                if key in out:
                    new = out[key] + v1 * v2
                    if self.mode.is_zero(new):
                        del out[key]
                    else:
                        out[key] = new
                else:
                    out[key] = v1 * v2
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = out
        result._prune()
        return result

    def scale(self, coeff) -> "LaurentPoly":
        if self.mode.is_zero(coeff):
            return LaurentPoly(self.nvars, self.mode)
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = {key: coeff * val for key, val in self.terms.items()}
        return result

    def mul_monomial(self, exponents: Iterable[int], coeff=None) -> "LaurentPoly":
        shift = tuple(exponents)
        result = LaurentPoly(self.nvars, self.mode)
        if coeff is None:
            result.terms = {tuple(a + b for a, b in zip(key, shift)): val
                            for key, val in self.terms.items()}
        else:
            if self.mode.is_zero(coeff):
                return result
            result.terms = {tuple(a + b for a, b in zip(key, shift)): coeff * val
                            for key, val in self.terms.items()}
        return result

    # -- variable moves --------------------------------------------------------

    def permute_vars(self, perm: Iterable[int]) -> "LaurentPoly":
        """Send variable index t to perm[t]; perm must be a permutation."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation of the variable indices")
        out = {}
        for key, val in self.terms.items():
            exps = [0] * self.nvars
            for t, e in enumerate(key):
                exps[perm[t]] = e
            out[tuple(exps)] = val
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = out
        return result

    def swap_vars(self, i: int, j: int) -> "LaurentPoly":
        perm = list(range(self.nvars))
        perm[i], perm[j] = perm[j], perm[i]
        return self.permute_vars(perm)

    # -- queries ----------------------------------------------------------------

    def is_zero(self, tol: float = 0.0) -> bool:
        if not self.terms:
            return True
        if self.mode.name == "numeric" and tol > 0:
            return all(abs(c) <= tol for c in self.terms.values())
        return False

    def equal(self, other: "LaurentPoly", tol: float = 1e-9) -> bool:
        """Exact equality in symbolic mode; in numeric mode the largest
        per-monomial difference must stay below tol * (1 + largest magnitude)."""
        self._check(other)
        if self.mode.name == "symbolic":
            return self.terms == other.terms
        mags = [abs(c) for c in self.terms.values()] + [abs(c) for c in other.terms.values()]
        bound = tol * (1 + (max(mags) if mags else 0.0))
        for key in self.terms.keys() | other.terms.keys():
            a = self.terms.get(key, 0j)
            b = other.terms.get(key, 0j)
            if abs(a - b) > bound:
                return False
        return True

    def coeff(self, exponents: Iterable[int]):
        return self.terms.get(tuple(exponents), self.mode.zero)

    def sorted_terms(self) -> list[tuple[Exponents, object]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        raise TypeError("LaurentPoly is not hashable")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key, val in sorted(self.terms.items(), key=lambda kv: kv[0],
                               reverse=True):
            factors = [f"z{i + 1}" if e == 1 else f"z{i + 1}^{e}"
                       for i, e in enumerate(key) if e != 0]
            cs = str(val)
            if factors:
                if cs == "1":
                    body = "*".join(factors)
                elif cs == "-1":
                    body = "-" + "*".join(factors)
                else:
                    if " " in cs:
                        cs = f"({cs})"
                    body = "*".join([cs] + factors)
            else:
                body = cs
            pieces.append(body)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"
