"""Sparse multivariate polynomials over either coefficient mode.

A polynomial in variables z1..z{nvars} is a dict mapping exponent vectors
(tuples of ints, one per variable) to coefficients::

    LaurentPoly.terms = { (4, 1, 3): <coeff>, ... }

The zero polynomial is the empty dict, and a stored coefficient is never
zero: a term is dropped only when its coefficient is falsy (a ``SymCoeff``
with no term, or ``0j``), never by a floor.  Every product the package forms
runs in an exact ring; a numeric polynomial holds values read off that ring
once.  Polynomials compare by ``==`` alone, term map against term map.

Partition functions of ice systems are honest polynomials (all exponents
nonnegative); the representation itself does not care about signs of
exponents.
"""

from __future__ import annotations

from typing import Iterable

from .coeffs import Mode

Exponents = tuple[int, ...]


class LaurentPoly:
    __slots__ = ("nvars", "mode", "terms")

    def __init__(self, nvars: int, mode: Mode, terms: dict[Exponents, object] | None = None):
        self.nvars = nvars
        self.mode = mode
        self.terms: dict[Exponents, object] = {
            key: val for key, val in (terms or {}).items() if val}

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
                if new:
                    out[key] = new
                else:
                    del out[key]
            else:
                out[key] = val
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = out
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
                    if new:
                        out[key] = new
                    else:
                        del out[key]
                else:
                    out[key] = v1 * v2
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = out
        return result

    def scale(self, coeff) -> "LaurentPoly":
        if not coeff:
            return LaurentPoly(self.nvars, self.mode)
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = {key: coeff * val for key, val in self.terms.items()}
        return result

    def mul_monomial(self, exponents: Iterable[int], coeff) -> "LaurentPoly":
        shift = tuple(exponents)
        result = LaurentPoly(self.nvars, self.mode)
        if not coeff:
            return result
        result.terms = {tuple(a + b for a, b in zip(key, shift)): coeff * val
                        for key, val in self.terms.items()}
        return result

    # -- variable moves --------------------------------------------------------

    def swap_vars(self, i: int, j: int) -> "LaurentPoly":
        """Exchange the exponents of variables i and j in every term."""
        out = {}
        for key, val in self.terms.items():
            exps = list(key)
            exps[i], exps[j] = exps[j], exps[i]
            out[tuple(exps)] = val
        result = LaurentPoly(self.nvars, self.mode)
        result.terms = out
        return result

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
