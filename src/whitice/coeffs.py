"""Coefficient arithmetic for ice partition functions.

Weights of lattice configurations live in one of two interchangeable
coefficient domains:

* symbolic -- exact elements of the ring Q[u][g_1, .., g_{n-1}, h_1, .., h_{n-1}]
  where u is a formal parameter (numerically 1/q) and g_a, h_a are formal
  Gauss-sum symbols indexed by a charge class mod n.  A coefficient is stored
  as a dict mapping a monomial key to a rational number::

      SymCoeff.terms = { (gpart, hpart, upow): Fraction, ... }

  with gpart/hpart sorted tuples of (symbol index, power) pairs and upow the
  power of u.  Zero terms are never stored, so equality is dict equality.

* numeric -- plain ``complex`` values, with g_a and h_a drawn from a table of
  Gauss sums over a finite field (see :mod:`whitice.gauss`).

A mode object (:class:`SymbolicMode` or :class:`NumericMode`) hands out ring
elements for the weight kinds used by the lattice tables and holds the whole
numeric policy.  ``is_zero`` is exact: structural zeros (h(b) for n not
dividing b) are exact zeros in both modes.  ``settle`` applies the one floor,
once per finished Z: numeric entries at most SETTLE_FLOOR times the largest
are float residue of cancellations exact in the reduced ring and are dropped.
``agree`` is the one comparator of sparse maps (terms or tables): numeric
entries within tol * (1 + the largest magnitude in either), symbolic maps
equal; ``close`` is the same rule on one coefficient.

Symbols with index divisible by n are never formal: g(b) = -u and
h(b) = 1 - u whenever n | b, which is how both specializations behave for
every admissible table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

SymPart = tuple[tuple[int, int], ...]
TermKey = tuple[SymPart, SymPart, int]


def _norm_part(pairs: Iterable[tuple[int, int]]) -> SymPart:
    """Combine duplicate symbol indices, drop zero powers, sort by index."""
    acc: dict[int, int] = {}
    for idx, power in pairs:
        acc[idx] = acc.get(idx, 0) + power
    return tuple(sorted((i, p) for i, p in acc.items() if p != 0))


class SymCoeff:
    """Exact symbolic coefficient: rational polynomial in u and Gauss symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[TermKey, Fraction] | None = None):
        self.terms: dict[TermKey, Fraction] = {}
        if terms:
            for key, val in terms.items():
                if val != 0:
                    self.terms[key] = Fraction(val)

    @classmethod
    def from_fraction(cls, value) -> "SymCoeff":
        return cls({((), (), 0): Fraction(value)})

    @classmethod
    def u_power(cls, k: int, coeff=1) -> "SymCoeff":
        return cls({((), (), k): Fraction(coeff)})

    @classmethod
    def symbol(cls, kind: str, index: int) -> "SymCoeff":
        if kind == "g":
            return cls({(((index, 1),), (), 0): Fraction(1)})
        if kind == "h":
            return cls({((), ((index, 1),), 0): Fraction(1)})
        raise ValueError(f"unknown symbol kind {kind!r}")

    # -- ring operations ---------------------------------------------------

    def _coerced(self, other) -> "SymCoeff":
        if isinstance(other, SymCoeff):
            return other
        if isinstance(other, (int, Fraction)):
            return SymCoeff.from_fraction(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "SymCoeff":
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            new = out.get(key, Fraction(0)) + val
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
        result = SymCoeff()
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "SymCoeff":
        result = SymCoeff()
        result.terms = {key: -val for key, val in self.terms.items()}
        return result

    def __sub__(self, other) -> "SymCoeff":
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "SymCoeff":
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[TermKey, Fraction] = {}
        for (g1, h1, u1), v1 in self.terms.items():
            for (g2, h2, u2), v2 in other.terms.items():
                key = (_norm_part(g1 + g2), _norm_part(h1 + h2), u1 + u2)
                new = out.get(key, Fraction(0)) + v1 * v2
                if new == 0:
                    out.pop(key, None)
                else:
                    out[key] = new
        result = SymCoeff()
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SymCoeff":
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = SymCoeff.from_fraction(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- specialization and relations --------------------------------------

    def evaluate(self, table) -> complex:
        """Specialize u -> 1/q and the symbols to Gauss sums from `table`."""
        u = 1.0 / table.q
        total = 0j
        for (gpart, hpart, upow), val in self.terms.items():
            prod = complex(val) * (u ** upow)
            for idx, power in gpart:
                prod *= table.g(idx) ** power
            for idx, power in hpart:
                prod *= table.h(idx) ** power
            total += prod
        return total

    def reduce(self, n: int, level: str = "hg") -> "SymCoeff":
        """Rewrite modulo known Gauss-symbol relations.

        level "none"  -- return self unchanged;
        level "h"     -- h_a -> 0 for n not dividing a (all formal h symbols);
        level "hg"    -- additionally pair g_a * g_{n-a} -> u.
        """
        if level == "none":
            return self
        if level not in ("h", "hg"):
            raise ValueError(f"unknown relation level {level!r}")
        out: dict[TermKey, Fraction] = {}
        for (gpart, hpart, upow), val in self.terms.items():
            if hpart:
                continue  # every stored h symbol has index not divisible by n
            if level == "hg":
                powers = dict(gpart)
                shift = 0
                for a in sorted(powers):
                    b = (n - a) % n
                    if b == a:
                        shift += powers[a] // 2
                        powers[a] %= 2
                    elif b in powers and a < b:
                        m = min(powers[a], powers[b])
                        powers[a] -= m
                        powers[b] -= m
                        shift += m
                gpart = tuple(sorted((i, p) for i, p in powers.items() if p))
                upow += shift
            key = (gpart, hpart, upow)
            new = out.get(key, Fraction(0)) + val
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
        result = SymCoeff()
        result.terms = out
        return result

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms):
            gpart, hpart, upow = key
            val = self.terms[key]
            factors = []
            if upow:
                factors.append("u" if upow == 1 else f"u^{upow}")
            for idx, power in gpart:
                factors.append(f"g{idx}" if power == 1 else f"g{idx}^{power}")
            for idx, power in hpart:
                factors.append(f"h{idx}" if power == 1 else f"h{idx}^{power}")
            if not factors:
                body = str(abs(val))
            elif abs(val) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(val))] + factors)
            pieces.append((val < 0, body))
        first_neg, first_body = pieces[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "SymCoeff":
        """Inverse of ``str``; accepts exactly the rendered grammar."""
        text = text.strip()
        if text == "0":
            return cls()
        total = cls()
        # normalize to a list of (sign, body) pieces
        body = text
        chunks: list[tuple[int, str]] = []
        sign = 1
        if body.startswith("-"):
            sign = -1
            body = body[1:]
        while True:
            plus = body.find(" + ")
            minus = body.find(" - ")
            cut = min(x for x in (plus, minus) if x >= 0) if (plus >= 0 or minus >= 0) else -1
            if cut < 0:
                chunks.append((sign, body))
                break
            chunks.append((sign, body[:cut]))
            sign = 1 if body[cut:cut + 3] == " + " else -1
            body = body[cut + 3:]
        for sgn, chunk in chunks:
            val = Fraction(sgn)
            key_g: list[tuple[int, int]] = []
            key_h: list[tuple[int, int]] = []
            upow = 0
            for factor in chunk.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError(f"empty factor in {text!r}")
                if factor[0].isdigit():
                    val *= Fraction(factor)
                elif factor[0] == "u":
                    upow += 1 if factor == "u" else int(factor[2:])
                elif factor[0] in "gh":
                    name, _, power = factor.partition("^")
                    pair = (int(name[1:]), int(power) if power else 1)
                    (key_g if factor[0] == "g" else key_h).append(pair)
                else:
                    raise ValueError(f"cannot parse factor {factor!r}")
            term = cls({(_norm_part(key_g), _norm_part(key_h), upow): val})
            total = total + term
        return total


Coeff = Union[SymCoeff, complex]


class SymbolicMode:
    """Factory/policy object for exact symbolic coefficients at a fixed n."""

    name = "symbolic"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        self.one = SymCoeff.from_fraction(1)
        self.zero = SymCoeff()
        self.u = SymCoeff.u_power(1)
        self.one_minus_u = self.one - self.u

    def g(self, b: int) -> SymCoeff:
        b %= self.n
        if b == 0:
            return -self.u
        return SymCoeff.symbol("g", b)

    def h(self, b: int) -> SymCoeff:
        b %= self.n
        if b == 0:
            return self.one_minus_u
        return SymCoeff.symbol("h", b)

    def from_int(self, k: int) -> SymCoeff:
        return SymCoeff.from_fraction(k)

    def is_zero(self, c: SymCoeff) -> bool:
        return not c.terms

    def settle(self, terms: dict) -> dict:
        return terms

    def agree(self, a: dict, b: dict, tol: float = 0.0) -> bool:
        return a == b

    def close(self, a: SymCoeff, b: SymCoeff, tol: float = 0.0) -> bool:
        return a == b

    def __repr__(self):
        return f"SymbolicMode(n={self.n})"


#: relative floor of :meth:`NumericMode.settle`.  On rank <= 3 weights the
#: residue of exact cancellations reaches 1.7e-16 of a Z's largest entry,
#: while genuine entries at n >= 2 stay above 2e-7 of it.
SETTLE_FLOOR = 1e-14


class NumericMode:
    """Factory/policy object for complex coefficients over a Gauss-sum table."""

    name = "numeric"

    def __init__(self, table):
        self.table = table
        self.n = table.n
        self.q = table.q
        self.one = 1 + 0j
        self.zero = 0j
        self.u = complex(1.0 / table.q)
        self.one_minus_u = 1 - self.u

    def g(self, b: int) -> complex:
        return self.table.g(b)

    def h(self, b: int) -> complex:
        return self.table.h(b)

    def from_int(self, k: int) -> complex:
        return complex(k)

    def is_zero(self, c: complex) -> bool:
        return c == 0

    def settle(self, terms: dict) -> dict:
        """The entries above SETTLE_FLOOR times the largest magnitude."""
        if not terms:
            return terms
        floor = SETTLE_FLOOR * max(abs(c) for c in terms.values())
        return {key: c for key, c in terms.items() if abs(c) > floor}

    def agree(self, a: dict, b: dict, tol: float = 1e-9) -> bool:
        """Every entry of the two maps within tol * (1 + largest magnitude);
        a missing key counts as 0."""
        top = max((abs(c) for c in (*a.values(), *b.values())), default=0.0)
        bound = tol * (1 + top)
        return all(abs(a.get(key, 0j) - b.get(key, 0j)) <= bound
                   for key in a.keys() | b.keys())

    def close(self, a: complex, b: complex, tol: float = 1e-9) -> bool:
        return self.agree({(): a}, {(): b}, tol)

    def __repr__(self):
        return f"NumericMode(n={self.n}, q={self.q})"


Mode = Union[SymbolicMode, NumericMode]
