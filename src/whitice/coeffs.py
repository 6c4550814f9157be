"""Coefficient arithmetic for ice partition functions.

Weights of lattice configurations live in one of two interchangeable
coefficient domains:

* symbolic -- exact polynomials over Q in a formal parameter u (numerically
  1/q) and formal Gauss-sum symbols g_a, h_a indexed by a charge class
  a = 1..n-1.  A coefficient is stored as a dict mapping a monomial key to an
  exact number::

      SymCoeff.terms = { (gpart, hpart, upow): int | Fraction, ... }

  with gpart/hpart sorted tuples of (symbol index, power) pairs and upow the
  power of u.  A number is an ``int`` whenever it is integral (every lattice
  weight is) and a ``Fraction`` otherwise.  Zero terms are never stored.

  Every coefficient belongs to a :class:`Ring`.  Exact mode computes in the
  reduced ring of its n, Q[u][g_1, .., g_{n-1}] / (h_a, g_a*g_{n-a} - u):
  the relations the Gauss sums satisfy for n not dividing a, applied to
  every product, so a key is always in normal form (no h symbol, no pair
  g_a*g_{n-a} left) and equality is dict equality.  A symbol index outside
  1..n-1 has no place in that ring and raises ValueError.  The free ring
  Q[u][g_a, h_a], with no relation, holds parsed and JSON input
  (``SymCoeff.parse``, ``jsonio.coeff_from_json``) until ``reduce(n, "hg")``
  maps it to the reduced ring with the same pairing rule.

  Mixing rings: an int or Fraction joins the coefficient's ring, while
  arithmetic between coefficients of two different rings raises ValueError
  (map a free coefficient over with ``reduce`` first).  ``==`` compares the
  stored terms and never raises.

* numeric -- ``complex`` values: an exact coefficient at u = 1/q and g_a
  the Gauss sums of a table (:mod:`whitice.gauss`), rounded once.

A :class:`SymbolicMode` hands out ring elements for the weight kinds of the
lattice tables.  A :class:`NumericMode` multiplies nothing: it names a Gauss
table and packs the reduced ring at u = 1/q (below), so no term is ever
floored.  A coefficient of either mode is zero exactly when it is falsy.
Every check decides by ``==``, with no tolerance: a check that compares
sums of weights compares their zero-free packed sums (:func:`packed_sums`),
equal exactly when the sums are, and a check that multiplies polynomials
runs in the reduced ring, since products of rounded values differ in the
last bits.

Symbols with index divisible by n are never formal: g(b) = -u and
h(b) = 1 - u whenever n | b.

Packed coefficients
-------------------
Every weight sum -- a Z by contraction (:mod:`whitice.transfer`), or the
state profiles of a full system or a two-row slab summed by
:func:`packed_sums` -- is one exact int computation in the reduced ring
of the mode's n, in the format of the mode's ``packing``, a
:class:`Packing` at u = num/den.  ``pack`` turns a fill's (kind, raw
charge) factors straight into (g-part, int) pairs, storing
sign * u^k * (1 - u)^m * g-part as
sign * num^k * (den - num)^m * den^(d-k-m), scaled by den^d for d slots:
the - spins below the rows packed, or the pattern entries below the top
row.  Each u comes from a distinct g or h factor, and each takes a slot (an
ice vertex of kind g or h has - below it), so k + m <= d.  The ring's
``g_product``, memoised in ``Ring.products``, multiplies symbol parts and
returns the power s of u that g_a*g_{n-a} = u splits off; ``times_u``
multiplies by num^s and divides by den^s, which is exact (each split-off u
uses a g vertex of the row) or raises ArithmeticError.  The free ring is
never packed.

* Symbolic modes pack at u = 2^K, den = 1 (Kronecker substitution, a ring
  homomorphism Z[u] -> Z).  ``unpack`` reads balanced base-2^K digits in
  [-2^(K-1), 2^(K-1)), exact while every u-coefficient lies in that range;
  :func:`pack_width` chooses K to guarantee it.
* Numeric modes (:class:`NumericPacking`) pack the reduced ring of n at
  u = 1/q, with no width and no state count.  ``unpack`` sums, over
  g-parts, int / q^d rounded once times the part's product of Gauss sums;
  a nonzero int that rounds to 0 raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

SymPart = tuple[tuple[int, int], ...]
TermKey = tuple[SymPart, SymPart, int]


def _norm_part(pairs: Iterable[tuple[int, int]]) -> SymPart:
    """Combine duplicate symbol indices, drop zero powers, sort by index."""
    acc: dict[int, int] = {}
    for idx, power in pairs:
        acc[idx] = acc.get(idx, 0) + power
    return tuple(sorted((i, p) for i, p in acc.items() if p != 0))


def _pair(powers: dict[int, int], n: int) -> tuple[SymPart, int]:
    """Normal form of the g-monomial with these powers modulo
    g_a * g_{n-a} = u: (remaining g-part, power of u split off)."""
    shift = 0
    for a in sorted(powers):
        if not 0 < a < n:
            raise ValueError(f"g{a} is not a symbol of the reduced ring of n={n}")
        b = (n - a) % n
        if b == a:
            shift += powers[a] // 2
            powers[a] %= 2
        elif a < b and b in powers:
            m = min(powers[a], powers[b])
            powers[a] -= m
            powers[b] -= m
            shift += m
    return tuple(sorted((i, p) for i, p in powers.items() if p)), shift


def _integral(terms: dict) -> dict:
    """Store every integral Fraction of `terms` as an int, in place."""
    if Fraction in set(map(type, terms.values())):
        for key, val in terms.items():
            if type(val) is Fraction and val.denominator == 1:
                terms[key] = val.numerator
    return terms


class Ring:
    """The ring a SymCoeff lives in: the free ring (``modulus`` None) or the
    reduced ring of one modulus n.  A reduced ring memoises the normal form
    of each product of two g-parts."""

    __slots__ = ("modulus", "products")

    def __init__(self, modulus: int | None):
        self.modulus = modulus
        #: (g-part, g-part) -> (normal g-part of the product, power of u)
        self.products: dict[tuple[SymPart, SymPart], tuple[SymPart, int]] = {}

    def normal(self, key: TermKey) -> TermKey | None:
        """The key's normal form, or None when the monomial is 0."""
        if self.modulus is None:
            return key
        gpart, hpart, upow = key
        if hpart:
            for a, _ in hpart:
                if not 0 < a < self.modulus:
                    raise ValueError(f"h{a} is not a symbol of the reduced ring "
                                     f"of n={self.modulus}")
            return None  # every formal h_a has n not dividing a
        gpart, shift = _pair(dict(gpart), self.modulus)
        return gpart, (), upow + shift

    def g_product(self, g1: SymPart, g2: SymPart) -> tuple[SymPart, int]:
        """Normal form of g1 * g2 in a reduced ring, stored in ``products``."""
        powers = dict(g1)
        for idx, power in g2:
            powers[idx] = powers.get(idx, 0) + power
        found = self.products[(g1, g2)] = _pair(powers, self.modulus)
        return found

    def __repr__(self):
        return "free ring" if self.modulus is None else f"reduced ring (n={self.modulus})"


#: the free ring Q[u][g_a, h_a]
FREE = Ring(None)


@lru_cache(maxsize=None)
def reduced_ring(n: int) -> Ring:
    """The reduced ring of modulus n; one object per n."""
    return Ring(n)


class SymCoeff:
    """Exact symbolic coefficient: rational polynomial in u and Gauss symbols,
    an element of ``ring``."""

    __slots__ = ("terms", "ring")

    def __init__(self, terms: dict[TermKey, object] | None = None, ring: Ring = FREE):
        self.ring = ring
        acc: dict[TermKey, Union[int, Fraction]] = {}
        for key, val in (terms or {}).items():
            key = ring.normal(key)
            if key is not None:
                acc[key] = acc.get(key, 0) + (val if type(val) is int else Fraction(val))
        self.terms = {key: val for key, val in _integral(acc).items() if val != 0}

    @classmethod
    def _make(cls, terms: dict, ring: Ring) -> "SymCoeff":
        """Wrap terms already in normal form with no zero entry."""
        result = cls.__new__(cls)
        result.terms = terms
        result.ring = ring
        return result

    @classmethod
    def from_fraction(cls, value, ring: Ring = FREE) -> "SymCoeff":
        return cls({((), (), 0): value}, ring)

    @classmethod
    def u_power(cls, k: int, coeff=1, ring: Ring = FREE) -> "SymCoeff":
        return cls({((), (), k): coeff}, ring)

    @classmethod
    def symbol(cls, kind: str, index: int, ring: Ring = FREE) -> "SymCoeff":
        if kind == "g":
            return cls({(((index, 1),), (), 0): 1}, ring)
        if kind == "h":
            return cls({((), ((index, 1),), 0): 1}, ring)
        raise ValueError(f"unknown symbol kind {kind!r}")

    # -- ring operations ---------------------------------------------------

    def _coerced(self, other) -> "SymCoeff":
        """`other` as an element of this ring (module docstring, "Mixing")."""
        if isinstance(other, SymCoeff):
            if other.ring is not self.ring:
                raise ValueError(f"cannot combine coefficients of the {self.ring} "
                                 f"and the {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return SymCoeff.from_fraction(other, self.ring)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "SymCoeff":
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            new = out.get(key, 0) + val
            if new:
                out[key] = new
            else:
                del out[key]
        return SymCoeff._make(_integral(out), self.ring)

    __radd__ = __add__

    def __neg__(self) -> "SymCoeff":
        return SymCoeff._make({key: -val for key, val in self.terms.items()}, self.ring)

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
        ring = self.ring
        free = ring.modulus is None
        out: dict[TermKey, Union[int, Fraction]] = {}
        for (g1, h1, u1), v1 in self.terms.items():
            for (g2, h2, u2), v2 in other.terms.items():
                if free:
                    key = (_norm_part(g1 + g2), _norm_part(h1 + h2), u1 + u2)
                elif not (g1 and g2):
                    key = (g1 or g2, (), u1 + u2)
                else:
                    gpart, shift = ring.products.get((g1, g2)) or ring.g_product(g1, g2)
                    key = (gpart, (), u1 + u2 + shift)
                new = out.get(key, 0) + v1 * v2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return SymCoeff._make(_integral(out), ring)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SymCoeff":
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = SymCoeff.from_fraction(1, self.ring)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymCoeff.from_fraction(other)
        if not isinstance(other, SymCoeff):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- specialization and relations --------------------------------------

    def evaluate(self, table) -> complex:
        """Specialize u -> 1/q and the symbols to Gauss sums from `table`:
        the coefficient in the reduced ring of ``table.n``, packed at
        u = 1/q and read back rounded once, as numeric Z is."""
        terms = self.reduce(table.n).terms
        slots = max((upow for _, _, upow in terms), default=0)
        parts: dict[SymPart, dict] = {}
        for (gpart, _, upow), val in terms.items():
            acc = parts.setdefault(gpart, {(): 0})
            acc[()] += val * table.q ** (slots - upow)
        return NumericMode(table).packing(slots, 0).unpack(parts, slots).get((), 0j)

    def reduce(self, n: int, level: str = "hg") -> "SymCoeff":
        """This coefficient in the reduced ring of n: h_a -> 0 and
        g_a * g_{n-a} -> u.  "hg" is the only relation level."""
        if level != "hg":
            raise ValueError(f"unknown relation level {level!r}")
        return SymCoeff(self.terms, reduced_ring(n))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return terms_text("".join([term_text(val, upow, symbols_text(gpart, hpart))
                                   for (gpart, hpart, upow), val in sorted(self.terms.items())]))

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


def symbols_text(gpart: SymPart, hpart: SymPart = ()) -> str:
    """The g and h factors of a term as a coefficient renders them, e.g.
    "g1^2*g2*h1"; "" for none."""
    return "*".join([f"{kind}{idx}" if power == 1 else f"{kind}{idx}^{power}"
                     for kind, part in (("g", gpart), ("h", hpart)) for idx, power in part])


def term_text(value, upow: int, symbols: str) -> str:
    """One term value * u^upow * symbols of a coefficient's rendering, the
    symbols as :func:`symbols_text` writes them, with the sign that joins
    it to the terms before: " + body" or " - body" (:func:`terms_text`)."""
    u = "" if not upow else "u" if upow == 1 else f"u^{upow}"
    factors = f"{u}*{symbols}" if u and symbols else u or symbols
    size = abs(value)
    if not factors:
        body = str(size)
    elif size == 1:
        body = factors
    else:
        body = f"{size}*{factors}"
    return (" - " if value < 0 else " + ") + body


def terms_text(joined: str) -> str:
    """A coefficient's rendering from its :func:`term_text` pieces, joined
    in sorted key order: the first piece's sign becomes "-" or nothing."""
    return "-" + joined[3:] if joined[1] == "-" else joined[3:]


class SymbolicMode:
    """Factory object for exact symbolic coefficients at a fixed n,
    in the reduced ring of n."""

    name = "symbolic"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        self.ring = reduced_ring(n)
        self.one = SymCoeff.from_fraction(1, self.ring)
        self.zero = SymCoeff(ring=self.ring)
        self.u = SymCoeff.u_power(1, ring=self.ring)
        self.one_minus_u = self.one - self.u

    def g(self, b: int) -> SymCoeff:
        b %= self.n
        if b == 0:
            return -self.u
        return SymCoeff.symbol("g", b, self.ring)

    def h(self, b: int) -> SymCoeff:
        """1 - u for n | b; otherwise the formal h_b, which is the exact
        zero of the reduced ring."""
        b %= self.n
        if b == 0:
            return self.one_minus_u
        return SymCoeff.symbol("h", b, self.ring)

    def packing(self, slots: int, states: int) -> Packing:
        """Packed format of a sum of at most ``states`` weights with
        ``slots`` slots each (:func:`pack_width`)."""
        return Packing(self, 1 << pack_width(states, slots))

    def __repr__(self):
        return f"SymbolicMode(n={self.n})"


def pack_width(states: int, slots: int) -> int:
    """Bits K of one u-digit for a packed sum of this many state weights,
    each with this many slots.

    Bound: every g or h factor of a weight takes a slot of its own (an ice
    vertex of kind g or h has - below it, and a pattern entry lies below
    the top row), so a weight has at most ``slots`` h factors.  Every other
    factor (g = -u, a formal symbol, or a pair of them turned into u) has
    one term, and h = 1 - u has two, so a weight has, per symbol part, a
    u-polynomial of l1-norm at most 2^slots.  A contraction's layer entry
    sums the weights of partial paths from the top to that layer, so
    ``states`` must bound those paths as well as the summed weights; a
    contraction passes the number of layer sequences, prod_{j=1..r} C(C, j)
    for rank r and C columns, which bounds both.  Hence every u-coefficient
    of every layer, and of the sum, is at most states * 2^slots in absolute
    value.
    K is that bound's bit length plus 2, which keeps every coefficient
    inside the balanced digit range [-2^(K-1), 2^(K-1)).
    """
    return (states << slots).bit_length() + 2


class Packing:
    """Packed coefficients of the reduced ring of a mode's n at u = num / den
    (module docstring, "Packed coefficients"): tuples of (g-part, int)
    pairs, the constants under the g-part ()."""

    def __init__(self, mode, num: int, den: int = 1):
        self.mode = mode
        self.ring = mode.ring
        self.n = mode.n
        self.num, self.den = num, den
        #: g powers in order of appearance -> (g-part, power of u split off)
        self.monomials: dict[tuple, tuple] = {}

    def pack(self, factors, slots: int) -> tuple[tuple[SymPart, int], ...]:
        """(g-part, int) pairs of the product of a fill's (kind, raw charge)
        factors, times den^slots (the - spins below); () for 0."""
        n = self.n
        k = m = 0
        gs: dict[int, int] = {}
        for kind, charge in factors:
            b = charge % n
            if not b:
                if kind == "g":
                    k += 1  # g(b) = -u
                else:
                    m += 1  # h(b) = 1 - u
            elif kind == "g":
                gs[b] = gs.get(b, 0) + 1
            else:
                return ()  # h_b = 0
        sign = -1 if k & 1 else 1
        key = tuple(gs.items())
        part, s = self.monomials.get(key) or self.monomials.setdefault(key, _pair(gs, n))
        k += s
        if k + m > slots:
            raise ArithmeticError(f"u^{k + m} does not fit {slots} slots")
        num, den = self.num, self.den
        return ((part, sign * num ** k * (den - num) ** m * den ** (slots - k - m)),)

    def times_u(self, value: int, s: int) -> int:
        """A packed value times u^s; a division by den^s must be exact."""
        value, rest = divmod(value * self.num ** s, self.den ** s)
        if rest:
            raise ArithmeticError(f"packed value times u^{s} leaves a remainder")
        return value

    def digits(self, value: int) -> list[int]:
        """The u-coefficients of a packed int, u^0 first: its balanced
        base-2^K digits, the last one nonzero; [] for 0."""
        base = self.num
        width, half = base.bit_length() - 1, base >> 1
        out = []
        while value:
            digit = value & (base - 1)
            if digit >= half:
                digit -= base
            out.append(digit)
            value = (value - digit) >> width
        return out

    def unpack(self, parts: dict[SymPart, dict], slots: int) -> dict:
        """{key: coefficient} from packed {g-part: {key: int}}, the
        u-coefficients read back by :meth:`digits`."""
        digits = self.digits
        terms: dict[object, dict] = {}
        for part, values in parts.items():
            for key, value in values.items():
                for upow, digit in enumerate(digits(value)):
                    if digit:
                        terms.setdefault(key, {})[(part, (), upow)] = digit
        return {key: SymCoeff._make(t, self.ring) for key, t in terms.items()}


class NumericPacking(Packing):
    """A numeric mode's packed format: the reduced ring of n at u = 1/q,
    read back rounded once (module docstring, "Packed coefficients")."""

    def unpack(self, parts: dict[SymPart, dict], slots: int) -> dict:
        """{key: complex} from packed {g-part: {key: int}}: per g-part, the
        int / q^slots rounded once, times the part's product of the table's
        Gauss sums (a normal g-part holds indices 1..n-1 only)."""
        scale = self.den ** slots
        out: dict[object, complex] = {}
        for part, values in parts.items():
            gauss = 1 + 0j
            for idx, power in part:
                gauss = gauss * self.mode.table.g(idx) ** power
            for key, value in values.items():
                if value:
                    ratio = value / scale
                    if not ratio:
                        raise ArithmeticError(f"{value} / q^{slots} underflows to 0")
                    out[key] = out[key] + ratio * gauss if key in out else ratio * gauss
        return out


class NumericMode:
    """Complex coefficients read off the reduced ring at a Gauss table's q;
    ``zero`` is the value of a missing coefficient."""

    name = "numeric"

    def __init__(self, table):
        self.table = table
        self.n = table.n
        self.q = table.q
        self.ring = reduced_ring(table.n)
        self.zero = 0j

    def packing(self, slots: int, states: int) -> NumericPacking:
        """Scaled ints need no width, so ``states`` is not read."""
        return NumericPacking(self, 1, self.q)

    def __repr__(self):
        return f"NumericMode(n={self.n}, q={self.q})"


Mode = Union[SymbolicMode, NumericMode]


def packed_sums(profiles, mode: Mode, slots: int) -> tuple[Packing, dict]:
    """The mode's packing for the profiles and {g-part: {exponents: int}}:
    the weights of (factors, exponents) profiles, each packed as a whole
    with ``slots`` slots ("Packed coefficients"), summed, with no zero int
    and no empty g-part kept.  Profiles of one state count share a packing,
    and two of their sums are equal exactly when their maps are."""
    packing = mode.packing(slots, len(profiles))
    sums: dict[SymPart, dict] = {}
    for factors, exponents in profiles:
        for part, value in packing.pack(factors, slots):
            acc = sums.get(part)
            if acc is None:
                acc = sums[part] = {}
            acc[exponents] = acc.get(exponents, 0) + value
    return packing, {part: kept for part, acc in sums.items()
                     if (kept := {key: value for key, value in acc.items() if value})}


def weigh(profiles, mode: Mode, slots: int) -> dict:
    """{exponents: coefficient}: the profiles' :func:`packed_sums`,
    unpacked once."""
    packing, sums = packed_sums(profiles, mode, slots)
    return packing.unpack(sums, slots)
