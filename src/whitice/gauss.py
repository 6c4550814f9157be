"""Gauss sums over F_q for a multiplicative character of order n.

For a prime q with 2n | q - 1, fix the smallest primitive root w of F_q* and
let chi be the character sending w^k to exp(2*pi*i*k/n).  The table stores

    g(b) = (1/q) * sum_t chi(t)^b * exp(2*pi*i*t/q)      (t over F_q*)
    h(b) = (1/q) * sum_t chi(t)^b                        (t over F_q*)

indexed by b mod n.  Expected identities (all verified in the test suite):
h(0) = 1 - 1/q, g(0) = -1/q, |g(b)|^2 = 1/q and g(b) * g(n - b) = 1/q for b
not divisible by n.  The condition 2n | q - 1 makes chi(-1) = 1, which the
pairing identity needs.

For n not dividing b, h(b) sums a nontrivial character, so it is 0 by
theorem and stored as an exact 0j; the direct sum must still come out as 0
up to rounding, or the table is refused.  Numeric verdicts come from the
reduced ring, which takes both relations as given, so :class:`GaussTable`
also refuses a table built by hand (or ``dataclasses.replace``) off them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

#: rounding bound on a direct sum h(b) / q and on g(a) * g(n - a) - 1/q
ROUNDING = 1e-9

#: largest n * q a table is built for.  A table holds two q-entry lists and
#: sums n * (q - 1) terms: at n = 1, q = 999,983 it takes about 1.2 s and
#: 75 MB, while q = 10^9 + 7 would ask for about 8 GB before summing a term
MAX_GAUSS_TERMS = 1_000_000


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def primitive_root(q: int) -> int:
    """Smallest primitive root mod prime q."""
    phi = q - 1
    factors = set()
    m = phi
    f = 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    for w in range(2, q):
        if all(pow(w, phi // p, q) != 1 for p in factors):
            return w
    raise ValueError(f"{q} has no primitive root; is it prime?")


@dataclass(frozen=True)
class GaussTable:
    n: int
    q: int
    root: int
    gvals: tuple[complex, ...]
    hvals: tuple[complex, ...]

    def __post_init__(self):
        """ValueError unless h(a) is an exact 0 and g(a) * g(n - a) within
        ROUNDING of 1/q for every a with n not dividing a.  A guard on
        tables built by hand: those of :func:`gauss_table` always pass."""
        for a in range(1, self.n):
            pair = self.gvals[a] * self.gvals[self.n - a]
            if self.hvals[a] != 0 or abs(pair - 1 / self.q) > ROUNDING:
                raise ValueError(f"h({a}) = {self.hvals[a]} and g({a}) * g({self.n - a}) = "
                                 f"{pair} break h = 0, g*g = 1/{self.q}")

    def g(self, b: int) -> complex:
        return self.gvals[b % self.n]

    def h(self, b: int) -> complex:
        return self.hvals[b % self.n]


def gauss_table(n: int, q: int) -> GaussTable:
    """Build the table of g(b), h(b) for b = 0..n-1 by direct summation."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n * q > MAX_GAUSS_TERMS:
        raise ValueError(f"n * q = {n * q} is more than the {MAX_GAUSS_TERMS} "
                         f"a Gauss table is built for")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if (q - 1) % (2 * n) != 0:
        raise ValueError(f"need 2n | q - 1; got n = {n}, q = {q}")
    w = primitive_root(q)
    # discrete logs: dlog[t] = k with w^k = t (mod q)
    dlog = [0] * q
    t = 1
    for k in range(q - 1):
        dlog[t] = k
        t = (t * w) % q
    zeta_n = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    zeta_q = [cmath.exp(2j * math.pi * t / q) for t in range(q)]
    gvals = []
    hvals = []
    for b in range(n):
        gs = 0j
        hs = 0j
        for t in range(1, q):
            chi_b = zeta_n[(b * dlog[t]) % n]
            gs += chi_b * zeta_q[t]
            hs += chi_b
        if b and abs(hs) > ROUNDING * q:
            raise RuntimeError(f"h({b}) at n = {n}, q = {q} sums to {hs}, not 0")
        gvals.append(gs / q)
        hvals.append(0j if b else hs / q)
    return GaussTable(n=n, q=q, root=w, gvals=tuple(gvals), hvals=tuple(hvals))
