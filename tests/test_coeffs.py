"""Exact coefficient ring: arithmetic, canonical text form, relations, modes."""
from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitice.coeffs import FREE, NumericMode, SymCoeff, SymbolicMode, reduced_ring
from whitice.gauss import gauss_table
from whitice.jsonio import coeff_from_json, coeff_to_json
from whitice.lattice import boundary_from_lambda
from whitice.partition import numeric_mode, partition_function

TOL = 1e-12


def test_zero_and_one():
    zero = SymCoeff()
    one = SymCoeff.from_fraction(1)
    assert not zero
    assert str(zero) == "0"
    assert str(one) == "1"
    assert zero + one == one
    assert one * zero == zero


def test_constructor_prunes_zero_terms():
    c = SymCoeff({((), (), 0): Fraction(0), ((), (), 1): Fraction(2)})
    assert c.terms == {((), (), 1): Fraction(2)}


def test_ring_arithmetic():
    g2 = SymCoeff.symbol("g", 2)
    h1 = SymCoeff.symbol("h", 1)
    u = SymCoeff.u_power(1)
    expr = (g2 + h1) * (g2 - h1)
    assert expr == g2 * g2 - h1 * h1
    assert (u + 1) ** 2 == u * u + 2 * u + 1
    assert g2 - g2 == SymCoeff()
    assert 1 - u == SymCoeff.from_fraction(1) - u


def test_str_pins():
    g2 = SymCoeff.symbol("g", 2)
    h1 = SymCoeff.symbol("h", 1)
    u = SymCoeff.u_power(1)
    assert str(g2 * h1) == "g2*h1"
    assert str(1 - u) == "1 - u"
    assert str(-u) == "-u"
    assert str(u ** 3 * g2 * g2) == "u^3*g2^2"
    assert str(h1 * 2 + g2) == "2*h1 + g2"


def test_parse_round_trip_pins():
    for text in ("0", "1", "-u", "1 - u", "g2*h1", "1/2*h3 + u^3*g2^2",
                 "-2/3 + u", "h1^2 + g1 + g2"):
        assert str(SymCoeff.parse(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=2),
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=2),
        st.integers(0, 4),
        st.fractions(min_value=-5, max_value=5),
    ),
    max_size=5,
))
def test_parse_inverts_str(raw_terms):
    terms: dict = {}
    for gpairs, hpairs, upow, val in raw_terms:
        gpart = tuple(sorted(dict(gpairs).items()))
        hpart = tuple(sorted(dict(hpairs).items()))
        terms[(gpart, hpart, upow)] = terms.get((gpart, hpart, upow), Fraction(0)) + val
    c = SymCoeff(terms)
    assert SymCoeff.parse(str(c)) == c


def test_reduce_levels():
    # "hg" is the one relation level: h_a -> 0 and g_a * g_{n-a} -> u
    n = 3
    h1 = SymCoeff.symbol("h", 1)
    g1, g2 = SymCoeff.symbol("g", 1), SymCoeff.symbol("g", 2)
    u = SymCoeff.u_power(1)
    mixed = h1 * g1 + g1 * g2 + u
    assert mixed.reduce(n, "hg") == u + u
    assert mixed.reduce(n) == mixed.reduce(n, "hg")
    assert mixed.reduce(n).ring is reduced_ring(n)
    assert (h1 * g1).reduce(n) == 0
    # self-paired index (n=2: g1*g1 -> u)
    assert (g1 * g1).reduce(2, "hg") == u
    assert (g1 * g1 * g1).reduce(2, "hg") == u * g1
    for level in ("none", "h", "bogus"):
        with pytest.raises(ValueError, match="relation level"):
            mixed.reduce(n, level)


@pytest.mark.parametrize("text, n, symbol", [
    ("h3", 3, "h3"),        # h(3) = 1 - u at n = 3 is no formal symbol
    ("g3", 3, "g3"),        # nor is g(3) = -u
    ("g4*g2", 3, "g4"),     # g4 is g1 only after a reduction mod n
    ("g1 + u*h0", 2, "h0"),
    ("g1", 1, "g1"),        # the reduced ring of n = 1 has no symbol
])
def test_a_reduced_ring_refuses_a_symbol_it_cannot_hold(text, n, symbol):
    with pytest.raises(ValueError, match=f"{symbol} is not a symbol of the reduced ring of n={n}"):
        SymCoeff.parse(text).reduce(n)
    with pytest.raises(ValueError, match=symbol):
        coeff_from_json(coeff_to_json(SymCoeff.parse(text)), reduced_ring(n))


def test_evaluate_matches_numeric_mode():
    # g1*h2 = 0, g5 = g2 and g1*g2 = u in the reduced ring of 3, so the
    # value at q = 7 is 3/7 - g(2) + g(1)/7, computed here from the table
    table = gauss_table(3, 7)
    sym = SymbolicMode(3)
    expr = sym.g(1) * sym.h(2) + sym.u * 3 - sym.g(5) + sym.g(1) * sym.g(2) * sym.g(1)
    assert abs(expr.evaluate(table) - (3 / 7 - table.g(2) + table.g(1) / 7)) < TOL


def test_mode_charge_wrapping():
    sym = SymbolicMode(3)
    # arguments reduce mod n; class 0 specializes immediately
    assert sym.g(0) == SymCoeff.u_power(1) * -1
    assert sym.g(3) == sym.g(0)
    assert sym.h(0) == sym.one_minus_u
    assert sym.h(6) == sym.h(0)
    assert sym.g(4) == sym.g(1)
    assert sym.h(5) == sym.h(2)


def test_mode_zero_and_equality():
    # a mode has no comparator or zero test of its own: coefficients
    # compare by == and are zero when falsy.  A numeric mode hands out no
    # weight: every numeric value is read off the exact ring
    sym = SymbolicMode(2)
    assert not sym.zero and sym.h(1) == sym.zero
    assert sym.g(1) + sym.zero == sym.g(1)
    assert sym.g(1) != sym.h(1)
    num = NumericMode(gauss_table(2, 5))
    assert not num.zero and num.zero == 0j
    for mode in (sym, num):
        assert not any(hasattr(mode, name) for name in ("agree", "close", "from_int", "is_zero"))
    assert not any(hasattr(num, name) for name in ("one", "u", "one_minus_u", "g", "h"))


def test_numeric_mode_requires_compatible_table():
    assert NumericMode(gauss_table(1, 5)).n == 1
    assert NumericMode(gauss_table(2, 13)).q == 13


def test_numeric_class_zero_weights_are_exact():
    # g(0) = -u and h(0) = 1 - u, not the Gauss table's direct sums: packed
    # in one slot at u = 1/q they are the ints -1 and q - 1
    packing = numeric_mode(1, 61).packing(1, None)
    assert packing.pack((("g", 0),), 1) == packing.pack((("g", 61),), 1) == (((), -1),)
    assert packing.pack((("h", 0),), 1) == (((), 60),)
    packing = numeric_mode(3, 7).packing(1, None)
    assert packing.pack((("g", 3),), 1) == (((), -1),)
    assert packing.pack((("h", -3),), 1) == (((), 6),)
    assert packing.pack((("g", 1),), 1) == ((((1, 1),), 7),) and packing.pack((("h", 2),), 1) == ()
    assert packing.unpack({((1, 1),): {"k": 7}}, 1) == {"k": gauss_table(3, 7).g(1)}


def test_numeric_packing_is_exact_or_raises():
    packing = NumericMode(gauss_table(3, 7)).packing(2, None)
    # (g0 = -u) * (h0 = 1 - u) * g1 in 3 slots: -(7 - 1) * 7 * g1
    assert packing.pack((("g", 3), ("h", 0), ("g", 1)), 3) == ((((1, 1),), -42),)
    assert packing.pack((("h", 1),), 3) == ()  # h_1 = 0
    assert packing.times_u(-42 * 7, 1) == -42
    with pytest.raises(ArithmeticError):
        packing.times_u(-43, 1)  # 7 does not divide 43
    with pytest.raises(ArithmeticError):
        packing.pack((("g", 0), ("g", 0)), 1)  # u^2 in one slot
    with pytest.raises(ArithmeticError):
        packing.unpack({(): {"k": 1}}, 1000)  # 7^-1000 underflows to 0.0
    assert packing.unpack({(): {"k": 0}}, 1000) == {}


def test_symbolic_packing_keys_are_g_parts():
    # a packed symbol part is the normal g-part of the reduced ring
    packing = SymbolicMode(3).packing(3, 1)
    u = packing.num
    assert packing.pack((("g", 1), ("g", 5)), 3) == (((), u),)  # g1*g2 = u
    assert packing.pack((("g", 4), ("h", 3)), 3) == ((((1, 1),), 1 - u),)
    assert packing.pack((("g", 1), ("h", 2)), 3) == ()  # h_2 = 0
    assert packing.ring.g_product(((1, 1),), ((1, 1),)) == (((1, 2),), 0)
    assert packing.ring.g_product(((1, 1),), ((2, 1),)) == ((), 1)
    z = packing.unpack({((1, 1),): {"k": 1 - u}, (): {"k": u}}, 3)
    assert z == {"k": SymCoeff.parse("u + g1 - u*g1").reduce(3)}


def test_numeric_unpack_sums_every_g_part():
    # the one-g-part property is pinned, not assumed: two parts of one
    # entry are both summed
    table = gauss_table(3, 7)
    packing = NumericMode(table).packing(2, None)
    got = packing.unpack({((1, 1),): {"k": 21}, ((2, 1),): {"k": -5}}, 2)
    expected = 21 / 49 * table.g(1) - 5 / 49 * table.g(2)
    assert set(got) == {"k"} and abs(got["k"] - expected) < 1e-15
    assert abs(got["k"] - 21 / 49 * table.g(1)) > 0.01


# -- the reduced ring --------------------------------------------------------

def free_coeffs(n: int):
    """Free-ring coefficients over charge classes 1..n-1, with rational
    numbers and both symbol kinds."""
    part = st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, 3)), max_size=2)
    term = st.tuples(part, part, st.integers(0, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))

    def build(raw_terms):
        total = SymCoeff()
        for gpairs, hpairs, upow, val in raw_terms:
            key = (tuple(sorted(dict(gpairs).items())), tuple(sorted(dict(hpairs).items())), upow)
            total = total + SymCoeff({key: val})
        return total

    return st.lists(term, max_size=4).map(build)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), free_coeffs(n), free_coeffs(n))))
def test_reduce_is_the_reduced_ring_product(case):
    n, a, b = case
    ring = reduced_ring(n)
    ra, rb = a.reduce(n, "hg"), b.reduce(n, "hg")
    assert ra.ring is rb.ring is ring
    product = ra * rb
    assert product.ring is ring
    assert (a * b).reduce(n, "hg") == product
    assert (a + b).reduce(n, "hg") == ra + rb
    # reduce is idempotent on reduced coefficients
    assert ra.reduce(n, "hg") == ra
    assert product.reduce(n, "hg") == product


def test_reduced_mode_applies_the_gauss_relations():
    for n in (2, 3, 4, 5):
        mode = SymbolicMode(n)
        for a in range(1, n):
            assert mode.h(a) == mode.zero
            assert mode.g(a) * mode.g(n - a) == mode.u
        assert mode.h(n) == mode.one_minus_u
    sym = SymbolicMode(4)
    assert sym.g(2) ** 3 == sym.u * sym.g(2)
    assert sym.g(1) ** 2 * sym.g(3) == sym.u * sym.g(1)
    # the free ring keeps every symbol formal
    h1, g1, g2 = SymCoeff.symbol("h", 1), SymCoeff.symbol("g", 1), SymCoeff.symbol("g", 2)
    assert h1.ring is g1.ring is FREE
    assert h1.terms == {((), ((1, 1),), 0): 1}
    assert (g1 * g2).terms == {(((1, 1), (2, 1)), (), 0): 1}
    assert g1 * g2 == SymCoeff.parse("g1*g2")


def test_integral_coefficients_are_ints():
    half = SymCoeff.from_fraction(Fraction(1, 2))
    assert [type(v) for v in half.terms.values()] == [Fraction]
    assert [type(v) for v in (half * 2).terms.values()] == [int]
    assert [type(v) for v in (half + half).terms.values()] == [int]
    assert [type(v) for v in SymCoeff.from_fraction(Fraction(6, 3)).terms.values()] == [int]
    parsed = SymCoeff.parse("2*g1 - 1/3*u")
    assert sorted(type(v).__name__ for v in parsed.terms.values()) == ["Fraction", "int"]
    # every lattice weight is integral
    for n in (1, 2, 3):
        z = partition_function(boundary_from_lambda((2, 1, 0)), "delta", SymbolicMode(n))
        assert {type(v) for c in z.terms.values() for v in c.terms.values()} == {int}
    # ints and integral Fractions render alike
    assert str(SymCoeff({((), (), 1): 3})) == str(SymCoeff({((), (), 1): Fraction(3)})) == "3*u"


def test_mixing_rings():
    n2, n3 = SymbolicMode(2), SymbolicMode(3)
    free_g1, free_g2 = SymCoeff.symbol("g", 1), SymCoeff.symbol("g", 2)
    # numbers join the coefficient's ring
    assert (n3.g(1) * 2).ring is n3.ring
    assert (Fraction(1, 2) + n3.g(1)).ring is n3.ring
    assert (1 - n3.g(2)).ring is n3.ring
    # coefficients of two different rings do not mix, even without symbols
    for a, b in ((n2.g(1), n3.g(1)), (free_g1, n3.g(2)), (n2.u, n3.u),
                 (n3.g(1), free_g2)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(a, b)
    # a free coefficient is mapped over by reduce
    assert (free_g1 * free_g2).reduce(3, "hg") * n3.g(1) == n3.u * n3.g(1)
    # equality compares the stored terms and never raises
    assert free_g1 * free_g2 != n3.u
    assert n3.g(1) == SymCoeff.symbol("g", 1)
    assert n2.u == n3.u
