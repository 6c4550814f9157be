"""Transfer-style contraction and the two-row exchange identity."""
from __future__ import annotations

import gc
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from free_ring import profile_sum
from hypothesis import given, settings
from hypothesis import strategies as st

from whitice import coeffs, lattice, transfer
from whitice.coeffs import SymbolicMode
from whitice.lattice import (boundary_from_lambda, fill_weight, row_fills, row_variable,
                             state_profiles)
from whitice.laurent import LaurentPoly
from whitice.partition import numeric_mode, partition_function
from whitice.patterns import enumerate_short_patterns
from whitice.transfer import (
    TWO_ROW_ORDERS,
    check_two_row_boundary,
    contract_packed,
    contract_partition,
    exponent_reader,
    graded_entries,
    random_two_row_boundary,
    slab_sums,
    two_row_check,
    two_row_partition,
    two_row_rows,
)


PAPER_TOP = (6, 4, 1, 0)
PAPER_BOT = (4, 3)


def test_two_row_orders():
    assert TWO_ROW_ORDERS == ("gamma-delta", "delta-gamma")
    # first element is the upper row; second carries the other variable
    assert two_row_rows("gamma-delta") == (("gamma", 0), ("delta", 1))
    assert two_row_rows("delta-gamma") == (("delta", 1), ("gamma", 0))


def test_contract_matches_enumeration():
    num = numeric_mode(2, 5)
    for lam in ((0, 0), (3, 2, 0), (2, 1, 0), (4, 2, 1, 0)):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            a = contract_partition(boundary, family, num)
            b = partition_function(boundary, family, num, strategy="enumerate")
            assert a == b  # the exact Z rounded once, both ways


def same_terms(a, b) -> bool:
    """Equal polynomials whose coefficients carry identical term maps."""
    return a == b and all(a.terms[k].terms == b.terms[k].terms for k in a.terms)


def rounded_once(exact, table):
    """The numeric terms of an exact reduced Z: per g-part, the exact value
    at u = 1/q as a Fraction, rounded once, times the part's Gauss sums."""
    out = {}
    for exponents, coeff in exact.terms.items():
        parts: dict = {}
        for (gpart, hpart, upow), val in coeff.terms.items():
            assert not hpart
            parts[gpart] = parts.get(gpart, 0) + Fraction(val, table.q ** upow)
        value = 0j
        for gpart, rational in parts.items():
            gauss = 1 + 0j
            for idx, power in gpart:
                gauss = gauss * table.g(idx) ** power
            value += float(rational) * gauss
        out[exponents] = value
    return out


dominant_weights = st.integers(0, 3).flatmap(
    lambda rank: st.lists(st.integers(0, 3), min_size=rank, max_size=rank)).map(
    lambda parts: tuple(sorted(parts, reverse=True)) + (0,))


@settings(max_examples=40, deadline=None)
@given(dominant_weights, st.integers(1, 4), st.sampled_from(["gamma", "delta"]))
def test_packed_contraction_matches_enumeration_in_the_reduced_ring(lam, n, family):
    # both strategies pack; the reference multiplies SymCoeffs state by state
    boundary = boundary_from_lambda(lam)
    mode = SymbolicMode(n)
    reference = profile_sum(boundary, family, mode)
    assert same_terms(contract_partition(boundary, family, mode), reference)
    assert same_terms(partition_function(boundary, family, mode, strategy="enumerate"),
                      reference)


PIN_LAMBDA = (3, 3, 2, 1, 0)
PIN_CASES = [(n, family) for n in (1, 2, 3) for family in ("gamma", "delta")]


@lru_cache(maxsize=None)
def enumerated_pin(n: int, family: str):
    return profile_sum(boundary_from_lambda(PIN_LAMBDA), family, SymbolicMode(n))


@pytest.mark.parametrize("n, family", PIN_CASES)
def test_packed_contraction_pin(n, family):
    # 19,019 states; the packed digits are 32 bits wide, sized by the
    # 8 * 28 * 56 * 70 = 878,080 layer sequences of 8 columns and rank 4
    z = contract_partition(boundary_from_lambda(PIN_LAMBDA), family, SymbolicMode(n))
    assert same_terms(z, enumerated_pin(n, family))


def test_packed_contraction_fails_when_the_digits_are_too_narrow(monkeypatch):
    # negative control: 3-bit digits hold only coefficients in [-4, 3]; the
    # reference packs nothing, so it cannot be wrong the same way
    for n, family in PIN_CASES:
        enumerated_pin(n, family)
    monkeypatch.setattr(coeffs, "pack_width", lambda states, rank: 3)
    boundary = boundary_from_lambda(PIN_LAMBDA)
    assert not all(same_terms(contract_partition(boundary, family, SymbolicMode(n)),
                              enumerated_pin(n, family))
                   for n, family in PIN_CASES)
    assert not all(same_terms(partition_function(boundary, family, SymbolicMode(n)),
                              enumerated_pin(n, family))
                   for n, family in PIN_CASES)


def test_no_mode_reaches_apply_row(monkeypatch):
    # one row loop contracts every mode; apply_row is only the reference
    def reached(*args):
        raise AssertionError(f"apply_row reached in {args[4]!r}")

    monkeypatch.setattr(transfer, "apply_row", reached)
    boundary = boundary_from_lambda((2, 1, 0))
    for mode in (SymbolicMode(1), SymbolicMode(3), numeric_mode(1, 5), numeric_mode(3, 7)):
        contract_partition(boundary, "gamma", mode)


def test_no_contraction_counts_states(monkeypatch):
    # numeric ints need no packing width, and a symbolic width comes from
    # the closed-form count of layer sequences, so no mode counts states
    def no_count(boundary):
        raise AssertionError("count_states called")

    monkeypatch.setattr(lattice, "count_states", no_count)
    monkeypatch.setattr(transfer, "count_states", no_count, raising=False)
    for lam, n, q in (((3, 2, 0), 1, 61), ((2, 2, 1, 0), 2, 5), ((3, 1, 1, 0), 3, 7)):
        for mode in (numeric_mode(n, q), SymbolicMode(n)):
            for family in ("gamma", "delta"):
                contract_partition(boundary_from_lambda(lam), family, mode)


def test_numeric_contraction_raises_on_a_wrong_u_shift():
    # negative control: a pairing that splits off one u too many leaves a
    # remainder in the division by q, which raises rather than rounds.  The
    # wrong products are memoised in a fresh ring set on the control's own
    # mode, never in the reduced ring the whole process shares
    class ShiftedRing(coeffs.Ring):
        def g_product(self, g1, g2):
            part, s = super().g_product(g1, g2)
            found = self.products[(g1, g2)] = (part, s + 1)
            return found

    boundary = boundary_from_lambda((3, 2, 1, 0))
    mode = numeric_mode(3, 7)
    for family in ("gamma", "delta"):
        contract_partition(boundary, family, mode)
    mode.ring = ShiftedRing(3)
    for family in ("gamma", "delta"):
        with pytest.raises(ArithmeticError, match="remainder"):
            contract_partition(boundary, family, mode)
    assert contract_partition(boundary, "gamma", numeric_mode(3, 7)).terms


def test_row_walk_and_contraction_leave_no_reference_cycles():
    # every fill dict and partial walk is freed on its last reference, so
    # the cyclic collector finds nothing after the kernel or a contraction
    boundary = boundary_from_lambda((3, 2, 1, 0))
    mode = numeric_mode(2, 5)
    gc.collect()
    gc.disable()
    try:
        for family in ("gamma", "delta"):
            row_fills((5, 3, 0), 6, family)
            assert gc.collect() == 0
            contract_partition(boundary, family, mode)
            assert gc.collect() == 0
    finally:
        gc.enable()


def folded_rows(boundary, family, mode):
    """Z by folding the LaurentPoly reference step apply_row over the rows,
    multiplying SymCoeff weights in the mode's exact ring."""
    r = boundary.rank
    support = {boundary.top_minus: LaurentPoly.const(r + 1, mode, mode.one)}
    for row in range(r + 1):
        support = transfer.apply_row(support, family, row_variable(family, row, r),
                                     boundary.columns, mode, r + 1)
    return support.get((), LaurentPoly.zero(r + 1, mode))


REFERENCE_MODES = {
    "reduced n=1": lambda: SymbolicMode(1),
    "reduced n=2": lambda: SymbolicMode(2),
    "reduced n=3": lambda: SymbolicMode(3),
    "numeric n=1 q=61": lambda: numeric_mode(1, 61),
    "numeric n=2 q=5": lambda: numeric_mode(2, 5),
    "numeric n=3 q=7": lambda: numeric_mode(3, 7),
}


def matches_the_references(z, boundary, family, mode) -> bool:
    """Symbolic: the term maps of the folded reference.  Numeric: bit for
    bit the exact reduced Z rounded once, that exact Z holding the term
    maps of the folded reference in the reduced ring of the mode's n."""
    if mode.name == "symbolic":
        return same_terms(z, folded_rows(boundary, family, mode))
    exact = contract_partition(boundary, family, SymbolicMode(mode.n))
    return (z.terms == rounded_once(exact, mode.table)
            and same_terms(exact, folded_rows(boundary, family, SymbolicMode(mode.n))))


@settings(max_examples=60, deadline=None)
@given(dominant_weights, st.sampled_from(sorted(REFERENCE_MODES)),
       st.sampled_from(["gamma", "delta"]))
def test_row_loop_matches_the_folded_reference(lam, mode_name, family):
    boundary = boundary_from_lambda(lam)
    mode = REFERENCE_MODES[mode_name]()
    assert matches_the_references(contract_partition(boundary, family, mode),
                                  boundary, family, mode)


@pytest.mark.parametrize("family", ["gamma", "delta"])
def test_row_loop_matches_the_folded_reference_where_settle_drops_terms(family):
    # a relative floor of 1e-14 dropped 1925 of the 8442 monomials here in
    # each family; numeric Z now keeps the exact support
    boundary = boundary_from_lambda((2, 2, 2, 2, 2, 0))
    mode = numeric_mode(1, 61)
    z = contract_partition(boundary, family, mode)
    assert matches_the_references(z, boundary, family, mode)
    assert set(z.terms) == set(partition_function(boundary, family, SymbolicMode(1),
                                                  strategy="transfer").terms)
    assert len(z.terms) == 8442


def both_orders(top, bottom, mode, columns=None):
    """(Z gamma-delta, Z delta-gamma), each unpacked."""
    return tuple(two_row_partition(top, bottom, order, mode, columns)
                 for order in TWO_ROW_ORDERS)


def test_two_row_exchange_reference_boundary():
    assert two_row_check(PAPER_TOP, PAPER_BOT, SymbolicMode(1)) is True
    z_gd, z_dg = both_orders(PAPER_TOP, PAPER_BOT, SymbolicMode(1))
    assert z_gd == z_dg
    assert len(z_gd.terms) == 5
    for n, q in ((2, 5), (3, 7)):
        assert two_row_check(PAPER_TOP, PAPER_BOT, numeric_mode(n, q)) is True
        z_gd, z_dg = both_orders(PAPER_TOP, PAPER_BOT, numeric_mode(n, q))
        assert z_gd == z_dg


def test_two_row_check_refuses_a_slab_without_states():
    # 0 == 0 would pass vacuously
    with pytest.raises(ValueError, match="admits no state"):
        two_row_check((5, 4, 3), (0,), SymbolicMode(1))
    assert slab_sums((5, 4, 3), (0,), SymbolicMode(1), 6) == ([], {}, {})


def test_a_wide_slab_walks_its_last_row_toward_the_bottom():
    # 3,100 middle layers with about 820 fills each, of which only the fill
    # ending on the bottom is a state: 384 states per order
    top, bottom = (18, 16, 14, 13, 11, 8, 6, 1, 0), (17, 15, 13, 11, 10, 7, 0)
    start = time.perf_counter()
    ok = two_row_check(top, bottom, SymbolicMode(1), columns=20)
    assert time.perf_counter() - start < 2.0
    assert ok
    assert slab_sums(top, bottom, SymbolicMode(1), 20)[1]
    assert [len(state_profiles(top, two_row_rows(order), 20, bottom))
            for order in TWO_ROW_ORDERS] == [384, 384]


def test_two_row_orders_differ_per_state_but_not_in_sum():
    # the state decompositions differ; only the totals agree
    mode = SymbolicMode(1)
    columns = check_two_row_boundary(PAPER_TOP, PAPER_BOT, None)
    states_gd, states_dg = (
        state_profiles(PAPER_TOP, two_row_rows(order), columns, PAPER_BOT)
        for order in TWO_ROW_ORDERS)
    weights_gd, weights_dg = (
        [LaurentPoly.monomial(2, mode, exponents, fill_weight(factors, mode))
         for factors, exponents in states]
        for states in (states_gd, states_dg))
    assert sorted(map(str, weights_gd)) != sorted(map(str, weights_dg))
    total_gd, total_dg = both_orders(PAPER_TOP, PAPER_BOT, mode)
    assert total_gd == total_dg
    agg = LaurentPoly.zero(2, mode)
    for poly in weights_gd:
        agg = agg + poly
    assert agg == total_gd


SLAB_MODULI = ((2, 5), (3, 7), (2, 13), (3, 13))


@pytest.mark.parametrize("n, q", SLAB_MODULI)
def test_numeric_two_row_orders_agree_bit_for_bit(n, q):
    # both orders are the exact reduced slab Z rounded once, so they are
    # equal bit for bit and not merely close
    rng = random.Random(n * 1000 + q)
    mode = numeric_mode(n, q)
    for _ in range(40):
        top, bot, columns = random_two_row_boundary(rng)
        assert two_row_check(top, bot, mode, columns=columns)
        z_gd, z_dg = both_orders(top, bot, mode, columns)
        assert z_gd.terms == z_dg.terms
        for z, exact in zip((z_gd, z_dg), both_orders(top, bot, SymbolicMode(n), columns)):
            assert z.terms == rounded_once(exact, mode.table)


@pytest.mark.parametrize("n, q", SLAB_MODULI)
def test_numeric_graded_coefficients_agree_bit_for_bit(n, q):
    # per middle sum k, both orders' packed entries agree, and so do the
    # coefficients unpacked from them
    mode = numeric_mode(n, q)
    columns = check_two_row_boundary(PAPER_TOP, PAPER_BOT, None)
    ks, sums_gd, sums_dg = slab_sums(PAPER_TOP, PAPER_BOT, mode, columns)
    z_gd, z_dg = both_orders(PAPER_TOP, PAPER_BOT, mode)
    assert any(z_gd.coeff(graded_exponents(PAPER_TOP, PAPER_BOT, k)) for k in ks)
    for k in ks:
        exponents = graded_exponents(PAPER_TOP, PAPER_BOT, k)
        assert graded_entries(sums_gd, exponents) == graded_entries(sums_dg, exponents)
        assert z_gd.coeff(exponents) == z_dg.coeff(exponents)


def test_random_boundaries_deterministic_and_valid():
    rng = random.Random(0)
    triples = [random_two_row_boundary(rng) for _ in range(5)]
    assert triples == [((3, 2, 0), (3,), 6), ((4, 2, 1), (1,), 5), ((2, 0), (), 5),
                       ((1, 0), (), 3), ((4, 2, 1), (3,), 5)]
    for top, bot, columns in triples:
        assert all(a > b for a, b in zip(top, top[1:]))
        assert all(a > b for a, b in zip(bot, bot[1:]))
        assert len(bot) == len(top) - 2
        assert columns > max(top)
        assert check_two_row_boundary(top, bot, columns) > 0


def test_two_row_exchange_random_sample():
    rng = random.Random(7)
    n1 = SymbolicMode(1)
    num = numeric_mode(3, 7)
    for _ in range(12):
        top, bot, columns = random_two_row_boundary(rng)
        assert two_row_check(top, bot, n1, columns=columns)
        assert two_row_check(top, bot, num, columns=columns)


def graded_exponents(top, bottom, k) -> tuple[int, int]:
    """(z1, z2) exponents of every state with middle-row sum k."""
    return sum(top) - k, k - sum(bottom)


def test_graded_coefficient_identity():
    # the single-variable coefficient extracted at complementary degrees
    # agrees between the two row orders, grade by grade, at every degree
    # between the outer sums, also where neither order has a state
    n1 = SymbolicMode(1)
    for l, m in (((5, 3, 0), (4,)), ((6, 5, 4), (6,)), ((6, 5, 4), (5,)),
                 ((5, 3, 0), (1,)), ((6, 4, 1, 0), (4, 3))):
        z_gd, z_dg = both_orders(l, m, n1)
        for k in range(sum(m), sum(l) + 1):
            assert z_gd.coeff(graded_exponents(l, m, k)) == z_dg.coeff(graded_exponents(l, m, k))
    z_gd, z_dg = both_orders((5, 3, 0), (1,), numeric_mode(2, 13))
    assert z_gd.coeff((5, 2)) == z_dg.coeff((5, 2)) != 0  # both slab sums rounded once


def shifted_kernel(top, columns, family, bottom=None):
    """The row kernel with the first charge of every fill one too large: a
    negative control that makes the two row orders differ at n = 3."""
    out = {}
    for bot, (factors, zexp) in row_fills(top, columns, family, bottom).items():
        if factors:
            (kind, charge), *rest = factors
            factors = ((kind, charge + 1), *rest)
        out[bot] = (factors, zexp)
    return out


#: the slabs of the README and the CI steps: (top, bottom, columns)
NAMED_SLABS = (
    (PAPER_TOP, PAPER_BOT, None), ((5, 3, 0), (4,), None), ((2, 1), (), None),
    ((3, 0), (), None), ((7, 5, 3, 1, 0), (5, 3, 1), None), ((3, 1, 0), (2,), None),
    ((6, 5, 4), (6,), None), ((6, 5, 4), (5,), None),
    ((18, 16, 14, 13, 11, 8, 6, 1, 0), (17, 15, 13, 11, 10, 7, 0), 20),
)

VERDICT_MODES = {"n=1": lambda: SymbolicMode(1), "n=2 q=5": lambda: numeric_mode(2, 5),
                 "n=3 q=7": lambda: numeric_mode(3, 7)}


@pytest.mark.parametrize("kernel", ["true", "shifted"])
@pytest.mark.parametrize("mode_name", list(VERDICT_MODES))
def test_packed_verdicts_are_the_coefficient_verdicts(monkeypatch, mode_name, kernel):
    # two-row and statement B decide on packed sums; on seeded random slabs
    # and the named ones, each verdict is the one the unpacked coefficients
    # give, under the true kernel and under one whose orders differ
    if kernel == "shifted":
        monkeypatch.setattr(lattice, "row_fills", shifted_kernel)
    mode = VERDICT_MODES[mode_name]()
    rng = random.Random(31)
    slabs = list(NAMED_SLABS) + [random_two_row_boundary(rng) for _ in range(40)]
    verdicts = set()
    for top, bottom, columns in slabs:
        columns = check_two_row_boundary(top, bottom, columns)
        ks, sums_gd, sums_dg = slab_sums(top, bottom, mode, columns)
        assert ks == sorted({sum(sp.mid) for sp in enumerate_short_patterns(top, bottom)})
        z_gd, z_dg = both_orders(top, bottom, mode, columns)
        assert two_row_check(top, bottom, mode, columns) == (z_gd == z_dg)
        verdicts.add(z_gd == z_dg)
        for k in ks:
            exponents = graded_exponents(top, bottom, k)
            assert ((graded_entries(sums_gd, exponents) == graded_entries(sums_dg, exponents))
                    == (z_gd.coeff(exponents) == z_dg.coeff(exponents)))
    assert verdicts == ({True} if kernel == "true" or mode.n == 1 else {True, False})


def test_total_is_width_invariant():
    # columns west of the leftmost minus hold all-plus vertices of weight one,
    # so widening the lattice adds states but never changes the total
    mode = SymbolicMode(1)
    narrow = two_row_partition((3, 2, 0), (3,), "gamma-delta", mode)
    wide = two_row_partition((3, 2, 0), (3,), "gamma-delta", mode, columns=6)
    assert narrow.nvars == wide.nvars == 2
    assert narrow == wide
    assert check_two_row_boundary((3, 2, 0), (3,), 6) > check_two_row_boundary((3, 2, 0), (3,), 4)


@pytest.mark.parametrize("lam", [(0,)] + [
    tuple(parts) + (0,) for rank in (1, 2, 3)
    for parts in itertools.combinations_with_replacement(range(3, -1, -1), rank)])
@pytest.mark.parametrize("family", ["gamma", "delta"])
def test_contract_partition_is_the_unpacked_packed_contraction(lam, family):
    # contract_partition reads Z off contract_packed's map, once, in every mode
    b = boundary_from_lambda(lam)
    exponents = exponent_reader(b)
    for mode in [SymbolicMode(n) for n in (1, 2, 3, 4)] + [numeric_mode(3, 13)]:
        packing, slots, parts = contract_packed(b, family, mode)
        unpacked = {exponents(z): c for z, c in packing.unpack(parts, slots).items()}
        assert contract_partition(b, family, mode) == LaurentPoly(b.rank + 1, mode, unpacked)
