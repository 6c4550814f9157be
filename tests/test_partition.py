"""Partition functions, state weights, pattern matching, and coefficient tables."""
from __future__ import annotations

import itertools

import pytest
from free_ring import RAW, FreeSymbols, profile_sum, profile_table
from hypothesis import given, settings
from hypothesis import strategies as st

from whitice import jsonio, lattice, partition
from whitice.coeffs import SymCoeff, SymbolicMode, packed_sums
from whitice.lattice import (boundary_from_lambda, direct_fill, enumerate_states, fill_weight,
                             row_fills, row_variable, row_vertices)
from whitice.laurent import LaurentPoly
from whitice.patterns import GTPattern, enumerate_patterns, state_from_pattern
from whitice.partition import (
    boundary_profiles,
    dirichlet_series_string,
    matching_check,
    numeric_mode,
    packed_table_text,
    packed_whittaker,
    parse_dirichlet_series,
    partition_function,
    pattern_profile,
    pattern_side_weight,
    spin_vector_of_exponents,
    statement_a_check,
    whittaker_table,
)
from whitice.weyl import functional_eq_check


WORKED_STATE = state_from_pattern(GTPattern(((5, 3, 0), (3, 1), (3,))))


def g(i):
    return SymCoeff.symbol("g", i)


def h(i):
    return SymCoeff.symbol("h", i)


def direct_profile(state, family):
    """A state's (factors, exponents) from the direct per-vertex count of
    each row (:func:`.lattice.row_vertices`), sharing no code with the
    row kernel."""
    columns = state.boundary.columns
    factors, exponents = (), [0] * (state.rank + 1)
    for row, (top, bot) in enumerate(zip(state.layers, state.layers[1:])):
        row_factors, zexp = direct_fill(row_vertices(top, bot, columns, family))
        factors += row_factors
        exponents[row_variable(family, row, state.rank)] += zexp
    return factors, tuple(exponents)


def test_worked_example_state_weights():
    # the worked state's entry of the profiles, and the product of its
    # vertices counted one by one
    boundary = WORKED_STATE.boundary
    index = enumerate_states(boundary).index(WORKED_STATE)
    for family, weight, exps in (("gamma", g(2) * h(1), (3, 1, 4)),
                                 ("delta", g(2) * h(4), (4, 1, 3))):
        profile = boundary_profiles(boundary, family)[index]
        assert (fill_weight(profile[0], RAW), profile[1]) == (weight, exps)
        assert direct_profile(WORKED_STATE, family) == profile


def test_partition_pins_rank_one():
    n1, n3 = SymbolicMode(1), SymbolicMode(3)
    b0 = boundary_from_lambda((0, 0))
    assert str(partition_function(b0, "gamma", n1)) == "-u*z1 + z2"
    assert boundary_profiles(b0, "gamma") == (((), (0, 1)), ((("g", 1),), (1, 0)))
    assert str(profile_sum(b0, "gamma")) == "g1*z1 + z2"
    b1 = boundary_from_lambda((1, 0))
    # the raw charges: g2*z1^2, h1*z1*z2 and z2^2
    assert boundary_profiles(b1, "gamma") == (
        ((), (0, 2)), ((("h", 1),), (1, 1)), ((("g", 2),), (2, 0)))
    assert str(profile_sum(b1, "gamma")) == "g2*z1^2 + h1*z1*z2 + z2^2"
    for strategy in ("enumerate", "transfer"):
        assert str(partition_function(b1, "gamma", n3, strategy)) == "g2*z1^2 + z2^2"


def test_partition_strategies_agree():
    num = numeric_mode(3, 7)
    for lam in ((0, 0), (2, 0), (3, 2, 0), (2, 1, 0)):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            for n in (1, 2, 3):
                mode = SymbolicMode(n)
                a = partition_function(boundary, family, mode, strategy="enumerate")
                b = partition_function(boundary, family, mode, strategy="transfer")
                assert a == b
            an = partition_function(boundary, family, num, strategy="enumerate")
            bn = partition_function(boundary, family, num, strategy="transfer")
            assert an == bn  # the exact Z rounded once, both ways


dominant_weights = st.integers(0, 3).flatmap(
    lambda rank: st.lists(st.integers(0, 3), min_size=rank, max_size=rank)).map(
    lambda parts: tuple(sorted(parts, reverse=True)) + (0,))


@settings(max_examples=30, deadline=None)
@given(dominant_weights)
def test_transfer_enumerate_and_patterns_agree(lam):
    # Z by contraction, by state enumeration and by summing the pattern-side
    # weights (which share no row code with the lattice) are one polynomial:
    # with raw charges as free symbols the pattern sum is the state profiles'
    # sum, and in each reduced ring both strategies give it
    boundary = boundary_from_lambda(lam)
    nvars = boundary.rank + 1
    for family in ("gamma", "delta"):
        for mode in (RAW, SymbolicMode(1), SymbolicMode(2), SymbolicMode(3)):
            terms: dict = {}
            for t in enumerate_patterns(boundary.top_minus):
                weight, exponents = pattern_side_weight(state_from_pattern(t), family, mode)
                terms[exponents] = terms.get(exponents, mode.zero) + weight
            by_patterns = LaurentPoly(nvars, mode, terms)
            if mode is RAW:
                assert by_patterns == profile_sum(boundary, family)
                continue
            by_transfer = partition_function(boundary, family, mode, strategy="transfer")
            by_enumeration = partition_function(boundary, family, mode, strategy="enumerate")
            assert by_transfer == by_enumeration == by_patterns


@settings(max_examples=30, deadline=None)
@given(dominant_weights, st.sampled_from([(1, 61), (2, 5), (3, 7)]),
       st.sampled_from(["gamma", "delta"]), st.sampled_from(["enumerate", "transfer"]))
def test_numeric_support_follows_exact_support(lam, nq, family, strategy):
    # numeric Z has exactly the monomials of the reduced exact Z: no floor
    # drops one, however small its value
    n, q = nq
    b = boundary_from_lambda(lam)
    z = partition_function(b, family, numeric_mode(n, q), strategy)
    exact = partition_function(b, family, SymbolicMode(n), strategy)
    reduced = {e: c.reduce(n, "hg") for e, c in exact.terms.items()}
    assert set(z.terms) == {e for e, c in reduced.items() if c}


def test_boundary_profiles_follow_enumeration_order():
    # boundary_profiles runs in enumerate_states order, as patterns.pattern_profiles
    # does, so matching_check pairs the two walks by position
    for lam in ((0,), (2, 0), (3, 2, 0), (2, 1, 1, 0)):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            assert boundary_profiles(boundary, family) == tuple(
                direct_profile(state, family) for state in enumerate_states(boundary))


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        partition_function(boundary_from_lambda((0, 0)), "gamma", SymbolicMode(1),
                           strategy="bogus")


def test_matching_lattice_vs_pattern():
    # per-state: lattice weight equals pattern statistic times the exponent monomial
    for lam in ((0, 0), (2, 0), (3, 2, 0)):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            assert matching_check(boundary, family) == []
            for state, (factors, exponents) in zip(enumerate_states(boundary),
                                                   boundary_profiles(boundary, family)):
                assert ((fill_weight(factors, RAW), exponents)
                        == pattern_side_weight(state, family, RAW))


def matching_offenders_by_state(boundary, family):
    """Reference for matching_check: each state's profile against its own
    pattern's, one state at a time."""
    return [state for state, (factors, exponents) in zip(enumerate_states(boundary),
                                                         boundary_profiles(boundary, family))
            if (pattern := pattern_profile(state, family))[1] != exponents
            or sorted(pattern[0]) != sorted(factors)]


def test_matching_catches_a_shifted_kernel_charge(monkeypatch):
    # negative control: a kernel that miscounts one charge by one must fail,
    # on exactly the states the per-state reference names; the profiles walk
    # the kernel through lattice.state_profiles
    def shifted(top, columns, family, bottom=None):  # every fill; callers look bottom up
        out = {}
        for bot, (factors, zexp) in row_fills(top, columns, family).items():
            if factors:
                (kind, charge), *rest = factors
                factors = ((kind, charge + 1), *rest)
            out[bot] = (factors, zexp)
        return out

    boundary_profiles.cache_clear()
    monkeypatch.setattr(lattice, "row_fills", shifted)
    try:
        boundary = boundary_from_lambda((3, 2, 0))
        for family in ("gamma", "delta"):
            offenders = matching_check(boundary, family)
            assert len(offenders) == 40
            assert offenders == matching_offenders_by_state(boundary, family)
    finally:
        boundary_profiles.cache_clear()


def test_matching_catches_a_kernel_that_loses_states(monkeypatch):
    # a kernel that drops the greatest fill below the top layer loses the 3
    # states under it; the lost states fail the check
    boundary = boundary_from_lambda((3, 2, 0))

    def dropping(top, columns, family, bottom=None):  # every fill; callers look bottom up
        fills = row_fills(top, columns, family)
        if top == boundary.top_minus:
            del fills[max(fills)]
        return fills

    boundary_profiles.cache_clear()
    monkeypatch.setattr(lattice, "row_fills", dropping)
    try:
        states = enumerate_states(boundary)
        for family in ("gamma", "delta"):
            assert len(boundary_profiles(boundary, family)) == len(states) - 3 == 38
            assert matching_check(boundary, family) == states[-3:]
    finally:
        boundary_profiles.cache_clear()


def test_matching_names_the_last_state_for_a_surplus_profile(monkeypatch):
    # a profile past the last state pairs with no pattern
    boundary = boundary_from_lambda((3, 2, 0))
    profiles = boundary_profiles(boundary, "gamma")
    monkeypatch.setattr(partition, "boundary_profiles",
                        lambda b, family: profiles + profiles[-1:])
    assert matching_check(boundary, "gamma") == enumerate_states(boundary)[-1:]


def test_spin_vector_of_exponents_pins():
    b = boundary_from_lambda((3, 2, 0))
    assert spin_vector_of_exponents((3, 1, 4), b, "gamma") == (1, 3)
    assert spin_vector_of_exponents((4, 1, 3), b, "delta") == (2, 4)


def spin_vector_by_row_sums(exponents, boundary, family):
    """Reference: rebuild the row sums d_0..d_{r+1} family by family
    (gamma: z_m carries d_{r+1-m} - d_{r+2-m}; delta: d_{m-1} - d_m), then
    k_i = d_i - (l_{i+1} + .. + l_{r+1}) for gamma and
    k_i = (l_1 + .. + l_i) - d_{r+1-i} for delta."""
    top = boundary.top_minus
    r = boundary.rank
    d = [0] * (r + 2)
    if family == "gamma":
        for m in range(1, r + 2):
            d[r + 1 - m] = d[r + 2 - m] + exponents[m - 1]
        assert d[0] == sum(top)
        return tuple(d[i] - sum(top[i:]) for i in range(1, r + 1))
    d[0] = sum(top)
    for m in range(1, r + 2):
        d[m] = d[m - 1] - exponents[m - 1]
    assert d[r + 1] == 0
    return tuple(sum(top[:i]) - d[r + 1 - i] for i in range(1, r + 1))


def test_spin_vector_rule_matches_the_row_sum_reference():
    # every exponent vector a state carries: every monomial of Z, in any mode
    vectors = 0
    for lam in lambda_grid(3, 3):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            exponents = {e for _, e in boundary_profiles(boundary, family)}
            for e in exponents:
                assert (spin_vector_of_exponents(e, boundary, family)
                        == spin_vector_by_row_sums(e, boundary, family)), (lam, family, e)
            vectors += len(exponents)
    assert vectors > 1000


@pytest.mark.parametrize("exponents, family, message", [
    ((3, 1, 3), "gamma", "total degree"),
    ((4, 1, 4), "delta", "total degree"),
    ((3, 1, 4, 0), "gamma", "entries"),
    ((4, 4), "delta", "entries"),
    ((3, 1, 4), "alpha", "unknown family"),
])
def test_spin_vector_refuses_a_bad_input(exponents, family, message):
    with pytest.raises(ValueError, match=message):
        spin_vector_of_exponents(exponents, boundary_from_lambda((3, 2, 0)), family)


def test_whittaker_table_pins():
    # raw charges, then the engine's table in the reduced ring of n = 4
    b0 = boundary_from_lambda((0, 0))
    table = profile_table(b0, "gamma")
    assert table == {(0,): SymCoeff.from_fraction(1), (1,): g(1)}
    b32 = boundary_from_lambda((3, 2, 0))
    t32 = profile_table(b32, "gamma")
    assert len(t32) == 27
    assert t32[(0, 0)] == SymCoeff.from_fraction(1)
    assert t32[(0, 1)] == h(1)
    assert t32[(0, 3)] == g(3)
    n4 = SymbolicMode(4)
    assert whittaker_table(b0, "gamma", n4) == table
    assert whittaker_table(b32, "gamma", n4)[(0, 3)] == n4.g(3)
    assert (0, 1) not in whittaker_table(b32, "gamma", n4)  # h1 = 0


def test_whittaker_strategies_agree():
    b = boundary_from_lambda((2, 1, 0))
    for n in (2, 3):
        mode = SymbolicMode(n)
        assert (whittaker_table(b, "delta", mode)
                == whittaker_table(b, "delta", mode, strategy="transfer"))


def family_tables(lam, mode):
    boundary = boundary_from_lambda(lam)
    return [whittaker_table(boundary, family, mode) for family in ("gamma", "delta")]


def test_statement_a_numeric():
    for lam in ((0, 0), (3, 2, 0), (2, 1, 0), (4, 4, 0)):
        for n, q in ((1, 5), (2, 13), (3, 7)):
            mode = numeric_mode(n, q)
            assert statement_a_check(lam, mode) is True
            gt, dt = family_tables(lam, mode)
            assert set(gt) == set(dt)


def test_statement_a_exact_n1():
    mode = SymbolicMode(1)
    for lam in ((0, 0), (3, 2, 0), (2, 1, 0)):
        gt, dt = family_tables(lam, mode)
        assert statement_a_check(lam, mode) is True and gt == dt


def relation_report(lam, n: int) -> dict[str, bool]:
    """Whether the gamma and delta tables coincide at each relation level,
    starting from free tables of charges mod n: "none" as they are, "h"
    with every formal h symbol dropped (h_a = 0 for n not dividing a), "hg"
    mapped to the reduced ring of n.  The "hg" tables must be the engine's."""
    mode = FreeSymbols(n)
    boundary = boundary_from_lambda(lam)
    tables = [profile_table(boundary, family, mode) for family in ("gamma", "delta")]
    levels = {"none": lambda c: c,
              "h": lambda c: SymCoeff({key: v for key, v in c.terms.items() if not key[1]}),
              "hg": lambda c: c.reduce(n, "hg")}
    for table, family in zip(tables, ("gamma", "delta")):
        reduced = {k: c.reduce(n, "hg") for k, c in table.items()}
        assert ({k: c for k, c in reduced.items() if c}
                == whittaker_table(boundary, family, SymbolicMode(n))), (lam, n, family)
    gt, dt = tables
    return {level: all(rel(gt.get(k, mode.zero)) == rel(dt.get(k, mode.zero))
                       for k in gt.keys() | dt.keys())
            for level, rel in levels.items()}


def test_statement_a_symbolic_relation_ladder():
    # which formal relations are needed for the two tables to coincide
    assert relation_report((1, 0), 2) == {"none": True, "h": True, "hg": True}
    assert relation_report((2, 1, 0), 2) == {"none": False, "h": True, "hg": True}
    assert relation_report((3, 2, 0), 3) == {"none": False, "h": False, "hg": True}


NUMERIC_GRID = ((1, 5), (1, 7), (1, 13), (2, 5), (2, 13), (3, 7), (3, 13))


def test_statement_a_verdict_is_table_equality():
    # the packed verdict says what comparing the two tables entry by entry
    # says, in every ring and at every (n, q) of the grid
    cases = 0
    modes = [SymbolicMode(n) for n in (1, 2, 3)] + [numeric_mode(n, q) for n, q in NUMERIC_GRID]
    for mode in modes:
        for lam in lambda_grid(3, 4):
            gt, dt = family_tables(lam, mode)
            verdict = statement_a_check(lam, mode)
            assert verdict == (gt == dt) and verdict, (lam, mode)
            cases += 1
    assert cases == 560


def test_dirichlet_series_round_trip():
    b = boundary_from_lambda((3, 2, 0))
    table = profile_table(b, "delta")
    text = dirichlet_series_string(table)
    assert text.startswith("1 + h1*q^(1*(1-2*s2)) + h2*q^(2*(1-2*s2)) + g3*q^(3*(1-2*s2))")
    assert parse_dirichlet_series(text, 2) == table


def lambda_grid(max_rank: int, max_part: int):
    """Every dominant weight of rank <= max_rank with parts <= max_part."""
    yield (0,)
    for rank in range(1, max_rank + 1):
        for parts in itertools.combinations_with_replacement(range(max_part, -1, -1), rank):
            yield parts + (0,)


def test_statement_a_exact_in_the_reduced_ring():
    # gamma and delta tables agree exactly once h_a = 0 and g_a*g_{n-a} = u
    # hold at every product
    cases = 0
    for n in (2, 3):
        mode = SymbolicMode(n)
        for lam in lambda_grid(3, 4):
            gt, dt = family_tables(lam, mode)
            assert statement_a_check(lam, mode) and gt == dt, (lam, n)
            cases += 1
    assert cases == 112


def test_every_exact_coefficient_has_one_g_part():
    # so each numeric entry is one exact rational times one Gauss-sum
    # product; the numeric unpacking still sums every part
    coefficients = 0
    for n in (2, 3, 4):
        mode = SymbolicMode(n)
        for lam in lambda_grid(3, 3):
            boundary = boundary_from_lambda(lam)
            for family in ("gamma", "delta"):
                for coeff in partition_function(boundary, family, mode, "transfer").terms.values():
                    assert len({gpart for gpart, _, _ in coeff.terms}) == 1, (lam, n, family)
                    coefficients += 1
    assert coefficients > 5000


def test_functional_equations_exact_in_the_reduced_ring():
    for n in (2, 3):
        mode = SymbolicMode(n)
        for lam in lambda_grid(2, 3):
            for family in ("gamma", "delta"):
                z = partition_function(boundary_from_lambda(lam), family, mode)
                for i in range(1, len(lam)):
                    for j in range(n):
                        ok, lhs, rhs = functional_eq_check(z, i, j)
                        assert ok and lhs == rhs, (lam, n, i, j, family)


def test_statement_a_symbolic_report_pins():
    # the relation-level report starts from free-ring tables
    expected = {
        ((2, 1, 0), 2): (False, True), ((2, 1, 0), 3): (False, True),
        ((3, 1, 0), 2): (False, False), ((3, 1, 0), 3): (False, False),
        ((2, 2, 0), 2): (False, False), ((2, 2, 0), 3): (False, False),
        ((3, 2, 1, 0), 2): (False, True), ((3, 2, 1, 0), 3): (False, False),
    }
    for (lam, n), (none, h) in expected.items():
        assert relation_report(lam, n) == {"none": none, "h": h, "hg": True}


@settings(max_examples=40, deadline=None)
@given(dominant_weights, st.sampled_from([(2, 5), (3, 7), (2, 13)]),
       st.sampled_from(["gamma", "delta"]), st.sampled_from(["enumerate", "transfer"]))
def test_exact_evaluated_agrees_with_numeric(lam, nq, family, strategy):
    # evaluate rounds once, as numeric Z does: the same entries, bit for bit
    n, q = nq
    b = boundary_from_lambda(lam)
    num = numeric_mode(n, q)
    numeric = partition_function(b, family, num, strategy)
    exact = partition_function(b, family, SymbolicMode(n), strategy)
    evaluated = {e: v for e, c in exact.terms.items() if (v := c.evaluate(num.table))}
    assert evaluated == numeric.terms


@pytest.mark.parametrize("family", ["gamma", "delta"])
def test_exact_evaluated_is_numeric_where_a_coefficient_vanishes_at_1_over_q(family):
    # -u(1-u)^2(1-5u) is exactly 0 at u = 1/5: numeric Z has no entry there,
    # and evaluate gives exactly 0, not a rounding residue
    b = boundary_from_lambda((3, 2, 0, 0))
    num = numeric_mode(1, 5)
    exact = whittaker_table(b, family, SymbolicMode(1), "transfer")
    numeric = whittaker_table(b, family, num, "transfer")
    assert str(exact[(4, 5, 1)]) == "-u + 7*u^2 - 11*u^3 + 5*u^4"
    assert exact[(4, 5, 1)].evaluate(num.table) == 0
    evaluated = {k: v for k, c in exact.items() if (v := c.evaluate(num.table))}
    assert len(exact) == 212 and len(numeric) == 211
    assert evaluated == numeric


def reference_text(boundary, family, mode, strategy, dirichlet) -> str:
    """The table's text by the reference routes, through unpacked coefficients."""
    table = whittaker_table(boundary, family, mode, strategy)
    if dirichlet:
        return dirichlet_series_string(table)
    return jsonio.dumps(jsonio.whittaker_to_json(table))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4).flatmap(
           lambda rank: st.lists(st.integers(0, 3), min_size=rank, max_size=rank)).map(
           lambda parts: tuple(sorted(parts, reverse=True)) + (0,)),
       st.integers(1, 4), st.sampled_from(["gamma", "delta"]),
       st.sampled_from(["enumerate", "transfer"]), st.booleans())
def test_packed_table_text_is_the_reference_text(lam, n, family, strategy, dirichlet):
    # written straight from the packed sums, byte for byte what the
    # unpacked table renders to, on random weights up to rank 4
    b = boundary_from_lambda(lam)
    mode = SymbolicMode(n)
    text = packed_table_text(*packed_whittaker(b, family, mode, strategy), dirichlet=dirichlet)
    assert text == reference_text(b, family, mode, strategy, dirichlet)


@pytest.mark.parametrize("dirichlet", [False, True])
def test_packed_table_text_of_no_entry(dirichlet):
    # no state, or only weights that cancel to 0 (-u + g1^2 at n = 2), which
    # packed_sums drops: the empty table
    mode = SymbolicMode(2)
    want = dirichlet_series_string({}) if dirichlet else jsonio.dumps(jsonio.whittaker_to_json({}))
    for profiles in ([], [((("g", 0),), (0,)), ((("g", 1), ("g", 1)), (0,))]):
        packing, parts = packed_sums(profiles, mode, 2)
        assert parts == {}
        assert packed_table_text(packing, parts, lambda key: key, dirichlet) == want


def test_packed_whittaker_refuses_a_numeric_mode():
    with pytest.raises(ValueError):
        packed_whittaker(boundary_from_lambda((1, 0)), "gamma", numeric_mode(2, 5), "transfer")
    with pytest.raises(ValueError):
        packed_whittaker(boundary_from_lambda((1, 0)), "gamma", SymbolicMode(2), "bogus")
