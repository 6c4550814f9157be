"""Partition functions, state weights, pattern matching, and coefficient tables."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitice.coeffs import SymCoeff, SymbolicMode
from whitice.lattice import boundary_from_lambda, enumerate_states
from whitice.laurent import LaurentPoly
from whitice.patterns import (GTPattern, delta_exponents, delta_weight, enumerate_patterns,
                              gamma_exponents, gamma_weight, state_from_pattern)
from whitice.partition import (
    boundary_profiles,
    dirichlet_series_string,
    matching_check,
    numeric_mode,
    parse_dirichlet_series,
    partition_function,
    pattern_side_weight,
    profile_of,
    raw_symbolic_mode,
    spin_vector_of_exponents,
    state_weight,
    statement_a_check,
    statement_a_symbolic_report,
    tables_equal,
    weight_grid,
    whittaker_table,
)

TOL = 1e-9

WORKED_STATE = state_from_pattern(GTPattern(((5, 3, 0), (3, 1), (3,))))


def g(i):
    return SymCoeff.symbol("g", i)


def h(i):
    return SymCoeff.symbol("h", i)


def test_worked_example_state_weights():
    raw = raw_symbolic_mode()
    coeff, exps = state_weight(WORKED_STATE, "gamma", raw)
    assert coeff == g(2) * h(1)
    assert exps == (3, 1, 4)
    coeff, exps = state_weight(WORKED_STATE, "delta", raw)
    assert coeff == g(2) * h(4)
    assert exps == (4, 1, 3)


def test_worked_example_weight_grid_formal():
    grid = weight_grid(WORKED_STATE, "gamma", raw_symbolic_mode())
    rendered = [[str(c) for c in row] for row in grid]
    assert rendered == [
        ["1", "z3", "z3", "z3", "h1*z3", "1"],
        ["1", "1", "g2", "1", "1", "z2"],
        ["1", "1", "1", "z1", "z1", "z1"],
    ]


def test_worked_example_weight_grid_n1():
    grid = weight_grid(WORKED_STATE, "gamma", SymbolicMode(1))
    rendered = [[str(c) for c in row] for row in grid]
    assert rendered == [
        ["1", "z3", "z3", "z3", "(1 - u)*z3", "1"],
        ["1", "1", "-u", "1", "1", "z2"],
        ["1", "1", "1", "z1", "z1", "z1"],
    ]


def test_grid_product_equals_state_weight():
    raw = raw_symbolic_mode()
    for family in ("gamma", "delta"):
        grid = weight_grid(WORKED_STATE, family, raw)
        prod = None
        for row in grid:
            for cell in row:
                prod = cell if prod is None else prod * cell
        coeff, exps = state_weight(WORKED_STATE, family, raw)
        assert dict(prod.terms) == {exps: coeff}


def test_partition_pins_rank_one():
    n1 = SymbolicMode(1)
    raw = raw_symbolic_mode()
    b0 = boundary_from_lambda((0, 0))
    assert str(partition_function(b0, "gamma", n1)) == "-u*z1 + z2"
    assert str(partition_function(b0, "gamma", raw)) == "g1*z1 + z2"
    b1 = boundary_from_lambda((1, 0))
    assert str(partition_function(b1, "gamma", raw)) == "g2*z1^2 + h1*z1*z2 + z2^2"


def test_partition_strategies_agree():
    raw = raw_symbolic_mode()
    num = numeric_mode(3, 7)
    for lam in ((0, 0), (2, 0), (3, 2, 0), (2, 1, 0)):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            a = partition_function(boundary, family, raw, strategy="enumerate")
            b = partition_function(boundary, family, raw, strategy="transfer")
            assert a == b
            an = partition_function(boundary, family, num, strategy="enumerate")
            bn = partition_function(boundary, family, num, strategy="transfer")
            assert an.equal(bn, TOL)


dominant_weights = st.integers(0, 3).flatmap(
    lambda rank: st.lists(st.integers(0, 3), min_size=rank, max_size=rank)).map(
    lambda parts: tuple(sorted(parts, reverse=True)) + (0,))


@settings(max_examples=30, deadline=None)
@given(dominant_weights)
def test_transfer_enumerate_and_patterns_agree(lam):
    # Z by contraction, by state enumeration and by summing the pattern-side
    # weights (which share no row code with the lattice) are one polynomial
    raw = raw_symbolic_mode()
    boundary = boundary_from_lambda(lam)
    nvars = boundary.rank + 1
    for family in ("gamma", "delta"):
        weight, exponents = ((gamma_weight, gamma_exponents) if family == "gamma"
                             else (delta_weight, delta_exponents))
        terms: dict = {}
        for t in enumerate_patterns(boundary.top_minus):
            terms[exponents(t)] = terms.get(exponents(t), raw.zero) + weight(t, raw)
        by_patterns = LaurentPoly(nvars, raw, terms)
        by_transfer = partition_function(boundary, family, raw, strategy="transfer")
        by_enumeration = partition_function(boundary, family, raw, strategy="enumerate")
        assert by_transfer == by_enumeration == by_patterns


def test_boundary_profiles_follow_enumeration_order():
    # matching_check pairs profiles with enumerate_states by position
    for lam in ((0,), (2, 0), (3, 2, 0), (2, 1, 1, 0)):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            assert boundary_profiles(boundary, family) == tuple(
                profile_of(state, family) for state in enumerate_states(boundary))


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        partition_function(boundary_from_lambda((0, 0)), "gamma", SymbolicMode(1),
                           strategy="bogus")


def test_matching_lattice_vs_pattern():
    # per-state: lattice weight equals pattern statistic times the exponent monomial
    raw = raw_symbolic_mode()
    for lam in ((0, 0), (2, 0), (3, 2, 0)):
        boundary = boundary_from_lambda(lam)
        for family in ("gamma", "delta"):
            assert matching_check(boundary, family, raw) == []
            for state in enumerate_states(boundary):
                assert state_weight(state, family, raw) == pattern_side_weight(state, family, raw)


def test_spin_vector_of_exponents_pins():
    b = boundary_from_lambda((3, 2, 0))
    assert spin_vector_of_exponents((3, 1, 4), b, "gamma") == (1, 3)
    assert spin_vector_of_exponents((4, 1, 3), b, "delta") == (2, 4)


def test_whittaker_table_pins():
    raw = raw_symbolic_mode()
    b0 = boundary_from_lambda((0, 0))
    table = whittaker_table(b0, "gamma", raw)
    assert table == {(0,): SymCoeff.from_fraction(1), (1,): g(1)}
    b32 = boundary_from_lambda((3, 2, 0))
    t32 = whittaker_table(b32, "gamma", raw)
    assert len(t32) == 27
    assert t32[(0, 0)] == SymCoeff.from_fraction(1)
    assert t32[(0, 1)] == h(1)
    assert t32[(0, 3)] == g(3)


def test_whittaker_strategies_agree():
    raw = raw_symbolic_mode()
    b = boundary_from_lambda((2, 1, 0))
    assert whittaker_table(b, "delta", raw) == whittaker_table(b, "delta", raw, strategy="transfer")


def test_statement_a_numeric():
    for lam in ((0, 0), (3, 2, 0), (2, 1, 0), (4, 4, 0)):
        for n, q in ((1, 5), (2, 13), (3, 7)):
            equal, gt, dt = statement_a_check(lam, numeric_mode(n, q), tol=TOL)
            assert equal
            assert set(gt) == set(dt)


def test_statement_a_exact_n1():
    mode = SymbolicMode(1)
    for lam in ((0, 0), (3, 2, 0), (2, 1, 0)):
        equal, gt, dt = statement_a_check(lam, mode)
        assert equal and gt == dt


def test_statement_a_symbolic_relation_ladder():
    # which formal relations are needed for the two tables to coincide
    assert statement_a_symbolic_report((1, 0), 2) == {"none": True, "h": True, "hg": True}
    assert statement_a_symbolic_report((2, 1, 0), 2) == {"none": False, "h": True, "hg": True}
    assert statement_a_symbolic_report((3, 2, 0), 3) == {"none": False, "h": False, "hg": True}


def test_tables_equal_tolerance():
    num = numeric_mode(2, 5)
    a = {(0,): 1.0, (1,): 0.5}
    assert tables_equal(a, {(0,): 1.0, (1,): 0.5 + 1e-12}, num)
    assert not tables_equal(a, {(0,): 1.0, (1,): 0.6}, num)
    assert not tables_equal(a, {(0,): 1.0}, num)


def test_dirichlet_series_round_trip():
    raw = raw_symbolic_mode()
    b = boundary_from_lambda((3, 2, 0))
    table = whittaker_table(b, "delta", raw)
    text = dirichlet_series_string(table)
    assert text.startswith("1 + h1*q^(1*(1-2*s2)) + h2*q^(2*(1-2*s2)) + g3*q^(3*(1-2*s2))")
    assert parse_dirichlet_series(text, 2) == table
