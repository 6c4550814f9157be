"""Strict triangular patterns, the state bijection, and pattern statistics."""
from __future__ import annotations

import itertools

import pytest
from free_ring import RAW

from whitice.coeffs import SymCoeff, SymbolicMode
from whitice.lattice import (boundary_from_lambda, enumerate_states, fill_weight, row_fills,
                             strict_interleavings)
from whitice.patterns import (
    GTPattern,
    ShortPattern,
    entry_case,
    enumerate_patterns,
    enumerate_short_patterns,
    pattern_exponents,
    pattern_factors,
    pattern_from_state,
    pattern_profiles,
    row_statistic,
    state_from_pattern,
)
from whitice.partition import pattern_profile, spin_vector_of_exponents
from whitice.transfer import TWO_ROW_ORDERS

WORKED = GTPattern(((5, 3, 0), (3, 1), (3,)))


def g(i):
    return SymCoeff.symbol("g", i)


def h(i):
    return SymCoeff.symbol("h", i)


def small_lambdas(max_rank=3, max_part=4):
    for rank in range(1, max_rank + 1):
        for parts in itertools.combinations_with_replacement(range(max_part, -1, -1), rank):
            yield tuple(parts) + (0,)


def test_pattern_validation():
    with pytest.raises(ValueError):
        GTPattern(((3, 3, 0), (2, 1), (2,)))  # top row not strictly decreasing
    with pytest.raises(ValueError):
        GTPattern(((5, 3, 0), (3, 3), (3,)))  # repeated entry within a row
    with pytest.raises(ValueError):
        GTPattern(((5, 3, 0), (6, 1), (3,)))  # middle row escapes interleaving
    with pytest.raises(ValueError):
        GTPattern(((5, 3, 0), (3,)))  # row lengths must step down by one


def test_entry_case():
    # an entry equal to its upper-right neighbor is 'right',
    # equal to its upper-left neighbor is 'left', strictly between is 'free'
    assert entry_case((5, 3, 0), 0, 3) == "right"
    assert entry_case((5, 3, 0), 0, 5) == "left"
    assert entry_case((5, 3, 0), 0, 4) == "free"
    assert entry_case((3, 1), 0, 3) == "left"
    assert entry_case((3, 1), 0, 1) == "right"


def statistic(rows, families):
    """The one statistic of every entry below the first row, row by row."""
    return [entry for up, row, family in zip(rows, rows[1:], families)
            for entry in row_statistic(up, row, family)]


def test_worked_example_statistics():
    boundary = state_from_pattern(WORKED).boundary
    raw = RAW
    gamma = ("gamma", "gamma")
    assert statistic(WORKED.rows, gamma) == [("right", 1), ("free", 1), ("left", 2)]
    # decoration charge vector reads (1, 1, 2)
    assert [c for _case, c in statistic(WORKED.rows, gamma)] == [1, 1, 2]
    assert pattern_factors(WORKED.rows, gamma) == (("h", 1), ("g", 2))
    assert fill_weight(pattern_factors(WORKED.rows, gamma), raw) == g(2) * h(1)
    assert pattern_exponents(WORKED, "gamma") == (3, 1, 4)
    assert spin_vector_of_exponents((3, 1, 4), boundary, "gamma") == (1, 3)
    delta = ("delta", "delta")
    assert statistic(WORKED.rows, delta) == [("right", 2), ("free", 4), ("left", 0)]
    assert pattern_factors(WORKED.rows, delta) == (("g", 2), ("h", 4))
    assert fill_weight(pattern_factors(WORKED.rows, delta), raw) == g(2) * h(4)
    assert pattern_exponents(WORKED, "delta") == (4, 1, 3)
    assert spin_vector_of_exponents((4, 1, 3), boundary, "delta") == (2, 4)


def test_short_pattern_statistics_pin():
    # a short pattern reads its middle and bottom rows under the two
    # families of a two-row order
    sp = ShortPattern((5, 3, 0), (5, 1), (1,))
    gd, dg = ("gamma", "delta"), ("delta", "gamma")
    assert statistic(sp.rows, gd) == [("left", 3), ("free", 1), ("right", 4)]
    assert pattern_factors(sp.rows, gd) == (("g", 3), ("h", 1), ("g", 4))
    assert statistic(sp.rows, dg) == [("left", 0), ("free", 2), ("right", 0)]
    assert pattern_factors(sp.rows, dg) == (("h", 2),)
    image = ShortPattern((5, 3, 0), (3, 0), (1,))
    assert statistic(image.rows, dg) == [("right", 2), ("right", 5), ("free", 1)]
    assert pattern_factors(image.rows, dg) == (("g", 2), ("g", 5), ("h", 1))
    raw = RAW
    assert fill_weight(pattern_factors(sp.rows, gd), raw) == g(3) * h(1) * g(4)
    assert fill_weight(pattern_factors(image.rows, dg), raw) == g(2) * g(5) * h(1)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        row_statistic((5, 3, 0), (3, 1), "bogus")
    with pytest.raises(ValueError):
        pattern_factors(WORKED.rows, ("bogus", "bogus"))
    with pytest.raises(ValueError):
        pattern_exponents(WORKED, "bogus")


def test_short_pattern_factors_match_the_kernel_slab():
    # every short pattern of width <= 6, in both orders: the statistic's
    # factors are the two-row slab's, as the row kernel lists them
    pairs = 0
    for width in range(3, 7):
        for size in range(2, width + 1):
            for top in itertools.combinations(range(width - 1, -1, -1), size):
                for bot in itertools.combinations(range(width - 1, -1, -1), size - 2):
                    for sp in enumerate_short_patterns(top, bot):
                        for order in TWO_ROW_ORDERS:
                            upper, lower = order.split("-")
                            slab = (row_fills(sp.top, width, upper)[sp.mid][0]
                                    + row_fills(sp.mid, width, lower)[sp.bot][0])
                            assert sorted(pattern_factors(sp.rows, (upper, lower))) == sorted(slab)
                            pairs += 1
    assert pairs == 4240


def test_worked_example_bijection():
    state = state_from_pattern(WORKED)
    assert state.layers == ((5, 3, 0), (3, 1), (3,), ())
    assert pattern_from_state(state) == WORKED


def test_bijection_round_trip_over_grid():
    for lam in small_lambdas(max_rank=2, max_part=3):
        boundary = boundary_from_lambda(lam)
        states = enumerate_states(boundary)
        patterns = list(enumerate_patterns(boundary.top_minus))
        assert len(states) == len(patterns)
        assert {pattern_from_state(s) for s in states} == set(patterns)
        for state in states:
            assert state_from_pattern(pattern_from_state(state)) == state


def test_exponent_totals_are_homogeneous():
    # every pattern's exponent vector sums to the total of the top row
    for pattern in enumerate_patterns((5, 3, 0)):
        assert sum(pattern_exponents(pattern, "gamma")) == 8
        assert sum(pattern_exponents(pattern, "delta")) == 8


def patterns_by_recursion(top):
    """Reference for :func:`enumerate_patterns`: the recursive walk over
    each row's interleavings in the order strict_interleavings gives them."""
    rows = [tuple(top)]

    def rec():
        if len(rows[-1]) == 1:
            yield GTPattern(rows=tuple(rows))
            return
        for y in strict_interleavings(rows[-1]):
            rows.append(y)
            yield from rec()
            rows.pop()

    return list(rec())


def short_patterns_by_recursion(top, bot):
    """Reference for :func:`enumerate_short_patterns`: each middle entry
    ranges over the interval its four neighbours allow, recursively, and
    the patterns are sorted by middle row, largest first."""
    out = []
    p = len(top) - 1
    acc = []

    def rec(j):
        if j == p:
            out.append(ShortPattern(top=tuple(top), mid=tuple(acc), bot=tuple(bot)))
            return
        hi = top[j] if not acc else min(top[j], acc[-1] - 1)
        lo = top[j + 1]
        if 0 <= j - 1 < len(bot):
            hi = min(hi, bot[j - 1])
        if j < len(bot):
            lo = max(lo, bot[j])
        for y in range(hi, lo - 1, -1):
            acc.append(y)
            rec(j + 1)
            acc.pop()

    rec(0)
    out.sort(key=lambda sp: sp.mid, reverse=True)
    return out


def test_pattern_enumerators_match_the_recursive_walks():
    # same patterns in the same order, over every top row of width <= 6
    # with up to five entries, and every short boundary of width <= 7
    patterns = 0
    for size in range(1, 6):
        for top in itertools.combinations(range(5, -1, -1), size):
            expected = patterns_by_recursion(top)
            assert list(enumerate_patterns(top)) == expected
            patterns += len(expected)
    assert patterns == 10292
    shorts = 0
    for size in range(2, 8):
        for top in itertools.combinations(range(6, -1, -1), size):
            for bot in itertools.combinations(range(6, -1, -1), size - 2):
                expected = short_patterns_by_recursion(top, bot)
                assert enumerate_short_patterns(top, bot) == expected
                shorts += len(expected)
    assert shorts == 7718


def test_pattern_profiles_match_each_states_pattern():
    # the walk yields, in enumerate_states order, what each state's own
    # pattern gives
    for lam in [(0,), *small_lambdas(), (4, 3, 2, 1, 0)]:
        boundary = boundary_from_lambda(lam)
        states = enumerate_states(boundary)
        for family in ("gamma", "delta"):
            assert list(pattern_profiles(boundary.top_minus, family)) == [
                pattern_profile(state, family) for state in states]


def test_pattern_profiles_reject_bad_input():
    with pytest.raises(ValueError):
        next(pattern_profiles((5, 3, 0), "bogus"))
    with pytest.raises(ValueError):
        next(pattern_profiles((3, 5, 0), "gamma"))
    with pytest.raises(ValueError):
        next(pattern_profiles((), "gamma"))


def test_short_pattern_validation():
    with pytest.raises(ValueError):
        ShortPattern((5, 3, 0), (5, 1), (6,))  # bottom escapes middle interleaving
    with pytest.raises(ValueError):
        ShortPattern((5, 3, 0), (2, 2), (2,))  # middle not strict
    with pytest.raises(ValueError):
        ShortPattern((5, 3, 0), (4,), (3,))  # row lengths must step down by one


def test_enumerate_short_patterns():
    sps = enumerate_short_patterns((5, 3, 0), (4,))
    assert len(sps) == 8
    assert ShortPattern((5, 3, 0), (5, 3), (4,)) in sps
    for sp in sps:
        assert sp.top == (5, 3, 0) and sp.bot == (4,)


def test_short_weights_counterexample_pin():
    # two short patterns with middle sums 6 and 3 carry equal weights in
    # opposite orders at n = 1
    n1 = SymbolicMode(1)
    u = n1.u
    sp = ShortPattern((5, 3, 0), (5, 1), (1,))
    assert fill_weight(pattern_factors(sp.rows, ("gamma", "delta")), n1) == u * u - u * u * u
    image = ShortPattern((5, 3, 0), (3, 0), (1,))
    assert fill_weight(pattern_factors(image.rows, ("delta", "gamma")), n1) == u * u - u * u * u
