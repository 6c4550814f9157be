"""Square-ice lattice layer: admissibility, boundaries, state enumeration, charges."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitice.lattice import (
    ADMISSIBLE,
    DELTA_TABLE,
    FORBIDDEN,
    GAMMA_TABLE,
    MINUS,
    PLUS,
    Boundary,
    boundary_from_lambda,
    count_states,
    direct_fill,
    enumerate_states,
    fill_row,
    is_admissible,
    lambda_of,
    row_charges,
    row_configs,
    row_fills,
    row_variable,
    row_vertices,
    strict_interleavings,
    weight_table,
)


def test_admissibility_rule():
    # even number of + spins, excluding the two crossing patterns
    for config in itertools.product((PLUS, MINUS), repeat=4):
        plus_count = sum(1 for s in config if s == PLUS)
        expected = plus_count % 2 == 0 and config not in FORBIDDEN
        assert is_admissible(config) == expected
    assert len(ADMISSIBLE) == 6
    assert FORBIDDEN == frozenset({(PLUS, MINUS, PLUS, MINUS), (MINUS, PLUS, MINUS, PLUS)})


def test_east_spin_is_determined_by_parity():
    # for every admissible config, E = N*S*W
    for n, s, w, e in ADMISSIBLE:
        assert e == n * s * w


def test_weight_tables_cover_admissible_configs():
    for family in ("gamma", "delta"):
        table = weight_table(family)
        assert set(table) == set(ADMISSIBLE)
    # pinned entries (kind, z-exponent)
    assert GAMMA_TABLE[(PLUS, PLUS, PLUS, PLUS)] == ("1", 0)
    assert GAMMA_TABLE[(MINUS, MINUS, MINUS, MINUS)] == ("1", 1)
    assert GAMMA_TABLE[(MINUS, MINUS, PLUS, PLUS)] == ("g", 0)
    assert GAMMA_TABLE[(PLUS, PLUS, MINUS, MINUS)] == ("1", 1)
    assert GAMMA_TABLE[(PLUS, MINUS, MINUS, PLUS)] == ("h", 1)
    assert GAMMA_TABLE[(MINUS, PLUS, PLUS, MINUS)] == ("1", 0)
    assert DELTA_TABLE[(PLUS, PLUS, PLUS, PLUS)] == ("1", 0)
    assert DELTA_TABLE[(MINUS, MINUS, MINUS, MINUS)] == ("g", 1)
    assert DELTA_TABLE[(MINUS, MINUS, PLUS, PLUS)] == ("1", 0)
    assert DELTA_TABLE[(PLUS, PLUS, MINUS, MINUS)] == ("1", 1)
    assert DELTA_TABLE[(PLUS, MINUS, MINUS, PLUS)] == ("h", 1)
    assert DELTA_TABLE[(MINUS, PLUS, PLUS, MINUS)] == ("1", 0)


def test_row_variables():
    # top-to-bottom: gamma rows carry z_{r+1}..z_1, delta rows carry z_1..z_{r+1}
    assert [row_variable("gamma", r, 2) for r in range(3)] == [2, 1, 0]
    assert [row_variable("delta", r, 2) for r in range(3)] == [0, 1, 2]


def test_boundary_pins():
    b = boundary_from_lambda((3, 2, 0))
    assert b == Boundary(columns=6, top_minus=(5, 3, 0))
    assert lambda_of(b) == (3, 2, 0)
    b3 = boundary_from_lambda((6, 4, 2, 0))
    assert b3 == Boundary(columns=10, top_minus=(9, 6, 3, 0))
    assert boundary_from_lambda((0, 0)) == Boundary(columns=2, top_minus=(1, 0))
    assert boundary_from_lambda((1, 0)) == Boundary(columns=3, top_minus=(2, 0))


def test_boundary_validation():
    with pytest.raises(ValueError):
        boundary_from_lambda((2, 3, 0))  # not weakly decreasing
    with pytest.raises(ValueError):
        boundary_from_lambda((2, 1))  # must end in 0
    with pytest.raises(ValueError):
        Boundary(columns=3, top_minus=(3, 0))  # column index out of range
    with pytest.raises(ValueError):
        Boundary(columns=3, top_minus=(1, 1))  # repeated column


def test_state_count_pins():
    assert count_states(boundary_from_lambda((0, 0))) == 2
    assert count_states(boundary_from_lambda((3, 2, 0))) == 41
    assert count_states(Boundary(columns=3, top_minus=(2, 0))) == 3
    assert count_states(boundary_from_lambda((8, 6, 4, 2, 0))) == 941_663
    assert count_states(boundary_from_lambda((10, 8, 6, 4, 2, 0))) == 891_619_506


def test_enumerate_states_structure():
    b = boundary_from_lambda((3, 2, 0))
    states = enumerate_states(b)
    assert len(states) == 41
    assert states == sorted(states, key=lambda s: s.layers)
    assert len({s.layers for s in states}) == 41
    for state in states:
        assert state.layers[0] == b.top_minus
        assert state.layers[-1] == ()
        for row_index, top, bot in state.vertex_rows():
            edges = fill_row(top, bot, b.columns)
            assert edges is not None
            assert edges[0] == PLUS and edges[-1] == MINUS
            for config in row_configs(top, bot, b.columns):
                assert is_admissible(config)


def test_fill_row_unique_or_none():
    # interleaving rows admit exactly one edge completion
    assert fill_row((5, 3, 0), (3, 0), 6) == (PLUS, MINUS, MINUS, MINUS, MINUS, MINUS, MINUS)
    # non-interleaving rows admit none
    assert fill_row((5, 3, 0), (5, 4), 6) is None
    # columns are indexed right-to-left; the edge flips below the sole top minus
    assert fill_row((2,), (), 3) == (PLUS, MINUS, MINUS, MINUS)


def test_strict_interleavings_pin():
    got = list(strict_interleavings((5, 3, 0)))
    assert len(got) == 11
    assert (5, 3) in got and (3, 0) in got
    for lower in got:
        assert all(lower[i] > lower[i + 1] for i in range(len(lower) - 1))
        for i, v in enumerate(lower):
            assert (5, 3, 0)[i] >= v >= (5, 3, 0)[i + 1]


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 7), min_size=1, max_size=4))
def test_charge_labels_match_direct_counts(top_cols):
    # the row kernel's factors and z-exponent agree with the direct per-vertex
    # count (fill_row, row_configs, row_charges) on every row, and the kernel
    # reaches exactly the bottom layers that admit a fill
    columns = max(top_cols) + 1
    top = tuple(sorted(top_cols, reverse=True))
    for family in ("gamma", "delta"):
        table = weight_table(family)
        fills = row_fills(top, columns, family)
        fillable = set()
        for size in range(columns + 1):
            for bot in itertools.combinations(range(columns - 1, -1, -1), size):
                edges = fill_row(top, bot, columns)
                if edges is None:
                    continue
                fillable.add(bot)
                configs = row_configs(top, bot, columns)
                charges = row_charges(edges, family)
                factors = tuple((table[c][0], q) for c, q in zip(configs, charges)
                                if table[c][0] != "1")
                assert fills[bot] == (factors, sum(table[c][1] for c in configs))
                assert fills[bot] == direct_fill(row_vertices(top, bot, columns, family))
        assert set(fills) == fillable
        assert fillable == set(strict_interleavings(top))


def test_row_fills_worked_example():
    # rows of the worked example (5,3,0) / (3,1) / (3,) / (), gamma family
    assert row_fills((5, 3, 0), 6, "gamma")[(3, 1)] == ((("h", 1),), 4)
    assert row_fills((3, 1), 6, "gamma")[(3,)] == ((("g", 2),), 1)
    assert row_fills((3,), 6, "gamma") == {(): ((), 3)}
    assert row_fills((3,), 6, "delta") == {(): ((), 3)}
    assert len(row_fills((5, 3, 0), 6, "delta")) == 11


def test_gamma_charge_counts_plus_to_the_east():
    edges = (PLUS, PLUS, MINUS, MINUS)
    # vertex p charge = number of + among edges strictly east of p
    assert row_charges(edges, "gamma") == [1, 0, 0]
    # delta: number of - strictly west
    assert row_charges(edges, "delta") == [0, 0, 1]
