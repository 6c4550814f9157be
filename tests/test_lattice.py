"""Square-ice lattice layer: admissibility, boundaries, state enumeration, charges."""
from __future__ import annotations

import gc
import itertools

import pytest
from hypothesis import example, given, settings
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
    lambda_of,
    row_charges,
    row_fills,
    row_variable,
    row_vertices,
    state_profiles,
    strict_interleavings,
    weight_table,
)
from whitice.coeffs import SymbolicMode
from whitice.partition import boundary_profiles
from whitice.patterns import enumerate_patterns, enumerate_short_patterns
from whitice.transfer import contract_partition, two_row_rows


def test_admissibility_rule():
    # even number of + spins, excluding the two crossing patterns
    for config in itertools.product((PLUS, MINUS), repeat=4):
        plus_count = sum(1 for s in config if s == PLUS)
        expected = plus_count % 2 == 0 and config not in FORBIDDEN
        assert (config in ADMISSIBLE) == expected
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


def small_weights():
    """Every dominant weight of rank <= 4 with parts <= 4."""
    for rank in range(5):
        for parts in itertools.combinations_with_replacement(range(4, -1, -1), rank):
            yield parts + (0,)


def test_capped_count_agrees_below_the_cap_and_passes_it_with_the_count():
    # small caps, so that both sides are hit on the grid
    hits = {"below": 0, "past": 0}
    for lam in small_weights():
        boundary = boundary_from_lambda(lam)
        exact = count_states(boundary)
        for cap in sorted({0, 1, 2, 7, 40, 300, exact - 1, exact, exact + 1}):
            capped = count_states(boundary, cap)
            if exact <= cap:
                assert capped == exact, (lam, cap)
                hits["below"] += 1
            else:
                assert capped == cap + 1, (lam, cap)
                hits["past"] += 1
    assert min(hits.values()) > 100


def test_state_walks_leave_no_cyclic_garbage():
    # a recursive closure that refers to itself is a reference cycle, freed
    # only by the cycle collector
    boundary = boundary_from_lambda((3, 2, 1, 0))
    gc.collect()
    gc.disable()
    try:
        for run in (lambda: count_states(boundary), lambda: enumerate_states(boundary),
                    lambda: contract_partition(boundary, "gamma", SymbolicMode(2)),
                    lambda: boundary_profiles.__wrapped__(boundary, "delta"),
                    lambda: state_profiles((6, 4, 1, 0), two_row_rows("delta-gamma"), 7, (4, 3)),
                    lambda: list(enumerate_patterns(boundary.top_minus)),
                    lambda: enumerate_short_patterns((6, 4, 1, 0), (4, 3))):
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def slab_by_lookup(top, bottom, rows, columns):
    """Reference for :func:`state_profiles` on two rows: the fills below the
    top layer, in ascending middle-layer order, each followed by a lookup of
    the bottom layer among the fills below its middle layer."""
    (family1, var1), (family2, var2) = rows
    profiles = []
    for mid, (factors1, zexp1) in sorted(row_fills(top, columns, family1).items()):
        lower = row_fills(mid, columns, family2).get(bottom)
        if lower is not None:
            exponents = [0, 0]
            exponents[var1] += zexp1
            exponents[var2] += lower[1]
            profiles.append((factors1 + lower[0], tuple(exponents)))
    return tuple(profiles)


SLAB_ROWS = (two_row_rows("gamma-delta"), two_row_rows("delta-gamma"),
             (("gamma", 1), ("gamma", 0)))


def test_state_profiles_match_the_slab_lookup():
    # every two-row boundary of width <= 6, both mixed orders and the
    # two-gamma-row slab of the crossing vertex
    nonempty = 0
    for width in range(3, 7):
        for size in range(2, width + 1):
            for top in itertools.combinations(range(width - 1, -1, -1), size):
                for bot in itertools.combinations(range(width - 1, -1, -1), size - 2):
                    for rows in SLAB_ROWS:
                        expected = slab_by_lookup(top, bot, rows, width)
                        assert state_profiles(top, rows, width, bot) == expected
                        nonempty += bool(expected)
    assert nonempty == 1488


def test_state_profiles_need_one_variable_per_row():
    with pytest.raises(ValueError):
        state_profiles((2, 0), (("gamma", 0), ("delta", 0)), 3)
    with pytest.raises(ValueError):
        state_profiles((2, 0), (("gamma", 1), ("delta", 2)), 3)


def row_configs(top, bot, columns):
    """(N, S, W, E) of each vertex of one fillable row, left to right, from
    its forced edges (:func:`fill_row`)."""
    edges = fill_row(top, bot, columns)
    return [(MINUS if c in top else PLUS, MINUS if c in bot else PLUS, edges[p], edges[p + 1])
            for p, c in enumerate(range(columns - 1, -1, -1))]


def test_enumerate_states_structure():
    b = boundary_from_lambda((3, 2, 0))
    states = enumerate_states(b)
    assert len(states) == 41
    assert states == sorted(states, key=lambda s: s.layers)
    assert len({s.layers for s in states}) == 41
    for state in states:
        assert state.layers[0] == b.top_minus
        assert state.layers[-1] == ()
        for top, bot in zip(state.layers, state.layers[1:]):
            edges = fill_row(top, bot, b.columns)
            assert edges is not None
            assert edges[0] == PLUS and edges[-1] == MINUS
            for config in row_configs(top, bot, b.columns):
                assert config in ADMISSIBLE


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
    assert got == sorted(got, reverse=True)
    assert list(strict_interleavings((4,))) == [()]
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
        # walk order: left to right, the + branch (column not in bot) first
        assert list(fills) == sorted(
            fills, key=lambda bot: [c in bot for c in range(columns - 1, -1, -1)])


def test_a_given_bottom_keeps_only_its_fill():
    # the kernel told the layer below returns the unconstrained fills
    # filtered to it, on every top of the test above and every bottom, a
    # label past the lattice included
    for size in range(1, 5):
        for top in itertools.combinations(range(7, -1, -1), size):
            columns = top[0] + 1
            for family in ("gamma", "delta"):
                fills = row_fills(top, columns, family)
                for bot_size in range(columns + 2):
                    for bot in itertools.combinations(range(columns, -1, -1), bot_size):
                        expected = {bot: fills[bot]} if bot in fills else {}
                        assert row_fills(top, columns, family, bot) == expected


def row_fills_by_recursion(top, columns, family):
    """The row kernel as a depth-first recursion, + branch first: the
    reference the frontier walk of :func:`row_fills` is checked against."""
    table = weight_table(family)
    gamma = family == "gamma"
    mark = PLUS if gamma else MINUS
    north = [MINUS if columns - 1 - p in top else PLUS for p in range(columns)]
    last_minus = columns - 1 - min(top) if top else -1
    fills = {}
    bottom = []
    factors = []

    def walk(p, west, marks, zexp):
        if west == PLUS and p > last_minus:
            return
        if p == columns:
            fills[tuple(bottom)] = (
                tuple((kind, marks - m) for kind, m in factors) if gamma
                else tuple(factors), zexp)
            return
        nsp = north[p]
        marks += west == mark
        for ssp in (PLUS, MINUS):
            east = nsp * ssp * west
            entry = table.get((nsp, ssp, west, east))
            if entry is None:
                continue
            kind, inc = entry
            if ssp == MINUS:
                bottom.append(columns - 1 - p)
            if kind != "1":
                factors.append((kind, marks))
            walk(p + 1, east, marks, zexp + inc)
            if kind != "1":
                factors.pop()
            if ssp == MINUS:
                bottom.pop()

    walk(0, PLUS, 0, 0)
    return fills


@st.composite
def row_tops(draw):
    columns = draw(st.integers(0, 12))
    cols = draw(st.sets(st.integers(0, max(columns - 1, 0)), max_size=columns))
    return tuple(sorted(cols, reverse=True)), columns


@settings(max_examples=300, deadline=None)
@given(row_tops(), st.sampled_from(("gamma", "delta")))
@example(((), 0), "gamma")
@example(((), 5), "delta")
@example(((0,), 1), "gamma")
@example(((11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0), 12), "delta")
@example(((11, 9, 6, 4, 2, 1), 12), "gamma")
@example(((5, 3, 0), 6), "delta")
def test_row_fills_match_the_recursive_walk(top_columns, family):
    # same fills, same factors, in the same order: numeric sums depend on it
    top, columns = top_columns
    assert (list(row_fills(top, columns, family).items())
            == list(row_fills_by_recursion(top, columns, family).items()))


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
