"""JSON serialization: documented shapes and lossless round-trips."""
from __future__ import annotations

import json
import math

import pytest
from free_ring import profile_sum, profile_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitice.coeffs import FREE, SymCoeff, SymbolicMode
from whitice.gauss import gauss_table
from whitice.jsonio import (
    coeff_from_json,
    coeff_to_json,
    dumps,
    dumps_whittaker,
    gauss_table_to_json,
    poly_to_json,
    report,
    state_to_json,
    whittaker_from_json,
    whittaker_to_json,
)
from whitice.lattice import boundary_from_lambda, enumerate_states
from whitice.laurent import LaurentPoly
from whitice.patterns import GTPattern, state_from_pattern
from whitice.partition import numeric_mode, partition_function, whittaker_table


WORKED = GTPattern(((5, 3, 0), (3, 1), (3,)))


def test_state_shape_and_round_trip():
    state = state_from_pattern(WORKED)
    obj = state_to_json(state)
    assert obj == {"columns": 6, "layers": [[5, 3, 0], [3, 1], [3], []], "rowOrder": "gamma"}
    json.dumps(obj)  # serializable
    for st in enumerate_states(boundary_from_lambda((2, 1, 0))):
        back = json.loads(json.dumps(state_to_json(st)))
        assert back["columns"] == st.boundary.columns
        assert tuple(map(tuple, back["layers"])) == st.layers


def test_symbolic_coeff_round_trip():
    c = SymCoeff.symbol("g", 2) * SymCoeff.symbol("h", 1) * 2 + SymCoeff.u_power(3)
    obj = coeff_to_json(c)
    assert set(obj) == {"terms"}
    for term in obj["terms"]:
        assert set(term) == {"g", "h", "u"}
    assert coeff_from_json(obj) == c
    assert coeff_from_json(json.loads(json.dumps(obj))) == c


def test_numeric_coeff_round_trip():
    obj = coeff_to_json(0.5 - 0.25j)
    assert obj == [0.5, -0.25]
    assert coeff_from_json(obj) == 0.5 - 0.25j


def terms_from_json(obj, ring=FREE):
    """{exponents: coefficient} of a polynomial view, each coefficient read
    back by :func:`coeff_from_json` into `ring`."""
    return {tuple(t["exponents"]): coeff_from_json(t["coeff"], ring) for t in obj["terms"]}


def test_poly_round_trip_symbolic():
    z = profile_sum(boundary_from_lambda((3, 2, 0)), "delta")
    obj = poly_to_json(z)
    assert set(obj) == {"vars", "terms"}
    assert obj["vars"] == 3
    assert terms_from_json(json.loads(json.dumps(obj))) == z.terms


def test_poly_round_trip_reduced_ring():
    mode = SymbolicMode(3)
    z = partition_function(boundary_from_lambda((2, 1, 0)), "gamma", mode)
    obj = json.loads(json.dumps(poly_to_json(z)))
    back = LaurentPoly(obj["vars"], mode, terms_from_json(obj, mode.ring))
    assert back == z
    # read into the mode's ring, the polynomial takes part in its arithmetic
    assert back - z == LaurentPoly.zero(3, mode)


def test_poly_round_trip_numeric():
    num = numeric_mode(2, 5)
    z = partition_function(boundary_from_lambda((2, 0)), "gamma", num)
    back = terms_from_json(json.loads(json.dumps(poly_to_json(z))))
    assert back == z.terms  # floats are written by repr, which reads back exactly


def test_whittaker_round_trip():
    table = profile_table(boundary_from_lambda((3, 2, 0)), "gamma")
    obj = whittaker_to_json(table)
    assert set(obj) == {"entries"}
    assert all(set(e) == {"k", "coeff"} for e in obj["entries"])
    assert whittaker_from_json(json.loads(json.dumps(obj))) == table


def test_gauss_table_shape():
    obj = gauss_table_to_json(gauss_table(2, 13))
    assert set(obj) == {"n", "q", "root", "g", "h"}
    assert obj["n"] == 2 and obj["q"] == 13
    assert len(obj["g"]) == 2 and len(obj["h"]) == 2
    assert all(len(pair) == 2 for pair in obj["g"])


def test_report_shape():
    ok = report("two-row", {"seed": 0}, True)
    assert ok == {"check": "two-row", "params": {"seed": 0}, "pass": True}
    bad = report("two-row", {"seed": 0}, False, counterexample={"k": 2})
    assert bad["pass"] is False
    assert bad["counterexample"] == {"k": 2}
    assert "counterexample" not in ok


# ---------------------------------------------------------------------------
#  The renderer: json.dumps(obj, indent=2), byte for byte
# ---------------------------------------------------------------------------

class SubInt(int):
    def __repr__(self):
        return "SubInt"


class SubFloat(float):
    def __repr__(self):
        return "SubFloat"


class SubStr(str):
    pass


class SubList(list):
    pass


class SubDict(dict):
    pass


EDGE_FLOATS = [-0.0, 0.0, 1e-7, 1e16, 1.5e300, 5e-324, math.nan, math.inf, -math.inf]
EDGE_STRINGS = ['', '"', '\\', 'a "quoted" word', '\x00\x1f\n\t\r\x7f', 'é ☃ 𝄞',
                '\ud800', '</script>', '{"k": [1, 2]}']

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(EDGE_FLOATS),
    st.text(), st.sampled_from(EDGE_STRINGS),
    st.builds(SubInt, st.integers()), st.builds(SubFloat, st.floats()),
    st.builds(SubStr, st.text()))
keys = st.one_of(st.text(), st.sampled_from(EDGE_STRINGS), st.integers(),
                 st.floats(), st.booleans(), st.none(), st.builds(SubStr, st.text()))
number_lists = st.one_of(
    st.lists(st.integers()), st.lists(st.floats()),
    st.lists(st.sampled_from(EDGE_FLOATS)),
    st.lists(st.one_of(st.integers(), st.booleans())),
    st.lists(st.one_of(st.integers(), st.floats())))
EDGE_KEYS = ['%', '%s', '%%', '{}', '%(k)s', 'é', '☃ 𝄞', 'k', 'coeff']
column_keys = st.one_of(st.text(max_size=3), st.sampled_from(EDGE_KEYS))


def same_key_dicts(children):
    """Lists of dicts sharing one key set, in one order or in per-entry
    orders: the columns the renderer takes together."""
    def entries(key_set):
        same_order = st.fixed_dictionaries({key: children for key in key_set})
        any_order = st.permutations(key_set).flatmap(
            lambda order: st.fixed_dictionaries({key: children for key in order}))
        return st.one_of(st.lists(same_order, min_size=1, max_size=4),
                         st.lists(any_order, min_size=1, max_size=4))
    return st.lists(column_keys, unique=True, max_size=3).flatmap(entries)


values = st.recursive(
    st.one_of(scalars, number_lists, st.lists(number_lists, max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(SubList),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4).map(SubDict),
        same_key_dicts(children)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(values)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}]})
@example([True, 1, 2])
@example([1, 2.5, -0.0])
@example({"x": [1.0, math.nan]})
@example({1: "one", None: [2 ** 70], 1.5: (3,), True: {"t": ()}})
@example([SubInt(3), 4])
@example({"entries": [{"k": [0, -1, 2], "coeff": [0.1, -1e-07]}]})
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])  # same key set, other order
@example([{"a": 1}, {"b": 1}])
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([{"a": 1}, {SubStr("a"): 2}])
@example([{"a": 1}, {1: 2}])
@example([{"%": 1, "%s": [2], "{}": "x", "é ☃": 1.5, "%(k)s": None},
          {"%": 3, "%s": [4], "{}": "y", "é ☃": 2.5, "%(k)s": True}])
@example([{"coeff": [0.5, 1.0]}, {"coeff": [math.nan, 1.0]}])
@example([{"k": [1, 2]}, {"k": [True, 2]}])
@example([{"k": [1, 2]}, {"k": []}])
@example([{"k": [1, 2]}, {"k": [1.5, 2.0]}])
@example([{"k": [1]}, {"k": (1,)}])
@example([{"k": [1]}, {"k": SubList([1])}])
@example([{"k": 1}, SubDict({"k": 1})])
@example([{}, {}])
@example([{"terms": [{"g": [1, 1], "h": [], "u": [[1, 1], [-2, 3]]}]},
          {"terms": [{"g": [], "h": [2], "u": [[0, 1]]}, {"g": [2], "h": [], "u": []}]}])
@example([[1, 2], [3]])
@example([[1.5], [2.0, -0.0]])
@example([[1, 2], [3.5]])
@example([[1, 2], [math.inf]])
@example([[1, 2], []])
@example([[[1]], [[2]]])
def test_dumps_is_the_stdlib_indent_2_rendering(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, [object()], {"a": 1j}, {(1, 2): 3}])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        dumps(value)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
#  The Whittaker table renderer: dumps(whittaker_to_json(table)), byte for byte
# ---------------------------------------------------------------------------

class SubComplex(complex):
    def __repr__(self):
        return "SubComplex"


EDGE_PARTS = [-0.0, 0.0, 1e-300, 1e16, -2.5]
finite_parts = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(EDGE_PARTS))
parts = st.one_of(st.floats(), st.sampled_from(EDGE_PARTS + [math.nan, math.inf, -math.inf]))
k_ints = st.one_of(st.integers(), st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                   st.sampled_from([2 ** 64, -2 ** 64 - 1]))
table_coeffs = st.one_of(
    st.builds(complex, parts, parts),
    st.builds(SubComplex, parts, parts),
    st.sampled_from([SymCoeff.symbol("g", 1) * 3 + SymCoeff.u_power(2),
                     SymCoeff.symbol("h", 2)]))


def whittaker_tables(rank):
    """Tables of one rank: finite plain complex values, or any coefficient,
    and a key that may hold a bool or have another length."""
    odd_keys = st.one_of(st.lists(st.one_of(k_ints, st.booleans()), max_size=5).map(tuple),
                         st.lists(k_ints, min_size=rank, max_size=rank).map(tuple))
    plain = st.dictionaries(st.lists(k_ints, min_size=rank, max_size=rank).map(tuple),
                            st.builds(complex, finite_parts, finite_parts), max_size=6)
    mixed = st.dictionaries(odd_keys, table_coeffs, max_size=6)
    return st.one_of(plain, mixed)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(whittaker_tables))
@example({})
@example({(): 1 + 2j})
@example({(3, -1): 0.5 - 0j, (-2, 7): -0.0 + 1e16j, (2 ** 65, 0): 1e-300 + 0j})
@example({(1, 0): complex(math.nan, 1.0), (0, 1): 1j})
@example({(1,): complex(math.inf, 0.0), (0,): complex(0.0, -math.inf)})
@example({(True, 0): 1j, (2, 0): 2j})
@example({(1, 0): SubComplex(1, 2), (0, 1): 3j})
@example({(1, 0): SymCoeff.symbol("g", 1), (0, 1): 3j})
@example({(1, 0): 1j, (0,): 2j})
def test_dumps_whittaker_is_the_reference_rendering(table):
    assert dumps_whittaker(table) == dumps(whittaker_to_json(table))


@pytest.mark.parametrize("lam, n, q", [((6, 5, 4, 2, 1, 0), 3, 7),
                                       ((8, 6, 4, 2, 0), 2, 5),
                                       ((2, 2, 2, 2, 2, 0), 1, 61)])
@pytest.mark.parametrize("family", ["gamma", "delta"])
def test_dumps_whittaker_renders_the_numeric_ladder_by_template(monkeypatch, lam, n, q, family):
    table = whittaker_table(boundary_from_lambda(lam), family, numeric_mode(n, q),
                            strategy="transfer")
    want = dumps(whittaker_to_json(table))

    def reference_route(table):
        raise AssertionError("a numeric table left the template path")

    monkeypatch.setattr("whitice.jsonio.whittaker_to_json", reference_route)
    assert dumps_whittaker(table) == want
