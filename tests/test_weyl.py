"""Residue-class decomposition, functional equations, and the crossing vertex."""
from __future__ import annotations

import itertools
import time
from random import Random

import pytest

from whitice import weyl
from whitice.coeffs import SymbolicMode
from whitice.gauss import gauss_table
from whitice.lattice import (FAMILIES, PLUS, boundary_from_lambda, direct_fill,
                             enumerate_states, fill_row, row_fills, row_vertices)
from whitice.laurent import LaurentPoly
from whitice.partition import numeric_mode, partition_function
from whitice.transfer import random_two_row_boundary, slab_partition
from whitice.weyl import (
    charge_duality_check,
    clearing_factor,
    decompose,
    functional_eq_check,
    p_poly,
    q_poly,
    rvertex_allminus_weight,
    rvertex_allplus_weight,
)
from whitice.ybe import commutation_check

HAND_TOL = 1e-10


def test_decompose_recombine_round_trip():
    mode = SymbolicMode(2)
    z = partition_function(boundary_from_lambda((2, 1, 0)), "gamma", mode)
    for i in (1, 2):
        parts = decompose(z, i)
        assert set(parts) == {0, 1}
        total = LaurentPoly.zero(z.nvars, mode)
        for part in parts.values():
            total = total + part
        assert total == z
        # classes are supported on disjoint exponent residues
        for j, part in parts.items():
            for exps in part.terms:
                assert (exps[i - 1] - exps[i]) % 2 == j


def test_swap_vars_exchanges_exactly_two_exponents():
    # the variable exchange of the functional equations: an involution that
    # moves no other exponent and no coefficient
    mode = SymbolicMode(2)
    poly = LaurentPoly(3, mode, {(1, 2, 3): mode.g(1), (0, 0, 4): mode.one,
                                 (2, 5, 0): mode.u})
    swapped = poly.swap_vars(0, 2)
    assert swapped.terms == {(3, 2, 1): mode.g(1), (4, 0, 0): mode.one,
                             (0, 5, 2): mode.u}
    assert poly.swap_vars(1, 2).terms == {(1, 3, 2): mode.g(1), (0, 4, 0): mode.one,
                                          (2, 0, 5): mode.u}
    assert swapped.swap_vars(0, 2) == poly and swapped.swap_vars(2, 0) == poly
    for i in range(3):
        assert poly.swap_vars(i, i) == poly


def test_decompose_rejects_bad_index():
    mode = SymbolicMode(2)
    z = partition_function(boundary_from_lambda((2, 0)), "gamma", mode)
    with pytest.raises(ValueError):
        decompose(z, 0)
    with pytest.raises(ValueError):
        decompose(z, 2)  # needs variables i and i+1


def test_pq_factor_pins():
    mode = SymbolicMode(2)
    assert str(p_poly(1, mode, 2, 1, 0)) == "(1 - u)*z1*z2"
    assert str(p_poly(0, mode, 2, 1, 0)) == "(1 - u)*z1^2"
    assert str(q_poly(0, mode, 2, 1, 0)) == "u*z1^2 - u*z2^2"
    assert str(q_poly(1, mode, 2, 1, 0)) == "-g1*z1^2 + g1*z2^2"
    assert str(clearing_factor(mode, 2, 1, 0)) == "-u*z1^2 + z2^2"


def z_of(lam, mode, family="gamma"):
    return partition_function(boundary_from_lambda(lam), family, mode)


def test_functional_equation_reduces_to_commutation_at_n1():
    mode = SymbolicMode(1)
    for lam in ((0, 0), (2, 0), (2, 1, 0)):
        rank = len(lam) - 1
        z = z_of(lam, mode)
        for i in range(1, rank + 1):
            ok, lhs, rhs = functional_eq_check(z, i, 0)
            assert ok and lhs == rhs
            ok_c, lhs_c, rhs_c = commutation_check(z, i)
            assert ok_c and lhs == lhs_c and rhs == rhs_c


def test_functional_equation_is_linear_in_n():
    # each check reads classes j and n - j alone, so every class of a large
    # modulus is checked in one pass per class, not n
    n = 3200
    z = z_of((2, 0), SymbolicMode(n))
    start = time.perf_counter()
    assert all(functional_eq_check(z, 1, j)[0] for j in range(n))
    assert time.perf_counter() - start < 1.0


def test_functional_equation_hand_instance():
    # cleared left side for the two-state system at n=2, q=5, i=j=1:
    #   g(1) z2^3 - g(1) z1^2 z2 / q + z1 z2^2 - z1^3 / q
    # checked exactly at n = 2, then both sides rounded once at q = 5
    q = 5
    table = gauss_table(2, q)
    ok, lhs, rhs = functional_eq_check(z_of((0, 0), SymbolicMode(2)), 1, 1)
    assert ok and lhs == rhs
    g1 = table.g(1)
    expected = {(0, 3): g1, (2, 1): -g1 / q, (1, 2): 1.0, (3, 0): -1.0 / q}
    assert set(lhs.terms) == set(expected)
    for exps, value in expected.items():
        assert abs(lhs.terms[exps].evaluate(table) - value) < HAND_TOL
        assert abs(rhs.terms[exps].evaluate(table) - value) < HAND_TOL


def test_functional_equation_numeric_grid_sample():
    # the numeric grid's identities, checked exactly at the same n
    for n in (2, 3):
        mode = SymbolicMode(n)
        for lam in ((0, 0), (2, 0), (1, 1, 0)):
            rank = len(lam) - 1
            for family in ("gamma", "delta"):
                z = z_of(lam, mode, family)
                for i in range(1, rank + 1):
                    for j in range(n):
                        ok, lhs, rhs = functional_eq_check(z, i, j)
                        assert ok and lhs == rhs


@pytest.mark.parametrize("nq", [(1, 5), (2, 5), (3, 7)])
def test_functional_equation_refuses_a_numeric_z(nq):
    # products of rounded values differ in the last bits, so the check
    # that multiplies polynomials runs in the reduced ring only
    with pytest.raises(ValueError, match="numeric"):
        functional_eq_check(z_of((2, 0), numeric_mode(*nq)), 1, 0)


def test_charge_duality():
    for lam in ((2, 0), (3, 2, 0), (2, 1, 0)):
        ok, failures = charge_duality_check(boundary_from_lambda(lam))
        assert ok and failures == []


def charge_weights():
    """Every dominant weight of rank <= 3 with parts <= 4."""
    for rank in range(4):
        for parts in itertools.combinations_with_replacement(range(4, -1, -1), rank):
            yield parts + (0,)


def test_charge_duality_checks_each_distinct_row_once(monkeypatch):
    # the rows checked are the distinct (layers[k], layers[k + 1]) pairs of
    # the states, each counted directly once per family
    counted = []

    def recording(top, bot, columns, family):
        counted.append((top, bot, family))
        return row_vertices(top, bot, columns, family)

    monkeypatch.setattr(weyl, "row_vertices", recording)
    for lam in charge_weights():
        boundary = boundary_from_lambda(lam)
        counted.clear()
        assert charge_duality_check(boundary) == (True, [])
        rows = {(top, bot) for state in enumerate_states(boundary)
                for top, bot in zip(state.layers, state.layers[1:])}
        assert sorted(counted) == sorted((top, bot, family) for top, bot in rows
                                         for family in FAMILIES), lam
    counted.clear()
    charge_duality_check(boundary_from_lambda((6, 4, 2, 0)))
    assert len(set(counted)) == len(counted) == 2 * 1106


def shifted(top, family):
    """The row kernel with the first factor's charge of every fill one too
    high: a negative control."""
    out = {}
    for bot, (factors, zexp) in row_fills(top, family).items():
        if factors:
            (kind, charge), *rest = factors
            factors = ((kind, charge + 1), *rest)
        out[bot] = (factors, zexp)
    return out


def raised(top, family):
    """The row kernel with every z-exponent one too high: a negative control
    that breaks the duality as well."""
    return {bot: (factors, zexp + 1)
            for bot, (factors, zexp) in row_fills(top, family).items()}


def failing_rows_by_state(boundary, kernel):
    """Reference for :func:`charge_duality_check`'s failures: every row of
    every state, its verdict taken afresh from `kernel`, listed once."""
    columns = boundary.columns
    failures = set()
    for state in enumerate_states(boundary):
        for k, (top, bot) in enumerate(zip(state.layers, state.layers[1:])):
            for family in FAMILIES:
                fill = kernel(top, family).get(bot)
                if fill != direct_fill(row_vertices(top, bot, columns, family)):
                    failures.add(((top, bot), k, f"{family} kernel/direct count mismatch"))
                if family == "gamma" and (
                        fill is None
                        or fill[1] + fill_row(top, bot, columns).count(PLUS) != columns):
                    failures.add(((top, bot), k, "gamma exponent/label duality"))
    return failures


def check_fails_as_reference(monkeypatch, kernel, reason):
    """Under `kernel`, the check fails on exactly the rows the per-state
    reference names, each listed once, and some failure reads `reason`."""
    monkeypatch.setattr(weyl, "row_fills", kernel)
    for lam in ((3, 2, 0), (2, 1, 0), (3, 1, 1, 0)):
        boundary = boundary_from_lambda(lam)
        ok, failures = charge_duality_check(boundary)
        assert not ok
        assert len(set(failures)) == len(failures)
        assert set(failures) == failing_rows_by_state(boundary, kernel)
        assert reason in {reason for _, _, reason in failures}


def test_charge_duality_catches_a_shifted_kernel_charge(monkeypatch):
    # negative control: a kernel that miscounts one charge by one must fail
    check_fails_as_reference(monkeypatch, shifted, "gamma kernel/direct count mismatch")


def test_charge_duality_catches_a_raised_exponent(monkeypatch):
    check_fails_as_reference(monkeypatch, raised, "gamma exponent/label duality")


def test_crossing_vertex_weights():
    mode = SymbolicMode(3)
    # class-0 outer charge admits only class-0 inner charge
    assert str(rvertex_allplus_weight(0, 0, mode)) == "z1^3 - u*z2^3"
    assert rvertex_allplus_weight(0, 1, mode).is_zero()
    assert rvertex_allplus_weight(0, 2, mode).is_zero()
    # matching inner charge carries the p factor, reflected inner the q factor
    assert str(rvertex_allplus_weight(1, 1, mode)) == "(1 - u)*z1^2*z2"
    assert str(rvertex_allplus_weight(1, 2, mode)) == "-g1*z1^3 + g1*z2^3"
    assert str(rvertex_allplus_weight(2, 2, mode)) == "(1 - u)*z1*z2^2"
    assert rvertex_allplus_weight(1, 0, mode).is_zero()
    # the all-minus entry vanishes unless both decorations are class 0
    assert str(rvertex_allminus_weight(mode)) == "-u*z1^3 + z2^3"
    assert rvertex_allminus_weight(mode, d_i=1).is_zero()
    assert rvertex_allminus_weight(mode, d_i1=2).is_zero()
    assert rvertex_allminus_weight(mode, d_i=3, d_i1=6) == rvertex_allminus_weight(mode)


def two_gamma_slab(top, bot, mode):
    """Z of the two-gamma slab, top row carrying z2 and bottom row z1."""
    return slab_partition(top, bot, (("gamma", 1), ("gamma", 0)), mode)


def crossing_vertex_sides(z, j):
    """The partial crossing vertex attached to a two-gamma slab's Z.  Left:
    each class c of Z (by the charge duality, the states' label difference
    c_top - c_bot) weighted by the all-+ entry of outer class j and inner
    class c.  Right: the all-- entry times the class-j part with z1, z2
    exchanged."""
    mode = z.mode
    parts = decompose(z, 1)
    left = LaurentPoly.zero(2, mode)
    for c, part in parts.items():
        left = left + rvertex_allplus_weight(j, c, mode) * part
    right = rvertex_allminus_weight(mode) * parts[j % mode.n].swap_vars(0, 1)
    return left, right


def test_crossing_vertex_two_row_identity():
    # the exchange identity on two slab Zs at n = 3, exact, and the
    # crossing vertex's sides
    mode = SymbolicMode(3)
    for top, bot in (((5, 3, 0), (4,)), ((6, 4, 1), (3,))):
        z = two_gamma_slab(top, bot, mode)
        for j in range(3):
            ok, lhs, rhs = functional_eq_check(z, 1, j)
            assert ok and lhs == rhs
            left, right = crossing_vertex_sides(z, j)
            assert left == rhs and right == lhs
    # n=1 collapse stays exact
    z = two_gamma_slab((3, 2, 0), (3,), SymbolicMode(1))
    ok, lhs, rhs = functional_eq_check(z, 1, 0)
    assert ok and lhs == rhs and crossing_vertex_sides(z, 0) == (rhs, lhs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_crossing_vertex_is_the_functional_equation_on_its_slab(n):
    # the exchange identity holds exactly on two-gamma slab Zs; for odd n
    # the vertex's left attachment is the equation's right side and its
    # right attachment the left side, at i = 1
    mode = SymbolicMode(n)
    rng = Random(n)
    checks = 0
    for _ in range(30):
        top, bot = random_two_row_boundary(rng, 7)
        z = two_gamma_slab(top, bot, mode)
        for j in range(n):
            ok, lhs, rhs = functional_eq_check(z, 1, j)
            assert ok and lhs == rhs, (top, bot, j)
            if n % 2:
                assert crossing_vertex_sides(z, j) == (rhs, lhs), (top, bot, j)
            checks += 1
    assert checks == 30 * n
