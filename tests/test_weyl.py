"""Residue-class decomposition, functional equations, and the crossing vertex."""
from __future__ import annotations

import pytest

from whitice import weyl
from whitice.coeffs import SymbolicMode
from whitice.gauss import gauss_table
from whitice.lattice import boundary_from_lambda, row_fills
from whitice.laurent import LaurentPoly
from whitice.partition import numeric_mode, partition_function
from whitice.weyl import (
    charge_duality_check,
    clearing_factor,
    decompose,
    fe_via_rvertex_two_row,
    functional_eq_check,
    p_poly,
    q_poly,
    rvertex_allminus_weight,
    rvertex_allplus_weight,
)
from whitice.ybe import commutation_check

TOL = 1e-8
HAND_TOL = 1e-10


def test_decompose_recombine_round_trip():
    mode = SymbolicMode(2)
    z = partition_function(boundary_from_lambda((2, 1, 0)), "gamma", mode)
    for i in (1, 2):
        parts = decompose(z, i, 2)
        assert set(parts) == {0, 1}
        total = LaurentPoly.zero(z.nvars, mode)
        for part in parts.values():
            total = total + part
        assert total == z
        # classes are supported on disjoint exponent residues
        for j, part in parts.items():
            for exps in part.terms:
                assert (exps[i - 1] - exps[i]) % 2 == j


def test_decompose_rejects_bad_index():
    mode = SymbolicMode(2)
    z = partition_function(boundary_from_lambda((2, 0)), "gamma", mode)
    with pytest.raises(ValueError):
        decompose(z, 0, 2)
    with pytest.raises(ValueError):
        decompose(z, 2, 2)  # needs variables i and i+1


def test_pq_factor_pins():
    mode = SymbolicMode(2)
    assert str(p_poly(1, 2, mode, 2, 1, 0)) == "(1 - u)*z1*z2"
    assert str(q_poly(0, 2, mode, 2, 1, 0)) == "u*z1^2 - u*z2^2"
    assert str(q_poly(1, 2, mode, 2, 1, 0)) == "-g1*z1^2 + g1*z2^2"
    assert str(clearing_factor(2, mode, 2, 1, 0)) == "-u*z1^2 + z2^2"


def test_functional_equation_reduces_to_commutation_at_n1():
    mode = SymbolicMode(1)
    for lam in ((0, 0), (2, 0), (2, 1, 0)):
        rank = len(lam) - 1
        for i in range(1, rank + 1):
            ok, lhs, rhs = functional_eq_check(lam, i, 0, 1, mode)
            assert ok and lhs == rhs
            ok_c, lhs_c, rhs_c = commutation_check(lam, i, "gamma", mode)
            assert ok_c and lhs == lhs_c and rhs == rhs_c


def test_functional_equation_hand_instance():
    # cleared left side for the two-state system at n=2, q=5, i=j=1:
    #   g(1) z2^3 - g(1) z1^2 z2 / q + z1 z2^2 - z1^3 / q
    q = 5
    mode = numeric_mode(2, q)
    ok, lhs, rhs = functional_eq_check((0, 0), 1, 1, 2, mode, tol=HAND_TOL)
    assert ok
    g1 = gauss_table(2, q).g(1)
    expected = {(0, 3): g1, (2, 1): -g1 / q, (1, 2): 1.0, (3, 0): -1.0 / q}
    assert set(lhs.terms) == set(expected)
    for exps, value in expected.items():
        assert abs(lhs.terms[exps] - value) < HAND_TOL
        assert abs(rhs.terms[exps] - value) < HAND_TOL


def test_functional_equation_numeric_grid_sample():
    for n, q in ((2, 5), (3, 7)):
        mode = numeric_mode(n, q)
        for lam in ((0, 0), (2, 0), (1, 1, 0)):
            rank = len(lam) - 1
            for i in range(1, rank + 1):
                for j in range(n):
                    for family in ("gamma", "delta"):
                        ok, _, _ = functional_eq_check(lam, i, j, n, mode, family=family, tol=TOL)
                        assert ok


def test_charge_duality():
    for lam in ((2, 0), (3, 2, 0), (2, 1, 0)):
        ok, failures = charge_duality_check(boundary_from_lambda(lam))
        assert ok and failures == []


def test_charge_duality_catches_a_shifted_kernel_charge(monkeypatch):
    # negative control: a kernel that miscounts one charge by one must fail
    def shifted(top, columns, family):
        fills = row_fills(top, columns, family)
        out = {}
        for bot, (factors, zexp) in fills.items():
            if factors:
                (kind, charge), *rest = factors
                factors = ((kind, charge + 1), *rest)
            out[bot] = (factors, zexp)
        return out

    monkeypatch.setattr(weyl, "row_fills", shifted)
    ok, failures = charge_duality_check(boundary_from_lambda((3, 2, 0)))
    assert not ok
    assert any("kernel/direct count mismatch" in reason for _, _, reason in failures)


def test_crossing_vertex_weights():
    mode = SymbolicMode(3)
    # class-0 outer charge admits only class-0 inner charge
    assert str(rvertex_allplus_weight(0, 0, 3, mode)) == "z1^3 - u*z2^3"
    assert rvertex_allplus_weight(0, 1, 3, mode).is_zero()
    assert rvertex_allplus_weight(0, 2, 3, mode).is_zero()
    # matching inner charge carries the p factor, reflected inner the q factor
    assert str(rvertex_allplus_weight(1, 1, 3, mode)) == "(1 - u)*z1^2*z2"
    assert str(rvertex_allplus_weight(1, 2, 3, mode)) == "-g1*z1^3 + g1*z2^3"
    assert str(rvertex_allplus_weight(2, 2, 3, mode)) == "(1 - u)*z1*z2^2"
    assert rvertex_allplus_weight(1, 0, 3, mode).is_zero()
    # the all-minus entry vanishes unless both decorations are class 0
    assert str(rvertex_allminus_weight(3, mode)) == "-u*z1^3 + z2^3"
    assert rvertex_allminus_weight(3, mode, d_i=1).is_zero()
    assert rvertex_allminus_weight(3, mode, d_i1=2).is_zero()


def test_crossing_vertex_two_row_identity():
    mode = numeric_mode(3, 7)
    for top, bot in (((5, 3, 0), (4,)), ((6, 4, 1), (3,))):
        for j in range(3):
            ok, left, right = fe_via_rvertex_two_row(top, bot, j, 3, mode, tol=TOL)
            assert ok
    # n=1 collapse stays exact
    n1 = SymbolicMode(1)
    ok, left, right = fe_via_rvertex_two_row((3, 2, 0), (3,), 0, 1, n1)
    assert ok and left == right


def test_crossing_vertex_requires_odd_modulus():
    with pytest.raises(ValueError):
        fe_via_rvertex_two_row((3, 2, 0), (3,), 0, 2, numeric_mode(2, 5))
