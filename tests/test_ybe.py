"""Rank-one exchange matrix, the triangle identity, and row commutation."""
from __future__ import annotations

import itertools

import pytest

from whitice.coeffs import SymbolicMode
from whitice.gauss import gauss_table
from whitice.lattice import boundary_from_lambda
from whitice.laurent import LaurentPoly
from whitice.partition import numeric_mode, partition_function
from whitice.ybe import (
    MINUS,
    MIXED_ASSIGNMENT,
    MODE,
    PLUS,
    SPINS,
    commutation_check,
    perturbed,
    rmatrix_n1,
    solve_mixed_assignment,
    ybe_check,
    ybe_sides,
)


def rounded_once(poly, q):
    """An exact polynomial of n = 1 with each coefficient at u = 1/q,
    rounded once."""
    table = gauss_table(1, q)
    return {exponents: coeff.evaluate(table) for exponents, coeff in poly.terms.items()}


def test_rmatrix_entries():
    R = rmatrix_n1()
    assert all(poly.mode is MODE for poly in R.values())
    rendered = {config: str(poly) for config, poly in R.items()}
    assert rendered == {
        (PLUS, PLUS, PLUS, PLUS): "z1 - u*z2",
        (MINUS, MINUS, MINUS, MINUS): "-u*z1 + z2",
        (PLUS, MINUS, PLUS, MINUS): "(1 - u)*z2",
        (PLUS, MINUS, MINUS, PLUS): "-z1 + z2",
        (MINUS, PLUS, PLUS, MINUS): "-u*z1 + u*z2",
        (MINUS, PLUS, MINUS, PLUS): "(1 - u)*z1",
    }


def test_triangle_identity_all_boundaries():
    ok, failures = ybe_check()
    assert ok
    assert failures == []


def test_triangle_identity_numeric():
    # the exact identity holds for every q at once: at u = 1/13 the two
    # sides of every boundary, each rounded once, are equal bit for bit
    R = rmatrix_n1()
    for spins in itertools.product(SPINS, repeat=6):
        left, right = ybe_sides(R, ("gamma", 1), ("gamma", 0), spins)
        assert rounded_once(left, 13) == rounded_once(right, 13), spins


def test_each_entry_perturbation_breaks_identity():
    R = rmatrix_n1()
    for config in R:
        bad = perturbed(R, config)
        ok, failures = ybe_check(R=bad)
        assert not ok
        assert 4 <= len(failures) <= 8


def test_zero_matrix_satisfies_identity_vacuously():
    # every term on either side carries one exchange-matrix factor, so the
    # all-zero matrix passes trivially; single-entry perturbation is the
    # meaningful negative control
    zero_R = {config: LaurentPoly.zero(2, MODE) for config in rmatrix_n1()}
    ok, failures = ybe_check(R=zero_R)
    assert ok and failures == []


def test_mixed_assignment_is_unique():
    solutions = solve_mixed_assignment()
    assert solutions == [MIXED_ASSIGNMENT]


def test_sides_balance_on_sample_boundary():
    spins = (PLUS, MINUS, PLUS, MINUS, PLUS, MINUS)
    left, right = ybe_sides(rmatrix_n1(), ("gamma", 1), ("gamma", 0), spins)
    assert left == right


def z_of(lam, family="gamma", mode=None):
    return partition_function(boundary_from_lambda(lam), family, mode or SymbolicMode(1))


def test_commutation_pin():
    ok, lhs, rhs = commutation_check(z_of((0, 0)), 1)
    assert ok
    assert str(lhs) == "-u*z1^2 + (1 + u^2)*z1*z2 - u*z2^2"
    assert lhs == rhs


def test_commutation_across_grid():
    # exact at n = 1, and so at u = 1/5 the sides rounded once are equal
    n1 = SymbolicMode(1)
    for lam in ((0, 0), (2, 0), (2, 1, 0), (3, 2, 0)):
        rank = len(lam) - 1
        for i in range(1, rank + 1):
            for family in ("gamma", "delta"):
                ok, lhs, rhs = commutation_check(z_of(lam, family, n1), i)
                assert ok and lhs == rhs
                assert rounded_once(lhs, 5) == rounded_once(rhs, 5)


def test_commutation_rejects_bad_row_index():
    with pytest.raises(ValueError):
        commutation_check(z_of((2, 0)), 0)
    with pytest.raises(ValueError):
        commutation_check(z_of((2, 0)), 2)


@pytest.mark.parametrize("mode", [SymbolicMode(2), numeric_mode(2, 5)])
def test_commutation_refuses_a_z_at_n2(mode):
    # the row-swap identity is the n = 1 case; at n = 2 the class-0 equation
    # has other factors, so a Z at n = 2 is refused rather than checked
    with pytest.raises(ValueError, match="n = 2"):
        commutation_check(z_of((2, 0), "gamma", mode), 1)


def test_commutation_refuses_a_numeric_z():
    # a check that multiplies polynomials runs in the reduced ring only
    with pytest.raises(ValueError, match="numeric"):
        commutation_check(z_of((2, 0), "gamma", numeric_mode(1, 5)), 1)
