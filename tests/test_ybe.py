"""Rank-one exchange matrix, the triangle identity, and row commutation."""
from __future__ import annotations

import pytest

from whitice.coeffs import SymbolicMode
from whitice.laurent import LaurentPoly
from whitice.partition import numeric_mode
from whitice.ybe import (
    MINUS,
    MIXED_ASSIGNMENT,
    PLUS,
    commutation_check,
    perturbed,
    rmatrix_n1,
    solve_mixed_assignment,
    ybe_check,
    ybe_sides,
)

TOL = 1e-9


def test_rmatrix_entries():
    mode = SymbolicMode(1)
    R = rmatrix_n1(mode)
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
    mode = numeric_mode(1, 13)
    ok, failures = ybe_check(mode=mode)
    assert ok and failures == []


def test_each_entry_perturbation_breaks_identity():
    mode = SymbolicMode(1)
    R = rmatrix_n1(mode)
    for config in R:
        bad = perturbed(R, config, mode)
        ok, failures = ybe_check(R=bad, mode=mode)
        assert not ok
        assert 4 <= len(failures) <= 8


def test_zero_matrix_satisfies_identity_vacuously():
    # every term on either side carries one exchange-matrix factor, so the
    # all-zero matrix passes trivially; single-entry perturbation is the
    # meaningful negative control
    mode = SymbolicMode(1)
    zero_R = {config: LaurentPoly.zero(2, mode) for config in rmatrix_n1(mode)}
    ok, failures = ybe_check(R=zero_R, mode=mode)
    assert ok and failures == []


def test_mixed_assignment_is_unique():
    solutions = solve_mixed_assignment()
    assert solutions == [MIXED_ASSIGNMENT]


def test_sides_balance_on_sample_boundary():
    mode = SymbolicMode(1)
    R = rmatrix_n1(mode)
    spins = (PLUS, MINUS, PLUS, MINUS, PLUS, MINUS)
    left, right = ybe_sides(R, ("gamma", 1), ("gamma", 0), spins, mode)
    assert left == right


def test_commutation_pin():
    ok, lhs, rhs = commutation_check((0, 0), 1, "gamma", SymbolicMode(1))
    assert ok
    assert str(lhs) == "-u*z1^2 + (1 + u^2)*z1*z2 - u*z2^2"
    assert lhs == rhs


def test_commutation_across_grid():
    n1 = SymbolicMode(1)
    num = numeric_mode(1, 5)
    for lam in ((0, 0), (2, 0), (2, 1, 0), (3, 2, 0)):
        rank = len(lam) - 1
        for i in range(1, rank + 1):
            for family in ("gamma", "delta"):
                ok, lhs, rhs = commutation_check(lam, i, family, n1)
                assert ok and lhs == rhs
                ok, lhs, rhs = commutation_check(lam, i, family, num)
                assert ok and lhs.equal(rhs, TOL)


def test_commutation_rejects_bad_row_index():
    with pytest.raises(ValueError):
        commutation_check((2, 0), 0)
    with pytest.raises(ValueError):
        commutation_check((2, 0), 2)
