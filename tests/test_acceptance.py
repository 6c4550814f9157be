"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check decides by equality, and every criterion asserts its runtime
budget; tolerances remain only where a value is held to a hand expansion
or a Gauss-sum invariant.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the summary lines.
"""
from __future__ import annotations

import itertools
import random
import time

from free_ring import RAW
from whitice.coeffs import SymCoeff, SymbolicMode
from whitice.gauss import gauss_table
from whitice.lattice import (boundary_from_lambda, count_states, enumerate_states, fill_weight,
                             row_vertices)
from whitice.patterns import GTPattern, pattern_exponents, pattern_from_state, row_statistic, state_from_pattern
from whitice.partition import (
    boundary_profiles,
    matching_check,
    numeric_mode,
    partition_function,
    spin_vector_of_exponents,
    statement_a_check,
    whittaker_table,
)
from whitice.transfer import contract_partition, random_two_row_boundary, two_row_check
from whitice.weyl import functional_eq_check
from whitice.ybe import perturbed, rmatrix_n1, ybe_check

HAND_TOL = 1e-10
GAUSS_TOL = 1e-12

# every (n, q) with q in {5, 7, 13} prime and 2n | q - 1
NQ_GRID = [(1, 5), (1, 7), (1, 13), (2, 5), (2, 13), (3, 7), (3, 13)]


def lambda_grid(max_rank: int, max_part: int):
    yield (0,)
    for rank in range(1, max_rank + 1):
        for parts in itertools.combinations_with_replacement(
                range(max_part, -1, -1), rank):
            yield tuple(parts) + (0,)


class Budget:
    def __init__(self, number: int, label: str, seconds: float, informational: bool = False):
        self.number = number
        self.label = label
        self.seconds = seconds
        self.informational = informational

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "FAIL" if exc_type else "PASS"
        limit = f"{elapsed:.2f}s / {self.seconds:.0f}s budget"
        print(f"criterion {self.number} ({self.label}): {status} [{limit}]")
        if exc_type is None and not self.informational:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s")
        return False


def test_criterion_1_worked_example():
    with Budget(1, "worked example regression", 1.0):
        pattern = GTPattern(((5, 3, 0), (3, 1), (3,)))
        state = state_from_pattern(pattern)
        boundary = state.boundary
        assert pattern_from_state(state) == pattern
        assert [charge for up, row in zip(pattern.rows, pattern.rows[1:])
                for _case, charge in row_statistic(up, row, "gamma")] == [1, 1, 2]
        # the state's entry of the profiles, which follow enumeration order
        index = enumerate_states(boundary).index(state)
        factors, exps = boundary_profiles(boundary, "gamma")[index]
        assert fill_weight(factors, RAW) == SymCoeff.symbol("g", 2) * SymCoeff.symbol("h", 1)
        assert exps == (3, 1, 4)
        assert spin_vector_of_exponents(pattern_exponents(pattern, "gamma"),
                                        boundary, "gamma") == (1, 3)
        # (kind, z-exponent, raw charge) of each vertex, counted directly:
        # weight 1, z3, z3, z3, h1*z3, 1 / 1, 1, g2, 1, 1, z2 / 1, 1, 1, z1, z1, z1
        grid = [row_vertices(top, bot, boundary.columns, "gamma")
                for top, bot in zip(state.layers, state.layers[1:])]
        assert grid == [
            [("1", 0, 1), ("1", 1, 1), ("1", 1, 1), ("1", 1, 1), ("h", 1, 1), ("1", 0, 0)],
            [("1", 0, 4), ("1", 0, 3), ("g", 0, 2), ("1", 0, 1), ("1", 0, 0), ("1", 1, 0)],
            [("1", 0, 2), ("1", 0, 1), ("1", 0, 0), ("1", 1, 0), ("1", 1, 0), ("1", 1, 0)],
        ]


def test_criterion_2_bijection_and_matching():
    with Budget(2, "bijection + weight matching", 60.0):
        total_states = 0
        for lam in lambda_grid(3, 4):
            boundary = boundary_from_lambda(lam)
            states = enumerate_states(boundary)
            total_states += len(states)
            seen = set()
            for state in states:
                pattern = pattern_from_state(state)
                assert state_from_pattern(pattern) == state
                seen.add(pattern)
            assert len(seen) == len(states)
            for family in ("gamma", "delta"):
                assert matching_check(boundary, family) == []
        assert total_states > 500


def test_criterion_3_table_agreement():
    with Budget(3, "gamma/delta table agreement", 120.0):
        sym1 = SymbolicMode(1)
        modes = [numeric_mode(n, q) for n, q in NQ_GRID]
        for lam in lambda_grid(3, 4):
            boundary = boundary_from_lambda(lam)
            assert statement_a_check(lam, sym1)
            assert (whittaker_table(boundary, "gamma", sym1)
                    == whittaker_table(boundary, "delta", sym1))
            for mode in modes:
                assert statement_a_check(lam, mode)


def test_criterion_4_two_row_exchange():
    with Budget(4, "two-row exchange identity", 60.0):
        modes = [SymbolicMode(1), numeric_mode(2, 5), numeric_mode(3, 7)]
        for mode in modes:
            assert two_row_check((6, 4, 1, 0), (4, 3), mode) is True
        rng = random.Random(0)
        for _ in range(50):
            top, bottom = random_two_row_boundary(rng, max_width=8)
            for mode in modes:
                assert two_row_check(top, bottom, mode) is True


def test_criterion_5_triangle_identity():
    with Budget(5, "triangle identity, all boundaries", 5.0):
        ok, failures = ybe_check()
        assert ok and failures == []
        R = rmatrix_n1()
        for config in R:
            ok, failures = ybe_check(R=perturbed(R, config))
            assert not ok and failures


def test_criterion_6_functional_equations():
    with Budget(6, "exchange functional equations", 60.0):
        grid = [lam for lam in lambda_grid(2, 3) if len(lam) >= 2]
        sym1 = SymbolicMode(1)
        for lam in grid:
            rank = len(lam) - 1
            z = partition_function(boundary_from_lambda(lam), "gamma", sym1)
            for i in range(1, rank + 1):
                ok, lhs, rhs = functional_eq_check(z, i, 0)
                assert ok and lhs == rhs
        # the numeric (n, q) = (2, 5), (3, 7) identities, exact at that n
        for n in (2, 3):
            mode = SymbolicMode(n)
            for lam in grid:
                rank = len(lam) - 1
                z = partition_function(boundary_from_lambda(lam), "gamma", mode)
                for i in range(1, rank + 1):
                    for j in range(n):
                        ok, lhs, rhs = functional_eq_check(z, i, j)
                        assert ok and lhs == rhs
        # hand-expanded instance at r=1, n=2, q=5, i=j=1: the exact sides
        # rounded once
        table = gauss_table(2, 5)
        z = partition_function(boundary_from_lambda((0, 0)), "gamma", SymbolicMode(2))
        ok, lhs, rhs = functional_eq_check(z, 1, 1)
        assert ok and lhs == rhs
        g1 = table.g(1)
        expected = {(0, 3): g1, (2, 1): -g1 / 5, (1, 2): 1.0, (3, 0): -1.0 / 5}
        assert set(lhs.terms) == set(expected)
        for exps, value in expected.items():
            assert abs(lhs.terms[exps].evaluate(table) - value) < HAND_TOL


def test_criterion_7_gauss_invariants():
    with Budget(7, "Gauss-sum invariants", 1.0):
        for n, q in ((1, 5), (2, 5), (3, 7), (1, 13), (2, 13), (3, 13)):
            t = gauss_table(n, q)
            assert abs(t.g(0) + 1 / q) < GAUSS_TOL
            assert abs(t.h(0) - (1 - 1 / q)) < GAUSS_TOL
            for b in range(1, n):
                assert abs(t.h(b)) < GAUSS_TOL
                assert abs(abs(t.g(b)) ** 2 - 1 / q) < GAUSS_TOL
                assert abs(t.g(b) * t.g(n - b) - 1 / q) < GAUSS_TOL


def test_criterion_8_strategy_equivalence_and_benchmark():
    with Budget(8, "contraction = enumeration + benchmark", 10.0, informational=True):
        num = numeric_mode(2, 5)
        for lam in lambda_grid(3, 4):
            boundary = boundary_from_lambda(lam)
            for family in ("gamma", "delta"):
                a = contract_partition(boundary, family, num)
                b = partition_function(boundary, family, num, strategy="enumerate")
                assert a == b
        big = boundary_from_lambda((6, 4, 2, 0))
        mode = numeric_mode(3, 7)
        start = time.perf_counter()
        z_fast = contract_partition(big, "gamma", mode)
        contraction_seconds = time.perf_counter() - start
        z_slow = partition_function(big, "gamma", mode, strategy="enumerate")
        assert z_fast == z_slow
        assert count_states(big) == 3892
        print(f"    benchmark: {count_states(big)} states, "
              f"contraction {contraction_seconds:.3f}s (informational budget 10s)")
        assert contraction_seconds < 10.0
