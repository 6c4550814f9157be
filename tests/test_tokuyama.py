"""Independent n = 1 oracle: Tokuyama's deformation of the Weyl character formula.

At n = 1 the gamma and delta partition functions of weight lambda are

    Z(lambda) = prod_{i<j} (z_j - u*z_i) * s_lambda(z_1, .., z_{r+1}),

with s_lambda the Schur polynomial.  The right side is computed here on its
own, s_lambda by the bialternant formula over Fractions, and compared with
the exact Z at seeded distinct rational points and a random rational u.
Nothing but the returned polynomial is taken from the lattice code.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from whitice.coeffs import SymbolicMode
from whitice.lattice import boundary_from_lambda
from whitice.partition import partition_function

WEIGHTS = [(2, 0), (3, 2, 0), (4, 2, 1, 0), (3, 3, 1, 0), (5, 3, 2, 0), (3, 3, 2, 1, 0)]
POINTS_PER_WEIGHT = 3


def det(matrix) -> Fraction:
    """Leibniz determinant; the matrices here are at most 5 x 5."""
    size = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[a] > perm[b] for a in range(size) for b in range(a + 1, size))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def schur(lam, z) -> Fraction:
    """s_lambda(z) = det(z_i^(lambda_j + N - j)) / det(z_i^(N - j))."""
    size = len(z)
    alternant = [[x ** (lam[j] + size - 1 - j) for j in range(size)] for x in z]
    vandermonde = [[x ** (size - 1 - j) for j in range(size)] for x in z]
    return det(alternant) / det(vandermonde)


def tokuyama(lam, z, u) -> Fraction:
    value = schur(lam, z)
    for i, j in itertools.combinations(range(len(z)), 2):
        value *= z[j] - u * z[i]
    return value


def evaluate(poly, z, u) -> Fraction:
    """The exact n = 1 polynomial at (z, u); its coefficients lie in Q[u]."""
    total = Fraction(0)
    for exponents, coeff in poly.terms.items():
        c = Fraction(0)
        for (gpart, hpart, upow), val in coeff.terms.items():
            assert not gpart and not hpart
            c += val * u ** upow
        for x, e in zip(z, exponents):
            c *= x ** e
        total += c
    return total


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_point(rng: random.Random, size: int):
    """Distinct nonzero z_i, and u away from 0 and +-1, where the deformation
    degenerates (at u = -1 it is symmetric in the z)."""
    z: list[Fraction] = []
    while len(z) < size:
        x = random_rational(rng)
        if x and x not in z:
            z.append(x)
    u = random_rational(rng)
    while u in (0, 1, -1):
        u = random_rational(rng)
    return z, u


@pytest.mark.parametrize("lam", WEIGHTS)
@pytest.mark.parametrize("family", ["gamma", "delta"])
def test_partition_function_is_tokuyama(lam, family):
    z_poly = partition_function(boundary_from_lambda(lam), family, SymbolicMode(1),
                                strategy="transfer")
    rng = random.Random(f"{lam} {family}")
    for _ in range(POINTS_PER_WEIGHT):
        z, u = random_point(rng, len(lam))
        assert evaluate(z_poly, z, u) == tokuyama(lam, z, u)


def test_oracle_tells_the_variable_order_apart():
    # negative control: the deformation with z_i and z_j swapped is a
    # different polynomial, and the comparison sees it
    lam = (3, 2, 0)
    z_poly = partition_function(boundary_from_lambda(lam), "gamma", SymbolicMode(1))
    z, u = random_point(random.Random(7), len(lam))
    assert evaluate(z_poly, z, u) == tokuyama(lam, z, u)
    assert evaluate(z_poly, z, u) != tokuyama(lam, z[::-1], u)
