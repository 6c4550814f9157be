"""Gauss-sum tables over F_q: construction constraints and exact invariants."""
from __future__ import annotations

import dataclasses

import pytest

from whitice import gauss
from whitice.gauss import GaussTable, gauss_table, is_prime, primitive_root

TOL = 1e-12

GRID = [(1, 5), (2, 5), (3, 7), (1, 13), (2, 13), (3, 13)]


def test_primality():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_primitive_roots():
    for q in (5, 7, 13):
        r = primitive_root(q)
        powers = {pow(r, k, q) for k in range(1, q)}
        assert powers == set(range(1, q))


@pytest.mark.parametrize("n,q", GRID)
def test_invariants(n, q):
    t = gauss_table(n, q)
    assert abs(t.g(0) - (-1 / q)) < TOL
    assert abs(t.h(0) - (1 - 1 / q)) < TOL
    for b in range(1, n):
        assert t.h(b) == 0j  # a structural zero, stored exactly
        assert abs(abs(t.g(b)) ** 2 - 1 / q) < TOL
        assert abs(t.g(b) * t.g(n - b) - 1 / q) < TOL


def test_nonvanishing_character_sum_is_refused(monkeypatch):
    # 4 generates only the squares mod 5, so the character sums go wrong
    monkeypatch.setattr(gauss, "primitive_root", lambda q: 4)
    with pytest.raises(RuntimeError):
        gauss_table(2, 5)


def test_a_table_off_the_gauss_relations_is_refused():
    # numeric verdicts come from the reduced ring, which takes h(a) = 0 and
    # g(a) * g(n - a) = 1/q as given; a table that breaks either is refused,
    # also when it is built by dataclasses.replace
    t = gauss_table(3, 7)
    with pytest.raises(ValueError, match=r"g\(1\) \* g\(2\)"):
        dataclasses.replace(t, gvals=(t.gvals[0], t.gvals[1] * 1.5, t.gvals[2]))
    with pytest.raises(ValueError, match=r"h\(2\)"):
        dataclasses.replace(t, hvals=(t.hvals[0], 0j, 1e-17 + 0j))
    with pytest.raises(ValueError, match=r"1/7"):
        GaussTable(3, 7, t.root, (t.gvals[0], t.gvals[2], t.gvals[1] * 1j), t.hvals)
    assert dataclasses.replace(t) == t


@pytest.mark.parametrize("n,q", GRID)
def test_index_wraps_mod_n(n, q):
    t = gauss_table(n, q)
    for b in range(2 * n):
        assert t.g(b) == t.g(b % n)
        assert t.h(b) == t.h(b % n)


def test_divisibility_constraint_enforced():
    # tables exist only when 2n divides q-1
    with pytest.raises(ValueError):
        gauss_table(2, 7)
    with pytest.raises(ValueError):
        gauss_table(3, 5)
    with pytest.raises(ValueError):
        gauss_table(1, 4)  # not prime


def test_table_is_frozen():
    t = gauss_table(1, 5)
    assert isinstance(t, GaussTable)
    with pytest.raises(Exception):
        t.q = 7  # type: ignore[misc]


def test_known_value_n1():
    # n=1: g(b)=g(0)=-1/q for every class, h(0)=1-1/q
    t = gauss_table(1, 7)
    assert abs(t.g(3) - (-1 / 7)) < TOL
    assert abs(t.h(5) - (6 / 7)) < TOL
