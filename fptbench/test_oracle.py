"""Tests of the benchmark's oracle on cases that can be checked by hand.

Quick by design: the repository's test command collects this file too.
"""

from fractions import Fraction as Q
from itertools import product

import pytest

import oracle
from oracle import (Field, audit_interval, audit_value, binary_terms, is_depth_interval,
                    is_member)


def test_field_arithmetic_f4():
    F = Field(2, (1, 1, 1))              # t^2 + t + 1; t encodes as 2
    assert F.mul(2, 2) == 3              # t * t = t + 1
    assert F.add(2, 3) == 1
    assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, 4))


@pytest.mark.parametrize("p, modulus", [(3, (1, 0, 1)), (2, (1, 1, 0, 1)),
                                        (2, (1, 1, 0, 1, 1, 0, 0, 0, 1))])
def test_field_inverses_and_frobenius(p, modulus):
    F = Field(p, modulus)
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1
        x = a
        for _ in range(F.k):             # a^(p^k) = a
            x = F.frob(x)
        assert x == a


@pytest.mark.parametrize("p, modulus", [(2, (1, 0, 1)),       # t^2 + 1 = (t + 1)^2
                                        (3, (2, 0, 1)),       # t^2 - 1
                                        (2, (1, 0, 0, 0, 0, 0, 0, 0, 1)),
                                        (4, (0, 1))])         # 4 is not prime
def test_field_rejects_reducible_modulus_or_composite_p(p, modulus):
    with pytest.raises(ValueError):
        Field(p, modulus)


def test_diagonal_quintic_over_f7_by_hand():
    # f^2 = x^10 + 2 x^5 y^5 + y^10 keeps x^5 y^5 outside (x^7, y^7);
    # every monomial of f^3 = sum x^(15-5j) y^(5j) has an exponent >= 7
    F, f = Field(7), {(5, 0): 1, (0, 5): 1}
    assert not is_member(F, f, 2, 1) and is_member(F, f, 3, 1)
    assert not is_member(F, f, 18, 2) and is_member(F, f, 19, 2)
    for e in (1, 2, 3):
        assert audit_value(F, f, Q(19, 49), e)


def test_perturbed_values_are_rejected():
    F, f = Field(7), {(5, 0): 1, (0, 5): 1}
    # one truncation step away from 19/49 at depth 2, either way
    assert not audit_value(F, f, Q(20, 49), 2)
    assert not audit_value(F, f, Q(18, 49), 2)
    # the base-7 truncations of 2/5 one place too deep or too shallow
    assert not audit_value(F, f, Q(137, 343), 3)
    assert not audit_value(F, f, Q(2, 7), 1)


def test_monomial_and_quadric_thresholds():
    F5 = Field(5)
    xy3 = {(2, 3): 4}                    # fpt(x^2 y^3) = 1/3
    assert all(audit_value(F5, xy3, Q(1, 3), e) for e in (1, 2))
    assert not audit_value(F5, xy3, Q(1, 2), 1)
    F3 = Field(3)
    assert audit_value(F3, {(2, 0): 1, (0, 2): 1}, Q(1), 1)          # x^2 + y^2
    quadric = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}             # x^2+y^2+z^2
    assert not is_member(F3, quadric, 2, 1) and is_member(F3, quadric, 3, 1)


def test_interval_audit():
    F, f = Field(5), binary_terms([1, 0, 2, 1])      # x^3 + 2 x y^2 + y^3
    for e in (1, 2):
        nu = max(N for N in range(5 ** e) if not is_member(F, f, N, e))
        low, high = Q(nu, 5 ** e), Q(nu + 1, 5 ** e)
        assert is_depth_interval(5, low, high, e)
        assert audit_interval(F, f, low, high, e)
        assert audit_interval(F, f, low, high, 1)
        assert not audit_interval(F, f, low + Q(1, 5 ** e), high + Q(1, 5 ** e), e)
        assert not is_depth_interval(5, low, high + Q(1, 5 ** e), e)


def test_power_rule_interval_audit():
    # (x + y + z)^3 over F_2: a linear form has threshold 1, so the cube has
    # 1/3, and its depth-3 interval (7/8, 1] divided by 3 is (7/24, 1/3]
    F = Field(2)
    cube = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (2, 1, 0): 1, (2, 0, 1): 1,
            (1, 2, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1}
    low, high = Q(7, 24), Q(1, 3)
    assert is_depth_interval(2, low, high, 3, r=3)
    assert not is_depth_interval(2, low, high, 3)
    assert all(audit_interval(F, cube, low, high, e) for e in (1, 2, 3))
    # one step up, (1/3, 3/8], meets every (nu/q, (nu+1)/q] since 1/3 is no
    # p-adic fraction; two steps up is rejected at once
    assert not audit_interval(F, cube, low + Q(2, 24), high + Q(2, 24), 3)
    # one step down still meets (2/8, 3/8] at depth 3; depth 4 tells
    assert audit_interval(F, cube, low - Q(1, 24), high - Q(1, 24), 3)
    assert not audit_interval(F, cube, low - Q(1, 24), high - Q(1, 24), 4)


def test_squarefree_by_hand():
    F2, F3 = Field(2), Field(3)
    assert oracle.is_squarefree_binary(F2, [0, 1, 1])        # x y + y^2 = y (x + y)
    assert oracle.is_squarefree_binary(F2, [1, 1, 1])        # irreducible over F_2
    assert not oracle.is_squarefree_binary(F2, [1, 0, 1])    # (x + y)^2
    assert not oracle.is_squarefree_binary(F3, [1, 0, 0, 1])  # x^3 + y^3 = (x + y)^3
    assert not oracle.is_squarefree_binary(F3, [1, 0, 0])    # x^2


@pytest.mark.parametrize("p, modulus", [(2, (0, 1)), (3, (0, 1)), (2, (1, 1, 1))])
def test_squarefree_count_matches_enumeration(p, modulus):
    F = Field(p, modulus)
    for d in (2, 3, 4):
        forms = [[0] * t + [1] + list(rest)
                 for t in range(d + 1) for rest in product(range(F.q), repeat=d - t)]
        assert len(forms) == oracle.projective_count(F.q, d)
        count = sum(oracle.is_squarefree_binary(F, cs) for cs in forms)
        assert count == oracle.squarefree_count(F.q, d)
