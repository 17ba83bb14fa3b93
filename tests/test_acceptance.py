"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its runtime.  Every assertion is exact; the stated time
limits are asserted as hard bounds.

Criterion 6a is expected to fail and is marked strict-xfail: it asserts the
value 2/9 for x(x^6+x^3y^3+y^6) over F_3, but that polynomial factors as
x*(x+2y)^6 in characteristic 3 (binomials C(6,k) 2^k vanish mod 3 except
k = 0, 3, 6), so it is not reduced and its true threshold is 1/6.  The value
2/9 itself is genuinely attained in that stratum, e.g. by
x^7 + x^4 y^3 + x^3 y^4 + x^2 y^5 + x y^6 + 2 y^7.
"""

import random
import time
from fractions import Fraction as Q
from math import comb

import pytest

from fptlib import (
    FieldSpec,
    GFElem,
    HomForm,
    candidates,
    census,
    digits,
    fpt_binary_exact,
    fpt_bounds,
    in_frobenius_power,
    is_squarefree_binary,
    lower_bound_reduced,
    lucas_binom,
    nu,
    parse_form,
    pow_mod_frobenius,
    sharp_witness,
    substitute_linear,
    trinomial_witness_search,
    trunc,
)
from fptlib.forms import _form_pow

from test_forms import naive_residue, random_sparse, _random_invertible


def _report(num: str, desc: str, t0: float, limit: float) -> None:
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {num}: PASS ({dt:.2f}s) - {desc}")
    assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.2f}s)"


def test_criterion_1_exact_diagonal_quintic():
    t0 = time.monotonic()
    res = fpt_binary_exact(parse_form("x^5+y^5", FieldSpec(7)))
    assert res.is_exact and res.value == Q(19, 49)
    _report("1", "fpt(x^5+y^5) over F_7 = 19/49 exactly", t0, 1.0)


def _table_generic(d: int, p: int) -> Q:
    """Independent oracle: the congruence-class formulas for the maximal
    threshold of reduced binary forms, degree by degree."""
    if d == 3:
        return Q(2 * p - 1, 3 * p) if p % 3 == 2 else Q(2, 3)
    if d == 4:
        return Q(1, 2)
    if d == 5:
        r = p % 5
        if r == 0 or r == 1 or r == 4:
            return Q(2, 5)
        if r == 2:
            return Q(2 * p**3 - 1, 5 * p**3)
        return Q(2 * p - 1, 5 * p)
    if d == 6:
        return Q(1, 3)
    if d == 7:
        r = p % 7
        if r in (0, 1, 6):
            return Q(2, 7)
        if r in (2, 5):
            return Q(2 * p**2 - 1, 7 * p**2)
        if r == 3:
            return Q(2 * p**4 - 1, 7 * p**4)
        return Q(2 * p - 1, 7 * p)
    if d == 8:
        return Q(1, 4)
    raise AssertionError(d)


def test_criterion_2_generic_formula_table():
    from fptlib import generic_fpt_binary

    t0 = time.monotonic()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for d in range(3, 9):
        for p in primes:
            assert generic_fpt_binary(d, p) == _table_generic(d, p), (d, p)
    assert generic_fpt_binary(7, 3) == Q(23, 81)
    assert generic_fpt_binary(5, 7) == Q(137, 343)
    assert generic_fpt_binary(8, 2) == Q(1, 4)
    _report("2", "generic values match the degree 3..8 tables for p <= 31", t0, 1.0)


def test_criterion_3_census_quartics():
    t0 = time.monotonic()
    for p, k in [(2, 1), (2, 2)]:
        rep = census(4, p, k, reduced_only=True)
        assert rep.reduced_values() == {Q(1, 2)}, (p, k)
    for p in (3, 5):
        rep = census(4, p, 1)
        want = {Q(1, 2), Q(p - 1, 2 * p)}
        got = rep.reduced_values()
        if got != want:
            # the truncation witness may need the quadratic extension
            rep2 = census(4, p, 2, reduced_only=True, budget=500_000)
            got |= rep2.reduced_values()
        assert got == want, p
    _report("3", "quartic strata over F_2, F_4, F_3, F_5 as classified", t0, 120.0)


def test_criterion_4_census_quintics_over_f7():
    t0 = time.monotonic()
    rep = census(5, 7, 1, e_cap=2)
    assert rep.reduced_values() == {Q(19, 49), Q(137, 343)}
    assert rep.records[Q(1, 5)].count_nonreduced >= 1
    assert rep.records[Q(1, 5)].witness_text == "x^5"
    power = fpt_binary_exact(parse_form("(x^5+y^5)^2", FieldSpec(7)))
    assert power.is_exact and power.value == Q(19, 98)
    assert power.method == "power-rule"
    _report("4", "quintic census over F_7 = {19/49, 137/343}; monomial and "
                 "perfect-power paths exact", t0, 600.0)


def test_criterion_5_prime_power_degrees():
    t0 = time.monotonic()
    rep = census(9, 3, 1, reduced_only=True)
    assert rep.reduced_values() == {Q(2, 9)}
    rep = census(6, 3, 1, reduced_only=True)
    assert rep.reduced_values() == {Q(1, 3)}
    _report("5", "census d=9 and d=6 over F_3: every reduced form at 2/d", t0, 300.0)


@pytest.mark.xfail(
    strict=True,
    reason="x^6+x^3*y^3+y^6 = (x+2y)^6 over F_3, so x*(x^6+x^3*y^3+y^6) is "
           "x*(linear)^6: not reduced, true threshold 1/6, never 2/9",
)
def test_criterion_6a_stated_septic_witness():
    t0 = time.monotonic()
    res = fpt_binary_exact(parse_form("x*(x^6+x^3*y^3+y^6)", FieldSpec(3)))
    holds = res.is_exact and res.value == Q(2, 9)
    if not holds:
        print(f"ACCEPTANCE 6a: FAIL (expected) - stated witness computes to "
              f"{res.describe()}, not 2/9")
    assert holds


def test_criterion_6b_witness_constructions():
    t0 = time.monotonic()
    # the 2/9 stratum for septics over F_3 is nonempty; a census witness
    # replaces the degenerate trinomial one
    f = parse_form("x^7+x^4*y^3+x^3*y^4+x^2*y^5+x*y^6+2*y^7", FieldSpec(3))
    assert is_squarefree_binary(f)
    res = fpt_binary_exact(f)
    assert res.is_exact and res.value == Q(2, 9)
    # sextic witness search over F_5 at the first truncation
    w = trinomial_witness_search(5, 6, Q(1, 5), (0, 0, 3), k_max=2)
    assert w is not None
    assert w.field.q in (5, 25)
    assert is_squarefree_binary(w.form)
    res = fpt_binary_exact(w.form)
    assert res.is_exact and res.value == Q(1, 5)
    _report("6b", "witness constructions for the 2/9 (d=7, F_3) and "
                  "1/5 (d=6, F_5) strata", t0, 60.0)


def test_criterion_7_non_sufficiency():
    t0 = time.monotonic()
    rep = candidates(19, 11)
    entry = next(e for e in rep.entries if e.L == 2)
    assert entry.cond_I and entry.cond_II and entry.cond_III
    assert entry.bms_excluded and not entry.admissible
    assert entry.value == Q(12, 121)
    assert Q(12, 121) not in rep.admissible_values()
    _report("7", "d=19, p=11: L=2 passes (I)(II)(III) yet is excluded", t0, 1.0)


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(80)

    # truncation identities on 10^4 random (lam, p, e)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(10_000):
        p = rng.choice(primes)
        b = rng.randrange(1, 500)
        lam = Q(rng.randrange(1, b + 1), b)
        e = rng.randrange(1, 12)
        tv = trunc(lam, p, e)
        assert 0 < lam - tv.value <= Q(1, p ** e)          # strictly below, close
        nxt = trunc(lam, p, e + 1)
        dig = digits(lam, p, e + 1)
        assert nxt.value >= tv.value                        # non-decreasing
        assert nxt.numer == p * tv.numer + dig[e]           # digit recursion
        assert 0 <= dig[e] <= p - 1
        j = rng.randrange(1, e + 1)
        assert tv.numer // p ** (e - j) == trunc(lam, p, j).numer

    # nu bracketing on 10^3 random binary forms, depths up to 3
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        K = FieldSpec(p)
        f = random_sparse(K, 2, rng.randrange(2, 6), rng)
        vs = [nu(f, e) for e in (1, 2, 3)]
        for e in (0, 1):
            assert p * vs[e] <= vs[e + 1] <= p * vs[e] + p - 1

    # scalar and coordinate invariance of exact values on 10^3 forms
    done = 0
    while done < 1000:
        p = rng.choice([2, 3, 5, 7])
        K = FieldSpec(p)
        f = random_sparse(K, 2, rng.randrange(2, 7), rng)
        if not is_squarefree_binary(f):
            continue
        res = fpt_binary_exact(f, e_cap=2)
        if not res.is_exact:
            continue
        done += 1
        c = GFElem(K, rng.randrange(1, K.q))
        assert fpt_binary_exact(f.scale(c), e_cap=2).value == res.value
        T = _random_invertible(K, 2, rng)
        assert fpt_binary_exact(substitute_linear(f, T), e_cap=2).value == res.value

    # power rule on 200 squarefree forms
    done = 0
    while done < 200:
        p = rng.choice([3, 5, 7])
        K = FieldSpec(p)
        f = random_sparse(K, 2, rng.randrange(2, 5), rng)
        if not is_squarefree_binary(f):
            continue
        base = fpt_binary_exact(f, e_cap=2)
        if not base.is_exact:
            continue
        done += 1
        r = rng.choice([2, 3])
        assert fpt_binary_exact(_form_pow(f, r), e_cap=2).value == base.value / r

    # field-extension invariance on 200 forms
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        K1, K2 = FieldSpec(p), FieldSpec(p, 2)
        f = random_sparse(K1, 2, rng.randrange(2, 6), rng)
        res1 = fpt_binary_exact(f, e_cap=2)
        if not res1.is_exact:
            continue
        done += 1
        lifted = HomForm(K2, 2, f.d, f.terms)
        res2 = fpt_binary_exact(lifted, e_cap=2)
        assert res2.is_exact and res2.value == res1.value

    # residue engine vs naive expansion across d <= 6, N <= 30, e <= 2
    for d in range(1, 7):
        for e in (1, 2):
            for _ in range(5):
                p = rng.choice([2, 3, 5, 7])
                K = FieldSpec(p, rng.choice([1, 1, 2]))
                n = rng.choice([2, 3])
                N = rng.randrange(0, 31)
                f = random_sparse(K, n, d, rng)
                want = naive_residue(f, N, e)
                assert pow_mod_frobenius(f, N, e) == want
                if n == 2:
                    assert in_frobenius_power(f, N, e) == (not want)

    # digit-product binomials against big-integer binomials, all m <= 300
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(0, 301):
            for k in range(0, m + 1):
                assert lucas_binom(m, k, p) == comb(m, k) % p

    _report("8", "property suites (truncations, bracketing, invariance, "
                 "power rule, extensions, residue oracle, binomials)", t0, 300.0)


def test_criterion_9_lower_bound_sharpness():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        for e in (1, 2):
            B = p ** e
            for d in range(B + 1, 2 * B + 1):
                f = sharp_witness(d, p, e)
                # reduced and inside the e-th Frobenius power: the threshold
                # is sandwiched between the reduced lower bound and 1/p^e
                assert is_squarefree_binary(f)
                assert in_frobenius_power(f, 1, e)
                assert lower_bound_reduced(d, p) == Q(1, B)
                # nu = 0 at depth e pins the threshold into (0, 1/p^e], and
                # the reduced lower bound meets that endpoint: exactly 1/p^e
                assert nu(f, e) == 0
                assert fpt_bounds(f, e) == (Q(0), Q(1, B))
    _report("9", "reduced witnesses with threshold exactly 1/p^e for "
                 "p^e+1 <= d <= 2p^e, p in {2,3,5}, e in {1,2}", t0, 300.0)
