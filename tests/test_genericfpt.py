import random
from fractions import Fraction as Q

import pytest
from generic_oracle import generic_nu, packs

from fptlib import (
    FieldSpec,
    ValidationError,
    check_keylemma_condition,
    generic_fpt,
    generic_fpt_binary,
    min_e_two_p_pow,
    nu,
    random_form,
    sample_max_fpt,
)
from fptlib.ratbase import is_prime, trunc


class TestGenericFormula:
    def test_examples(self):
        assert generic_fpt(2, 3, 2).value == Q(1, 2)
        assert generic_fpt(2, 6, 5).value == Q(1, 3)
        assert generic_fpt(2, 5, 7).value == Q(137, 343)
        assert generic_fpt(5, 5, 3).value == 1

    def test_binary_examples(self):
        assert generic_fpt_binary(3, 5) == Q(3, 5)
        for p in (2, 3, 5, 7, 11, 13):
            assert generic_fpt_binary(4, p) == Q(1, 2)
        assert generic_fpt_binary(7, 3) == Q(23, 81)
        assert generic_fpt_binary(8, 2) == Q(1, 4)

    def test_matches_binary_specialization(self):
        # for n = 2 the place L is the smallest e with 2 p^e = 1 (mod d), and
        # the value is the truncation of 2/d there, or 2/d when there is none
        for d in range(2, 80):
            for p in range(2, 80):
                if not is_prime(p):
                    continue
                rep = generic_fpt(2, d, p)
                e = min_e_two_p_pow(d, p, target=1)
                want = Q(2, d) if e is None else trunc(Q(2, d), p, e).value
                assert (rep.value, rep.L) == (want, e), (d, p)
                assert generic_fpt_binary(d, p) == want, (d, p)

    def test_p_congruent_one_keeps_n_over_d(self):
        for n, d, p in [(2, 5, 11), (2, 7, 29), (3, 8, 17), (2, 9, 19)]:
            assert p % d == 1
            assert generic_fpt(n, d, p).value == Q(n, d)

    def test_trace_shows_failure_then_success(self):
        rep = generic_fpt(2, 5, 7)
        assert rep.L == 3
        assert [r.cond_b for r in rep.trace] == [False, False, True]
        assert all(r.cond_a for r in rep.trace)
        assert rep.trace[-1].remainder < 2

    def test_relation_to_keylemma(self):
        # whenever the formula picks place L, the inequality system holds up
        # to L-1 and breaks exactly at L
        for d in range(3, 25):
            for p in (2, 3, 5, 7, 11, 13):
                rep = generic_fpt(2, d, p)
                if rep.L is None:
                    assert check_keylemma_condition(2, d, p, 10)
                else:
                    if rep.L > 1:
                        assert check_keylemma_condition(2, d, p, rep.L - 1)
                    assert not check_keylemma_condition(2, d, p, rep.L)


class TestGenericOracle:
    """generic_fpt and the engine's nu against tests/generic_oracle.py, which
    reads nu of the generic form off a bin packing without fptlib."""

    def test_generic_fpt_is_the_packing_threshold(self):
        # nu_gen(e) = ceil(g p^e) - 1 is the numerator of the non-terminating
        # truncation of the generic threshold g at e, and the degree bound
        # holds: 5,980 cases, n = 2..6, d = n+1..30, p < 30, e <= 5, p^e <= 10^6
        cases = 0
        for p in filter(is_prime, range(2, 30)):
            e = max(t for t in range(1, 6) if p ** t <= 10 ** 6)
            for n in range(2, 7):
                for d in range(n + 1, 31):
                    g = generic_fpt(n, d, p).value
                    for t, v in enumerate(generic_nu(n, d, p, e), 1):
                        assert v == trunc(g, p, t).numer, (n, d, p, t)
                        assert v <= n * (p ** t - 1) // d, (n, d, p, t)
                        cases += 1
        assert cases == 5980
        # the bins count, not only the total size: a binary cubic over F_2
        # has f^2 = f^[2] in (x^4, y^4), three items of size 2 in two bins of 3
        assert not packs([1, 0], 2, 3, 2) and packs([1, 0], 3, 3, 2)

    def test_engine_nu_never_exceeds_the_generic_nu(self):
        # random forms, n = 2..4, over F_2 to F_9: nu(e) <= nu_gen(e), and
        # most forms attain it
        rng = random.Random(8)
        spaces = [(2, 2, 2, 5, 3), (3, 1, 2, 4, 3), (5, 1, 2, 3, 2), (7, 1, 2, 5, 2),
                  (3, 2, 2, 4, 2), (2, 3, 2, 3, 2), (2, 1, 3, 3, 3), (3, 1, 3, 4, 2),
                  (5, 1, 3, 2, 2), (2, 2, 3, 3, 2), (3, 1, 4, 2, 2), (2, 1, 4, 3, 2)]
        forms = attained = 0
        for p, k, n, d, e in spaces:
            bound = generic_nu(n, d, p, e)[-1]
            for _ in range(8):
                v = nu(random_form(FieldSpec(p, k), n, d, rng), e)
                assert v <= bound, (p, k, n, d, e, v, bound)
                forms += 1
                attained += v == bound
        assert attained >= forms * 3 // 4, (attained, forms)


class TestKeylemmaCondition:
    def test_examples(self):
        assert check_keylemma_condition(2, 5, 7, 2) is True
        assert check_keylemma_condition(2, 5, 7, 3) is False
        assert check_keylemma_condition(2, 4, 3, 5) is True

    def test_requires_d_at_least_n(self):
        with pytest.raises(ValidationError):
            check_keylemma_condition(4, 3, 5, 1)


class TestSampling:
    def test_quartics_over_f9(self):
        best, hits = sample_max_fpt(2, 4, 3, k=2, trials=150, seed=5)
        assert best == Q(1, 2)
        assert hits >= 1

    def test_cubics_over_f5(self):
        best, hits = sample_max_fpt(2, 3, 5, k=1, trials=80, seed=6)
        assert best == Q(3, 5)
        assert hits >= 1

    def test_conics_reach_one(self):
        best, hits = sample_max_fpt(2, 2, 7, k=1, trials=40, seed=7)
        assert best == 1

    def test_never_exceeds_formula(self):
        for d, p, k in [(4, 3, 2), (5, 7, 1), (6, 5, 1), (3, 2, 2)]:
            best, _ = sample_max_fpt(2, d, p, k=k, trials=120, seed=8)
            assert best is not None
            assert best <= generic_fpt_binary(d, p)

    def test_generic_value_attained_at_q_25(self):
        best, hits = sample_max_fpt(2, 5, 7, k=2, trials=150, seed=9)
        assert best == generic_fpt_binary(5, 7) == Q(137, 343)
        assert hits >= 1
