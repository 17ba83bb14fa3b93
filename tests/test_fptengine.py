import random
from fractions import Fraction as Q

import pytest

from fptlib import (
    FieldSpec,
    GFElem,
    HomForm,
    ValidationError,
    fpt_binary_exact,
    fpt_bounds,
    fpt_general,
    fpt_monomial,
    in_frobenius_power,
    nu,
    parse_form,
    substitute_linear,
)

from test_forms import random_sparse, _random_invertible


class TestNu:
    def test_diagonal_quintic(self):
        K = FieldSpec(7)
        f = parse_form("x^5+y^5", K)
        assert nu(f, 1) == 2
        assert nu(f, 2) == 18

    def test_corner_monomial(self):
        for p, e in [(2, 4), (3, 3), (5, 2)]:
            f = parse_form("x*y", FieldSpec(p))
            assert nu(f, e) == p ** e - 1

    def test_bracketing_under_depth_increase(self):
        rng = random.Random(20)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            K = FieldSpec(p)
            f = random_sparse(K, 2, rng.randrange(2, 6), rng)
            v1 = nu(f, 1)
            v2 = nu(f, 2)
            v3 = nu(f, 3)
            assert p * v1 <= v2 <= p * v1 + p - 1
            assert p * v2 <= v3 <= p * v2 + p - 1


class TestBounds:
    def test_examples(self):
        K = FieldSpec(7)
        assert fpt_bounds(parse_form("x^5+y^5", K), 1) == (Q(2, 7), Q(3, 7))
        assert fpt_bounds(parse_form("x*y", FieldSpec(2)), 3) == (Q(7, 8), Q(1))
        for p, d in [(7, 3), (5, 4), (3, 2)]:
            f = HomForm.monomial(FieldSpec(p), (d, 0))
            hi = -(-p // d)
            assert fpt_bounds(f, 1) == (Q(hi - 1, p), Q(hi, p))

    def test_width(self):
        rng = random.Random(21)
        for _ in range(20):
            K = FieldSpec(rng.choice([2, 3, 5]))
            f = random_sparse(K, 2, rng.randrange(2, 5), rng)
            e = rng.randrange(1, 4)
            lo, hi = fpt_bounds(f, e)
            assert hi - lo == Q(1, K.p ** e)


class TestMonomialRule:
    def test_examples(self):
        assert fpt_monomial((2, 3)) == Q(1, 3)
        assert fpt_monomial((1, 1)) == 1
        assert fpt_monomial((7,)) == Q(1, 7)
        assert fpt_monomial((0, 4, 0)) == Q(1, 4)
        with pytest.raises(ValidationError):
            fpt_monomial((0, 0))


class TestBinaryExact:
    def test_headline_values(self):
        assert fpt_binary_exact(parse_form("x^5+y^5", FieldSpec(7))).value == Q(19, 49)
        assert fpt_binary_exact(parse_form("x*y*(x+y)", FieldSpec(5))).value == Q(3, 5)
        assert fpt_binary_exact(parse_form("x*y*(x^2+y^2)", FieldSpec(3))).value == Q(1, 3)

    def test_degenerate_trinomial_septic_is_exact(self):
        # x(x^6+x^3y^3+y^6) = x(x+2y)^6 over F_3: neither squarefree nor a
        # perfect power, but (x+2y)^6 is a dominant factor, so the threshold
        # is 1/6, as for x y^6, and the depth-6 interval contains it
        f = parse_form("x*(x^6+x^3*y^3+y^6)", FieldSpec(3))
        res = fpt_binary_exact(f, e_cap=6)
        assert res.is_exact and res.value == Q(1, 6) and res.method == "dominant-factor"
        assert [(c.N, c.e, c.member) for c in res.certificates] == [(1, 2, False), (2, 2, True)]
        lo, hi = fpt_bounds(f, 6)
        assert lo < Q(1, 6) <= hi

    def test_methods_and_certificates(self):
        res = fpt_binary_exact(parse_form("x^5+y^5", FieldSpec(7)))
        assert res.method == "truncation-candidate" and res.L == 2
        assert [(c.N, c.e, c.member) for c in res.certificates] == \
            [(2, 1, False), (19, 2, True)]
        res = fpt_binary_exact(parse_form("x^2*y^3", FieldSpec(3)))
        assert res.method == "monomial" and res.value == Q(1, 3)
        res = fpt_binary_exact(parse_form("x^9+x*y^8", FieldSpec(3)))
        assert res.method == "prime-power-degree" and res.value == Q(2, 9)

    def test_power_rule(self):
        K = FieldSpec(7)
        res = fpt_binary_exact(parse_form("(x^5+y^5)^2", K))
        assert res.is_exact and res.value == Q(19, 98)
        assert res.method == "power-rule"

    def test_generic_two_over_d(self):
        # over F_7, d = 3 = p-power-free, 2p^e = 1 mod 3 has no solution and
        # no truncation passes: reduced cubics carry 2/3
        res = fpt_binary_exact(parse_form("x*y*(x+y)", FieldSpec(7)))
        assert res.value == Q(2, 3) and res.method == "generic-two-over-d"

    def test_degree_one_and_two(self):
        K = FieldSpec(5)
        assert fpt_binary_exact(parse_form("x+y", K)).value == 1
        assert fpt_binary_exact(parse_form("x^2+x*y+y^2", K)).value == 1

    def test_exact_consistent_with_bounds(self):
        rng = random.Random(22)
        checked = 0
        while checked < 40:
            p = rng.choice([2, 3, 5, 7])
            K = FieldSpec(p)
            f = random_sparse(K, 2, rng.randrange(2, 7), rng)
            res = fpt_binary_exact(f, e_cap=2)
            if not res.is_exact:
                continue
            checked += 1
            # global range: 1/d <= fpt <= min(1, n/d)
            assert Q(1, f.d) <= res.value <= min(Q(1), Q(2, f.d))
            for e in (1, 2):
                lo, hi = fpt_bounds(f, e)
                assert lo < res.value <= hi

    def test_scalar_and_coordinate_invariance(self):
        # the threshold itself is invariant; compatible() also accepts an
        # exact value inside an interval, which binary answers no longer
        # give (test_strata checks status, value and bounds for equality)
        def compatible(r1, r2):
            if r1.is_exact and r2.is_exact:
                return r1.value == r2.value
            if r1.is_exact:
                return r2.low < r1.value <= r2.high
            if r2.is_exact:
                return r1.low < r2.value <= r1.high
            return (r1.low, r1.high) == (r2.low, r2.high)

        rng = random.Random(23)
        done = 0
        while done < 40:
            p = rng.choice([3, 5, 7])
            K = FieldSpec(p)
            f = random_sparse(K, 2, rng.randrange(2, 6), rng)
            res = fpt_binary_exact(f, e_cap=2)
            if not res.is_exact:
                continue
            done += 1
            c = GFElem(K, rng.randrange(1, K.q))
            assert fpt_binary_exact(f.scale(c), e_cap=2).value == res.value
            T = _random_invertible(K, 2, rng)
            assert compatible(res, fpt_binary_exact(substitute_linear(f, T), e_cap=2))
        # on squarefree forms the classification is complete on both sides,
        # so coordinate changes must reproduce the exact value
        from fptlib import is_squarefree_binary

        done = 0
        while done < 40:
            p = rng.choice([3, 5, 7])
            K = FieldSpec(p)
            f = random_sparse(K, 2, rng.randrange(2, 6), rng)
            if not is_squarefree_binary(f):
                continue
            res = fpt_binary_exact(f, e_cap=2)
            if not res.is_exact:
                continue
            done += 1
            T = _random_invertible(K, 2, rng)
            assert fpt_binary_exact(substitute_linear(f, T), e_cap=2).value == res.value

    def test_power_rule_random(self):
        from fptlib.forms import _form_pow

        rng = random.Random(24)
        done = 0
        while done < 30:
            p = rng.choice([3, 5, 7])
            K = FieldSpec(p)
            f = random_sparse(K, 2, rng.randrange(2, 5), rng)
            from fptlib import is_squarefree_binary

            if not is_squarefree_binary(f):
                continue
            r = rng.choice([2, 3])
            base = fpt_binary_exact(f, e_cap=2)
            if not base.is_exact:
                continue
            done += 1
            assert fpt_binary_exact(_form_pow(f, r), e_cap=2).value == base.value / r

    def test_field_extension_invariance(self):
        rng = random.Random(25)
        done = 0
        while done < 25:
            p = rng.choice([2, 3, 5])
            K1, K2 = FieldSpec(p), FieldSpec(p, 2)
            f = random_sparse(K1, 2, rng.randrange(2, 6), rng)
            res1 = fpt_binary_exact(f, e_cap=2)
            if not res1.is_exact:
                continue
            done += 1
            lifted = HomForm(K2, 2, f.d, {e: GFElem(K2, c.enc) for e, c in f.terms.items()})
            res2 = fpt_binary_exact(lifted, e_cap=2)
            assert res2.is_exact and res2.value == res1.value

    def test_anomaly_not_triggered_on_sound_inputs(self):
        # a generic-two-over-d trail holds only the failed truncation tests:
        # f^(N+1) after the last truncation N/p^L lies inside depth L by
        # degree alone, since d(N + 1) > 2p^L
        res = fpt_binary_exact(parse_form("x*y*(x+y)", FieldSpec(7)))
        assert [(c.N, c.e, c.member) for c in res.certificates] == [(4, 1, False)]
        for p in (5, 7, 11, 13):
            for text in ("x*y*(x+y)", "x^3+x*y^2+y^3"):
                f = parse_form(text, FieldSpec(p))
                res = fpt_binary_exact(f)
                assert res.is_exact
                if res.method == "generic-two-over-d":
                    assert not any(c.member for c in res.certificates)
                    last = res.certificates[-1]
                    assert in_frobenius_power(f, last.N + 1, last.e)

    def test_rejects_bad_inputs(self):
        K = FieldSpec(5)
        with pytest.raises(ValidationError):
            fpt_binary_exact(parse_form("x1*x2*x3", K))

    def test_exact_values_certified_by_naive_memberships(self):
        # independent cross-check: for an exact value a/p^m, the naive
        # expansion must confirm f^a inside depth m and f^(a-1) outside
        from test_forms import naive_residue

        rng = random.Random(27)
        done = 0
        while done < 25:
            p = rng.choice([2, 3, 5])
            K = FieldSpec(p)
            f = random_sparse(K, 2, rng.randrange(2, 6), rng)
            res = fpt_binary_exact(f, e_cap=2)
            if not res.is_exact:
                continue
            den = res.value.denominator
            m = 0
            while den % p == 0:
                den //= p
                m += 1
            if den != 1 or m == 0 or m > 2:
                continue
            done += 1
            a = res.value.numerator  # the value in lowest terms is a/p^m
            assert not naive_residue(f, a, m), (f.as_text(), res.value)
            assert naive_residue(f, a - 1, m), (f.as_text(), res.value)


class TestDominantFactor:
    def test_coordinates_do_not_matter(self):
        # x^3*y and x^3*y+x^4 = x^3*(x+y) are one form in two coordinates
        K = FieldSpec(5)
        assert fpt_general(parse_form("x^3*y", K)).value == Q(1, 3)
        res = fpt_general(parse_form("x^3*y+x^4", K))
        assert res.is_exact and res.value == Q(1, 3) and res.method == "dominant-factor"
        assert [(c.N, c.e, c.member) for c in res.certificates] == [(1, 1, False), (2, 1, True)]

    def test_root_off_the_coordinates(self):
        # (x+2y)^3 (x^2+y^2) = (x+2y)^4 (x+3y) over F_5
        res = fpt_general(parse_form("(x+2*y)^3*(x^2+y^2)", FieldSpec(5)))
        assert res.value == Q(1, 4) and res.method == "dominant-factor"
        # over F_256 the root t comes from the gcd with u^q - u, not a scan
        res = fpt_general(parse_form("(x+t*y)^5*(x^2+x*y+t*y^2)", FieldSpec(2, 8)))
        assert res.value == Q(1, 5) and res.method == "dominant-factor"
        assert [(c.N, c.e, c.member) for c in res.certificates] == [(1, 3, False), (2, 3, True)]

    def test_half_the_degree_needs_a_rational_factor(self):
        # x^2+y^2 splits over F_5 but not over F_3
        res = fpt_general(parse_form("(x^2+y^2)^2", FieldSpec(5)))
        assert res.value == Q(1, 2) and res.method == "dominant-factor"
        res = fpt_general(parse_form("(x^2+y^2)^2", FieldSpec(3)))
        assert res.value == Q(1, 2) and res.method == "power-rule"
        # a double factor of a quintic is not dominant
        res = fpt_general(parse_form("x^2*y^2*(x+y)", FieldSpec(7)), e_cap=2)
        assert not res.is_exact

    def test_ternary_forms(self):
        K = FieldSpec(5)
        res = fpt_general(parse_form("x1^3*(x2^2+x1*x3)", K, n=3))
        assert res.is_exact and res.value == Q(1, 3) and res.method == "dominant-factor"
        res = fpt_general(parse_form("x1^2*(x2^3+x3^3)", K, n=3), e_cap=2)
        assert res.method == "bounded-fallback"

    def test_value_inside_every_bracket(self):
        # l^a g with 2a >= d in random coordinates: the value is checked
        # against the definition, and matches the coordinate form x^a g
        rng = random.Random(27)
        for _ in range(30):
            K = FieldSpec(rng.choice([2, 3, 5, 7]))
            a = rng.randrange(2, 5)
            g = random_sparse(K, 2, rng.randrange(1, a + 1), rng)
            f = HomForm(K, 2, a + g.d, {(i + a, j): c for (i, j), c in g.terms.items()})
            h = substitute_linear(f, _random_invertible(K, 2, rng))
            res = fpt_general(h, e_cap=2)
            assert res.is_exact and res.value == fpt_general(f, e_cap=2).value
            for e in (1, 2, 3):
                lo, hi = fpt_bounds(h, e)
                assert lo < res.value <= hi, (h, res.describe())


class TestGeneral:
    def test_monomial_any_arity(self):
        K = FieldSpec(5)
        assert fpt_general(parse_form("x1*x2*x3", K)).value == 1
        assert fpt_general(parse_form("x1^2*x2^3*x3", K)).value == Q(1, 3)

    def test_perfect_power_scaling(self):
        K = FieldSpec(5)
        res = fpt_general(parse_form("(x1^2+x2*x3)^2", K), e_cap=2)
        assert not res.is_exact
        assert res.method == "power-rule"
        assert res.high - res.low == Q(1, 2 * 5 ** 2)

    def test_interval_width_contract(self):
        rng = random.Random(26)
        K = FieldSpec(5)
        f = random_sparse(K, 3, 3, rng, max_terms=6)
        res = fpt_general(f, e_cap=3)
        if not res.is_exact:
            assert res.high - res.low == Q(1, 5 ** 3)

    def test_power_of_linear_form_is_exact(self):
        res = fpt_general(parse_form("(x1+x2+x3)^3", FieldSpec(2), n=3), e_cap=3)
        assert res.is_exact and res.value == Q(1, 3) and res.method == "power-rule"
        res = fpt_general(parse_form("x1+x2", FieldSpec(5), n=3))
        assert res.is_exact and res.value == 1

    def test_binary_delegation(self):
        res = fpt_general(parse_form("x^5+y^5", FieldSpec(7)))
        assert res.is_exact and res.value == Q(19, 49)

    def test_default_depths(self):
        # without e_cap, both entry points use depth 8 for binary forms and 4
        # otherwise; x^2*y+x^3 = x^2*(x+y) is exact by its dominant factor
        f = parse_form("x^2*y+x^3", FieldSpec(7))
        res = fpt_general(f)
        assert res.is_exact and res.value == Q(1, 2)
        assert fpt_binary_exact(f) == res
        f = parse_form("x^2*y^2*(x+y)", FieldSpec(7))
        res = fpt_general(f)
        assert (res.low, res.high) == (Q(2294155, 7 ** 8), Q(2294156, 7 ** 8))
        assert fpt_binary_exact(f) == res
        g = parse_form("x1^2*x2+x3^3", FieldSpec(5))
        res = fpt_general(g)
        assert res == fpt_general(g, e_cap=4) and res.high - res.low == Q(1, 5 ** 4)

    def test_single_variable_forms(self):
        K = FieldSpec(5)
        res = fpt_general(parse_form("x^3", K))
        assert res.is_exact and res.value == Q(1, 3)
        res = fpt_general(parse_form("2*x", K))
        assert res.is_exact and res.value == 1
