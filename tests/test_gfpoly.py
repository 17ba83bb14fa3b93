import random

import pytest

from fptlib import FieldSpec, GFElem, UPoly, ValidationError
from fptlib.gfpoly import _TABLE_MAX_Q


class TestFieldConstruction:
    def test_deterministic_moduli(self):
        assert FieldSpec(3, 2).modulus == (1, 0, 1)      # t^2 + 1
        assert FieldSpec(2, 2).modulus == (1, 1, 1)      # t^2 + t + 1
        assert FieldSpec(2, 3).modulus == (1, 1, 0, 1)   # t^3 + t + 1
        assert FieldSpec(5, 1).modulus == (0, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            FieldSpec(6)
        with pytest.raises(ValidationError):
            FieldSpec(3, 0)
        with pytest.raises(ValidationError):
            FieldSpec(2, 2, modulus=(1, 0, 1))  # t^2+1 = (t+1)^2 over F_2

    def test_same_spec_compares_equal(self):
        assert FieldSpec(3, 2) == FieldSpec(3, 2)
        assert FieldSpec(3, 2) != FieldSpec(3, 1)


class TestFieldArithmetic:
    def test_f9_generator(self):
        K = FieldSpec(3, 2)
        t = K.gen()
        assert t * t == K.elem(2)          # t^2 = -1
        assert t.frobenius() == 2 * t      # t^3 = -t
        assert str(2 * t + 1) == "2*t+1"

    def test_inverse_in_f7(self):
        K = FieldSpec(7)
        assert K.elem(2).inverse() == K.elem(4)
        with pytest.raises(ValidationError):
            K.zero().inverse()

    @pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                     (5, 2), (97, 2)])
    def test_axioms_randomized(self, p, k):
        # q up to 9409 exercises both the table and the on-the-fly path
        K = FieldSpec(p, k)
        if 1 < k and K.q <= _TABLE_MAX_Q:
            # the log/antilog table agrees with reduction; over F_9 the
            # generator t is not primitive modulo x^2+1
            K.muli(1, 1)
            assert K._mul_table == [[K._mul_raw(a, b) for b in range(K.q)] for a in range(K.q)]
        rng = random.Random(p * 100 + k)
        for _ in range(120):
            a, b, c = (K.random_elem(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if a:
                assert a * a.inverse() == K.one()
            assert a + (-a) == K.zero()

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (7, 2)])
    def test_frobenius_iterates_to_identity(self, p, k):
        K = FieldSpec(p, k)
        for a in K.elements():
            b = a
            for _ in range(k):
                b = b.frobenius()
            assert b == a

    def test_equal_fields_share_one_table(self):
        A, B = FieldSpec(3, 2), FieldSpec(3, 2)
        assert A.muli(4, 5) == B.muli(4, 5)
        assert A._mul_table is not None and A._mul_table is B._mul_table

    def test_ints_past_the_prime_field_refused_at_the_edge(self):
        # over F_9 an int in [0, 3) is the same element read mod p or as an
        # encoding; any other int would be read two ways (5 mod 3 = 2, but
        # encoding 5 is t+2), so elem, GFElem arithmetic and UPoly.__call__
        # refuse it and == is False
        from fptlib import HomForm

        K = FieldSpec(3, 2)
        assert HomForm.monomial(K, (1,), 5).coeff((1,)) == K.gen() + 2
        for bad in (5, 3, 9, -1):
            with pytest.raises(ValidationError, match="ambiguous"):
                K.elem(bad)
            for op in (lambda a: a + bad, lambda a: bad + a, lambda a: a - bad,
                       lambda a: bad - a, lambda a: a * bad, lambda a: bad * a,
                       lambda a: a / bad):
                with pytest.raises(ValidationError, match="ambiguous"):
                    op(K.one())
            with pytest.raises(ValidationError, match="ambiguous"):
                UPoly(K, (0, 1))(bad)
            assert K.one() * 2 != bad and K.gen() + 2 != bad
        assert K.elem(2) == 2 and K.one() * 2 == K.elem(2) and K.gen() + 1 != 1
        assert UPoly(K, (0, 1))(2) == K.elem(2)
        assert UPoly(K, (1, 1))(K.gen()) == K.gen() + 1

    def test_ints_read_mod_p_over_prime_fields(self):
        K = FieldSpec(5)
        assert K.elem(12) == K.elem(2)
        assert K.elem(2) == 12 and K.elem(2) == -3
        assert K.one() * 7 == 2 and 7 - K.one() == K.elem(1)
        assert UPoly(K, (0, 1))(8) == K.elem(3)

    def test_embedding_prime_subfield(self):
        K3, K9 = FieldSpec(3), FieldSpec(3, 2)
        emb = K9.embedding_from(K3)
        for x in range(3):
            for y in range(3):
                assert emb((x + y) % 3) == K9.addi(emb(x), emb(y))
                assert emb(x * y % 3) == K9.muli(emb(x), emb(y))

    def test_embedding_proper_tower(self):
        K4, K16 = FieldSpec(2, 2), FieldSpec(2, 4)
        emb = K16.embedding_from(K4)
        for a in range(4):
            for b in range(4):
                assert emb(K4.muli(a, b)) == K16.muli(emb(a), emb(b))
                assert emb(K4.addi(a, b)) == K16.addi(emb(a), emb(b))

    @pytest.mark.parametrize("sub,top,table", [((2, 2), (2, 4), [0, 1, 6, 7]),
                                               ((3, 2), (3, 4), [0, 1, 2, 42, 43, 44, 75, 76, 77])])
    def test_embedding_takes_smallest_root(self, sub, top, table):
        # map_to and roots_in(target) print through these tables
        S, T = FieldSpec(*sub), FieldSpec(*top)
        roots = [e for e in range(T.q)
                 if sum(c * GFElem(T, e) ** i for i, c in enumerate(S.modulus)) == 0]
        emb = T.embedding_from(S)
        assert emb(S.gen().enc) == min(roots)
        assert [emb(a) for a in range(S.q)] == table


def _random_upoly(K, rng, deg):
    return UPoly(K, [rng.randrange(K.q) for _ in range(deg)] + [rng.randrange(1, K.q)])


class TestUPoly:
    # F_7, F_8, F_9, and F_{3^7} above the table cutoff
    ARITH_FIELDS = [(7, 1), (2, 3), (3, 2), (3, 7)]

    def test_coefficients_read_by_encode(self):
        # over F_9 an int is an encoding, so 14 is refused; over F_3 it is 14 mod 3
        K9 = FieldSpec(3, 2)
        for bad in (14, 9, -1):
            with pytest.raises(ValidationError, match="outside"):
                UPoly(K9, (bad, 1))
        assert UPoly(K9, (8, K9.gen(), 1)).coeffs == (8, 3, 1)
        assert UPoly(FieldSpec(3), (14, 1)).coeffs == (2, 1)
        assert UPoly(K9, (5,)) == UPoly(K9, (K9.gen() + 2,))

    @pytest.mark.parametrize("p,k", ARITH_FIELDS)
    def test_divmod_identity(self, p, k):
        K, rng = FieldSpec(p, k), random.Random(p * 10 + k)
        for _ in range(30):
            a, b = _random_upoly(K, rng, rng.randrange(9)), _random_upoly(K, rng, rng.randrange(6))
            q, r = a.divmod(b)
            assert a == q * b + r and r.degree < b.degree
        with pytest.raises(ValidationError):
            a.divmod(UPoly.zero(K))

    @pytest.mark.parametrize("p,k", ARITH_FIELDS)
    def test_pow_is_repeated_product(self, p, k):
        K, rng = FieldSpec(p, k), random.Random(p * 10 + k + 1)
        for _ in range(6):
            a, m = _random_upoly(K, rng, rng.randrange(4)), _random_upoly(K, rng, rng.randrange(1, 5))
            prod = UPoly.one(K)
            for n in range(8):
                assert a.pow(n) == prod
                assert a.pow(n, mod=m) == prod % m
                prod = prod * a

    @pytest.mark.parametrize("p,k", ARITH_FIELDS)
    def test_gcd_keeps_common_factor(self, p, k):
        K, rng = FieldSpec(p, k), random.Random(p * 10 + k + 2)
        for _ in range(20):
            f, g, h = (_random_upoly(K, rng, rng.randrange(4)) for _ in range(3))
            d = (f * g).gcd(f * h)
            assert d.leading() == 1 and (d % f).is_zero()

    def test_gcd_examples(self):
        K7 = FieldSpec(7)
        assert UPoly(K7, (6, 0, 1)).gcd(UPoly(K7, (6, 1))) == UPoly(K7, (6, 1))
        K3 = FieldSpec(3)
        assert UPoly(K3, (0, 1, 0, 1)).gcd(UPoly(K3, (1, 0, 1))) == UPoly(K3, (1, 0, 1))
        f = UPoly(K7, (2, 4))
        assert f.gcd(UPoly.zero(K7)) == f.monic()

    def test_squarefree_examples(self):
        assert UPoly(FieldSpec(5), (0, 1, 1)).is_squarefree()            # u^2+u
        assert not UPoly(FieldSpec(3), (1, 0, 0, 1)).is_squarefree()     # (u+1)^3
        assert UPoly(FieldSpec(3), (1, 0, 1)).is_squarefree()            # irreducible
        with pytest.raises(ValidationError):
            UPoly.zero(FieldSpec(3)).is_squarefree()

    def test_square_never_squarefree(self):
        rng = random.Random(9)
        for _ in range(100):
            K = FieldSpec(rng.choice([2, 3, 5]), rng.choice([1, 2]))
            f = UPoly(K, [rng.randrange(K.q) for _ in range(rng.randrange(2, 5))] + [1])
            assert not (f * f).is_squarefree()

    def test_roots_examples(self):
        K3, K9 = FieldSpec(3), FieldSpec(3, 2)
        assert UPoly(K3, (2, 0, 1)).roots_in() == [1, 2]                  # a^2+2
        assert UPoly(K3, (1, 0, 1)).roots_in() == []
        assert len(UPoly(K3, (1, 0, 1)).roots_in(K9)) == 2
        K7 = FieldSpec(7)
        assert UPoly(K7, (4, 1)).roots_in() == [3]                         # u + 4

    def test_roots_evaluate_to_zero(self):
        rng = random.Random(10)
        for _ in range(60):
            K = FieldSpec(rng.choice([3, 5, 7]), rng.choice([1, 2]))
            f = UPoly(K, [rng.randrange(K.q) for _ in range(4)] + [1])
            roots = f.roots_in()
            assert len(roots) <= f.degree
            for r in roots:
                assert f.eval_enc(r) == 0

    def test_scan_and_gcd_paths_agree(self, monkeypatch):
        # over F_{3^7} both the exhaustive scan and the gcd with u^q - u are
        # affordable; roots of multiplicity 3, which divide the derivative
        # as often as f, included
        from fptlib import gfpoly

        K, F3 = FieldSpec(3, 7), FieldSpec(3)
        rng = random.Random(11)
        u = UPoly(K, (0, 1))
        polys = [UPoly(F3, (0, 0, 0, 2, 1)), UPoly(F3, (1, 0, 1, 0, 0, 0, 1))]
        for mults in ((3, 1), (2, 3)):
            f = UPoly(K, (rng.randrange(K.q), 1))
            for m in mults:
                f = f * (u - UPoly(K, (K.random_elem(rng),))).pow(m)
            polys.append(f)
        for f in polys:
            monkeypatch.setattr(gfpoly, "_ROOT_BRUTE_MAX_Q", K.q)
            scan = f.roots_in(K)
            monkeypatch.setattr(gfpoly, "_ROOT_BRUTE_MAX_Q", 0)
            assert f.roots_in(K) == scan, f
        assert polys[0].roots_in(K) == [0, 1]                    # u^3 (u + 2)

    def test_roots_in_large_field_splitting_path(self):
        # q = 3^13 is far past the exhaustive-scan cutoff
        K = FieldSpec(3, 13)
        a, b = K.elem((1, 1, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 1)), K.elem((2, 2, 1))
        f = UPoly(K, (0, 1)) - UPoly(K, (a,))
        g = UPoly(K, (0, 1)) - UPoly(K, (b,))
        h = f * g * UPoly(K, tuple([1] + [0] * 12 + [1]))  # extra high-degree factor
        assert {a.enc, b.enc} <= set(h.roots_in())

    def test_even_char_large_field_splitting(self):
        K = FieldSpec(2, 21)
        vals = [K.elem((1, 0, 1)), K.elem((0, 1, 1, 1)), K.elem((1,))]
        poly = UPoly.one(K)
        for v in vals:
            poly = poly * (UPoly(K, (0, 1)) - UPoly(K, (v,)))
        assert set(poly.roots_in()) == {v.enc for v in vals}
