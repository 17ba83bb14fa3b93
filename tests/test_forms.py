import pickle
import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement, product

import pytest

from fptlib import (
    BudgetError,
    FieldSpec,
    GFElem,
    HomForm,
    ParseError,
    UPoly,
    ValidationError,
    coeff_of_power,
    fpt_general,
    in_frobenius_power,
    is_squarefree_binary,
    nu,
    parse_form,
    perfect_power_decompose,
    pow_mod_frobenius,
    random_form,
    strata,
    substitute_linear,
    trinomial_obstructions,
)
from fptlib import forms
from fptlib.forms import _form_pow

# ---------------------------------------------------------------------------
# an independent oracle: completely naive expansion of f^N, then filtering
# ---------------------------------------------------------------------------


def naive_residue(f: HomForm, N: int, e: int) -> dict:
    """f^N truncated at p^e, one GFElem product per pair, as encodings."""
    K = f.field
    cur = {(0,) * f.n: K.one()}
    for _ in range(N):
        nxt = {}
        for e1, c1 in cur.items():
            for e2, c2 in f.terms.items():
                w = tuple(a + b for a, b in zip(e1, e2))
                v = c1 * GFElem(K, c2)
                if w in nxt:
                    v = nxt[w] + v
                if v:
                    nxt[w] = v
                elif w in nxt:
                    del nxt[w]
        cur = nxt
    bound = K.p ** e
    return {w: c.enc for w, c in cur.items() if all(a < bound for a in w)}


def random_sparse(field, n, d, rng, max_terms=4):
    exps = []
    for combo in combinations_with_replacement(range(n), d):
        v = [0] * n
        for i in combo:
            v[i] += 1
        exps.append(tuple(v))
    while True:
        chosen = rng.sample(exps, k=min(len(exps), rng.randrange(1, max_terms + 1)))
        terms = {e: GFElem(field, rng.randrange(1, field.q)) for e in chosen}
        if terms:
            return HomForm(field, n, d, terms)


class TestPowModFrobenius:
    def test_diagonal_quintic_cases(self):
        K = FieldSpec(7)
        f = parse_form("x^5+y^5", K)
        assert pow_mod_frobenius(f, 3, 1) == {}
        assert pow_mod_frobenius(f, 2, 1) == {(5, 5): 2}
        assert pow_mod_frobenius(f, 0, 1) == {(0, 0): 1}

    def test_matches_naive_expansion(self):
        rng = random.Random(11)
        cases = []
        for _ in range(150):
            p = rng.choice([2, 3, 5, 7])
            k = rng.choice([1, 1, 2])
            n = rng.choice([2, 2, 3])
            d = rng.randrange(1, 7)
            N = rng.randrange(0, 31)
            e = rng.randrange(1, 3)
            cases.append((p, k, n, d, N, e))
        cases += [
            # deg f >= 2 p^e: the exponents of f itself reach past the window
            (2, 1, 2, 4, 1, 1), (2, 1, 2, 5, 3, 1), (2, 1, 3, 6, 2, 1),
            (2, 1, 2, 9, 3, 2), (2, 2, 2, 8, 2, 2), (3, 1, 2, 7, 2, 1),
            (3, 1, 3, 8, 1, 1), (5, 1, 2, 11, 2, 1),
            # N = 0
            (2, 1, 2, 3, 0, 1), (3, 2, 3, 2, 0, 2), (7, 1, 4, 2, 0, 1),
            # N with more base-p digits than e
            (2, 1, 2, 1, 2, 1), (2, 1, 3, 2, 4, 2), (3, 1, 2, 2, 9, 2),
            (5, 1, 2, 3, 25, 1), (3, 2, 2, 2, 10, 2),
            # k = 2 and n = 4
            (2, 2, 4, 2, 5, 1), (2, 2, 4, 3, 6, 2), (3, 2, 4, 2, 4, 1),
            (3, 2, 4, 1, 7, 2),
        ]
        for p, k, n, d, N, e in cases:
            K = FieldSpec(p, k)
            f = random_sparse(K, n, d, rng)
            assert pow_mod_frobenius(f, N, e) == naive_residue(f, N, e)

    def test_membership_monotone_in_N(self):
        rng = random.Random(12)
        for _ in range(60):
            K = FieldSpec(rng.choice([2, 3, 5]))
            f = random_sparse(K, 2, rng.randrange(2, 6), rng)
            e = rng.randrange(1, 3)
            seen_in = False
            for N in range(0, 3 * K.p ** e // f.d + 2):
                m = in_frobenius_power(f, N, e)
                if seen_in:
                    assert m
                seen_in = seen_in or m

    def test_membership_stable_under_coordinate_change(self):
        rng = random.Random(13)
        for _ in range(40):
            K = FieldSpec(rng.choice([3, 5]))
            f = random_sparse(K, 2, rng.randrange(2, 6), rng)
            T = _random_invertible(K, 2, rng)
            g = substitute_linear(f, T)
            N = rng.randrange(1, 2 * K.p)
            e = rng.randrange(1, 3)
            assert in_frobenius_power(f, N, e) == in_frobenius_power(g, N, e)

    def test_corner_monomial_never_in(self):
        for p, e in [(2, 3), (3, 2), (7, 1)]:
            K = FieldSpec(p)
            xy = parse_form("x*y", K)
            assert not in_frobenius_power(xy, p ** e - 1, e)
            assert in_frobenius_power(xy, p ** e, e)


class TestCoeffOfPower:
    def test_binomial_middle(self):
        K = FieldSpec(7)
        f = parse_form("x^5+y^5", K)
        assert coeff_of_power(f, 2, 5) == K.elem(2)
        assert coeff_of_power(f, 2, 3) == K.zero()

    def test_range_check(self):
        K = FieldSpec(7)
        f = parse_form("x^5+y^5", K)
        with pytest.raises(ValidationError):
            coeff_of_power(f, 2, 11)

    def test_small_N_generic_coefficients_nonzero(self):
        # for N < p the coefficient of x^(dN-j) y^j in f^N is nonzero as a
        # function of the coefficients of f: some sample realizes each index
        rng = random.Random(14)
        K = FieldSpec(7, 1)
        for d in (2, 3, 4):
            for N in (2, 4, 6):
                samples = [HomForm.from_coeffs(K, [rng.randrange(1, 7)
                                                   for _ in range(d + 1)])
                           for _ in range(12)]
                for j in range(0, d * N + 1):
                    assert any(coeff_of_power(f, N, j) for f in samples)


class TestTrinomialObstructions:
    def test_squared_trinomial(self):
        # (x^6 + a x^3 y^3 + y^6)^2 over F_3, untruncated at depth 3 (27 > 12):
        # x^3 y^9 has 2a and x^6 y^6 has a^2 + 2
        K = FieldSpec(3)
        obs = trinomial_obstructions(3, (0, 0, 3), 2, 3)
        assert obs[(3, 9)] == UPoly(K, (0, 2))
        assert obs[(6, 6)] == UPoly(K, (2, 0, 1))
        assert sorted(obs) == [(3 * s, 12 - 3 * s) for s in range(5)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_evaluation_commutes_with_specialization(self, k):
        # the obstructions evaluated at a are the residue of the member at a,
        # for every a in F_5 and F_25
        K = FieldSpec(5, k)
        for i, j, m in [(0, 0, 3), (1, 2, 1), (2, 0, 2)]:
            d = i + j + 2 * m
            for N, e in product(range(12), (1, 2)):
                obs = trinomial_obstructions(5, (i, j, m), N, e)
                obs = {w: c.map_to(K) for w, c in obs.items()}
                for a in range(K.q):
                    cs = [0] * (d + 1)
                    cs[j], cs[j + m], cs[j + 2 * m] = 1, a, 1
                    direct = pow_mod_frobenius(HomForm.from_coeffs(K, cs), N, e)
                    evaluated = {w: c.eval_enc(a) for w, c in obs.items()}
                    assert {w: c for w, c in evaluated.items() if c} == direct


class TestSquarefreeBinary:
    def test_examples(self):
        K3 = FieldSpec(3)
        assert is_squarefree_binary(parse_form("x^2*y+x*y^2", K3))
        assert not is_squarefree_binary(parse_form("x^3+y^3", K3))
        assert is_squarefree_binary(parse_form("x^3*y+x*y^3", K3))
        assert not is_squarefree_binary(parse_form("x^2*y^2", K3))
        assert is_squarefree_binary(parse_form("x*y", K3))

    def test_square_detected(self):
        rng = random.Random(16)
        for _ in range(40):
            K = FieldSpec(rng.choice([2, 3, 5]), rng.choice([1, 2]))
            f = random_sparse(K, 2, rng.randrange(1, 5), rng)
            sq = HomForm(K, 2, 2 * f.d,
                         _naive_mul_terms(K, f.terms, f.terms))
            assert not is_squarefree_binary(sq)


def _naive_mul_terms(K, A, B):
    out = {}
    for e1, c1 in A.items():
        for e2, c2 in B.items():
            w = tuple(a + b for a, b in zip(e1, e2))
            v = K.muli(c1, c2)
            if w in out:
                v = K.addi(out[w], v)
            if v:
                out[w] = v
            elif w in out:
                del out[w]
    return out


class TestResidueProduct:
    """forms._mul and forms._addmul against one GFElem product and sum per
    coefficient pair on exponent tuples, over F_2, F_13, F_65537 and F_9."""

    FIELDS = {pk: FieldSpec(*pk) for pk in [(2, 1), (13, 1), (65537, 1), (3, 2)]}
    S = 8                       # bits per variable; exponents stay below the guard 2^7

    @classmethod
    def key(cls, e):
        return sum(a << cls.S * i for i, a in enumerate(e))

    @classmethod
    def pack(cls, terms):
        return {cls.key(e): c.enc for e, c in terms.items()}

    @classmethod
    def window(cls, n, bound):
        """(add, mask) dropping the monomials with a component >= bound; (0, 0) keeps all."""
        if bound is None:
            return 0, 0
        G, ones = 1 << cls.S - 1, sum(1 << cls.S * i for i in range(n))
        return (G - bound) * ones, G * ones

    @staticmethod
    def operands():
        from hypothesis import strategies as st

        @st.composite
        def draw_operands(draw):
            K = TestResidueProduct.FIELDS[draw(st.sampled_from(sorted(TestResidueProduct.FIELDS)))]
            n = draw(st.integers(1, 3))
            exps = st.tuples(*[st.integers(0, 5)] * n)
            elem = st.integers(1, K.q - 1).map(lambda c: GFElem(K, c))
            A = draw(st.dictionaries(exps, elem, max_size=10))
            B = draw(st.dictionaries(exps, elem, max_size=10))
            if len(A) >= 2 and draw(st.booleans()):
                # B = c x^t (x^e1 - (b/a) x^e2): the pairs (e1, t+e2) and (e2, t+e1) cancel
                (e1, a), (e2, b) = list(A.items())[:2]
                t, c = draw(exps), draw(elem)
                B = {tuple(map(sum, zip(t, e1))): c, tuple(map(sum, zip(t, e2))): -(b * c) / a}
            bound = draw(st.one_of(st.none(), st.integers(1, 12)))
            return K, n, A, B, bound

        return draw_operands()

    @staticmethod
    def per_pair(K, A, B, bound, budget):
        """A*B on exponent tuples, one GFElem product and sum per pair and rows
        in A's order, without the monomials with a component >= bound; or
        ("budget", live) once more than ``budget`` terms are live after a row."""
        out = {}
        for e1, c1 in A.items():
            for e2, c2 in B.items():
                w = tuple(a + b for a, b in zip(e1, e2))
                if bound is not None and max(w) >= bound:
                    continue
                v = out.get(w, K.zero()) + c1 * c2
                if v:
                    out[w] = v
                else:
                    del out[w]
            if budget is not None and len(out) > budget:
                return "budget", len(out)
        return out

    def test_mul_matches_per_pair_reference(self):
        from hypothesis import given, settings, strategies as st

        from fptlib import forms

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(self.operands(), st.one_of(st.none(), st.integers(1, 8)))
        def check(operands, budget):
            # under a small budget, the same inputs raise with the same count
            K, n, A, B, bound = operands
            want = self.per_pair(K, A, B, bound, budget)
            with pytest.MonkeyPatch.context() as mp:
                if budget is not None:
                    mp.setattr(forms, "_WINDOW_BUDGET", budget)
                try:
                    got = forms._mul(self.pack(A), self.pack(B), *self.window(n, bound), K)
                except BudgetError as err:
                    assert want == ("budget", err.required)
                    assert err.budget == budget
                else:
                    # same terms in the same order: later products walk their
                    # rows in this order, so the budget trips at the same rows
                    assert list(got.items()) == list(self.pack(want).items())

        check()

    def test_addmul_matches_per_pair_reference(self):
        from hypothesis import given, settings, strategies as st

        from fptlib import forms

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(self.operands(), st.data())
        def check(operands, data):
            K, n, out, A, _ = operands
            c = GFElem(K, data.draw(st.integers(1, K.q - 1)))
            shift = data.draw(st.tuples(*[st.integers(0, 3)] * n))
            moved = {tuple(map(sum, zip(e, shift))): c * a for e, a in A.items()}
            if moved and data.draw(st.booleans()):
                # out already holds -c x^shift a for one term of A: that sum vanishes
                w, v = next(iter(moved.items()))
                out = {**out, w: -v}
            want = dict(out)
            for w, v in moved.items():
                s = want.get(w, K.zero()) + v
                if s:
                    want[w] = s
                else:
                    want.pop(w, None)
            got = self.pack(out)
            forms._addmul(got, self.pack(A), c.enc, self.key(shift), K)
            assert list(got.items()) == list(self.pack(want).items())

        check()

    @pytest.mark.parametrize("pk", sorted(FIELDS))
    def test_truncated_product_cancels_to_zero(self, pk):
        # (x^2 + y^2)(x^2 - y^2) = x^4 - y^4: x^2 y^2 cancels, and a bound of 3
        # drops x^4 and y^4
        from fptlib import forms

        K = self.FIELDS[pk]
        A = self.pack({(2, 0): K.one(), (0, 2): K.one()})
        B = self.pack({(2, 0): K.one(), (0, 2): -K.one()})
        assert forms._mul(A, B, *self.window(2, 3), K) == {}
        assert forms._mul(A, B, *self.window(2, 5), K) == self.pack(
            {(4, 0): K.one(), (0, 4): -K.one()})

    @pytest.mark.parametrize("pk", sorted(FIELDS))
    def test_budget_counts_live_terms(self, pk, monkeypatch):
        from fptlib import forms

        K = self.FIELDS[pk]
        one = K.one()
        monkeypatch.setattr(forms, "_WINDOW_BUDGET", 2)
        # (1 + x)(1 - x) = 1 - x^2: the key of x cancels in the second row,
        # which leaves two terms, within the budget
        A = self.pack({(0,): one, (1,): one})
        B = self.pack({(0,): one, (1,): -one})
        assert forms._mul(A, B, 0, 0, K) == self.pack({(0,): one, (2,): -one})
        # (1 + x)(1 - x + x^3) = 1 - x^2 + x^3 + x^4: four terms after the
        # second row, where the key of x cancels; refused with count 4, not 5
        monkeypatch.setattr(forms, "_WINDOW_BUDGET", 3)
        B = self.pack({(0,): one, (1,): -one, (3,): one})
        with pytest.raises(BudgetError) as err:
            forms._mul(A, B, 0, 0, K)
        assert (err.value.required, err.value.budget) == (4, 3)

    def test_budget_trips_on_the_same_ladder(self, monkeypatch):
        # the least budget under which nu's depth-5 walk of this quintic
        # finishes is 66.  It depends on the order of each product's rows,
        # the insertion order of an earlier product: if a vanishing sum kept
        # its key instead of being deleted and re-inserted later, 62 would do
        from fptlib import forms
        from fptlib.fptengine import fpt_bounds

        f = parse_form("2*x^5+x^4*y+2*x^3*y^2+x^2*y^3+x*y^4+2*y^5", FieldSpec(3))
        monkeypatch.setattr(forms, "_WINDOW_BUDGET", 65)
        with pytest.raises(BudgetError) as err:
            fpt_bounds(f, 5)
        assert err.value.required == 66
        monkeypatch.setattr(forms, "_WINDOW_BUDGET", 66)
        assert fpt_bounds(f, 5) == (Q(80, 243), Q(1, 3))

    @pytest.mark.parametrize("pk", [(2, 1), (3, 2)])
    def test_work_bound_trips_before_any_pair(self, pk, monkeypatch):
        # len(A) * len(B) = 12 pairs against a bound of 11: refused with the
        # size before a single coefficient pair is multiplied, inline over
        # F_p or by FieldSpec.muli over F_9
        from fptlib import forms

        calls = []

        class Counted(int):
            def __mul__(self, other):
                calls.append(other)
                return int(self) * other

        K = self.FIELDS[pk]
        A = {self.key((i,)): Counted(1) for i in range(3)}
        B = self.pack({(i,): K.one() for i in range(4)})
        muli = FieldSpec.muli
        monkeypatch.setattr(FieldSpec, "muli", lambda F, a, b: calls.append(b) or muli(F, a, b))
        monkeypatch.setattr(forms, "_WORK_BUDGET", 11)
        monkeypatch.setattr(forms, "_WINDOW_BUDGET", 0)
        with pytest.raises(BudgetError) as err:
            forms._mul(A, B, 0, 0, K)
        assert (err.value.required, err.value.budget) == (12, 11)
        assert "3 by 4 terms" in str(err.value) and calls == []
        monkeypatch.setattr(forms, "_WORK_BUDGET", 12)
        with pytest.raises(BudgetError) as err:
            forms._mul(A, B, 0, 0, K)
        assert err.value.budget == 0        # the window budget, after the first row
        assert len(calls) == 4


def _random_invertible(K, n, rng):
    while True:
        T = [[rng.randrange(K.q) for _ in range(n)] for _ in range(n)]
        try:
            substitute_linear(HomForm.monomial(K, tuple([1] + [0] * (n - 1))), T)
            return T
        except ValidationError:
            continue


class TestPerfectPower:
    def test_examples(self):
        K7 = FieldSpec(7)
        g, r = perfect_power_decompose(parse_form("(x+y)^4", K7))
        assert r == 4 and g == parse_form("x+y", K7)
        g, r = perfect_power_decompose(parse_form("x^2*y^2*(x+y)^2", K7))
        assert r == 2 and g == parse_form("x*y*(x+y)", K7)
        g, r = perfect_power_decompose(parse_form("x*y*(x+y)", K7))
        assert r == 1

    def test_frobenius_power_peeled(self):
        K3 = FieldSpec(3)
        g, r = perfect_power_decompose(parse_form("x^3+y^3", K3))  # = (x+y)^3
        assert r == 3 and g == parse_form("x+y", K3)
        g, r = perfect_power_decompose(parse_form("x^6", K3, n=2))
        assert r == 6 and g == parse_form("x", K3, n=2)

    def test_scalar_root_needed(self):
        # 3 x^2 is not a square over F_7 (3 is not a QR), but 2 x^2 is
        K7 = FieldSpec(7)
        g, r = perfect_power_decompose(parse_form("3*x^2", K7, n=2))
        assert r == 1
        g, r = perfect_power_decompose(parse_form("2*x^2", K7, n=2))
        assert r == 2 and g in (parse_form("3*x", K7, n=2), parse_form("4*x", K7, n=2))

    def test_roundtrip_random(self):
        rng = random.Random(17)
        from fptlib.forms import _form_pow

        for _ in range(60):
            K = FieldSpec(rng.choice([2, 3, 5, 7]), rng.choice([1, 2]))
            base = random_sparse(K, rng.choice([2, 3, 4]), rng.randrange(1, 4), rng)
            r = rng.choice([1, 2, 3, 4, 6])
            f = _form_pow(base, r)
            g, rr = perfect_power_decompose(f)
            # maximality can exceed r when the base is itself a power, but
            # never fall short, and the decomposition must round-trip exactly
            assert rr >= r
            assert _form_pow(g, rr) == f

    def test_near_power(self):
        # the 6th power of a dense cubic in 4 variables over F_49 (degree 18),
        # and the same with its middle coefficient changed: 1,304 terms
        from fptlib.forms import _form_pow

        K = FieldSpec(7, 2)
        f = _form_pow(random_form(K, 4, 3, random.Random(1)), 6)
        g, r = perfect_power_decompose(f.monic())
        assert r == 6 and _form_pow(g, 6) == f.monic()
        terms = dict(f.terms)
        mid = sorted(terms)[len(terms) // 2]
        terms[mid] = K.addi(terms[mid], 1)
        assert perfect_power_decompose(HomForm(K, 4, f.d, terms))[1] == 1

    def test_high_power(self):
        # m = 1023: one update of the kept powers would make more than 2^18
        # copies, so H - g^m is recomputed for each term instead
        K2 = FieldSpec(2)
        g, r = perfect_power_decompose(parse_form("(x2+x3)^1023", K2, n=3))
        assert r == 1023 and g == parse_form("x2+x3", K2, n=3)
        assert perfect_power_decompose(parse_form("(x2+x3)^1023+x1^1023", K2, n=3))[1] == 1

    def test_three_variable_power(self):
        K5 = FieldSpec(5)
        f = parse_form("(x1^2+x2*x3)^2", K5)
        g, r = perfect_power_decompose(f)
        assert r == 2 and g == parse_form("x1^2+x2*x3", K5)
        f3 = parse_form("x1*x2*x3", K5)
        assert perfect_power_decompose(f3)[1] == 1
        # a dense quadric in four variables, cubed; for n >= 3 the root may
        # differ from the quadric by a cube root of unity
        from fptlib.forms import _form_pow

        quadric = "x1^2+2*x1*x2+3*x1*x3+4*x1*x4+5*x2^2+6*x2*x3+x2*x4+2*x3^2+3*x3*x4+4*x4^2"
        f = parse_form(f"({quadric})^3", FieldSpec(7))
        g, r = perfect_power_decompose(f)
        assert r == 3 and _form_pow(g, 3) == f
        # twelve variables: a square, and a quadric that is no power
        linear = "+".join(f"x{i}" for i in range(1, 13))
        g, r = perfect_power_decompose(parse_form(f"({linear})^2", K5))
        assert r == 2 and g == parse_form(linear, K5)
        rest = "+".join(f"x{i}^2" for i in range(5, 13))
        assert perfect_power_decompose(parse_form(f"{quadric}+{rest}", FieldSpec(7)))[1] == 1


class TestSubstitution:
    def test_examples(self):
        K7 = FieldSpec(7)
        assert substitute_linear(parse_form("x^2", K7, n=2), [[0, 1], [1, 0]]) \
            == parse_form("y^2", K7, n=2)
        assert substitute_linear(parse_form("x*y", K7), [[1, 1], [0, 1]]) \
            == parse_form("x*y+y^2", K7)
        f = parse_form("x^3+2*x*y^2", K7)
        assert substitute_linear(f, [[1, 0], [0, 1]]) == f

    def test_singular_rejected(self):
        K = FieldSpec(5)
        with pytest.raises(ValidationError):
            substitute_linear(parse_form("x*y", K), [[1, 1], [2, 2]])


class TestCoefficientConvention:
    """Every constructor and ``scale`` read an int the same way: over F_p
    mod p, over F_{p^k} as an encoding in [0, q)."""

    def test_ints_are_encodings_over_an_extension(self):
        K = FieldSpec(3, 2)
        c = K.gen() + 2                 # t + 2, encoding 5
        f = HomForm(K, 2, 1, {(1, 0): 1, (0, 1): 5})
        assert f == HomForm.from_coeffs(K, [1, 5]) == HomForm.from_coeffs(K, [K.one(), c])
        assert f.as_text() == "x+(t+2)*y" and f.coeff((0, 1)) == c
        assert HomForm.monomial(K, (1, 1), 5) == HomForm.monomial(K, (1, 1), c)
        assert f.scale(5) == f.scale(c)
        assert f.scale(5).terms == {(1, 0): 5, (0, 1): (c * c).enc}
        assert substitute_linear(f, [[5, 0], [0, 1]]) == HomForm.from_coeffs(K, [5, 5])

    @pytest.mark.parametrize("bad", [9, -1])
    def test_encoding_outside_the_field_refused(self, bad):
        K = FieldSpec(3, 2)
        f = HomForm.from_coeffs(K, [1, 1])
        for build in (lambda: HomForm(K, 2, 1, {(1, 0): bad}),
                      lambda: HomForm.from_coeffs(K, [1, bad]),
                      lambda: HomForm.monomial(K, (1, 0), bad),
                      lambda: f.scale(bad)):
            with pytest.raises(ValidationError, match="outside"):
                build()

    def test_ints_reduce_over_a_prime_field(self):
        K = FieldSpec(3)
        f = HomForm(K, 2, 1, {(1, 0): 4, (0, 1): -1})
        assert f == HomForm.from_coeffs(K, [1, 5]) == HomForm.from_coeffs(K, [1, 2])
        assert f.terms == {(1, 0): 1, (0, 1): 2} and f.scale(5) == f.scale(2)
        with pytest.raises(ValidationError, match="different field"):
            HomForm.monomial(K, (1, 0), FieldSpec(5).one())


def _refused_builds():
    K, K9 = FieldSpec(5), FieldSpec(3, 2)
    return {
        "exponents-too-long": lambda: HomForm(K, 2, 3, {(1, 1, 1): 1}),
        "exponents-too-short": lambda: HomForm(K, 3, 3, {(3, 0): 1}),
        "negative-exponent": lambda: HomForm(K, 2, 2, {(3, -1): 1}),
        "coeff-list-length": lambda: HomForm.from_coeffs(K, [1, 2], d=3),
        "wrong-degree": lambda: HomForm(K, 2, 3, {(3, 0): 1, (1, 0): 1}),
        "zero-terms": lambda: HomForm(K, 2, 2, {(2, 0): 0, (1, 1): 5}),
        "zero-coeffs": lambda: HomForm.from_coeffs(K, [0, 0, 0]),
        "zero-monomial": lambda: HomForm.monomial(K, (1, 1), 0),
        "f9-dict": lambda: HomForm(K9, 2, 1, {(1, 0): 9}),
        "f9-coeffs": lambda: HomForm.from_coeffs(K9, [1, 14]),
        "f9-monomial": lambda: HomForm.monomial(K9, (2,), -1),
        "parse-zero": lambda: parse_form("x*y-x*y", K),
        "parse-inhomogeneous": lambda: parse_form("x^2+y", K),
    }


class TestTrustedConstructor:
    """HomForm._of takes the forms the library builds itself without checks;
    each must be the form the public constructors build from the same terms."""

    @staticmethod
    def assert_same(f, g):
        assert list(f.terms.items()) == list(g.terms.items())     # insertion order too
        assert f.key() == g.key() and f.as_text() == g.as_text()

    @pytest.mark.parametrize("d,p,k", [(5, 3, 1), (4, 5, 1), (3, 2, 3), (3, 3, 2)])
    def test_census_classes_equal_from_coeffs(self, d, p, k):
        K = FieldSpec(p, k)
        for g, f, _, _ in strata._classes(K, d):
            self.assert_same(f, HomForm.from_coeffs(K, strata._coeffs_of_index(g, d, K.q)))

    @pytest.mark.parametrize("p,k,n,d", [(3, 1, 2, 4), (5, 1, 3, 2), (2, 2, 2, 3),
                                         (3, 2, 3, 2), (7, 1, 2, 5)])
    def test_derived_forms_pass_the_public_checks(self, p, k, n, d):
        K, rng = FieldSpec(p, k), random.Random(p * 100 + k * 10 + n)
        m = 3 if p == 2 else 2              # an m-th root with p not dividing m
        for _ in range(8):
            f = random_form(K, n, d, rng)
            T = [[1 if i == j else rng.randrange(K.q) * (j > i) for j in range(n)]
                 for i in range(n)]
            derived = [f.scale(rng.randrange(1, K.q)), f.monic(), _form_pow(f, m),
                       perfect_power_decompose(_form_pow(f, m).monic())[0],
                       perfect_power_decompose(_form_pow(f, p).monic())[0],
                       substitute_linear(f, T), substitute_linear(f, T[::-1])]
            for g in derived:
                self.assert_same(g, HomForm(g.field, g.n, g.d, g.terms))

    @pytest.mark.parametrize("name", sorted(_refused_builds()))
    def test_public_constructors_keep_their_checks(self, name):
        with pytest.raises(ValidationError):
            _refused_builds()[name]()


class TestParser:
    def test_roundtrip_idempotent(self):
        from hypothesis import given, settings, strategies as st

        K = FieldSpec(7)
        for text in ["x^5+y^5", "2*x^2*y+3*y^3", "x*y*(x+y)", "x1*x2*x3"]:
            f = parse_form(text, K)
            again = parse_form(f.as_text(), K, n=f.n)
            assert f == again
            assert again.as_text() == f.as_text()

        fields = [FieldSpec(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)]

        @st.composite
        def forms(draw):
            K = draw(st.sampled_from(fields))
            n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
            # an exponent vector of degree d: the gaps between n - 1 sorted cuts of [0, d]
            cuts = st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1).map(sorted)
            exps = cuts.map(lambda c: tuple(b - a for a, b in zip([0] + c, c + [d])))
            terms = draw(st.dictionaries(exps, st.integers(1, K.q - 1), min_size=1, max_size=6))
            return HomForm(K, n, d, terms)

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(forms())
        def check(f):
            again = parse_form(f.as_text(), f.field, n=f.n)
            assert again == f and again.as_text() == f.as_text()

        check()

    def test_generator_coefficients(self):
        K9 = FieldSpec(3, 2)
        f = parse_form("(2*t+1)*x^2*y", K9)
        t = K9.gen()
        assert f.coeff((2, 1)) == 2 * t + 1

    def test_errors_carry_offsets(self):
        K = FieldSpec(5)
        with pytest.raises(ParseError):
            parse_form("(unparsable", K)
        with pytest.raises(ParseError):
            parse_form("x^2+y^3", K)      # inhomogeneous
        with pytest.raises(ParseError):
            parse_form("t*x", K)          # no generator over a prime field
        with pytest.raises(ParseError):
            parse_form("5*x^2", K)        # vanishes mod 5

    def test_powers_match_naive_expansion(self):
        # "^k" along the base-p digits of k against k naive multiplications;
        # a depth e with p^e above the degree truncates nothing
        K7, K9 = FieldSpec(7), FieldSpec(3, 2)
        for base, K, n in [("x+y", K7, 2), ("x1+2*x2+x3", K7, 3), ("t*x+y", K9, 2)]:
            g = parse_form(base, K, n=n)
            for k in range(1, 13):
                f = parse_form(f"({base})^{k}", K, n=n)
                assert f.terms == naive_residue(g, k, 3)

    def test_powers_along_base_p_digits(self):
        # "^k" is a product of Frobenius twists of base^c over the base-p
        # digits c of k
        from fptlib.forms import _form_pow

        linear = "+".join(f"x{i}" for i in range(1, 13))
        K5, K9 = FieldSpec(5), FieldSpec(3, 2)
        assert parse_form(f"({linear})^10", K5) == _form_pow(parse_form(linear, K5), 10)
        for base, k in [("t*x1+x2+(t+1)*x3", 14), ("x^2+t*x*y+(2*t+1)*y^2", 23)]:
            assert parse_form(f"({base})^{k}", K9) == _form_pow(parse_form(base, K9), k)

    def test_power_exponent_bound_is_exact(self):
        # k times the largest degree of a variable in the base must stay below 2^31
        K = FieldSpec(5)
        for text in ["(x^2*y)^1073741824", "(x^2+y)^1073741824"]:
            with pytest.raises(BudgetError, match=r"2\^31"):
                parse_form(text, K)
        assert parse_form("(x^2*y)^1073741823", K).d == 3 * 1073741823
        assert parse_form("(x*y)^2147483647", K).d == 2 * 2147483647
        assert parse_form("(x^3-x^3+y)^1000000000", K).d == 1000000000
        # an exponent of 2^31 or more is refused on a constant base as well,
        # and leading zeros do not count, past int()'s 4,300 digits too
        zeros = "0" * 5000
        assert parse_form("2^2147483647*x", K) == parse_form("3*x", K)
        assert parse_form(f"(x*y)^{zeros}2147483647", K).d == 2 * 2147483647
        for text in ["2^2147483648*x", "(x^3-x^3+y)^02147483648", f"x^{zeros}2147483648"]:
            with pytest.raises(BudgetError, match=r"2\^31"):
                parse_form(text, K)
        with pytest.raises(ParseError, match="variable index 13 exceeds n=2"):
            parse_form(f"x1*x{zeros}13", K, n=2)
        with pytest.raises(ParseError, match="variable indices start at x1"):
            parse_form(f"x1*x{zeros}", K)

    def test_minus_and_implicit_product(self):
        K = FieldSpec(7)
        assert parse_form("x^2-y^2", K) == parse_form("x^2+6*y^2", K)
        assert parse_form("2x y", K) == parse_form("2*x*y", K)


class TestTextFormat:
    """The text format pinned byte for byte: the message and offset of every
    kind of malformed input, and the renders of field elements, univariate
    polynomials and forms."""

    # (text, field, n, str(ParseError))
    MALFORMED = [
        ("", (5, 1), None, "offset 0: unexpected end of input"),
        ("x+", (5, 1), None, "offset 2: unexpected end of input"),
        ("  x ^ 2 +  ", (5, 1), None, "offset 11: unexpected end of input"),
        ("  ", (5, 1), None, "offset 2: unexpected end of input"),
        ("(x", (5, 1), None, "offset 2: expected ')'"),
        ("x)", (5, 1), None, "offset 1: trailing input"),
        ("x@", (5, 1), None, "offset 1: trailing input"),
        ("x^2 + y ) ", (5, 1), None, "offset 8: trailing input"),
        ("x^2-\ny^2 )", (5, 1), None, "offset 9: trailing input"),
        ("x^", (5, 1), None, "offset 2: expected an integer"),
        ("x ^\t", (5, 1), None, "offset 4: expected an integer"),
        ("x^-1", (5, 1), None, "offset 2: expected an integer"),
        ("(x+y)^2^", (5, 1), None, "offset 8: expected an integer"),
        ("x*+y", (5, 1), None, "offset 2: unexpected character '+'"),
        ("x y z", (5, 1), None, "offset 4: unexpected character 'z'"),
        ("x0", (5, 1), None, "offset 2: variable indices start at x1"),
        ("x 2*x00", (5, 1), None, "offset 7: variable indices start at x1"),
        ("x13", (5, 1), None, "offset 3: more than 12 variables need an explicit n"),
        ("x3", (5, 1), 2, "offset 2: variable index 3 exceeds n=2"),
        ("y", (5, 1), 1, "offset 1: variable index 2 exceeds n=1"),
        ("t*x", (5, 1), None, "offset 1: generator t is undefined over a prime field"),
        (" t *x", (5, 1), None, "offset 2: generator t is undefined over a prime field"),
        ("x^2+y^3", (5, 1), None, "offset 0: polynomial is not homogeneous (degrees [2, 3])"),
        ("5*x^2", (5, 1), None, "offset 0: polynomial is zero"),
        ("x*y-x*y", (5, 1), None, "offset 0: polynomial is zero"),
        ("3", (5, 1), None, "offset 0: constant polynomials are not forms"),
        ("x^0", (5, 1), None, "offset 0: constant polynomials are not forms"),
        ("(t+1)*x+s", (3, 2), None, "offset 8: unexpected character 's'"),
        ("x+t^", (2, 3), 3, "offset 4: expected an integer"),
    ]

    @pytest.mark.parametrize("text,pk,n,message", MALFORMED)
    def test_malformed_input_message_and_offset(self, text, pk, n, message):
        with pytest.raises(ParseError) as err:
            parse_form(text, FieldSpec(*pk), n=n)
        assert str(err.value) == "parse error at " + message
        assert message.startswith(f"offset {err.value.offset}:")

    @pytest.mark.parametrize("text,message", [
        ("x^²", "offset 2: expected an integer"),
        ("x^٣*y", "offset 2: expected an integer"),
        ("x²", "offset 1: unexpected character '²'"),
        ("x1²", "offset 2: unexpected character '²'"),
        ("x٣", "offset 1: unexpected character '٣'"),
        ("٣*x", "offset 0: unexpected character '٣'"),
    ])
    def test_only_ascii_digits_are_digits(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_form(text, FieldSpec(5))
        assert str(err.value) == "parse error at " + message

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_refused_before_parsing(self, n):
        with pytest.raises(ValidationError) as err:
            parse_form("x@", FieldSpec(5), n=n)
        assert type(err.value) is ValidationError
        assert str(err.value) == f"need n >= 1 variables, got {n}"

    def test_exponent_of_two_to_the_31_is_a_budget_error(self):
        with pytest.raises(BudgetError) as err:
            parse_form("(x^2*y)^1073741824", FieldSpec(5))
        assert str(err.value) == "an exponent reaches 2^31; exponents must stay below it"

    @pytest.mark.parametrize("pk,renders", [
        ((3, 2), {0: "0", 1: "1", 2: "2", 3: "t", 5: "t+2", 6: "2*t", 7: "2*t+1"}),
        ((2, 3), {0: "0", 1: "1", 2: "t", 4: "t^2", 6: "t^2+t", 7: "t^2+t+1"}),
        ((3, 3), {21: "2*t^2+t", 9: "t^2", 26: "2*t^2+2*t+2"}),
        ((7, 1), {0: "0", 1: "1", 6: "6"}),
    ])
    def test_field_element_renders(self, pk, renders):
        K = FieldSpec(*pk)
        assert {enc: K.elem_str(enc) for enc in renders} == renders
        assert {enc: str(GFElem(K, enc)) for enc in renders} == renders

    def test_univariate_renders(self):
        K5, K9 = FieldSpec(5), FieldSpec(3, 2)
        assert str(UPoly.zero(K9)) == "0" and str(UPoly(K5, [0, 0])) == "0"
        assert str(UPoly(K5, [3, 0, 1, 2])) == "2*u^3+u^2+3"
        assert str(UPoly(K5, [0, 1])) == "u" and str(UPoly(K5, [4])) == "4"
        assert str(UPoly(K9, [7, 3, 6, 1])) == "u^3+(2*t)*u^2+t*u+(2*t+1)"
        assert repr(UPoly(K9, [5, 2])) == "2*u+(t+2)"

    def test_form_renders(self):
        K9 = FieldSpec(3, 2)
        f = HomForm(K9, 3, 2, {(0, 0, 2): 6, (0, 1, 1): 3, (2, 0, 0): 1, (1, 1, 0): 7})
        assert f.as_text() == str(f) == "x1^2+(2*t+1)*x1*x2+t*x2*x3+(2*t)*x3^2"
        assert repr(f) == "HomForm('x1^2+(2*t+1)*x1*x2+t*x2*x3+(2*t)*x3^2' over FieldSpec(p=3, k=2))"
        g = HomForm(FieldSpec(7), 2, 3, {(0, 3): 6, (2, 1): 1, (3, 0): 2})
        assert g.as_text() == "2*x^3+x^2*y+6*y^3"
        assert HomForm(K9, 1, 4, {(4,): 5}).as_text() == "(t+2)*x1^4"


class TestPowerTable:
    """Powers of f on ladders: each step powers f truncated at its depth,
    nu walks one ladder whose bisections share their squares, and neither
    changes a result, a residue's insertion order or a caller's form."""

    # (p, n, d, depths)
    CASES = [(2, 2, 3, (1, 2, 3)), (2, 3, 3, (2, 3)), (2, 4, 2, (1, 2)),
             (3, 2, 4, (1, 2)), (3, 3, 3, (1, 2)), (3, 4, 2, (1, 2)),
             (5, 2, 3, (1, 2)), (5, 3, 2, (1, 2)), (7, 2, 3, (1, 2)),
             (7, 3, 3, (1,)), (7, 4, 2, (1,))]

    def test_nu_and_every_entry_point_match_naive_residues(self, monkeypatch):
        # nu, and each ordinary entry point on its own ladder, over several
        # depths and bounded and unbounded ladders, in shuffled order; every
        # result is checked against full expansion by naive products, and
        # each nu call builds exactly one ladder
        ladders, init = [], forms.ResidueLadder.__init__

        def recording_init(ladder, *args, **kwargs):
            init(ladder, *args, **kwargs)
            ladders.append(ladder)

        monkeypatch.setattr(forms.ResidueLadder, "__init__", recording_init)
        rng = random.Random(41)
        for p, n, d, depths in self.CASES:
            K = FieldSpec(p)
            f = random_form(K, n, d, rng)
            his = {e: -(-min(n, d) * p ** e // d) + 1 for e in depths}
            full = [{(0,) * n: 1}]
            while len(full) <= max(his.values()):
                full.append(_naive_mul_terms(K, full[-1], f.terms))

            def residue(N, e):
                return {w: c for w, c in full[N].items() if max(w) < p ** e}

            calls = [("nu", None, e) for e in depths]
            for e in depths:
                calls += [("member", N, e) for N in rng.sample(range(his[e] + 1), 4)]
                calls += [("residue", N, e) for N in rng.sample(range(his[e] + 1), 3)]
            if n == 2:
                calls += [("coeff", N, rng.randrange(d * N + 1)) for N in (1, 2, 3, 4)]
                calls += [("power", r, None) for r in (2, 3)]
            rng.shuffle(calls)
            for kind, N, e in calls:
                case = (p, n, d, f.as_text(), kind, N, e)
                del ladders[:]
                if kind == "nu":
                    want = max(M for M in range(his[e] + 1) if residue(M, e))
                    assert nu(f, e) == want, case
                    assert len(ladders) == 1, case
                elif kind == "member":
                    assert in_frobenius_power(f, N, e) == (not residue(N, e)), case
                elif kind == "residue":
                    assert pow_mod_frobenius(f, N, e) == residue(N, e), case
                elif kind == "coeff":
                    j = e
                    want = GFElem(K, full[N].get((d * N - j, j), 0))
                    assert coeff_of_power(f, N, j) == want, case
                else:
                    assert _form_pow(f, N).terms == full[N], case

    def test_nu_makes_fewer_products_and_the_same_residues(self, monkeypatch):
        # a dense ternary cubic over F_7 at depth 2, as multivar_queries
        # draws them: nu walks one ladder, whose residue after each depth j
        # is f^nu(j)'s as pow_mod_frobenius builds it, the same dict in the
        # same insertion order; and it makes fewer products than a bisection
        # that probes each N on a fresh ladder
        f = random_form(FieldSpec(7), 3, 3, random.Random(5))
        calls, ladders, walk = [0], [], []
        mul, init = forms._mul, forms.ResidueLadder.__init__
        rise_outside = forms.ResidueLadder.rise_outside

        def counting_mul(*args):
            calls[0] += 1
            return mul(*args)

        def recording_init(ladder, *args, **kwargs):
            init(ladder, *args, **kwargs)
            ladders.append(ladder)

        def recording_rise(ladder):
            c = rise_outside(ladder)
            walk.append((ladder.depth, c, list(ladder.residue().items())))
            return c

        monkeypatch.setattr(forms, "_mul", counting_mul)
        monkeypatch.setattr(forms.ResidueLadder, "__init__", recording_init)
        monkeypatch.setattr(forms.ResidueLadder, "rise_outside", recording_rise)
        v = nu(f, 2)
        walked = calls[0]
        assert len(ladders) == 1 and [depth for depth, _, _ in walk] == [1, 2]
        N = 0
        for depth, c, items in walk:
            N = 7 * N + c
            assert list(pow_mod_frobenius(f, N, depth).items()) == items
        assert N == v and items
        calls[0] = 0
        lo, hi = 0, 7 ** 2 + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if in_frobenius_power(f, mid, 2) else (mid, hi)
        assert lo == v
        assert walked < calls[0]

    def test_lifetime(self, monkeypatch):
        # a caller's form keeps nothing of a ladder, so pickling it is
        # unchanged by every entry point, and by one that runs out of budget
        f = random_form(FieldSpec(7), 3, 3, random.Random(5))
        g = random_form(FieldSpec(5), 2, 4, random.Random(5))
        before = pickle.dumps(f), pickle.dumps(g)
        assert fpt_general(f, 2).method == "bounded-fallback"
        assert nu(f, 2) and nu(g, 2)
        assert pow_mod_frobenius(f, 7, 2) and pow_mod_frobenius(g, 3, 2)
        assert coeff_of_power(g, 3, 5) is not None
        assert (pickle.dumps(f), pickle.dumps(g)) == before
        monkeypatch.setattr(forms, "_WINDOW_BUDGET", 50)
        with pytest.raises(BudgetError):
            nu(f, 2)
        assert pickle.dumps(f) == before[0]

    def test_table_stops_at_the_budget(self, monkeypatch):
        # nu's walk of this binary cubic over F_17 probes the digits 8, 12,
        # 10, 11 at depth 1 and 8, 12, 14, 15, 16 at depth 2.  The probes of
        # one depth share one list of the squares f, f^2, f^4, ... of f
        # truncated there: at depth 2 the probe of 8 leaves 4 + 7 + 13 + 24
        # = 48 terms in it, and the probe of 16 adds f^16's 47.  No product
        # of the walk has more than 47 terms, so at a budget of 48 the walk
        # runs through, but every later probe of depth 2 works on a copy and
        # the stored squares stop at 48 terms; nu's result and trail stay
        # the same
        f = random_form(FieldSpec(17), 2, 3, random.Random(4))
        pow_ = forms._pow

        def walk(budget):
            monkeypatch.setattr(forms, "_WINDOW_BUDGET", budget)
            calls, certs = [], []

            def recording(A, c, add, mask, F, squares):
                fresh = len(squares) == 1
                fc = pow_(A, c, add, mask, F, squares)
                calls.append((c, fresh, squares, [len(t) for t in squares]))
                return fc

            monkeypatch.setattr(forms, "_pow", recording)
            v = nu(f, 2, certs)
            monkeypatch.setattr(forms, "_pow", pow_)
            return v, certs, calls

        want, certs, calls = walk(forms._WINDOW_BUDGET)
        assert [(c, fresh) for c, fresh, _, _ in calls] == [
            (8, True), (12, False), (10, False), (11, False),
            (8, True), (12, False), (14, False), (15, False), (16, False)]
        assert all(sq is calls[0][2] for _, _, sq, _ in calls[:4])
        assert all(sq is calls[4][2] for _, _, sq, _ in calls[4:])
        assert calls[3][3] == [4, 7, 13, 8]
        assert calls[7][3] == [4, 7, 13, 24] and calls[8][3] == [4, 7, 13, 24, 47]
        got, again, low = walk(48)
        assert got == want and again == certs
        assert [(c, sizes) for c, _, _, sizes in low] == [
            (c, sizes) for c, _, _, sizes in calls]
        assert all(sq is low[0][2] for _, _, sq, _ in low[:4])
        stored = low[4][2]
        assert all(sq is not stored for _, _, sq, _ in low[5:])
        assert [len(t) for t in stored] == [4, 7, 13, 24]


class TestDegreeBound:
    """f^N has degree d N, and every monomial of degree above n (p^e - 1)
    has a component >= p^e: a bounded ladder step past that bound empties
    the residue without a product."""

    # (p, k, n, d, depths)
    CASES = [(2, 1, 2, 3, (1, 2, 3)), (3, 1, 2, 5, (1, 2)), (5, 1, 2, 4, (1, 2)),
             (7, 1, 2, 3, (1, 2)), (2, 2, 2, 3, (1, 2)), (3, 2, 2, 4, (1, 2)),
             (2, 1, 3, 3, (1, 2, 3)), (3, 1, 3, 4, (1, 2)), (5, 1, 3, 2, (1,)),
             (2, 2, 3, 3, (1, 2)), (3, 2, 3, 2, (1,)), (7, 1, 3, 4, (1,))]

    def test_boundary_matches_full_expansion_without_products(self, monkeypatch):
        # every N with |d N - n (p^e - 1)| <= d: pow_mod_frobenius is the
        # full expansion (an unbounded ladder) cut to the window, and a step
        # decided by degree calls neither _window, _pow nor _mul
        calls = {"_mul": 0, "_pow": 0, "_window": 0}
        for name, owner in [("_mul", forms), ("_pow", forms), ("_window", forms.ResidueLadder)]:
            def counting(*args, _real=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counting)
        rise, decided = forms.ResidueLadder.rise, []

        def checked_rise(ladder, c):
            before = dict(calls)
            rise(ladder, c)
            if ladder.mask and ladder.deg > ladder.n * (ladder.p ** ladder.depth - 1):
                assert ladder.terms == {} and calls == before
                decided.append(c)

        monkeypatch.setattr(forms.ResidueLadder, "rise", checked_rise)
        rng = random.Random(26)
        for p, k, n, d, depths in self.CASES:
            f = random_form(FieldSpec(p, k), n, d, rng)
            for e in depths:
                bound = n * (p ** e - 1)
                for N in range(max(1, -(-(bound - d) // d)), (bound + d) // d + 1):
                    full = _form_pow(f, N).terms
                    want = {w: c for w, c in full.items() if max(w) < p ** e}
                    case = (p, k, f.as_text(), N, e)
                    assert pow_mod_frobenius(f, N, e) == want, case
                    assert in_frobenius_power(f, N, e) == (not want), case
                    if d * N > bound:
                        assert not want, case
        assert len(decided) > 40 and any(decided)

    def test_ladder_degree_is_d_times_n(self):
        # rise_outside adds its digit's degree as rise does, so a rise after
        # nu's walk (the walk's last depth, then every digit) holds deg = d N
        # and the residue pow_mod_frobenius builds on a fresh ladder
        rng = random.Random(27)
        for p, k, n, d, depths in self.CASES:
            f = random_form(FieldSpec(p, k), n, d, rng)
            e = max(depths)
            for c in range(p):
                ladder, N = forms.ResidueLadder(f, 0, max(p ** e, d)), 0
                for _ in range(e - 1):
                    N = p * N + ladder.rise_outside()
                    assert ladder.deg == d * N
                ladder.rise(c)
                N = p * N + c
                assert ladder.deg == d * N
                assert ladder.residue() == pow_mod_frobenius(f, N, e), (p, k, f.as_text(), N, e)

    def test_degree_decided_step_needs_no_budget(self, monkeypatch):
        # 2 * 23^2 = 1 (mod 7), so the truncation walk's step to L = 2,
        # N_2 = 151, is decided by degree: 7 * 151 = 1057 > 2 * (23^2 - 1).
        # Powering f to f^13 there, as that step would without the degree
        # bound, needs more than 40 terms; the walk needs no more than 40
        f = parse_form("x^7+x*y^6+y^7", FieldSpec(23))
        monkeypatch.setattr(forms, "_WINDOW_BUDGET", 40)
        res = fpt_general(f)
        assert (res.value, res.method, res.L) == (Q(151, 529), "truncation-candidate", 2)
        assert [tuple(c) for c in res.certificates] == [(6, 1, False), (151, 2, True)]
        add, window = forms.ResidueLadder(f, 2, 23 ** 2)._window()
        with pytest.raises(BudgetError):
            forms._pow(window, 13, add, 1 << 10 | 1 << 21, f.field)
