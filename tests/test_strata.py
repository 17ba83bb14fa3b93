import random
from fractions import Fraction as Q

import pytest

from fptlib import (
    BudgetError,
    FieldSpec,
    UPoly,
    ValidationError,
    candidates,
    census,
    fpt_binary_exact,
    generic_fpt_binary,
    hnwz_flags,
    in_frobenius_power,
    is_squarefree_binary,
    lower_bound_reduced,
    parse_form,
    sharp_witness,
    trinomial_witness_search,
    verify_genL1,
)


class TestFlags:
    def test_examples(self):
        assert hnwz_flags(19, 11, 2) == (True, True, True)
        assert hnwz_flags(4, 3, 1) == (True, True, True)
        assert hnwz_flags(4, 3, 2)[0] is False

    def test_condition_three(self):
        # d=5, p=7: L=1 has remainder 4 > b - a = 3
        c1, c2, c3 = hnwz_flags(5, 7, 1)
        assert c3 is False

    def test_condition_two_gate(self):
        # condition II only constrains when p > b
        c1, c2, c3 = hnwz_flags(5, 7, 4)   # p=7 > b=5, e'=3 has remainder 1 < 2
        assert c2 is False
        c1, c2, c3 = hnwz_flags(19, 3, 4)  # p=3 < b=19: vacuous
        assert c2 is True


class TestCandidates:
    def test_non_sufficiency_example(self):
        rep = candidates(19, 11)
        entry = next(e for e in rep.entries if e.L == 2)
        assert entry.cond_I and entry.cond_II and entry.cond_III
        assert entry.bms_excluded and not entry.admissible
        assert Q(12, 121) not in rep.admissible_values()

    def test_quintic_over_f7(self):
        rep = candidates(5, 7)
        assert sorted(rep.admissible_values()) == [Q(19, 49), Q(137, 343)]
        l1 = next(e for e in rep.entries if e.L == 1)
        assert not l1.cond_III

    def test_octic_over_f2(self):
        rep = candidates(8, 2)
        assert rep.admissible_values() == [Q(1, 4)]
        assert rep.generic_L is None and rep.generic_value == Q(1, 4)

    def test_generic_value_is_top(self):
        for d in range(3, 13):
            for p in (2, 3, 5, 7, 11):
                rep = candidates(d, p)
                vals = rep.admissible_values()
                assert rep.generic_value == max(vals + [rep.generic_value])
                if rep.generic_L is not None:
                    assert generic_fpt_binary(d, p) == rep.generic_value


class TestCensus:
    def test_quartics_over_f3(self):
        rep = census(4, 3, 1)
        assert rep.total == 121
        assert rep.reduced_values() == {Q(1, 2), Q(1, 3)}
        assert rep.counts_consistent()
        # witnesses recompute to their claimed value
        for v, rec in rep.records.items():
            if rec.witness_coeffs is None:
                continue
            from fptlib import HomForm

            f = HomForm.from_coeffs(FieldSpec(3), rec.witness_coeffs)
            res = fpt_binary_exact(f, e_cap=2)
            assert res.is_exact and res.value == v

    def test_monomial_and_power_paths_counted(self):
        rep = census(4, 3, 1)
        # x^4 and its scalar multiples plus the other fourth powers carry 1/4
        assert rep.records[Q(1, 4)].count_nonreduced >= 1
        # (x y)^2-type squares resolve exactly through the power rule to 1/2
        assert rep.records[Q(1, 2)].count_nonreduced >= 1

    def test_squarefree_tested_once_per_form(self, monkeypatch):
        calls = []
        is_squarefree = UPoly.is_squarefree

        def counted(h):
            calls.append(h)
            return is_squarefree(h)

        monkeypatch.setattr(UPoly, "is_squarefree", counted)
        rep = census(4, 3)
        assert 0 < len(calls) <= rep.total

    def test_budget_refusal(self):
        with pytest.raises(BudgetError) as exc:
            census(9, 5, 1, budget=1000)
        assert exc.value.required == (5 ** 10 - 1) // 4

    def test_reduced_only_skips(self):
        rep = census(3, 2, 1, reduced_only=True)
        assert rep.skipped_nonreduced > 0
        assert rep.counts_consistent()
        assert rep.reduced_values() == {Q(1, 2)}

    def test_workers_agree_with_serial(self):
        serial = census(4, 3, 1)
        parallel = census(4, 3, 1, workers=3)
        assert serial.to_dict() == parallel.to_dict()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one(self, workers):
        with pytest.raises(ValidationError):
            census(3, 3, 1, workers=workers)

    def test_workers_agree_over_extension_field(self):
        serial = census(3, 3, 2)
        parallel = census(3, 3, 2, workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_field_extension_census(self):
        rep = census(4, 2, 2)   # quartics over F_4
        assert rep.total == 341
        assert rep.reduced_values() == {Q(1, 2)}
        # genuine extension coefficients are enumerated: 240 reduced quartics
        # over F_4 versus only 12 over F_2
        assert sum(r.count_reduced for r in rep.records.values()) == 240

    def test_septics_over_f3_catch_middle_truncation(self):
        # the third truncation 7/27 of 2/7 base 3 is realized by x^7 + y^7
        rep = census(7, 3, 1, reduced_only=True, budget=5000)
        assert rep.reduced_values() == {Q(2, 9), Q(7, 27), Q(23, 81)}
        assert rep.records[Q(7, 27)].witness_text == "x^7+y^7"

    def test_soundness_check_wiring(self, monkeypatch):
        # a wrong admissible set must raise loudly: with no admissible
        # truncation only 2/d = 1/2 is allowed, and the reduced 1/3 is not
        from fptlib import AnomalyError, strata

        monkeypatch.setattr(strata, "candidates",
                            lambda d, p: strata.CandidateReport(d, p, (), Q(1, 2), 1))
        with pytest.raises(AnomalyError):
            census(4, 3, 1, reduced_only=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_index_walked_once(self, monkeypatch, workers):
        # the orbit walk stays in this process whatever the number of
        # workers, its orbits partition the indices, and the class weights
        # add up to the whole space
        from fptlib import strata

        orbits = []
        mark = strata._mark

        def recorded(maps, g, seen):
            before = bytes(seen)
            size = mark(maps, g, seen)
            orbits.append({j for j, (a, b) in enumerate(zip(before, seen)) if a != b})
            assert g in orbits[-1] and size == len(orbits[-1])
            return size

        monkeypatch.setattr(strata, "_mark", recorded)
        rep = census(5, 5, reduced_only=True, workers=workers)
        assert sum(map(len, orbits)) == rep.total
        assert set().union(*orbits) == set(range(rep.total))
        weights = sum(r.count_reduced + r.count_nonreduced for r in rep.records.values())
        assert weights + rep.unresolved + rep.skipped_nonreduced == rep.total


def _census_index(coeffs, K):
    """The census index of a nonzero coefficient list: its scalar class's
    representative (first nonzero coefficient 1) in lexicographic order."""
    q, d = K.q, len(coeffs) - 1
    t = next(i for i, c in enumerate(coeffs) if c)
    inv = K.invi(coeffs[t])
    g = 0
    for c in coeffs[t + 1:]:
        g = g * q + K.muli(inv, c)
    return (q ** (d + 1) - q ** (d + 1 - t)) // (q - 1) + g


def _per_form_census(d, p, k, reduced_only, e_cap=2):
    """The census one form at a time: a squarefree test and a threshold for
    every index, and the first index of each value as its witness."""
    from fptlib import HomForm
    from fptlib.strata import CensusReport, ValueRecord, _coeffs_of_index

    K = FieldSpec(p, k)
    total = (K.q ** (d + 1) - 1) // (K.q - 1)
    records, unresolved, skipped = {}, 0, 0
    for g in range(total):
        f = HomForm.from_coeffs(K, _coeffs_of_index(g, d, K.q))
        reduced = is_squarefree_binary(f)
        if reduced_only and not reduced:
            skipped += 1
            continue
        res = fpt_binary_exact(f, e_cap=e_cap)
        if not res.is_exact:
            unresolved += 1
            continue
        rec = records.setdefault(res.value, ValueRecord())
        if reduced:
            rec.count_reduced += 1
        else:
            rec.count_nonreduced += 1
        if rec.witness_text is None:
            rec.witness_text = f.as_text()
    return CensusReport(d, p, k, reduced_only, e_cap, total, records, unresolved, skipped)


_SLOW = pytest.mark.slow


class TestOrbitCensus:
    @pytest.mark.parametrize("d,p,k", [(4, 3, 1), (5, 5, 1), (3, 3, 2), (4, 2, 2), (6, 2, 1),
                                       (4, 5, 1), (5, 3, 1),
                                       pytest.param(5, 7, 1, marks=_SLOW),
                                       pytest.param(6, 5, 1, marks=_SLOW),
                                       pytest.param(4, 3, 2, marks=_SLOW)])
    @pytest.mark.parametrize("reduced_only", [False, True])
    def test_matches_per_form_census(self, d, p, k, reduced_only):
        want = _per_form_census(d, p, k, reduced_only).to_dict()
        assert census(d, p, k, reduced_only=reduced_only).to_dict() == want
        assert census(d, p, k, reduced_only=reduced_only, workers=3).to_dict() == want

    @_SLOW
    @pytest.mark.parametrize("d,p,want", [(7, 5, {Q(1, 5), Q(7, 25)}),
                                          (5, 11, {Q(2, 5), Q(4, 11)})])
    def test_reduced_values_match_tables(self, d, p, want):
        # spaces of 97,656 and 177,156 classes, past the per-form reference
        from fptlib.tables import reduced_fpt_values

        assert reduced_fpt_values(d, p) == want
        assert census(d, p, reduced_only=True).reduced_values() == want

    @pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2)])
    def test_threshold_invariant_under_gl2_and_frobenius(self, p, k):
        # the orbit census counts one threshold for a whole orbit, reduced or
        # not: the squarefree test and the threshold, exact or interval, must
        # not move under a coordinate change M or Frobenius.  Forms are drawn
        # as products of powers of small factors, so most are not reduced
        from hypothesis import assume, given, settings, strategies as st

        from fptlib import GFElem, HomForm, substitute_linear
        from fptlib.gfpoly import _pmul

        K = FieldSpec(p, k)
        elem = st.integers(0, K.q - 1)
        factor = st.tuples(st.lists(elem, min_size=2, max_size=3).filter(any), st.integers(1, 4))

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(st.lists(factor, min_size=1, max_size=3), st.lists(elem, min_size=4, max_size=4))
        def check(factors, entries):
            coeffs = [1]
            for factor_coeffs, mult in factors:
                for _ in range(mult):
                    coeffs = _pmul(coeffs, factor_coeffs, K)
            assume(2 <= len(coeffs) - 1 <= 8)
            a, b, c, d = entries
            assume(K.subi(K.muli(a, d), K.muli(b, c)))
            f = HomForm.from_coeffs(K, coeffs)
            M = [[GFElem(K, a), GFElem(K, b)], [GFElem(K, c), GFElem(K, d)]]
            images = [substitute_linear(f, M)]
            if k > 1:
                images.append(HomForm(K, 2, f.d, {e: K.frobi(c) for e, c in f.terms.items()}))
            want = fpt_binary_exact(f, e_cap=3)
            for h in images:
                assert is_squarefree_binary(h) == is_squarefree_binary(f)
                got = fpt_binary_exact(h, e_cap=3)
                assert (got.status, got.value, got.low, got.high) == \
                    (want.status, want.value, want.low, want.high), (f, h)

        check()

    def test_quadrics_past_byte_tables(self):
        # q = 257 > 256: field encodings no longer fit a byte.  The q^2
        # squarefree quadrics carry 1, the q + 1 squares of linear forms 1/2
        rep = census(2, 257)
        assert {v: (r.count_reduced, r.count_nonreduced) for v, r in rep.records.items()} == \
            {Q(1): (257 ** 2, 0), Q(1, 2): (0, 258)}

    def test_orbit_walk_round_trips_indices(self):
        # every generator maps census indices to census indices, and over
        # F_7 the 19,608 quintic classes fall into 73 orbits
        from fptlib.strata import _coeffs_of_index, _mark, _orbit_maps

        K = FieldSpec(7)
        maps = _orbit_maps(K, 5)
        total = (7 ** 6 - 1) // 6
        assert all(len(m) == total and max(m) < total for m in maps)
        for g in range(0, total, 97):
            assert _census_index(_coeffs_of_index(g, 5, 7), K) == g
        seen = bytearray(total)
        orbits = 0
        for g in range(total):
            if not seen[g]:
                # the first unseen index is the smallest in its orbit
                orbit = bytearray(total)
                size = _mark(maps, g, orbit)
                assert orbit.index(1) == g and size == orbit.count(1)
                _mark(maps, g, seen)
                orbits += 1
        assert orbits == 73 and all(seen)

    @pytest.mark.parametrize("d,p,k", [(4, 5, 1), (3, 3, 2), (4, 2, 2)])
    def test_orbit_closed_under_gl2_and_frobenius(self, d, p, k):
        # a walked orbit holds f∘M for every invertible M, and f's Frobenius
        # conjugate: the generators reach all of PGL_2(F_q) x| Gal(F_q/F_p)
        from fptlib import HomForm, random_form, substitute_linear
        from fptlib.strata import _mark, _orbit_maps

        K = FieldSpec(p, k)
        maps = _orbit_maps(K, d)
        rng = random.Random(d * p * k)
        for _ in range(20):
            f = random_form(K, 2, d, rng)
            M = [[K.random_elem(rng) for _ in range(2)] for _ in range(2)]
            if not M[0][0] * M[1][1] - M[0][1] * M[1][0]:
                continue
            seen = bytearray((K.q ** (d + 1) - 1) // (K.q - 1))
            _mark(maps, _census_index(f.coeff_list(), K), seen)
            assert seen[_census_index(substitute_linear(f, M).coeff_list(), K)]
            conj = HomForm(K, 2, d, {e: K.frobi(c) for e, c in f.terms.items()})
            assert seen[_census_index(conj.coeff_list(), K)]

    @pytest.mark.parametrize("d,p,k", [(6, 2, 1), (4, 3, 1), (3, 5, 1), (4, 2, 2), (3, 3, 2),
                                       (3, 2, 3), (2, 2, 4)])
    def test_index_maps_match_substitution(self, d, p, k):
        # each generator's map permutes [0, n) and sends every class to the
        # class of its image under x -> x+y, x <-> y, y -> b*y (b primitive,
        # q > 2) and Frobenius (k > 1), taken form by form
        from fptlib import HomForm, substitute_linear
        from fptlib.strata import _coeffs_of_index, _orbit_maps, _primitive_element

        K = FieldSpec(p, k)
        q = K.q
        total = (q ** (d + 1) - 1) // (q - 1)
        maps = _orbit_maps(K, d)
        moves = [lambda f, M=M: substitute_linear(f, M).coeff_list()
                 for M in ([[1, 1], [0, 1]], [[0, 1], [1, 0]])]
        if q > 2:
            b = _primitive_element(K)
            moves.append(lambda f: substitute_linear(f, [[1, 0], [0, b]]).coeff_list())
        if k > 1:
            moves.append(lambda f: [K.frobi(c) for c in f.coeff_list()])
        assert len(maps) == len(moves)
        for m in maps:
            assert sorted(m) == list(range(total))
        for g in range(total):
            f = HomForm.from_coeffs(K, _coeffs_of_index(g, d, q))
            for m, move in zip(maps, moves):
                c = move(f)
                lead = K.invi(next(a for a in c if a))
                assert _coeffs_of_index(m[g], d, q) == [K.muli(lead, a) for a in c], (g, c)


class TestWitnessSearch:
    def test_sextic_over_f5(self):
        w = trinomial_witness_search(5, 6, Q(1, 5), (0, 0, 3))
        assert w is not None
        assert w.a_value.enc == 0 and w.field.q == 5
        assert is_squarefree_binary(w.form)
        res = fpt_binary_exact(w.form)
        assert res.is_exact and res.value == Q(1, 5)

    def test_quartic_over_f3(self):
        w = trinomial_witness_search(3, 4, Q(1, 3), (1, 1, 1))
        assert w is not None and w.a_value.enc == 0
        assert w.form == parse_form("x^3*y+x*y^3", FieldSpec(3))

    def test_septic_over_f3_has_no_squarefree_specialization(self):
        # both roots of a^2 + 2 make x(x^6 + a x^3 y^3 + y^6) a sixth power
        # of a linear form times x, so the honest answer is: not found
        assert trinomial_witness_search(3, 7, Q(2, 9), (1, 0, 3)) is None

    def test_found_witnesses_meet_target(self):
        cases = [(5, 6, Q(1, 5), (0, 0, 3)), (3, 4, Q(1, 3), (1, 1, 1)),
                 (7, 6, Q(2, 7), (0, 0, 3))]
        for p, d, target, fam in cases:
            w = trinomial_witness_search(p, d, target, fam)
            assert w is not None
            res = fpt_binary_exact(w.form, e_cap=2)
            assert res.is_exact and res.value <= target

    def test_extension_field_witness(self):
        # a^2 = -2 has no root in F_7, so the sextic witness lives in F_49
        w = trinomial_witness_search(7, 6, Q(2, 7), (0, 0, 3))
        assert w is not None and w.field.q == 49
        assert fpt_binary_exact(w.form).value == Q(2, 7)

    def test_rejects_bad_family(self):
        with pytest.raises(ValidationError):
            trinomial_witness_search(5, 6, Q(1, 5), (1, 0, 3))
        with pytest.raises(ValidationError):
            trinomial_witness_search(5, 6, Q(1, 7), (0, 0, 3))
        with pytest.raises(ValidationError):
            trinomial_witness_search(5, 6, Q(1, 5), (0, 0, 3), k_max=0)


class TestVerifyGenL1:
    def test_gate_rejects_small_remainder(self):
        K = FieldSpec(7)
        with pytest.raises(ValidationError):
            verify_genL1(7, 4, 1, 1, parse_form("x^2+y^2", K))

    def test_exhaustive_quadratics_d5_p7(self):
        # 2*7 = 2*5 + 4: N=2, r=4; i=2, j=1; all valid quadratic g
        K = FieldSpec(7)
        for g0 in range(1, 7):
            for g1 in range(7):
                for g2 in range(1, 7):
                    g = parse_form(f"{g0}*x^2+{g1}*x*y+{g2}*y^2", K)
                    assert verify_genL1(7, 5, 2, 1, g) is True

    def test_exhaustive_quadratics_d7_p5(self):
        # 2*5 = 1*7 + 3: N=1, r=3; i=3, j=2
        K = FieldSpec(5)
        for g0 in range(1, 5):
            for g1 in range(5):
                for g2 in range(1, 5):
                    g = parse_form(f"{g0}*x^2+{g1}*x*y+{g2}*y^2", K)
                    assert verify_genL1(5, 7, 3, 2, g) is True

    def test_hypothesis_violations_reported(self):
        K = FieldSpec(7)
        with pytest.raises(ValidationError):
            verify_genL1(7, 5, 2, 1, parse_form("x^2+x*y", K))  # y | g
        with pytest.raises(ValidationError):
            verify_genL1(7, 5, 1, 1, parse_form("x^2+y^2", K))  # i+j too small


class TestLowerBounds:
    def test_examples(self):
        assert lower_bound_reduced(9, 3) == Q(2, 9)
        assert lower_bound_reduced(10, 3) == Q(1, 9)
        assert lower_bound_reduced(5, 7) == Q(2, 7)

    def test_census_respects_bound(self):
        for d, p in [(4, 3), (5, 2), (6, 3), (5, 7)]:
            rep = census(d, p, 1, reduced_only=True, budget=25000)
            bound = lower_bound_reduced(d, p)
            assert all(v >= bound for v in rep.reduced_values())

    def test_inadmissible_bound_is_skipped(self):
        # cubics over F_7: the first truncation 4/7 fails condition (III), so
        # nothing reduced sits below 2/3 even though the raw bound is 4/7
        rep = candidates(3, 7)
        assert not any(e.admissible for e in rep.entries)
        crep = census(3, 7, 1, reduced_only=True)
        assert crep.reduced_values() == {Q(2, 3)}

    def test_sharp_witnesses(self):
        for d, p, e in [(3, 2, 1), (6, 2, 2), (5, 3, 1), (12, 3, 2), (8, 5, 1)]:
            f = sharp_witness(d, p, e)
            assert is_squarefree_binary(f)
            assert in_frobenius_power(f, 1, e)
            assert lower_bound_reduced(d, p) == Q(1, p ** e)

    def test_sharp_witness_range_guard(self):
        with pytest.raises(ValidationError):
            sharp_witness(3, 3, 1)   # 3 < p^e + 1


class TestCensusAgainstNaiveClassifier:
    def test_quartics_over_f5_reclassified_naively(self):
        # for d=4, p=5 the classification is a single membership: a reduced
        # quartic carries 2/5 when f^2 lands in (x^5, y^5) and 1/2 otherwise;
        # re-derive the whole census with the naive expansion oracle
        from fptlib import HomForm
        from fptlib.strata import _coeffs_of_index
        from test_forms import naive_residue

        K = FieldSpec(5)
        want = {Q(1, 2): 0, Q(2, 5): 0}
        for g in range((5 ** 5 - 1) // 4):
            f = HomForm.from_coeffs(K, _coeffs_of_index(g, 4, 5))
            if not is_squarefree_binary(f):
                continue
            value = Q(2, 5) if not naive_residue(f, 2, 1) else Q(1, 2)
            want[value] += 1
        rep = census(4, 5, 1, reduced_only=True)
        got = {v: rec.count_reduced for v, rec in rep.records.items()}
        assert got == want


class TestCensusGenericConsistency:
    def test_exhaustive_max_matches_formula_at_q25(self):
        rep = census(3, 5, 2, budget=20000, e_cap=2)  # cubics over F_25
        exact_vals = set(rep.records)
        assert max(exact_vals) == generic_fpt_binary(3, 5)

    def test_admissible_truncation_witnessed_small_sweep(self):
        # for p not dividing d some admissible truncation is realized by a
        # reduced form over F_p or F_{p^2} at desk scale
        cases = [(4, 3), (5, 2), (5, 3), (6, 5), (7, 2), (8, 3), (9, 2)]
        for d, p in cases:
            rep = candidates(d, p)
            truncs = {e.value for e in rep.entries if e.admissible}
            if not truncs:
                continue
            crep = census(d, p, 1, reduced_only=True, budget=30000)
            found = crep.reduced_values() & truncs
            if not found:
                crep = census(d, p, 2, reduced_only=True, budget=400000)
                found = crep.reduced_values() & truncs
            assert found, (d, p)
