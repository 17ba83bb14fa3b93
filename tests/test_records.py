"""Result records: plain named tuples and a namespace, and what importing
the package loads."""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import fptlib
from fptlib import FieldSpec, parse_form
from fptlib.strata import CensusReport, ValueRecord

ROOT = Path(__file__).resolve().parent.parent

# stdlib modules that the dataclass machinery pulls in
_HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("stmt,absent", [
    ("import fptlib", _HEAVY),
    ("import fptlib.cli", _HEAVY | {"json", "csv"}),
    ("from fptlib.cli import main; main(['fpt', '--p', '7', '--poly', 'x^5+y^5'])",
     _HEAVY | {"json", "csv"}),
])
def test_import_loads_no_heavy_stdlib(stmt, absent):
    # compared with the same interpreter before the import: site hooks may
    # preload modules of their own
    code = ("import sys; before = set(sys.modules); " + stmt +
            "; print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    added = set(out.stdout.splitlines()[-1].split())
    assert "fptlib" in added
    assert not added & absent


def _fpt():
    return fptlib.fpt_general(parse_form("x^5+y^5", FieldSpec(7, 1)))


def _witness():
    return fptlib.trinomial_witness_search(5, 6, Q(8, 25), (0, 0, 3))


# (build, to_dict as sorted JSON, repr), the literals as printed before the
# records were named tuples
FROZEN = {
    "MembershipCheck": (
        lambda: _fpt().certificates[0],
        '{"N": 2, "e": 1, "member": false}',
        "MembershipCheck(N=2, e=1, member=False)"),
    "FptResult": (
        _fpt,
        '{"L": 2, "certificates": [{"N": 2, "e": 1, "member": false}, '
        '{"N": 19, "e": 2, "member": true}], "method": "truncation-candidate", '
        '"schema_version": 1, "status": "exact", "value": "19/49"}',
        "FptResult(status='exact', method='truncation-candidate', value=Fraction(19, 49), "
        "low=None, high=None, L=2, certificates=(MembershipCheck(N=2, e=1, member=False), "
        "MembershipCheck(N=19, e=2, member=True)))"),
    "TraceRow": (
        lambda: fptlib.generic_fpt(2, 7, 3).trace[0],
        '{"L": 1, "N_L": 0, "cond_a": true, "cond_b": false, "remainder": 6}',
        "TraceRow(L=1, N_L=0, remainder=6, cond_a=True, cond_b=False)"),
    "GenericFptReport": (
        lambda: fptlib.generic_fpt(2, 5, 7),
        '{"L": 3, "d": 5, "inequality_trace": [{"L": 1, "N_L": 2, "cond_a": true, '
        '"cond_b": false, "remainder": 4}, {"L": 2, "N_L": 19, "cond_a": true, '
        '"cond_b": false, "remainder": 3}, {"L": 3, "N_L": 137, "cond_a": true, '
        '"cond_b": true, "remainder": 1}], "n": 2, "p": 7, "schema_version": 1, '
        '"value": "137/343"}',
        "GenericFptReport(n=2, d=5, p=7, value=Fraction(137, 343), L=3, "
        "trace=(TraceRow(L=1, N_L=2, remainder=4, cond_a=True, cond_b=False), "
        "TraceRow(L=2, N_L=19, remainder=3, cond_a=True, cond_b=False), "
        "TraceRow(L=3, N_L=137, remainder=1, cond_a=True, cond_b=True)))"),
    "CandidateEntry": (
        lambda: fptlib.candidates(5, 3).entries[2],
        '{"L": 3, "above_generic": true, "admissible": false, "bms_excluded": true, '
        '"cond_I": true, "cond_II": true, "cond_III": false, "value": "10/27"}',
        "CandidateEntry(L=3, value=Fraction(10, 27), cond_I=True, cond_II=True, "
        "cond_III=False, bms_excluded=True, above_generic=True)"),
    "CandidateReport": (
        lambda: fptlib.candidates(5, 7),
        '{"d": 5, "entries": [{"L": 1, "above_generic": false, "admissible": false, '
        '"bms_excluded": false, "cond_I": true, "cond_II": true, "cond_III": false, '
        '"value": "2/7"}, {"L": 2, "above_generic": false, "admissible": true, '
        '"bms_excluded": false, "cond_I": true, "cond_II": true, "cond_III": true, '
        '"value": "19/49"}, {"L": 3, "above_generic": false, "admissible": true, '
        '"bms_excluded": false, "cond_I": true, "cond_II": true, "cond_III": true, '
        '"value": "137/343"}, {"L": 4, "above_generic": true, "admissible": false, '
        '"bms_excluded": false, "cond_I": true, "cond_II": false, "cond_III": true, '
        '"value": "960/2401"}], "generic_L": 3, "generic_value": "137/343", "p": 7, '
        '"schema_version": 1}',
        "CandidateReport(d=5, p=7, entries=("
        "CandidateEntry(L=1, value=Fraction(2, 7), cond_I=True, cond_II=True, "
        "cond_III=False, bms_excluded=False, above_generic=False), "
        "CandidateEntry(L=2, value=Fraction(19, 49), cond_I=True, cond_II=True, "
        "cond_III=True, bms_excluded=False, above_generic=False), "
        "CandidateEntry(L=3, value=Fraction(137, 343), cond_I=True, cond_II=True, "
        "cond_III=True, bms_excluded=False, above_generic=False), "
        "CandidateEntry(L=4, value=Fraction(960, 2401), cond_I=True, cond_II=False, "
        "cond_III=True, bms_excluded=False, above_generic=True)), "
        "generic_value=Fraction(137, 343), generic_L=3)"),
    "WitnessResult": (
        _witness,
        '{"a": "0", "field": "F_5", "form": "x^6+y^6", "obstruction_gcd": "a^8+a^6", '
        '"schema_version": 1, "target": "8/25"}',
        "WitnessResult(a_value=GFElem(FieldSpec(p=5, k=1), 0), field=FieldSpec(p=5, k=1), "
        "form=HomForm('x^6+y^6' over FieldSpec(p=5, k=1)), target=Fraction(8, 25), "
        "obstruction='a^8+a^6')"),
}

CENSUS_JSON = (
    '{"d": 3, "e_cap": 2, "k": 1, "p": 2, "reduced_only": false, "schema_version": 1, '
    '"skipped_nonreduced": 0, "total": 15, "unresolved": 0, "values": '
    '{"1/2": {"count_nonreduced": 6, "count_reduced": 6, "witness": "x^3+y^3"}, '
    '"1/3": {"count_nonreduced": 3, "count_reduced": 0, "witness": "x^3"}}}')


def _dumps(x) -> str:
    return json.dumps(x.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record(name):
    build, as_json, text = FROZEN[name]
    x = build()
    assert type(x).__name__ == name
    assert x == build()
    assert pickle.loads(pickle.dumps(x)) == x
    assert _dumps(x) == as_json
    assert repr(x) == text
    assert hash(x) == hash(build())
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], None)
    # a named tuple: positional, iterable, equal to the plain tuple of its fields
    assert tuple(x) == x
    assert type(x)(*x) == x


def test_truncation_value():
    t = fptlib.trunc(Q(2, 7), 3, 4)
    assert repr(t) == "TruncationValue(p=3, e=4, numer=23)"
    assert t == fptlib.TruncationValue(3, 4, 23)
    assert (t.value, t.digits()) == (Q(23, 81), [0, 2, 1, 2])
    assert pickle.loads(pickle.dumps(t)) == t
    assert hash(t) == hash(fptlib.TruncationValue(3, 4, 23))
    with pytest.raises(AttributeError):
        t.numer = 1


def test_fpt_result_defaults():
    r = fptlib.FptResult("exact", "monomial", value=Q(1, 2))
    assert (r.low, r.high, r.L, r.certificates) == (None, None, None, ())


def test_census_report():
    rep = fptlib.census(3, 2)
    assert _dumps(rep) == CENSUS_JSON
    assert rep == fptlib.census(3, 2)
    assert pickle.loads(pickle.dumps(rep)) == rep
    with pytest.raises(TypeError):
        hash(rep)                     # its records are a dict
    with pytest.raises(AttributeError):
        rep.total = 0
    short = CensusReport(*rep[:7])
    assert (short.unresolved, short.skipped_nonreduced) == (0, 0)
    assert CensusReport(*rep) == rep


def test_value_record():
    rec = ValueRecord()
    assert repr(rec) == ("ValueRecord(count_reduced=0, count_nonreduced=0, witness_index=None, "
                         "witness_coeffs=None, witness_text=None)")
    rec.count_reduced += 2
    rec.witness_text = "x^3"
    assert rec == ValueRecord(2, witness_text="x^3")
    assert rec != ValueRecord()
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert json.dumps(rec.to_dict(), sort_keys=True) == \
        '{"count_nonreduced": 0, "count_reduced": 2, "witness": "x^3"}'
    with pytest.raises(TypeError):
        hash(rec)


def test_public_names_unchanged():
    assert sorted(fptlib.__all__) == sorted([
        "AnomalyError", "BudgetError", "CandidateEntry", "CandidateReport", "CensusReport",
        "FieldSpec", "FptResult", "GFElem", "GenericFptReport", "HomForm", "MembershipCheck",
        "ParseError", "Rat", "TruncationValue", "UPoly", "ValidationError", "WitnessResult",
        "__version__", "bms_excluded", "candidates", "census", "check_keylemma_condition",
        "coeff_of_power", "digits", "fpt_binary_exact", "fpt_bounds", "fpt_general",
        "fpt_monomial", "generic_fpt", "generic_fpt_binary", "hnwz_flags",
        "in_frobenius_power", "is_squarefree_binary", "lower_bound_reduced", "lucas_binom",
        "min_e_two_p_pow", "mult_order", "nu", "parse_form", "perfect_power_decompose",
        "pow_mod_frobenius", "random_form", "sample_max_fpt", "sharp_witness",
        "substitute_linear", "trinomial_obstructions", "trinomial_witness_search", "trunc",
        "verify_genL1"])
    for name in fptlib.__all__:
        assert getattr(fptlib, name) is not None
