"""Exact F-pure thresholds of homogeneous forms over finite fields.

The package computes, with exact rational arithmetic throughout:

- residues of powers f^N modulo Frobenius powers (x_1^{p^e}, ..., x_n^{p^e})
  and the membership tests built on them;
- exact thresholds for binary forms (complete classification-driven engine),
  monomials, linear forms, forms with a dominant linear factor and perfect
  powers in any arity, and certified intervals elsewhere;
- the closed-form generic (maximal) threshold for given (n, d, p);
- candidate filters, exhaustive censuses of coefficient spaces, trinomial
  witness searches, and sharp lower-bound witnesses.
"""

from .errors import AnomalyError, BudgetError, ParseError, ValidationError
from .forms import (
    HomForm,
    coeff_of_power,
    in_frobenius_power,
    is_squarefree_binary,
    parse_form,
    perfect_power_decompose,
    pow_mod_frobenius,
    random_form,
    substitute_linear,
)
from .fptengine import FptResult, MembershipCheck, fpt_binary_exact, fpt_bounds, fpt_general, fpt_monomial, nu
from .genericfpt import GenericFptReport, check_keylemma_condition, generic_fpt, generic_fpt_binary, sample_max_fpt
from .gfpoly import FieldSpec, GFElem, UPoly
from .ratbase import (
    Rat,
    TruncationValue,
    bms_excluded,
    digits,
    lucas_binom,
    min_e_two_p_pow,
    mult_order,
    trunc,
)
from .strata import (
    CandidateEntry,
    CandidateReport,
    CensusReport,
    WitnessResult,
    candidates,
    census,
    hnwz_flags,
    lower_bound_reduced,
    sharp_witness,
    trinomial_obstructions,
    trinomial_witness_search,
    verify_genL1,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyError", "BudgetError", "ParseError", "ValidationError",
    "FieldSpec", "GFElem", "UPoly",
    "Rat", "TruncationValue", "trunc", "digits", "mult_order",
    "min_e_two_p_pow", "lucas_binom", "bms_excluded",
    "HomForm", "pow_mod_frobenius", "in_frobenius_power",
    "coeff_of_power", "is_squarefree_binary", "perfect_power_decompose",
    "substitute_linear", "parse_form", "random_form",
    "FptResult", "MembershipCheck", "nu", "fpt_bounds", "fpt_monomial",
    "fpt_binary_exact", "fpt_general",
    "GenericFptReport", "generic_fpt", "generic_fpt_binary",
    "check_keylemma_condition", "sample_max_fpt",
    "CandidateEntry", "CandidateReport", "CensusReport", "WitnessResult",
    "hnwz_flags", "candidates", "census", "trinomial_obstructions",
    "trinomial_witness_search",
    "verify_genL1", "lower_bound_reduced", "sharp_witness",
    "__version__",
]
