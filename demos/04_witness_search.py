"""Hunting explicit witnesses for small strata.

For a target truncation N/p^e, the one-parameter family
x^i y^j (x^{2m} + a x^m y^m + y^{2m}) is raised to the N-th power: each
coefficient that survives the Frobenius-power truncation is a sum of
multinomials C(N, k2) C(N-k2, k3) a^{k2} mod p, a polynomial in a that must
vanish.  Any root of their gcd that keeps the specialized form squarefree is
a certified witness.
"""

from fractions import Fraction as Q

from fptlib import (
    FieldSpec,
    census,
    fpt_binary_exact,
    is_squarefree_binary,
    parse_form,
    trinomial_witness_search,
)

# -- a witness in the prime field ------------------------------------------------
print("sextics over F_5, target 1/5:")
w = trinomial_witness_search(5, 6, Q(1, 5), (0, 0, 3))
print(f"  obstruction gcd: {w.obstruction}; root a = {w.a_value} over F_{w.field.q}")
print(f"  witness {w.form.as_text()}, threshold "
      f"{fpt_binary_exact(w.form).describe()}")

# -- a witness that needs the quadratic extension ----------------------------------
print("\nsextics over F_7, target 2/7 (a^2 = -2 has no root mod 7):")
w = trinomial_witness_search(7, 6, Q(2, 7), (0, 0, 3))
print(f"  root a = {w.a_value} over F_{w.field.q}; witness {w.form.as_text()}")
print(f"  threshold {fpt_binary_exact(w.form).describe()}")

# -- honest failure: every root degenerates ------------------------------------------
print("\nseptics over F_3, target 2/9, family x(x^6 + a x^3 y^3 + y^6):")
w = trinomial_witness_search(3, 7, Q(2, 9), (1, 0, 3))
print(f"  search result: {w}")
print("  the obstruction a^2 + 2 has roots a = 1, 2 over F_3, but both turn")
print("  x^6 + a x^3 y^3 + y^6 into the sixth power of a linear form, so no")
print("  squarefree specialization exists in this family")

# -- the stratum is nonempty anyway: a census finds true witnesses -------------------
print("\nthe 2/9 stratum for septics over F_3 is nonempty all the same:")
rep = census(7, 3, 1, reduced_only=True, budget=5000)
rec = rep.records[Q(2, 9)]
print(f"  {rec.count_reduced} reduced forms over F_3 at 2/9, "
      f"first witness {rec.witness_text}")

# -- a subtler discovery at the same degree --------------------------------------------
print("\nthe same census shows a third value between 2/9 and 23/81:")
for v, rec in sorted(rep.records.items()):
    print(f"  {str(v):>6}: {rec.count_reduced:>5} reduced forms, "
          f"witness {rec.witness_text}")
f = parse_form("x^7+y^7", FieldSpec(3))
print(f"  x^7+y^7 over F_3 is reduced: {is_squarefree_binary(f)}, threshold "
      f"{fpt_binary_exact(f).describe()}")
print("  indeed f^2 keeps the term 2 x^7 y^7 away from (x^9, y^9), while")
print("  every term of f^7 = sum C(7,i) x^{7i} y^{49-7i} has an exponent >= 27,")
print("  so the threshold is pinned to the third truncation 7/27 of 2/7 base 3")
