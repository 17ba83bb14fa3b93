"""Reference tables: thresholds of reduced binary forms in degrees 3..8.

Each entry lists, per congruence class of p, every value that occurs as the
threshold of some reduced degree-d form over the algebraic closure.  Two
rows differ from older published lists, with explicit counterexamples:

- d = 5, p = 2: besides 1/4 the generic value 3/8 occurs; the reduced
  quintic x^5 + x^3 y^2 + x y^4 + y^5 over F_2 attains it (18 of the 24
  reduced quintics over F_2 do).
- d = 7, p = 3: besides 2/9 and 23/81 the middle truncation 7/27 occurs;
  x^7 + y^7 over F_3 attains it (f^2 keeps the term 2 x^7 y^7 away from
  (x^9, y^9), while every term of f^7 lands in (x^27, y^27)).  The base-3
  expansion of 2/7 starts 0.021..., not 0.020..., so the third truncation
  is a genuine extra candidate and the census realizes it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .ratbase import require_prime

F = Fraction


def reduced_fpt_values(d: int, p: int) -> frozenset[Fraction]:
    """The set of thresholds of reduced degree-d binary forms, 3 <= d <= 8."""
    require_prime(p)
    if d == 3:
        if p % 3 == 2:
            return frozenset({F(2 * p - 1, 3 * p)})
        return frozenset({F(2, 3)})
    if d == 4:
        if p == 2:
            return frozenset({F(1, 2)})
        return frozenset({F(1, 2), F(p - 1, 2 * p)})
    if d == 5:
        if p == 5:
            return frozenset({F(2, 5)})
        r = p % 5
        if r == 1:
            return frozenset({F(2, 5), F(2 * p - 2, 5 * p)})
        if r == 2:
            if p == 2:
                return frozenset({F(1, 4), F(3, 8)})
            return frozenset({F(2 * p**2 - 3, 5 * p**2), F(2 * p**3 - 1, 5 * p**3)})
        if r == 3:
            return frozenset({F(2 * p - 1, 5 * p)})
        return frozenset({F(2, 5), F(2 * p - 3, 5 * p), F(2 * p**2 - 2, 5 * p**2)})
    if d == 6:
        if p == 3:
            return frozenset({F(1, 3)})
        if p % 3 == 1:
            return frozenset({F(1, 3), F(p - 1, 3 * p)})
        if p == 2:
            return frozenset({F(1, 3), F(1, 4)})
        return frozenset({F(1, 3), F(p - 2, 3 * p), F(p**2 - 1, 3 * p**2)})
    if d == 7:
        if p == 7:
            return frozenset({F(2, 7)})
        r = p % 7
        if r == 1:
            return frozenset({F(2, 7), F(2 * p - 2, 7 * p)})
        if r == 2:
            if p == 2:
                return frozenset({F(1, 4)})
            return frozenset({F(2 * p - 4, 7 * p), F(2 * p**2 - 1, 7 * p**2)})
        if r == 3:
            # the general formulas hold at p = 3 as well: x^7 + y^7 over F_3
            # attains (2p^3 - 5)/(7 p^3) = 7/27 (f^2 has the surviving term
            # 2 x^7 y^7 mod (x^9, y^9), while f^7 dies in (x^27, y^27))
            return frozenset({F(2 * p**2 - 4, 7 * p**2), F(2 * p**3 - 5, 7 * p**3),
                              F(2 * p**4 - 1, 7 * p**4)})
        if r == 4:
            return frozenset({F(2 * p - 1, 7 * p)})
        if r == 5:
            return frozenset({F(2 * p - 3, 7 * p), F(2 * p**2 - 1, 7 * p**2)})
        return frozenset({F(2, 7), F(2 * p - 5, 7 * p), F(2 * p**2 - 2, 7 * p**2)})
    if d == 8:
        if p == 2:
            return frozenset({F(1, 4)})
        if p % 4 == 1:
            return frozenset({F(1, 4), F(p - 1, 4 * p)})
        if p == 3:
            return frozenset({F(1, 4), F(2, 9)})
        return frozenset({F(1, 4), F(p - 3, 4 * p), F(p**2 - 1, 4 * p**2)})
    raise ValidationError(f"no reference table for degree {d} (supported: 3..8)")
