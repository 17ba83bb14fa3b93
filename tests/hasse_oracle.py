"""The Hasse invariant of a Hesse cubic, without fptlib.

For f = x1^3 + x2^3 + x3^3 + t x1 x2 x3 over F_p, the multinomial expansion
of f^(p-1) gives x1^(3a+k) x2^(3b+k) x3^(3c+k) t^k with a + b + c + k = p - 1.
Its monomial (x1 x2 x3)^(p-1) needs a = b = c and k = p - 1 - 3a, so its
coefficient is the sum over 3a <= p - 1 of (p-1)! / (a!^3 k!) t^k.  The curve
f = 0 is smooth when t^3 != -27 (and p != 3); then it is ordinary when this
coefficient is nonzero and supersingular when it is zero, and by Bhatt-Singh
("The F-pure threshold of a Calabi-Yau hypersurface", Math. Ann. 2015) nu(e)
is p^e - 1 in the first case and p^(e-1) (p - 1) - 1 in the second.
"""

from __future__ import annotations

from math import comb


def hesse_hasse(p: int, t: int) -> int:
    """The coefficient of (x1 x2 x3)^(p-1) in (x1^3 + x2^3 + x3^3 + t x1 x2 x3)^(p-1)
    over F_p, as an integer in [0, p)."""
    total = 0
    for a in range((p - 1) // 3 + 1):
        k = p - 1 - 3 * a
        total += comb(p - 1, k) * comb(3 * a, a) * comb(2 * a, a) * pow(t, k, p)
    return total % p
