"""Exact base-p digit arithmetic on rationals.

Everything in this module is integer or Fraction arithmetic: truncations of
base-p expansions (both the non-terminating and the possibly-terminating
convention), digit extraction, multiplicative orders, binomial coefficients
mod p via digit products, and the open-interval filter that rules out
certain candidate threshold values.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import ValidationError

#: Exact rational values everywhere; no floats are used in this package.
Rat = Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for desk-scale primes."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p!r}")


class TruncationValue(namedtuple("TruncationValue", "p e numer")):
    """A truncation N/p^e of a base-p expansion, kept unreduced.

    Fields are ints: ``p``, ``e`` and ``numer``, the integer N; ``value``
    reduces it to a Fraction.  For the non-terminating convention the
    defining property is 0 < lam - N/p^e <= 1/p^e.
    """

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        return Fraction(self.numer, self.p ** self.e)

    def digits(self) -> list[int]:
        """Base-p digits of the truncated prefix, most significant first."""
        out = []
        m = self.numer
        for _ in range(self.e):
            out.append(m % self.p)
            m //= self.p
        out.reverse()
        return out


def _check_lam(lam: Fraction) -> Fraction:
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValidationError(f"lam must lie in (0, 1], got {lam}")
    return lam


def trunc(lam: Fraction, p: int, e: int, terminating: bool = False) -> TruncationValue:
    """Truncate the base-p expansion of ``lam`` at the e-th digit.

    By default the non-terminating expansion is used: the result is the unique
    N with 0 < lam - N/p^e <= 1/p^e (so a rational with denominator a power of
    p is pushed to its trailing-(p-1) expansion, e.g. 1/2 base 2 becomes
    0.0111...).  With ``terminating=True`` the plain floor of lam*p^e is taken
    instead; the two conventions differ exactly when lam*p^e is an integer.
    """
    lam = _check_lam(lam)
    require_prime(p)
    if e < 1:
        raise ValidationError(f"e must be >= 1, got {e}")
    scaled = lam * p ** e
    if terminating:
        numer = scaled.numerator // scaled.denominator
    else:
        # ceil(scaled) - 1 selects the non-terminating prefix in both cases
        numer = -((-scaled.numerator) // scaled.denominator) - 1
    return TruncationValue(p, e, numer)


def digits(lam: Fraction, p: int, e: int) -> list[int]:
    """First e digits of the non-terminating base-p expansion of ``lam``."""
    return trunc(lam, p, e).digits()


def mult_order(p: int, b: int) -> int:
    """Order of p in (Z/bZ)^*; requires gcd(p, b) = 1.  Order mod 1 is 1."""
    if b < 1:
        raise ValidationError(f"modulus must be positive, got {b}")
    if gcd(p, b) != 1:
        raise ValidationError(f"gcd({p}, {b}) != 1; multiplicative order undefined")
    if b == 1:
        return 1
    e = 1
    r = p % b
    while r != 1:
        r = r * p % b
        e += 1
    return e


def min_e_two_p_pow(d: int, p: int, target: int) -> int | None:
    """Smallest e >= 1 with 2*p^e == target (mod d), or None if none exists.

    The sequence p^e mod d is eventually periodic, so revisiting a residue
    without a hit certifies absence.
    """
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    require_prime(p)
    if target not in (1, 2):
        raise ValidationError(f"target must be 1 or 2, got {target}")
    seen: set[int] = set()
    r = 1
    e = 0
    while True:
        e += 1
        r = r * p % d
        if (2 * r - target) % d == 0:
            return e
        if r in seen:
            return None
        seen.add(r)


def lucas_binom(m: int, k: int, p: int) -> int:
    """C(m, k) mod p computed digit-by-digit in base p."""
    require_prime(p)
    if k < 0 or k > m:
        return 0
    out = 1
    while m or k:
        mi, ki = m % p, k % p
        if ki > mi:
            return 0
        # C(mi, ki) mod p with mi, ki < p
        num = den = 1
        for t in range(ki):
            num = num * (mi - t) % p
            den = den * (t + 1) % p
        out = out * num * pow(den, -1, p) % p
        m //= p
        k //= p
    return out % p


def bms_excluded(lam: Fraction, p: int) -> bool:
    """True iff lam lies strictly inside (1/p, 1/(p-1)).

    Values in that open interval cannot occur as thresholds; this implements
    only the single interval family actually needed by the candidate filter.
    """
    lam = _check_lam(lam)
    require_prime(p)
    return Fraction(1, p) < lam < Fraction(1, p - 1)
