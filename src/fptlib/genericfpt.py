"""Closed-form maximal (generic) thresholds, plus randomized spot checks.

For degree d >= n the maximum threshold over all degree-d forms in n
variables is either n/d or the truncation of its non-terminating base-p
expansion at the smallest place L where (a) p^L * n/d is not an integer and
(b) the remainder of n*p^L mod d drops below n.  For binary forms this
simplifies to the smallest e with 2 p^e = 1 (mod d).  The search is bounded:
the remainder sequence is eventually periodic, and condition (a) can only
fail from some explicit place on, so a revisited residue certifies absence.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .errors import ValidationError
from .fptengine import fpt_general
from .forms import random_form
from .gfpoly import FieldSpec
from .ratbase import require_prime, trunc


class TraceRow(namedtuple("TraceRow", "L N_L remainder cond_a cond_b")):
    """One place of the generic search: ``L``, ``N_L`` and ``remainder``
    (int), ``cond_a`` and ``cond_b`` (bool)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"L": self.L, "N_L": self.N_L, "remainder": self.remainder,
                "cond_a": self.cond_a, "cond_b": self.cond_b}


class GenericFptReport(namedtuple("GenericFptReport", "n d p value L trace")):
    """The generic threshold: ``n``, ``d`` and ``p`` (int), ``value``
    (Fraction), ``L`` (int, the truncation place, or None when the value is
    n/d or 1) and ``trace``, a tuple of TraceRow."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n, "d": self.d, "p": self.p,
            "value": str(self.value),
            "L": self.L,
            "inequality_trace": [r.to_dict() for r in self.trace],
        }

    def describe(self) -> str:
        return f"{self.value}, L={'absent' if self.L is None else self.L}"


def generic_fpt(n: int, d: int, p: int) -> GenericFptReport:
    """Maximal threshold of degree-d forms in n variables over char p."""
    if n < 1 or d < 1:
        raise ValidationError("need n >= 1 and d >= 1")
    require_prime(p)
    if n >= d:
        return GenericFptReport(n, d, p, Fraction(1), None, ())
    lam = Fraction(n, d)
    b = lam.denominator
    # condition (a) fails exactly when b is a p-power p^t with t <= L
    t_fail = None
    m = b
    tv = 0
    while m % p == 0:
        m //= p
        tv += 1
    if m == 1:
        t_fail = tv
    trace: list[TraceRow] = []
    seen: set[int] = set()
    r = 1
    L = 0
    while True:
        L += 1
        r = r * p % d
        cond_a = t_fail is None or L < t_fail
        rem = n * r % d
        NL = trunc(lam, p, L).numer
        cond_b = rem < n
        trace.append(TraceRow(L, NL, rem, cond_a, cond_b))
        if not cond_a:
            break  # fails for every larger L as well
        if cond_b:
            return GenericFptReport(n, d, p, Fraction(NL, p ** L), L, tuple(trace))
        if r in seen:
            break  # full cycle of remainders without a hit
        seen.add(r)
    return GenericFptReport(n, d, p, lam, None, tuple(trace))


def generic_fpt_binary(d: int, p: int) -> Fraction:
    """Maximal threshold for binary degree-d forms: the truncation of 2/d at
    the smallest e with 2 p^e = 1 (mod d), else 2/d itself."""
    if d < 2:
        raise ValidationError("need d >= 2")
    return generic_fpt(2, d, p).value


def check_keylemma_condition(n: int, d: int, p: int, L: int) -> bool:
    """True iff d*N_j <= n*p^j - n for every 1 <= j <= L, where N_j is the
    truncation numerator of n/d at depth j."""
    if d < n:
        raise ValidationError("requires d >= n")
    require_prime(p)
    lam = Fraction(n, d)
    for j in range(1, L + 1):
        if d * trunc(lam, p, j).numer > n * p ** j - n:
            return False
    return True


def sample_max_fpt(n: int, d: int, p: int, k: int, trials: int,
                   e_cap: int = 3, seed: int = 0) -> tuple[Fraction | None, int]:
    """Empirical maximum threshold over uniformly random degree-d forms.

    Returns (max exact value seen, number of samples attaining it).  Samples
    that only admit an interval are skipped for the maximum.  With n = 2 and
    p not dividing the reduced denominator of 2/d every squarefree sample is
    exact, but one with a repeated factor and no dominant linear factor need
    not be: x^2*y^2*(x+y) over F_3 gives (2/9, 1/3] at e_cap 2.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    K = FieldSpec(p, k)
    rng = random.Random(seed)
    best: Fraction | None = None
    count = 0
    for _ in range(trials):
        f = random_form(K, n, d, rng)
        res = fpt_general(f, e_cap)
        if not res.is_exact:
            continue
        v = res.value
        if best is None or v > best:
            best, count = v, 1
        elif v == best:
            count += 1
    return best, count
