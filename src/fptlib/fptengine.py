"""Exact F-pure thresholds and certified intervals.

For a nonzero form f over F_{p^k} and the maximal ideal at the origin, the
threshold is sup{N/p^e : f^N not in (x_1^{p^e}, ..., x_n^{p^e})}.  Membership
tests therefore bracket it: with nu = max{N : f^N outside} at depth e the
threshold lies in (nu/p^e, (nu+1)/p^e].

For binary forms a complete exact algorithm exists: the threshold of a
squarefree form of degree d is either 2/d or a truncation of the base-p
expansion of 2/d, so testing the truncation numerators from the shallowest
depth up pins it down; passing at depth L while failing at L-1 leaves
exactly one admissible value.  Monomials, linear forms and perfect powers
reduce by explicit rules in any number of variables; everything else falls
back to a certified interval of width p^-e_cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .forms import (HomForm, ResidueLadder, in_frobenius_power, is_squarefree_binary,
                    perfect_power_decompose)
from .ratbase import mult_order


@dataclass(frozen=True)
class MembershipCheck:
    """One recorded test: is f^N in the e-th Frobenius power?"""

    N: int
    e: int
    member: bool

    def to_dict(self) -> dict:
        return {"N": self.N, "e": self.e, "member": self.member}


@dataclass(frozen=True)
class FptResult:
    """Exact value or certified half-open interval, with the test trail.

    ``method`` is one of: monomial, power-rule, prime-power-degree,
    truncation-candidate, generic-two-over-d, bounded-fallback.
    """

    status: str                       # "exact" | "interval"
    method: str
    value: Fraction | None = None
    low: Fraction | None = None       # interval (low, high]
    high: Fraction | None = None
    L: int | None = None
    certificates: tuple[MembershipCheck, ...] = ()

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"

    def scaled(self, r: int) -> "FptResult":
        """The result for f^r given the result for f (threshold divides by r)."""
        if self.is_exact:
            return FptResult("exact", "power-rule", value=self.value / r,
                             certificates=self.certificates)
        return FptResult("interval", "power-rule", low=self.low / r,
                         high=self.high / r, certificates=self.certificates)

    def to_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "status": self.status,
            "method": self.method,
        }
        if self.is_exact:
            out["value"] = str(self.value)
        else:
            out["low"] = str(self.low)
            out["high"] = str(self.high)
        if self.L is not None:
            out["L"] = self.L
        out["certificates"] = [c.to_dict() for c in self.certificates]
        return out

    def describe(self) -> str:
        if self.is_exact:
            tail = f", L={self.L}" if self.L is not None else ""
            return f"{self.value} (exact, {self.method}{tail})"
        return f"({self.low}, {self.high}] (interval, {self.method})"


def nu(f: HomForm, e: int, certs: list | None = None) -> int:
    """Largest N with f^N outside the e-th Frobenius power.

    Monotone in N, so binary search on [0, ceil(min(n,d)/d * p^e) + 1].
    """
    if e < 1:
        raise ValidationError("depth e must be >= 1")
    p = f.field.p
    cap = min(f.n, f.d) * p ** e
    hi = -(-cap // f.d) + 1          # known member
    lo = 0                           # f^0 = 1 is outside
    while hi - lo > 1:
        mid = (lo + hi) // 2
        member = in_frobenius_power(f, mid, e)
        if certs is not None:
            certs.append(MembershipCheck(mid, e, member))
        if member:
            hi = mid
        else:
            lo = mid
    return lo


def fpt_bounds(f: HomForm, e: int, certs: list | None = None) -> tuple[Fraction, Fraction]:
    """The certified half-open interval (nu/p^e, (nu+1)/p^e] containing fpt(f)."""
    v = nu(f, e, certs)
    q = f.field.p ** e
    return Fraction(v, q), Fraction(v + 1, q)


def fpt_monomial(exps) -> Fraction:
    """min over positive exponents a_i of 1/a_i."""
    pos = [a for a in exps if a > 0]
    if not pos:
        raise ValidationError("the zero exponent vector is not a monomial")
    if any(a < 0 for a in exps):
        raise ValidationError("negative exponents are not allowed")
    return Fraction(1, max(pos))


def _is_prime_power_degree(d: int, p: int) -> bool:
    """d = p^t (t >= 1) or d = 2*p^t (t >= 0)."""
    m = d
    while m % p == 0:
        m //= p
    return m == 2 or (m == 1 and d > 1)


def _interval_result(f: HomForm, e_cap: int) -> FptResult:
    certs: list[MembershipCheck] = []
    lo, hi = fpt_bounds(f, e_cap, certs)
    return FptResult("interval", "bounded-fallback", low=lo, high=hi,
                     certificates=tuple(certs))


def fpt_binary_exact(f: HomForm, e_cap: int | None = None) -> FptResult:
    """The threshold of a binary form (see fpt_general)."""
    if f.n != 2:
        raise ValidationError("fpt_binary_exact needs a binary form")
    return fpt_general(f, e_cap)


def fpt_general(f: HomForm, e_cap: int | None = None) -> FptResult:
    """Threshold in any number of variables, exact wherever the rules reach.

    Dispatch: monomials and linear forms by the explicit rule; perfect powers
    by fpt(g^r) = fpt(g)/r; squarefree binary forms of degree p^t or 2p^t
    get 2/d; other squarefree binary forms with p coprime to the reduced
    denominator b of 2/d are resolved by testing the truncation numerators
    N_L for L = 1..ord_b(p) (smallest passing depth wins, no pass means 2/d);
    the rest fall back to a certified interval at depth ``e_cap``, by default
    8 for binary forms and 4 otherwise.
    """
    if e_cap is None:
        e_cap = 8 if f.n == 2 else 4
    if f.is_monomial():
        exps = next(iter(f.terms))
        return FptResult("exact", "monomial", value=fpt_monomial(exps))
    if f.d == 1:
        # a linear form becomes a coordinate after a change of variables
        return FptResult("exact", "monomial", value=Fraction(1))
    # a squarefree form of degree >= 2 is never a proper power
    if f.n != 2 or not is_squarefree_binary(f):
        g, r = perfect_power_decompose(f.monic())
        if r > 1:
            return fpt_general(g, e_cap).scaled(r)
        return _interval_result(f, e_cap)
    p, d = f.field.p, f.d
    if _is_prime_power_degree(d, p):
        return FptResult("exact", "prime-power-degree", value=Fraction(2, d))
    lam = Fraction(2, d)
    b = lam.denominator
    if b % p == 0:
        return _interval_result(f, e_cap)
    # one ladder state walks the truncations: N_L = p N_{L-1} + c_L, and the
    # residue at depth L continues from the one at depth L-1.  The digits c_L
    # come by long division; gcd(b, p) = 1 and b > 1, so no remainder is 0
    estar = mult_order(p, b)
    ladder = ResidueLadder(f, 0, max(p ** estar, d))
    certs: list[MembershipCheck] = []
    NL, rem = 0, lam.numerator
    for L in range(1, estar + 1):
        c, rem = divmod(rem * p, b)
        NL = p * NL + c
        ladder.rise(c)
        if NL == 0:
            continue
        member = not ladder.terms
        certs.append(MembershipCheck(NL, L, member))
        if member:
            # fails at L-1 (or the bracket is vacuous), so the only admissible
            # classification value <= N_L/p^L and > the previous truncation is
            # exactly the L-th truncation
            return FptResult("exact", "truncation-candidate",
                             value=Fraction(NL, p ** L), L=L,
                             certificates=tuple(certs))
    # no truncation passed: the classification leaves only 2/d.  f^(N_L + 1)
    # needs no test: d(N_L + 1) > 2p^L puts it inside depth L by degree alone
    return FptResult("exact", "generic-two-over-d", value=lam,
                     certificates=tuple(certs))
