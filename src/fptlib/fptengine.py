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
reduce by explicit rules in any number of variables, and so does a form with
a dominant linear factor: f = l^a g with l rational, l not dividing g and
2a >= d has threshold 1/a.  Everything else falls back to a certified
interval of width p^-e_cap.

Every binary answer is invariant under linear coordinate changes and Galois
conjugation: the dominant-factor rule covers every binary monomial, the
other rules and the interval (nu/p^e, (nu+1)/p^e] do not see coordinates,
since m^[p^e] is generated by the p^e-th powers of any basis of m.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import AnomalyError, ValidationError
from .forms import (HomForm, ResidueLadder, affine_part, in_frobenius_power,
                    is_squarefree_binary, perfect_power_decompose, repeated_part)
from .gfpoly import UPoly
from .ratbase import mult_order


class MembershipCheck(namedtuple("MembershipCheck", "N e member")):
    """One recorded test: is f^N in the e-th Frobenius power?

    Fields: ``N`` and ``e`` (int), ``member`` (bool).  An interval's checks
    are nu's bisection trail, member = N > nu, proved by nu's walk (see nu).
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"N": self.N, "e": self.e, "member": self.member}


class FptResult(namedtuple("FptResult", "status method value low high L certificates",
                           defaults=(None, None, None, None, ()))):
    """Exact value or certified half-open interval, with the test trail.

    Fields: ``status``, "exact" or "interval"; ``method``, one of monomial,
    dominant-factor, power-rule, prime-power-degree, truncation-candidate,
    generic-two-over-d, bounded-fallback; ``value`` (Fraction or None);
    ``low`` and ``high`` (Fraction or None), the interval (low, high];
    ``L`` (int or None); ``certificates``, a tuple of MembershipCheck.  An
    interval (nu/p^e, (nu+1)/p^e] carries nu's trail at depth e (see nu);
    an exact value carries the tests its rule made.
    """

    __slots__ = ()

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

    nu(j) = p nu(j-1) + c_j with 0 <= c_j < p (Mustata-Takagi-Watanabe),
    so one ResidueLadder walk reads c_1, ..., c_e (rise_outside).  ``certs``
    receives a bisection's trail on [0, ceil(min(n,d)/d * p^e) + 1), one
    MembershipCheck(N, e, N > nu) per midpoint, and the walk proves each:
    f^nu is outside; f^(nu+1) is inside, by the probe of c_e + 1 when c_e <
    p - 1 and by Frobenius from depth e - 1 when c_e = p - 1; and
    membership is monotone in N.
    """
    if e < 1:
        raise ValidationError("depth e must be >= 1")
    p = f.field.p
    ladder = ResidueLadder(f, 0, max(p ** e, f.d))
    v = 0
    for _ in range(e):
        v = p * v + ladder.rise_outside()
    if certs is not None:
        lo, hi = 0, -(-min(f.n, f.d) * p ** e // f.d) + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            certs.append(MembershipCheck(mid, e, mid > v))
            lo, hi = (lo, mid) if mid > v else (mid, hi)
    return v


def fpt_bounds(f: HomForm, e: int, certs: list | None = None) -> tuple[Fraction, Fraction]:
    """The certified half-open interval (nu/p^e, (nu+1)/p^e] containing
    fpt(f), with nu's trail, which proves both ends, in ``certs`` (see nu)."""
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


def _dominant_factor(f: HomForm) -> int:
    """The multiplicity a of an F_q-rational linear factor l of f with
    2a >= d and l not dividing f/l^a, or 0 if there is none.

    Coordinates are read off the exponents in any arity.  A binary form
    that is not squarefree is also searched for a factor x - r y, r != 0:
    a root r of h(x) = f(x, 1) / x^v of multiplicity a >= 2 is a root of
    gcd(h, h'), whose degree is then at least a - 1.  The squarefree test
    has usually computed that gcd already (forms.repeated_part).
    """
    d, F = f.d, f.field
    a = max(min(e[i] for e in f.terms) for i in range(f.n))
    if 2 * a >= d:
        return a
    if f.n != 2:
        return 0
    need = (d + 1) // 2
    h = affine_part(f)[1]
    if h.degree < need:
        return 0
    g = repeated_part(f)
    if g.degree < need - 1:
        return 0
    for r in g.roots_in():
        lin, a = UPoly._of(F, [F.negi(r), 1]), 0
        quo, rem = h.divmod(lin)
        while not rem:
            h, a = quo, a + 1
            quo, rem = h.divmod(lin)
        if 2 * a >= d:
            return a
    return 0


def _dominant_result(f: HomForm, a: int) -> FptResult:
    """fpt(l^a g) = 1/a for 2a >= d, with its certificates at the first depth
    e with p^e > a: f^(N-1) outside and f^N inside for N = ceil(p^e/a).

    Take l = x_1.  The terms of f^N of least x_1-degree are x_1^(aN)
    g(0, x_2, ...)^N, and the lex-leading one has every exponent at most
    max(a, d - a) N = aN, so f^N is outside whenever aN < p^e; and f^N lies
    in (x_1^(p^e)) whenever aN >= p^e.  Both bounds tend to 1/a.
    """
    p, e = f.field.p, 1
    while p ** e <= a:
        e += 1
    N = -(-p ** e // a)
    certs = tuple(MembershipCheck(M, e, in_frobenius_power(f, M, e)) for M in (N - 1, N))
    if certs[0].member or not certs[1].member:
        raise AnomalyError(f"{f.as_text()} has a dominant factor of multiplicity {a}, "
                           f"but f^{N - 1} and f^{N} at depth {e} contradict 1/{a}")
    return FptResult("exact", "dominant-factor", value=Fraction(1, a), certificates=certs)


def fpt_binary_exact(f: HomForm, e_cap: int | None = None) -> FptResult:
    """The threshold of a binary form (see fpt_general)."""
    if f.n != 2:
        raise ValidationError("fpt_binary_exact needs a binary form")
    return fpt_general(f, e_cap)


def fpt_general(f: HomForm, e_cap: int | None = None) -> FptResult:
    """Threshold in any number of variables, exact wherever the rules reach.

    Dispatch: monomials and linear forms by the explicit rule; forms with a
    dominant linear factor (a coordinate x_i^a, or for binary forms any
    rational l^a, dividing f with 2a >= d) get 1/a; other perfect powers by
    fpt(g^r) = fpt(g)/r; squarefree binary forms of degree p^t or 2p^t
    get 2/d; other squarefree binary forms with p coprime to the reduced
    denominator b of 2/d are resolved by testing the truncation numerators
    N_L for L = 1..ord_b(p) (smallest passing depth wins, no pass means 2/d);
    the rest fall back to a certified interval at depth ``e_cap``, by default
    8 for binary forms and 4 otherwise; an ``e_cap`` below 1 is refused.

    The rules live in _rules, which returns an exact result or names the
    fallback: g's result scaled by r for f = c g^r, or f's interval.  This
    function adds that fallback; a census reads only exact answers
    (_exact_value) and never computes an interval.

    A binary f goes to the perfect-power search only when 2 deg gcd(h, h')
    >= deg h, for h the affine part of f (_may_be_power, on the gcd that
    forms.repeated_part keeps on f).  If f = c g^r with r >= 2, then h = c
    g_1^r for g_1 the affine part of g: if p divides r, h' = 0 and the gcd
    is monic h; otherwise g_1^(r-1) divides h and h', so deg gcd >= (r-1)
    deg g_1 >= deg h / 2.
    """
    if e_cap is None:
        e_cap = 8 if f.n == 2 else 4
    if e_cap < 1:
        raise ValidationError(f"need e_cap >= 1, got {e_cap}")
    res = _rules(f)
    if isinstance(res, FptResult):
        return res
    g, r = res
    if r > 1:
        return fpt_general(g, e_cap).scaled(r)
    certs: list[MembershipCheck] = []
    lo, hi = fpt_bounds(f, e_cap, certs)
    return FptResult("interval", "bounded-fallback", low=lo, high=hi, certificates=tuple(certs))


def _exact_value(f: HomForm) -> Fraction | None:
    """fpt_general(f).value when that is exact, else None, with no interval
    computed: exact answers do not depend on e_cap."""
    r = 1
    while not isinstance(res := _rules(f), FptResult):
        f, s = res
        if s == 1:
            return None
        r *= s
    return res.value / r


def _may_be_power(f: HomForm) -> bool:
    """False only for a form that is no proper power c g^r: a binary form
    with 2 deg gcd(h, h') < deg h (see fpt_general)."""
    return f.n != 2 or 2 * repeated_part(f).degree >= affine_part(f)[1].degree


def _rules(f: HomForm) -> FptResult | tuple[HomForm, int]:
    """fpt_general's rules: an exact result, or the fallback that applies as
    (g, r), fpt(f) = fpt(g)/r for f = c g^r with r >= 2, or (f, 1) for f's
    interval."""
    if f.is_monomial():
        exps = next(iter(f.terms))
        return FptResult("exact", "monomial", value=fpt_monomial(exps))
    if f.d == 1:
        # a linear form becomes a coordinate after a change of variables
        return FptResult("exact", "monomial", value=Fraction(1))
    # a squarefree form of degree >= 2 is never a proper power
    if f.n != 2 or not is_squarefree_binary(f):
        a = _dominant_factor(f)
        if a:
            return _dominant_result(f, a)
        if _may_be_power(f):
            g, r = perfect_power_decompose(f.monic())
            if r > 1:
                return g, r
        return f, 1
    p, d = f.field.p, f.d
    if _is_prime_power_degree(d, p):
        return FptResult("exact", "prime-power-degree", value=Fraction(2, d))
    lam = Fraction(2, d)
    b = lam.denominator
    if b % p == 0:
        return f, 1
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
    # no truncation passed, so f^(N_L) is outside at L = ord_b(p), N_L = 2(p^L - 1)/d:
    # flatness of Frobenius gives fpt >= N_L/(p^L - 1) = 2/d, and degree fpt <= 2/d.
    # f^(N_L + 1) is inside depth L by degree alone: d(N_L + 1) > 2(p^L - 1)
    return FptResult("exact", "generic-two-over-d", value=lam,
                     certificates=tuple(certs))
