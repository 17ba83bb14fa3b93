"""Independent checks of F-pure threshold claims, from the definition alone.

Nothing here imports fptlib.  Field elements are integer encodings
sum c_i * p^i, where c_i is the coefficient of t^i in F_p[t]/(m); a form is a
dict mapping exponent tuples to such encodings.  The oracle is handed a
field's modulus but proves it irreducible itself, and it computes powers by
square-and-multiply over the binary digits of N, not along base-p digits.

For a form f with threshold c, nu(e) = ceil(c * p^e) - 1 is the largest N
with f^N outside m^[p^e] = (x_1^{p^e}, ..., x_n^{p^e}).  So a claimed value v
is confirmed at depth e by f^(ceil(v p^e) - 1) outside and f^ceil(v p^e)
inside.  A claimed interval (low, high] must meet (nu/p^e, (nu+1)/p^e] at
every depth e: f^floor(low p^e) outside and f^ceil(high p^e) inside.  For
the depth-e interval (nu/p^e, (nu+1)/p^e] itself that is f^nu outside and
f^(nu+1) inside.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil, floor

# largest (p^e)^(2(n-1)) a membership test may cost: the product of two
# residues with up to (p^e)^(n-1) terms each
AFFORDABLE_WORK = 400_000


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % r for r in range(2, int(p ** 0.5) + 1))


# ---------------------------------------------------------------------------
# dense F_p[t] arithmetic on coefficient lists (ascending, trimmed)
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = _trim(list(a))
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        off = len(a) - len(m)
        for i, mi in enumerate(m):
            a[off + i] = (a[off + i] - c * mi) % p
        _trim(a)
    return a


def _poly_mul_mod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_mod([c % p for c in out], m, p)


def _monic_polys(p: int, deg: int):
    for low in range(p ** deg):
        cs = []
        for _ in range(deg):
            cs.append(low % p)
            low //= p
        yield cs + [1]


class Field:
    """F_p[t]/(modulus) with log/antilog multiplication."""

    def __init__(self, p: int, modulus=(0, 1)):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        m = [c % p for c in modulus]
        if len(m) < 2 or m[-1] != 1:
            raise ValueError(f"modulus {tuple(modulus)} is not monic of degree >= 1")
        for deg in range(1, (len(m) - 1) // 2 + 1):
            for g in _monic_polys(p, deg):
                if not _poly_mod(m, g, p):
                    raise ValueError(f"modulus {tuple(modulus)} is divisible by {tuple(g)}")
        self.p = p
        self.k = len(m) - 1
        self.q = p ** self.k
        self._exp: list[int] = []
        self._log: list[int] = []
        if self.k > 1:
            self._build_logs(m)

    def _enc(self, cs: list[int]) -> int:
        out = 0
        for c in reversed(cs):
            out = out * self.p + c
        return out

    def _build_logs(self, m: list[int]) -> None:
        p, q = self.p, self.q
        for g_enc in range(p, q):
            g = []
            x = g_enc
            while x:
                g.append(x % p)
                x //= p
            powers = [1]
            cur = [1]
            while True:
                cur = _poly_mul_mod(cur, g, m, p)
                enc = self._enc(cur)
                if enc == 1:
                    break
                powers.append(enc)
            if len(powers) == q - 1:
                break
        else:
            raise ValueError("no primitive element found")
        self._exp = powers + powers
        self._log = [0] * q
        for i, enc in enumerate(powers):
            self._log[enc] = i

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        while a or b:
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def neg(self, a: int) -> int:
        return self.mul(self.encode_int(-1), a)

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("zero has no inverse")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def frob(self, a: int) -> int:
        if self.k == 1 or not a:
            return a
        return self._exp[self._log[a] * self.p % (self.q - 1)]

    def encode_int(self, c: int) -> int:
        return c % self.p


# ---------------------------------------------------------------------------
# membership in Frobenius powers
# ---------------------------------------------------------------------------

def _mul_trunc(F: Field, A: dict, B: dict, bound: int) -> dict:
    out: dict = {}
    mul, add = F.mul, F.add
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple([x + y for x, y in zip(ea, eb)])
            if max(e) >= bound:
                continue
            c = add(out.get(e, 0), mul(ca, cb))
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _mul_trunc2(F: Field, A: dict, B: dict, D: int, bound: int) -> dict:
    """The binary case: keys are x-exponents of forms of total degree D."""
    lo, hi = max(0, D - bound + 1), min(D, bound - 1)
    out: dict = {}
    mul, add = F.mul, F.add
    bkeys = sorted(B)
    for a, ca in A.items():
        for b in bkeys[bisect_left(bkeys, lo - a):bisect_right(bkeys, hi - a)]:
            c = add(out.get(a + b, 0), mul(ca, B[b]))
            if c:
                out[a + b] = c
            else:
                out.pop(a + b, None)
    return out


def power_residue(F: Field, terms: dict, N: int, e: int) -> dict:
    """f^N with every monomial of m^[p^e] dropped (square-and-multiply)."""
    bound = F.p ** e
    n = len(next(iter(terms)))
    base = {x: c for x, c in terms.items() if c and max(x) < bound}
    if n == 2:
        d = sum(next(iter(terms)))
        base = {x[0]: c for x, c in base.items()}
        out, d_out, d_base = {0: 1}, 0, d
        while N:
            if N & 1:
                d_out += d_base
                out = _mul_trunc2(F, out, base, d_out, bound)
                if not out:
                    return {}
            N >>= 1
            if N:
                d_base *= 2
                base = _mul_trunc2(F, base, base, d_base, bound)
        return {(x, d_out - x): c for x, c in out.items()}
    out = {(0,) * n: 1}
    while N:
        if N & 1:
            out = _mul_trunc(F, out, base, bound)
            if not out:
                return out
        N >>= 1
        if N:
            base = _mul_trunc(F, base, base, bound)
    return out


def is_member(F: Field, terms: dict, N: int, e: int) -> bool:
    """Is f^N in (x_1^{p^e}, ..., x_n^{p^e})?"""
    return N > 0 and not power_residue(F, terms, N, e)


def affordable(p: int, n: int, e: int) -> bool:
    return (p ** e) ** (2 * (n - 1)) <= AFFORDABLE_WORK


def brackets(F: Field, terms: dict, nu: int, e: int) -> bool:
    """f^nu outside and f^(nu+1) inside m^[p^e]."""
    return not is_member(F, terms, nu, e) and is_member(F, terms, nu + 1, e)


def audit_value(F: Field, terms: dict, v: Fraction, e: int) -> bool:
    """Does threshold v agree with the membership tests at depth e?"""
    return brackets(F, terms, ceil(v * F.p ** e) - 1, e)


def audit_interval(F: Field, terms: dict, low: Fraction, high: Fraction, at: int) -> bool:
    """Can the threshold lie in (low, high], by the membership tests at depth
    ``at``?  It lies in (nu/q, (nu+1)/q] with q = p^at, and the two meet
    exactly when f^floor(low q) is outside and f^ceil(high q) inside m^[q]."""
    q = F.p ** at
    return (not is_member(F, terms, floor(low * q), at)
            and is_member(F, terms, ceil(high * q), at))


def is_depth_interval(p: int, low: Fraction, high: Fraction, e: int, r: int = 1) -> bool:
    """Is (low, high] a depth-e interval (nu/p^e, (nu+1)/p^e] divided by r?"""
    q = r * p ** e
    return high - low == Fraction(1, q) and (low * q).denominator == 1


# ---------------------------------------------------------------------------
# squarefree binary forms
# ---------------------------------------------------------------------------

def _upoly_rem(F: Field, a: list[int], b: list[int]) -> list[int]:
    a = _trim(list(a))
    inv = F.inv(b[-1])
    while len(a) >= len(b):
        c = F.mul(a[-1], inv)
        off = len(a) - len(b)
        for i, bi in enumerate(b):
            a[off + i] = F.add(a[off + i], F.neg(F.mul(c, bi)))
        _trim(a)
    return a


def _upoly_gcd_degree(F: Field, a: list[int], b: list[int]) -> int:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _upoly_rem(F, a, b)
    return len(a) - 1


def is_squarefree_binary(F: Field, coeffs: list[int]) -> bool:
    """coeffs[i] is the coefficient of x^(d-i) y^i.  True iff no linear
    factor over the algebraic closure repeats."""
    nz = [i for i, c in enumerate(coeffs) if c]
    if not nz:
        raise ValueError("the zero form has no factorization")
    lo, hi = nz[0], nz[-1]              # y^lo and x^(d-hi) divide f
    if lo > 1 or len(coeffs) - 1 - hi > 1:
        return False
    # the rest, dehomogenized at y = 1: h(u) = sum coeffs[i] u^(d-i), h(0) != 0
    h = [coeffs[i] for i in range(hi, lo - 1, -1)]
    if len(h) <= 2:
        return True
    dh = [F.mul(F.encode_int(i), c) for i, c in enumerate(h)][1:]
    if not _trim(dh):
        return False                    # h is a p-th power
    return _upoly_gcd_degree(F, h, dh) == 0


def binary_terms(coeffs: list[int]) -> dict:
    d = len(coeffs) - 1
    return {(d - i, i): c for i, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def projective_count(q: int, d: int) -> int:
    """Binary forms of degree d up to scalars: (q^(d+1) - 1)/(q - 1)."""
    return (q ** (d + 1) - 1) // (q - 1)


def squarefree_count(q: int, d: int) -> int:
    """Squarefree ones: the t^d coefficient of Z(t)/Z(t^2), where
    Z(t) = 1/((1-t)(1-qt)) is the zeta function of P^1 over F_q.  This is
    q^d - q^(d-2) for d >= 3 and q^2 for d = 2."""
    num = [1, 0, -(1 + q), 0, q]             # (1 - t^2)(1 - q t^2)
    series = [sum(q ** j for j in range(i + 1)) for i in range(d + 1)]  # Z(t)
    return sum(num[i] * series[d - i] for i in range(min(d, 4) + 1))
