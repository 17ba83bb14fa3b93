"""Sparse homogeneous forms and residues modulo Frobenius powers.

Coefficients are plain field encodings, ints in [0, q), throughout: terms,
residues and parsed text.  A caller's coefficient enters through
FieldSpec.encode; GFElem comes out only from HomForm.coeff and coeff_of_power.
The public constructors and parse_form check every exponent and coefficient.
Forms the library builds itself, from encodings it knows to be nonzero and
exponent tuples it knows to have length n and sum d (census classes, scale
and monic, perfect-power roots, powers and linear substitutions), go through
the private HomForm._of, which checks nothing; census classes come through
HomForm._of_coeffs, which also keeps the affine part of their coefficient
list.

The central computation is the residue of f^N modulo the monomial ideal
(x_1^{p^e}, ..., x_n^{p^e}).  One engine, the digit ladder, does it in every
arity: writing N = sum c_t p^t, the residue is built from the most
significant digit down, one depth per digit,

    acc_{D+1}  =  (acc_D)^p * f^{c}   truncated at p^{D+1},

where raising to the p-th power multiplies exponent vectors by p and applies
Frobenius to coefficients.  Truncation at every level is exact: a monomial
with a component >= the level bound can only ever produce discarded
monomials later.  Each step continues from the previous depth, so the
threshold engine walks the truncations N_{L+1} = p N_L + c_L of 2/d on one
ladder state.  A step is decided by degree when d N > n (p^e - 1): every
monomial of f^N has a component >= p^e, the bound behind fpt <= min(1, n/d),
so the residue is empty and no product is made.

Residues are dicts from packed exponents to coefficients: (a_1, ..., a_n)
packs into sum a_i << s*i, with s bits per variable and a guard bit
G = 2^(s-1) at least both the deepest bound p^e and deg f, so that no field
carries into the next.  A product w leaves the window (some a_i >= bound)
exactly when (w + sum (G - bound) << s*i) & sum G << s*i is nonzero, and
Frobenius on exponents is w * p.  One product, _mul, also adds into a dict
it is given, so every sum (the parser's, substitute_linear's, the
perfect-power root's) is a product by a monomial.  Over F_p it multiplies,
adds and reduces each coefficient pair mod p as plain integers; over
F_{p^k}, k > 1, each pair goes through FieldSpec.muli and addi.  A sum that
vanishes leaves the dict at once; a dict of more than _WINDOW_BUDGET terms
after a row is refused, sum or product, and so is a product of more than
_WORK_BUDGET coefficient pairs, before it starts.

The text parser splits its input once into the tokens of _TOKEN, so
whitespace only separates tokens, and evaluates them by recursive descent on
the same packing with the same product; gfpoly._terms_text prints forms back.

Each ladder step builds f^c, truncated at its depth, by squaring.  The
threshold engine's nu walks one ladder, finding one digit of nu per depth by
bisection (ResidueLadder.rise_outside); the probes of one bisection share
their squares, and between steps a ladder keeps only its residue.

Packed exponents compare as integers in a lex order (x_n most significant),
and a lex order is a monomial order, so the perfect-power check takes m-th
roots on the same packing, one term at a time from the top down, in any
arity.  The squarefree test of a binary form sets y = 1: with f(x, 1) =
x^v h(x), h(0) != 0, it reads v, deg h and gcd(h, h'), and the gcd is kept
on the form for the threshold engine's dominant-factor search.
"""

from __future__ import annotations

import random
import re
from math import comb, gcd

from .errors import BudgetError, ParseError, ValidationError
from .gfpoly import FieldSpec, GFElem, UPoly, _terms_text

_WINDOW_BUDGET = 1 << 18    # most terms in a residue; x^3*y^2+x*y^4 over F_13 needs 185,649 at e=6
_WORK_BUDGET = 1 << 24      # most coefficient pairs len(A)*len(B) in one product
_PARSE_BITS = 32            # bits per variable in the parser's packing: degrees stay below 2^31
_TOKEN = re.compile(r"[0-9]+|x[0-9]*|\S")  # the parser's tokens; whitespace only separates them


# ---------------------------------------------------------------------------
# the form type
# ---------------------------------------------------------------------------

class HomForm:
    """A nonzero homogeneous polynomial of degree d in n variables.

    ``terms`` maps exponent vectors (tuples of length n summing to d) to
    nonzero encodings.  The public constructors and ``scale`` read
    coefficients with FieldSpec.encode: a GFElem, an encoding, or over F_p
    any int.  ``HomForm._of(field, n, d, terms)`` is the private trusted
    constructor: it takes ``terms`` as it is, so it must be a nonempty dict
    of nonzero encodings in [0, q) keyed by tuples of n non-negative ints
    summing to d, in the insertion order the form should keep.
    """

    __slots__ = ("n", "d", "field", "terms", "_key", "_affine", "_repeated")

    def __init__(self, field: FieldSpec, n: int, d: int, terms: dict):
        if n < 1:
            raise ValidationError(f"need n >= 1 variables, got {n}")
        if d < 1:
            raise ValidationError(f"need degree >= 1, got {d}")
        clean = {}
        encode = field.encode
        for exps, c in terms.items():
            exps = tuple(int(a) for a in exps)
            if len(exps) != n or any(a < 0 for a in exps):
                raise ValidationError(f"bad exponent vector {exps}")
            if sum(exps) != d:
                raise ValidationError(f"exponent vector {exps} does not have degree {d}")
            c = encode(c)
            if c:
                clean[exps] = c
        if not clean:
            raise ValidationError("the zero form is not allowed")
        self.field = field
        self.n = n
        self.d = d
        self.terms = clean
        self._key = self._affine = self._repeated = None

    @classmethod
    def _of(cls, field: FieldSpec, n: int, d: int, terms: dict) -> "HomForm":
        """Trusted: ``terms`` meets the class's precondition; nothing is checked."""
        f = cls.__new__(cls)
        f.field, f.n, f.d, f.terms = field, n, d, terms
        f._key = f._affine = f._repeated = None
        return f

    @classmethod
    def _of_coeffs(cls, field: FieldSpec, cs: list[int]) -> "HomForm":
        """Trusted from_coeffs: ``cs`` is a list of encodings in [0, q), not
        all 0.  The affine part (affine_part) is read off ``cs`` as well."""
        d = len(cs) - 1
        f = cls._of(field, 2, d, {(d - i, i): c for i, c in enumerate(cs) if c})
        f._affine = _affine_of(field, cs)
        return f

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_coeffs(cls, field: FieldSpec, coeffs, d: int | None = None) -> "HomForm":
        """Binary form from the coefficient list [a_0, ..., a_d] where a_i is
        the coefficient of x^(d-i) y^i."""
        coeffs = list(coeffs)
        if d is None:
            d = len(coeffs) - 1
        if len(coeffs) != d + 1:
            raise ValidationError("coefficient list must have length d+1")
        return cls(field, 2, d, {(d - i, i): c for i, c in enumerate(coeffs)})

    @classmethod
    def monomial(cls, field: FieldSpec, exps, coeff=1) -> "HomForm":
        exps = tuple(exps)
        return cls(field, len(exps), sum(exps), {exps: coeff})

    # -- basics ---------------------------------------------------------------
    def key(self):
        if self._key is None:
            items = tuple(sorted(self.terms.items()))
            self._key = (self.n, self.d, self.field.p, self.field.k, items)
        return self._key

    def __eq__(self, other):
        return isinstance(other, HomForm) and self.field == other.field and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def coeff(self, exps) -> GFElem:
        return GFElem(self.field, self.terms.get(tuple(exps), 0))

    def coeff_list(self) -> list[int]:
        """Binary form as [a_0..a_d] encodings."""
        if self.n != 2:
            raise ValidationError("coeff_list requires a binary form")
        out = [0] * (self.d + 1)
        for (ax, ay), c in self.terms.items():
            out[ay] = c
        return out

    def scale(self, c) -> "HomForm":
        F = self.field
        ce = F.encode(c)
        if not ce:
            raise ValidationError("cannot scale a form by zero")
        return HomForm._of(F, self.n, self.d, {e: F.muli(v, ce) for e, v in self.terms.items()})

    def monic(self) -> "HomForm":
        """Normalize so the lexicographically largest exponent has coefficient 1."""
        lead = max(self.terms)
        return self.scale(self.field.invi(self.terms[lead]))

    def as_text(self) -> str:
        """Render in the CLI grammar: '+'-joined terms c*x1^a*...; x,y for n=2."""
        names = ("x", "y") if self.n == 2 else [f"x{i+1}" for i in range(self.n)]
        return _terms_text(sorted(self.terms.items(), reverse=True), names, self.field.elem_str)

    def __str__(self):
        return self.as_text()

    def __repr__(self):
        return f"HomForm({self.as_text()!r} over {self.field!r})"


# ---------------------------------------------------------------------------
# the residue kernel: packed exponents, one sparse product, one digit ladder
# ---------------------------------------------------------------------------

def _pack(exps, s: int) -> int:
    w = 0
    for a in reversed(exps):
        w = w << s | a
    return w


def _unpack(w: int, n: int, s: int) -> tuple:
    low = (1 << s) - 1
    return tuple((w >> s * i) & low for i in range(n))


def _mul(A: dict, B: dict, add: int, mask: int, F: FieldSpec, out: dict | None = None) -> dict:
    """out + A*B, without the terms whose packed exponent w has (w + add) & mask.

    The sum is made in ``out`` (never A or B) or, when it is None, in a new
    dict, and returned; out += c x^t A is _mul({t: c}, A, 0, 0, F, out).  New
    keys come in the order of A's rows, each in B's order, and never hold 0,
    as inputs are nonzero; a sum that vanishes is deleted at once and
    re-inserted if a later pair reaches it.  Raises BudgetError before any
    pair when len(A) * len(B) exceeds _WORK_BUDGET, and once ``out`` holds
    more than _WINDOW_BUDGET terms after a row of A, sum or product.

    Over F_p each pair is plain integer arithmetic, c1*c2 added and reduced
    mod p inline; over F_{p^k}, k > 1, it goes through F.muli and F.addi.
    Both keep the same insertion order, so later products walk their rows
    in the same order and the budget trips on the same inputs.
    """
    if len(A) * len(B) > _WORK_BUDGET:
        raise BudgetError(f"a product of {len(A)} by {len(B)} terms exceeds the budget of "
                          f"{_WORK_BUDGET} coefficient pairs", len(A) * len(B), _WORK_BUDGET)
    out = {} if out is None else out
    get = out.get
    if F.k > 1:
        mul, plus = F.muli, F.addi
        for w1, c1 in A.items():
            for w2, c2 in B.items():
                w = w1 + w2
                if (w + add) & mask:
                    continue
                cur = get(w)
                if cur is None:
                    out[w] = mul(c1, c2)
                else:
                    s = plus(cur, mul(c1, c2))
                    if s:
                        out[w] = s
                    else:
                        del out[w]
            if len(out) > _WINDOW_BUDGET:
                raise _window_error(len(out))
        return out
    p = F.p
    for w1, c1 in A.items():
        for w2, c2 in B.items():
            w = w1 + w2
            if (w + add) & mask:
                continue
            v = (get(w, 0) + c1 * c2) % p
            if v:
                out[w] = v
            else:
                del out[w]
        if len(out) > _WINDOW_BUDGET:
            raise _window_error(len(out))
    return out


def _window_error(live: int) -> BudgetError:
    return BudgetError(f"a residue exceeds the budget of {_WINDOW_BUDGET} terms; "
                       "ask for a shallower depth", live, _WINDOW_BUDGET)


def _pow(A: dict, c: int, add: int, mask: int, F: FieldSpec,
         squares: list | None = None) -> dict:
    """A^c for c >= 1, by squaring, without the terms _mul drops.

    ``squares``, when given, is the list [A, A^2, A^4, ...] of the squares
    known so far: they are taken from it, and those computed here are
    appended.  The products are the same with or without it, in the same
    order, less the squares it already holds.
    """
    piece, j = None, 0
    while True:
        if c & 1:
            piece = A if piece is None else _mul(piece, A, add, mask, F)
        c >>= 1
        if not c:
            return piece
        j += 1
        if squares is not None and j < len(squares):
            A = squares[j]
        else:
            A = _mul(A, A, add, mask, F)
            if squares is not None:
                squares.append(A)


class ResidueLadder:
    """The residue of f^N modulo (x_1^{p^depth}, ..., x_n^{p^depth}), advanced
    one base-p digit at a time: ``rise(c)`` takes N to p*N + c and depth to
    depth + 1, and ``rise_outside()`` picks the largest such c that leaves
    f^N outside.  It starts at N = 0.

    ``guard`` is the least guard bit G the packing needs: at least p^depth
    for every depth the ladder reaches, and at least deg f.  With
    ``bounded=False`` nothing is truncated and G must exceed deg f^N.

    Each step powers f truncated at the new depth (``_window``) afresh; only
    the probes of one ``rise_outside`` share their squares.  ``deg`` is d N,
    the degree of f^N: a bounded step that takes it past n (p^depth - 1)
    empties the residue without ``_window``, ``_pow`` or ``_mul``.
    """

    def __init__(self, f: HomForm, depth: int, guard: int, bounded: bool = True):
        F = f.field
        self.field, self.n, self.p, self.depth = F, f.n, F.p, depth
        self.s = s = (guard - 1).bit_length() + 1
        self.ones = sum(1 << s * i for i in range(f.n))
        self.mask = (1 << s - 1) * self.ones if bounded else 0
        self.frob = F.frobi if F.k > 1 else None
        self.f = {_pack(e, s): c for e, c in f.terms.items()}
        self.terms, self.d, self.deg = {0: 1}, f.d, 0

    def _window(self) -> tuple[int, dict]:
        """The offset ``add`` that _mul truncates with at the current depth,
        and f truncated there."""
        add = ((1 << self.s - 1) - self.p ** self.depth) * self.ones if self.mask else 0
        return add, {w: v for w, v in self.f.items() if not (w + add) & self.mask}

    def rise(self, c: int) -> None:
        """One ladder step: raise to the p-th power, then multiply by f^c."""
        p, frob = self.p, self.frob
        self.depth += 1
        self.deg = p * self.deg + c * self.d
        if self.mask and self.deg > self.n * (p ** self.depth - 1):
            self.terms = {}
        elif frob is None:
            self.terms = {w * p: v for w, v in self.terms.items()}
        else:
            self.terms = {w * p: frob(v) for w, v in self.terms.items()}
        if c and self.terms:
            add, window = self._window()
            mask, F = self.mask, self.field
            self.terms = _mul(self.terms, _pow(window, c, add, mask, F), add, mask, F)

    def rise_outside(self) -> int:
        """One ladder step with the largest digit c that leaves f^(pN + c)
        outside the next depth; returns c.

        If N is nu at this depth (as N = 0 is at depth 0), pN + c is nu at
        the next: f^(pN) is outside, as Frobenius maps the residue's
        monomials to distinct ones inside the next window, and f^(p(N+1))
        = (f^(N+1))^p is inside.  So c is bisected on [0, p), each probe
        the p-th power residue times f^c, and the largest nonzero probe
        becomes the residue.  The probes share the squares f, f^2, f^4, ...
        of the window; once they hold _WINDOW_BUDGET terms, a probe's new
        squares are not kept.
        """
        self.rise(0)
        add, window = self._window()
        mask, F = self.mask, self.field
        base, lo, hi, squares = self.terms, 0, self.p, [window]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            kept = squares if sum(map(len, squares)) < _WINDOW_BUDGET else squares[:]
            probe = _mul(base, _pow(window, mid, add, mask, F, kept), add, mask, F)
            if probe:
                lo, self.terms = mid, probe
            else:
                hi = mid
        self.deg += lo * self.d
        return lo

    def climb(self, N: int) -> "ResidueLadder":
        """Rise along the base-p digits of N, most significant first."""
        if N:
            self.climb(N // self.p).rise(N % self.p)
        return self

    def residue(self) -> dict:
        """The residue keyed by exponent tuples, with encoding values."""
        n, s = self.n, self.s
        return {_unpack(w, n, s): v for w, v in self.terms.items()}


def _power_ladder(f: HomForm, N: int, e: int) -> ResidueLadder:
    """The ladder holding f^N modulo (x_1^{p^e}, ..., x_n^{p^e})."""
    if N < 0:
        raise ValidationError("exponent must be non-negative")
    if e < 1:
        raise ValidationError("Frobenius depth e must be >= 1")
    p = f.field.p
    places = 0
    while p ** places <= N:
        places += 1
    lad = ResidueLadder(f, e - places, max(p ** e, f.d))
    if places > e:
        # the leading digit's piece is killed entirely: every monomial of
        # (f^c)^{p^t} with t >= e has a component >= p^e
        lad.terms = {}
        return lad
    return lad.climb(N)


def pow_mod_frobenius(f: HomForm, N: int, e: int) -> dict:
    """Residue of f^N modulo (x_1^{p^e}, ..., x_n^{p^e}) as a dict from
    exponent tuples, every component below p^e, to nonzero encodings; it is
    empty exactly when f^N lies in the ideal."""
    return _power_ladder(f, N, e).residue()


def in_frobenius_power(f: HomForm, N: int, e: int) -> bool:
    """Is f^N in the Frobenius power (x_1^{p^e}, ..., x_n^{p^e})?"""
    return not _power_ladder(f, N, e).terms


def coeff_of_power(f: HomForm, N: int, j: int):
    """Coefficient of x^(dN-j) y^j in f^N (binary forms; full expansion)."""
    if f.n != 2:
        raise ValidationError("coeff_of_power requires a binary form")
    if N < 0:
        raise ValidationError("exponent must be non-negative")
    if not 0 <= j <= f.d * N:
        raise ValidationError(f"index j={j} out of range [0, {f.d * N}]")
    lad = ResidueLadder(f, 0, f.d * N + 1, bounded=False).climb(N)
    return GFElem(f.field, lad.terms.get(_pack((f.d * N - j, j), lad.s), 0))


# ---------------------------------------------------------------------------
# squarefree binary forms and perfect powers
# ---------------------------------------------------------------------------

def affine_part(f: HomForm) -> tuple[int, UPoly]:
    """(v, h) with f(x, 1) = x^v h(x) and h(0) != 0, for a binary form; kept
    on the form."""
    if f._affine is None:
        f._affine = _affine_of(f.field, f.coeff_list())
    return f._affine


def _affine_of(field: FieldSpec, cs: list[int]) -> tuple[int, UPoly]:
    """affine_part of the binary form with coefficient list ``cs``."""
    low = cs[::-1]
    v = next(a for a, c in enumerate(low) if c)
    return v, UPoly._of(field, low[v:])


def repeated_part(f: HomForm) -> UPoly:
    """gcd(h, h') for h as in affine_part: its roots are h's repeated
    roots, and it is 1 exactly when h is squarefree (h' = 0 gives monic h).
    Computed once per form and kept on it."""
    if f._repeated is None:
        h = affine_part(f)[1]
        f._repeated = h.gcd(h.derivative())
    return f._repeated


def is_squarefree_binary(f: HomForm) -> bool:
    """True iff the binary form has no repeated linear factor over the closure."""
    if f.n != 2:
        raise ValidationError("squarefree test requires a binary form")
    # x has multiplicity v and y has d - v - deg h
    v, h = affine_part(f)
    return v <= 1 and f.d - v - h.degree <= 1 and repeated_part(f).degree == 0


def _scalar_root(field: FieldSpec, c_enc: int, r: int) -> int | None:
    """An r-th root of a nonzero field element (p not dividing r), or None."""
    q = field.q
    if r == 1 or c_enc == 1:
        return c_enc
    g = gcd(r, q - 1)
    if field.powi(c_enc, (q - 1) // g) != 1:
        return None
    if g == 1:
        return field.powi(c_enc, pow(r, -1, q - 1))
    for w in range(1, q):
        if field.powi(w, r) == c_enc:
            return w
    return None


def _mth_root(H: dict, m: int, n: int, s: int, F: FieldSpec) -> dict | None:
    """An m-th root (p not dividing m) of a packed dict of encodings, or None.

    Packed exponents compare in a lex order, and the top and bottom terms of
    g^m are the m-th powers of g's top and bottom terms.  The root is built
    from the top down: while R = H - g^m is led by c x^e, the next term of g
    is c / (m lc(g)^(m-1)) x^(e - (m-1) top(g)), and R's leading term drops.
    R and g^i for i < m are kept and updated by (g + u)^i = sum_j C(i, j)
    u^j g^(i-j), shifted and scaled copies for a monomial u; g^i takes u only
    once another term follows.  Raises BudgetError once they hold more than
    _WINDOW_BUDGET terms; when one update would make more copies than that,
    R comes from _pow (under the same budget) for each new term instead.
    """
    top, low = max(H), min(H)
    if any(a % m for a in _unpack(top, n, s) + _unpack(low, n, s)):
        return None
    c = _scalar_root(F, H[top], m)
    if c is None:
        return None
    mul, p = F.muli, F.p
    E, bottom = top // m, low // m
    k = (m - 1) * E
    guard = (1 << s - 1) * sum(1 << s * i for i in range(n))
    scale = F.invi(mul(m % p, F.powi(c, m - 1)))
    G = {E: c}
    R = {w: a for w, a in H.items() if w != top}    # H - (c x^E)^m
    keep = m * (m + 1) // 2 <= _WINDOW_BUDGET
    last = None                 # the newest term of g, not yet in the kept g^i for i < m

    def grow(i: int, t: int, v: int) -> None:
        # P[i] = g^i (or R) takes the term u = v x^t; P[i - j] is still the old g^(i-j)
        nonlocal size
        size -= len(P[i])
        u = 1
        for j in range(1, i + 1):
            u = mul(u, v)
            b = (comb(i, j) if i < m else -comb(i, j)) % p
            if b:
                _mul({j * t: mul(b, u)}, P[i - j], 0, 0, F, P[i])
        size += len(P[i])
        if size > _WINDOW_BUDGET:
            raise BudgetError(f"the powers of a candidate root exceed the budget of "
                              f"{_WINDOW_BUDGET} terms", size, _WINDOW_BUDGET)

    while R:
        e = max(R)
        # t = e - k needs every component of e at least k's, and t >= bottom
        if (e + guard - k) & guard != guard or e - k < bottom:
            return None
        t = e - k
        v = G[t] = mul(R[e], scale)
        if keep:
            if last is None:
                P = [{i * E: F.powi(c, i)} for i in range(m)] + [R]
                size = m - 1 + len(R)
            else:
                for i in range(m - 1, 0, -1):
                    grow(i, *last)
            grow(m, t, v)
            last = (t, v)
        else:
            R = _mul({0: p - 1}, _pow(G, m, 0, 0, F), 0, 0, F, dict(H))
    return G


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order, by trial division up to sqrt(n)."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i < n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def perfect_power_decompose(f: HomForm) -> tuple[HomForm, int]:
    """Maximal (g, r) with g^r = f exactly (r = 1 when f is not a proper power).

    For each r | d from the largest down, with r = m p^s and p not dividing
    m: f = (g^m)^(p^s), so g^m is the coefficientwise p^s-th root of f, which
    exists exactly when p^s divides every exponent, and g is its m-th root.
    """
    F, p, n = f.field, f.field.p, f.n
    s = f.d.bit_length() + 1
    for r in _divisors(f.d)[:0:-1]:
        m, ps = r, 1
        while m % p == 0:
            m, ps = m // p, ps * p
        if any(a % ps for e in f.terms for a in e):
            continue
        H = {}
        for e, c in f.terms.items():
            t = ps
            while t > 1:
                c, t = F.pth_rooti(c), t // p
            H[_pack(e, s) // ps] = c
        g = H if m == 1 else _mth_root(H, m, n, s, F)
        if g is not None:
            return HomForm._of(F, n, f.d // r, {_unpack(w, n, s): c for w, c in g.items()}), r
    return f, 1


def _form_pow(f: HomForm, r: int) -> HomForm:
    lad = ResidueLadder(f, 0, f.d * r + 1, bounded=False).climb(r)
    return HomForm._of(f.field, f.n, f.d * r, lad.residue())


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------

def _det(field: FieldSpec, rows: list[list[int]]) -> int:
    """Determinant of a square matrix of encodings, by Gaussian elimination."""
    n = len(rows)
    a = [row[:] for row in rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = field.negi(det)
        det = field.muli(det, a[col][col])
        inv = field.invi(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                m = field.muli(a[r][col], inv)
                for cc in range(col, n):
                    a[r][cc] = field.subi(a[r][cc], field.muli(m, a[col][cc]))
    return det


def substitute_linear(f: HomForm, T) -> HomForm:
    """Compose f with the substitution x_i -> sum_j T[i][j] x_j (T invertible)."""
    F, n = f.field, f.n
    if len(T) != n or any(len(row) != n for row in T):
        raise ValidationError(f"substitution matrix must be {n} x {n}")
    rows = [[F.encode(T[i][j]) for j in range(n)] for i in range(n)]
    if _det(F, rows) == 0:
        raise ValidationError("substitution matrix is singular")
    s = f.d.bit_length() + 1
    linear = [{1 << s * j: rows[i][j] for j in range(n) if rows[i][j]} for i in range(n)]
    out: dict = {}
    for exps, c in f.terms.items():
        term = {0: 1}
        for i, a in enumerate(exps):
            if a:
                term = _mul(term, _pow(linear[i], a, 0, 0, F), 0, 0, F)
        _mul({0: c}, term, 0, 0, F, out)
    return HomForm._of(F, n, f.d, {_unpack(w, n, s): c for w, c in out.items()})


def random_form(field: FieldSpec, n: int, d: int, rng: random.Random) -> HomForm:
    """Uniformly random nonzero degree-d form (dense coefficient sampling)."""
    from itertools import combinations_with_replacement

    exps_list = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        exps_list.append(tuple(e))
    while True:
        terms = {}
        for e in exps_list:
            c = rng.randrange(field.q)
            if c:
                terms[e] = c
        if terms:
            return HomForm(field, n, d, terms)


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

def _digits_mod(run: str, p: int) -> int:
    """int(run) % p for a run of decimal digits, 600 at a time: int() refuses
    long runs."""
    c = 0
    for i in range(0, len(run), 600):
        part = run[i:i + 600]
        c = (c * pow(10, len(part), p) + int(part)) % p
    return c


class _Parser:
    """Recursive descent for '+/-'-joined products of integers, variables
    x, y, x1..xn, the field generator t, parenthesized subexpressions, and
    '^' powers.  Evaluates to a dict from packed exponents (_PARSE_BITS per
    variable) to field encodings, multiplying with the residue kernel's _mul.

    The text is split once into the tokens of _TOKEN, and ``toks`` ends in
    a sentinel "", so ``peek`` only reads.  An error's offset is the start
    (or end) of the token it names, found by scanning the text again."""

    def __init__(self, text: str, field: FieldSpec, n_hint: int | None):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]
        self.i = 0
        self.field = field
        self.n = n_hint
        self.max_var = 0
        self.guard = 0          # the guard bit of every variable seen so far

    def error(self, msg: str, end: bool = False):
        spans = [m.span() for m in _TOKEN.finditer(self.text)] + [(len(self.text),) * 2]
        raise ParseError(msg, spans[self.i][end])

    def take(self) -> str:
        self.i += 1
        return self.toks[self.i - 1]

    def peek(self) -> str:
        return self.toks[self.i]

    def expr(self) -> dict:
        F = self.field
        acc: dict = {}
        ch = self.peek()
        if ch in ("+", "-"):
            self.take()
        while True:
            _mul({0: F.negi(1) if ch == "-" else 1}, self.term(), 0, 0, F, acc)
            ch = self.peek()
            if ch not in ("+", "-"):
                return acc
            self.take()

    def term(self) -> dict:
        acc = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
            elif not (ch.isalnum() or ch == "("):
                return acc
            # "*" or an implicit product, e.g. "2x" or "x(x+y)"
            acc = self._times(acc, self.factor())

    def _times(self, a: dict, b: dict) -> dict:
        # both factors are below every guard bit, so no exponent carries
        out = _mul(a, b, 0, 0, self.field)
        if any(w & self.guard for w in out):
            self._too_big()
        return out

    @staticmethod
    def _too_big():
        top = 1 << _PARSE_BITS - 1
        raise BudgetError(f"an exponent reaches 2^{_PARSE_BITS - 1}; exponents must "
                          "stay below it", top, top - 1)

    def factor(self) -> dict:
        base = self.atom()
        while self.peek() == "^":
            self.take()
            if not "0" <= self.peek()[:1] <= "9":
                self.error("expected an integer")
            run = self.take()
            # exponents stay below 2^31, and int() refuses long runs of digits:
            # a run past 10 digits is read to its 11th significant one
            k = int(run if len(run) <= 10 else run.lstrip("0")[:11] or 0)
            if k >> _PARSE_BITS - 1:
                self._too_big()
            base = self._power(base, k)
        return base

    def _power(self, base: dict, k: int) -> dict:
        """base^k as the product of Frob^t(base^c) over the base-p digits c of
        k = sum c p^t, where Frobenius multiplies exponents by p.

        In a lex order with x_i first, the leading term of base^k is the k-th
        power of base's, so x_i reaches k times its degree in base: the
        exponent bound is checked once, before any product.
        """
        F = self.field
        low = (1 << _PARSE_BITS) - 1
        top = max(((w >> _PARSE_BITS * i) & low for w in base for i in range(self.max_var)),
                  default=0)
        if k * top >> _PARSE_BITS - 1:
            self._too_big()
        out = {0: 1}
        while k:
            k, c = divmod(k, F.p)
            if c:
                out = _mul(out, _pow(base, c, 0, 0, F), 0, 0, F)
            if k:
                base = {w * F.p: F.frobi(v) for w, v in base.items()}
        return out

    def atom(self) -> dict:
        tok = self.peek()
        # provisional width when n is inferred; trimmed to the variables used
        w = self.n if self.n is not None else 12
        if tok == "":
            self.error("unexpected end of input")
        if tok == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return inner
        if "0" <= tok[0] <= "9":
            self.take()
            c = _digits_mod(tok, self.field.p) if len(tok) > 600 else int(tok) % self.field.p
            return {0: c} if c else {}
        if tok == "t":
            if self.field.k == 1:
                self.error("generator t is undefined over a prime field", True)
            self.take()
            return {0: self.field.gen().enc}
        if tok[0] == "x" or tok == "y":
            # int() refuses long runs of digits: past 10, read to the 11th significant one
            num = tok[1:] if len(tok) <= 11 else tok[1:].lstrip("0")[:11] or "0"
            idx = 1 if tok == "y" else int(num or 1) - 1
            if idx < 0:
                self.error("variable indices start at x1", True)
            self.max_var = max(self.max_var, idx + 1)
            if idx >= w:
                if self.n is None:
                    self.error(f"more than {w} variables need an explicit n", True)
                index = idx + 1 if len(tok) <= 11 else tok[1:].lstrip("0")
                self.error(f"variable index {index} exceeds n={w}", True)
            self.guard |= 1 << _PARSE_BITS * (idx + 1) - 1
            self.take()
            return {1 << _PARSE_BITS * idx: 1}
        self.error(f"unexpected character {tok!r}")


def parse_form(text: str, field: FieldSpec, n: int | None = None) -> HomForm:
    """Parse the CLI polynomial grammar into a HomForm.

    Variables may be written x, y or x1..xn; '*' between factors is optional;
    coefficients are integers or parenthesized expressions in the generator t.
    The result must be homogeneous and nonzero.  An exponent of 2^31 or more
    raises BudgetError.
    """
    if n is not None and n < 1:
        raise ValidationError(f"need n >= 1 variables, got {n}")
    ps = _Parser(text, field, n)
    packed = ps.expr()
    if ps.peek() != "":
        ps.error("trailing input")
    if not packed:
        raise ParseError("polynomial is zero", 0)
    width = n if n is not None else max(ps.max_var, 1)
    terms = {_unpack(w, width, _PARSE_BITS): c for w, c in packed.items()}
    degs = {sum(e) for e in terms}
    if len(degs) != 1:
        raise ParseError(f"polynomial is not homogeneous (degrees {sorted(degs)})", 0)
    d = degs.pop()
    if d == 0:
        raise ParseError("constant polynomials are not forms", 0)
    return HomForm(field, width, d, terms)
