"""Finite fields F_{p^k} and univariate polynomial utilities.

Fields are constructed with a deterministic modulus (the lexicographically
smallest monic irreducible of degree k, by descending-degree coefficient
tuple), so witness reports are reproducible across runs and machines; it is
searched for once per (p, k) in a process.
Elements are stored as integer encodings sum(c_i * p^i).  Fields with at
most _TABLE_MAX_Q elements multiply through a q x q table, built on first
use and shared by every FieldSpec of the same (p, k, modulus): q - 1 reduced
products walk the powers of a primitive element, and the table is filled
from exp[log a + log b].  Larger fields reduce on the fly.

Dense univariate arithmetic is one set of routines on lists of encodings over
any FieldSpec: product, division with remainder, monic gcd and (modular)
powering.  Products in F_{p^k} above the table size, the table itself and the
search for the modulus run them over the prime field; UPoly wraps them and
adds what the rest of the package needs: derivative, squarefree test and
in-field root extraction.
"""

from __future__ import annotations

import random

from .errors import ValidationError
from .ratbase import require_prime

_TABLE_MAX_Q = 512          # build a multiplication table up to this field size
_ROOT_BRUTE_MAX_Q = 121     # exhaustive root search up to here; the gcd with u^q - u wins from 125
_EMBED_MAX_Q = 1_000_000    # largest field searched exhaustively for an embedding
_MUL_TABLES: dict = {}      # (p, k, modulus) -> multiplication table
_MODULI: dict = {}          # (p, k) -> the default modulus, found irreducible once


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over any FieldSpec F, on lists (or tuples) of
# encodings in ascending degree.  UPoly wraps these routines; the modulus
# search and _mul_raw call them over the prime field.  Over F_p (F.k == 1)
# the product, the division and the gcd work on plain ints: the product sums
# raw pair products and reduces once per output term, the division (_prem)
# reduces each coefficient mod p once, when it is read or returned, and the
# gcd takes remainders without quotients.  Over F_{p^k}, k > 1, each pair
# goes through F.muli and F.addi, looked up on F at each call, never bound
# at import.
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, F: "FieldSpec") -> list[int]:
    """a * b; trimmed when a and b are."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if F.k == 1:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        p = F.p
        return [c % p for c in out]
    mul, add = F.muli, F.addi
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _pdivmod(a, b, F: "FieldSpec") -> tuple[list[int], list[int]]:
    """Quotient and trimmed remainder of a by b (b trimmed and nonzero)."""
    if not b:
        raise ValidationError("division by zero polynomial")
    q = [0] * max(0, len(a) - len(b) + 1)
    if F.k == 1:
        return q, _prem(a, b, F.p, q)
    rem = list(a)
    db = len(b) - 1
    inv = F.invi(b[-1])
    low = [(t, bt) for t, bt in enumerate(b[:db]) if bt]    # field moduli are sparse
    mul, add = F.muli, F.addi
    while len(rem) > db:
        c = rem.pop()
        if c:
            off = len(rem) - db
            q[off] = c = mul(c, inv)
            c = F.negi(c)
            for t, bt in low:
                rem[off + t] = add(rem[off + t], mul(c, bt))
    return q, _trim(rem)


def _prem(a, b, p: int, quo: list | None = None) -> list[int]:
    """The trimmed remainder of a by b over F_p (b trimmed and nonzero).
    The quotient's coefficients go into ``quo`` when it is given; the gcd
    builds none."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = [(t, bt) for t, bt in enumerate(b[:db]) if bt]    # field moduli are sparse
    while len(rem) > db:
        c = rem.pop() % p
        if c:
            off = len(rem) - db
            c = c * inv % p
            if quo is not None:
                quo[off] = c
            c = p - c
            for t, bt in low:
                rem[off + t] += c * bt
    return _trim([c % p for c in rem])


def _pgcd(a, b, F: "FieldSpec") -> list[int]:
    """Monic gcd of a and b (b trimmed); gcd(a, 0) is a made monic."""
    if F.k == 1:
        p = F.p
        while b:
            a, b = b, _prem(a, b, p)
        if not a:
            return []
        inv = pow(a[-1], -1, p)
        return [c * inv % p for c in a]
    while b:
        a, b = b, _pdivmod(a, b, F)[1]
    if not a:
        return []
    inv = F.invi(a[-1])
    return [F.muli(c, inv) for c in a]


def _ppowmod(a, n: int, m, F: "FieldSpec") -> list[int]:
    """a^n, reduced mod m at every step unless m is None."""
    def red(x):
        return x if m is None else _pdivmod(x, m, F)[1]

    out = [1]
    base = red(a)
    while n:
        if n & 1:
            out = red(_pmul(out, base, F))
        n >>= 1
        if n:
            base = red(_pmul(base, base, F))
    return out


def _is_irreducible(m: list[int], Fp: "FieldSpec") -> bool:
    """Ben-Or's test for a monic polynomial over the prime field Fp: m of
    degree k is irreducible iff gcd(x^{p^i} - x, m) = 1 for every i <= k/2,
    since a reducible m has an irreducible factor of degree at most k/2,
    which divides x^{p^i} - x for i its degree."""
    k = len(m) - 1
    if k < 1:
        return False
    xp = [0, 1]             # x^{p^i} mod m
    for _ in range(k // 2):
        xp = _ppowmod(xp, Fp.p, m, Fp)
        g = xp + [0] * (2 - len(xp))
        g[1] = Fp.subi(g[1], 1)
        if len(_pgcd(_trim(g), m, Fp)) != 1:
            return False
    return True


def _smallest_modulus(Fp: "FieldSpec", k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over Fp."""
    if k == 1:
        return (0, 1)
    p = Fp.p
    for enc in range(p ** k):
        cand = [enc // p ** i % p for i in range(k)] + [1]
        if _is_irreducible(cand, Fp):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _terms_text(items, names, cstr) -> str:
    """The '+'-joined terms c*v^a*... of (exponent tuple, coefficient)
    ``items`` in the variables ``names``, each coefficient printed by
    ``cstr``: a 1 is dropped before a variable, one printed with '+', '*'
    or '^' is parenthesized, and no terms print as 0.  Field elements (in
    t), UPoly (in u) and forms (HomForm.as_text) all print through it."""
    parts = []
    for exps, c in items:
        cs = cstr(c)
        if "+" in cs or "*" in cs or "^" in cs:
            cs = f"({cs})"
        term = [] if cs == "1" else [cs]
        for v, a in zip(names, exps):
            if a:
                term.append(v if a == 1 else f"{v}^{a}")
        parts.append("*".join(term) or cs)
    return "+".join(parts) or "0"


# ---------------------------------------------------------------------------
# field of q = p^k elements
# ---------------------------------------------------------------------------

class FieldSpec:
    """The finite field F_{p^k} = F_p[t]/(modulus).

    Elements are integer encodings sum(c_i p^i) in [0, q) of c_0 + c_1 t +
    ..., and inside the library every coefficient is one; the *_i methods
    work on them.  `encode` reads a caller's coefficient; `elem` wraps a
    value into a GFElem at the API edge, reading a plain int mod p over F_p
    and refusing one outside [0, p) over F_{p^k}, k > 1, where the two
    readings of an int would differ.
    """

    __slots__ = ("p", "k", "q", "modulus", "_mul_table", "_prime", "_embed_cache")

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        require_prime(p)
        if k < 1:
            raise ValidationError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.q = p ** k
        self._prime = self if k == 1 else FieldSpec(p)     # F_p, for arithmetic mod `modulus`
        if modulus is None:
            modulus = _MODULI.get((p, k))
            if modulus is None:
                modulus = _MODULI[(p, k)] = _smallest_modulus(self._prime, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValidationError("modulus must be monic of degree k")
            if k > 1 and not _is_irreducible(list(modulus), self._prime):
                raise ValidationError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self._mul_table: list[list[int]] | None = None
        self._embed_cache: dict = {}

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k})"

    # -- encoding helpers ----------------------------------------------------
    def coeffs_of(self, enc: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(enc % self.p)
            enc //= self.p
        return tuple(out)

    def enc_of(self, coeffs) -> int:
        enc = 0
        for c in reversed(list(coeffs)):
            enc = enc * self.p + (c % self.p)
        return enc

    # -- arithmetic on encodings ---------------------------------------------
    def addi(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p) + (b % p)) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def negi(self, a: int) -> int:
        p = self.p
        if self.k == 1:
            return (-a) % p
        out = 0
        mult = 1
        while a:
            out += (-(a % p)) % p * mult
            a //= p
            mult *= p
        return out

    def subi(self, a: int, b: int) -> int:
        return self.addi(a, self.negi(b))

    def _mul_raw(self, a: int, b: int) -> int:
        Fp = self._prime
        prod = _pmul(self.coeffs_of(a), self.coeffs_of(b), Fp)
        return self.enc_of(_pdivmod(prod, self.modulus, Fp)[1])

    def muli(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        tab = self._mul_table
        if tab is None and self.q <= _TABLE_MAX_Q:
            key = (self.p, self.k, self.modulus)
            if key not in _MUL_TABLES:
                _MUL_TABLES[key] = self._log_table()
            tab = self._mul_table = _MUL_TABLES[key]
        if tab is not None:
            return tab[a][b]
        return self._mul_raw(a, b)

    def _log_table(self) -> list[list[int]]:
        """The q x q product table as a*b = exp[log a + log b], from the powers
        of the first primitive element."""
        q = self.q
        for g in range(2, q):
            exp = [1]
            while (x := self._mul_raw(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        logs = sorted(range(q - 1), key=exp.__getitem__)    # log a for a = 1..q-1
        exp += exp
        return [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]

    def powi(self, a: int, n: int) -> int:
        if self.k == 1:
            return pow(a, n, self.p) if n >= 0 else pow(pow(a, -1, self.p), -n, self.p)
        if n < 0:
            return self.powi(self.invi(a), -n)
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.muli(out, base)
            base = self.muli(base, base)
            n >>= 1
        return out

    def invi(self, a: int) -> int:
        if a == 0:
            raise ValidationError("zero has no inverse")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self.powi(a, self.q - 2)

    def frobi(self, a: int) -> int:
        """The field automorphism x -> x^p on encodings."""
        if self.k == 1:
            return a
        return self.powi(a, self.p)

    def pth_rooti(self, a: int) -> int:
        """Inverse of Frobenius (always exists: the field is perfect)."""
        if self.k == 1:
            return a
        return self.powi(a, self.p ** (self.k - 1))

    def encode(self, c) -> int:
        """A caller's coefficient as an encoding: a GFElem of this field gives
        its own; an int is reduced mod p over F_p, and over F_{p^k} it must
        already be an encoding in [0, q)."""
        if isinstance(c, int):
            if self.k == 1:
                return c % self.p
            if 0 <= c < self.q:
                return c
        elif isinstance(c, GFElem):
            if c.field != self:
                raise ValidationError("element belongs to a different field")
            return c.enc
        raise ValidationError(f"coefficient {c!r} outside the encodings [0, {self.q})")

    # -- element-level API -----------------------------------------------------
    def elem(self, x) -> "GFElem":
        if isinstance(x, GFElem):
            if x.field != self:
                raise ValidationError("element belongs to a different field")
            return x
        if isinstance(x, int):
            # integers embed through the prime subfield.  Over F_{p^k}, k > 1,
            # only [0, p), where that reading and encode's agree, is taken
            if self.k > 1 and not 0 <= x < self.p:
                raise ValidationError(f"integer {x} is ambiguous in F_{self.q}: pass an "
                                      f"integer in [0, {self.p}), a GFElem or a tuple of digits")
            return GFElem(self, x % self.p)
        return GFElem(self, self.enc_of(x))

    def zero(self) -> "GFElem":
        return GFElem(self, 0)

    def one(self) -> "GFElem":
        return GFElem(self, 1)

    def gen(self) -> "GFElem":
        if self.k == 1:
            raise ValidationError(f"F_{self.p} has no extension generator t")
        return GFElem(self, self.p)  # the class of t

    def elements(self):
        for enc in range(self.q):
            yield GFElem(self, enc)

    def random_elem(self, rng: random.Random) -> "GFElem":
        return GFElem(self, rng.randrange(self.q))

    def elem_str(self, enc: int) -> str:
        if self.k == 1:
            return str(enc)
        return _terms_text([((i,), c) for i, c in enumerate(self.coeffs_of(enc)) if c][::-1],
                           ("t",), str)

    # -- embeddings -------------------------------------------------------------
    def embedding_from(self, src: "FieldSpec"):
        """Encoding map realizing F_{p^j} inside this field (j | k required)."""
        if src == self:
            return lambda enc: enc
        if src.p != self.p or self.k % src.k != 0:
            raise ValidationError(f"{src!r} does not embed in {self!r}")
        if src.k == 1:
            return lambda enc: enc  # prime subfield: constants encode identically
        key = (src.p, src.k, src.modulus)
        table = self._embed_cache.get(key)
        if table is None:
            if self.q > _EMBED_MAX_Q:
                raise ValidationError("embedding search too large for this field")
            # t goes to the smallest-encoding root of src's modulus
            poly = UPoly(self, src.modulus)
            root = next(e for e in range(self.q) if poly.eval_enc(e) == 0)
            table = [UPoly(self, src.coeffs_of(enc)).eval_enc(root) for enc in range(src.q)]
            self._embed_cache[key] = table
        return lambda enc: table[enc]


class GFElem:
    """An element of a FieldSpec, hashable and immutable."""

    __slots__ = ("field", "enc")

    def __init__(self, field: FieldSpec, enc: int):
        self.field = field
        self.enc = enc

    def __bool__(self):
        return self.enc != 0

    def __eq__(self, other):
        if isinstance(other, GFElem):
            return self.enc == other.enc and self.field == other.field
        if isinstance(other, int):
            F = self.field
            return (F.k == 1 or 0 <= other < F.p) and self.enc == other % F.p
        return NotImplemented

    def __hash__(self):
        return hash((self.enc, self.field.p, self.field.k))

    def _coerce(self, other) -> "GFElem":
        if isinstance(other, GFElem):
            if other.field != self.field:
                raise ValidationError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return GFElem(self.field, self.field.addi(self.enc, o.enc))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return GFElem(self.field, self.field.subi(self.enc, o.enc))

    def __rsub__(self, other):
        return self.field.elem(other) - self

    def __neg__(self):
        return GFElem(self.field, self.field.negi(self.enc))

    def __mul__(self, other):
        o = self._coerce(other)
        return GFElem(self.field, self.field.muli(self.enc, o.enc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __pow__(self, n: int):
        return GFElem(self.field, self.field.powi(self.enc, n))

    def inverse(self) -> "GFElem":
        return GFElem(self.field, self.field.invi(self.enc))

    def frobenius(self) -> "GFElem":
        return GFElem(self.field, self.field.frobi(self.enc))

    def __str__(self):
        return self.field.elem_str(self.enc)

    def __repr__(self):
        return f"GFElem({self.field!r}, {self})"


# ---------------------------------------------------------------------------
# univariate polynomials over a FieldSpec
# ---------------------------------------------------------------------------

class UPoly:
    """Univariate polynomial over F_{p^k}; coefficients stored as encodings,
    ascending degree, trailing zeros trimmed.  The zero polynomial has an
    empty coefficient tuple and degree -1.

    ``UPoly(field, coeffs)`` reads each coefficient with FieldSpec.encode.
    The private ``UPoly._of(field, cs)`` trusts a list of encodings in
    [0, q) and only trims it; the results of the dense routines, of
    derivative, scale and the ring operations come through it.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        cs = [field.encode(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, field: FieldSpec, cs: list[int]) -> "UPoly":
        """Trusted: ``cs`` is a list of encodings in [0, q), trimmed here."""
        u = cls.__new__(cls)
        u.field = field
        u.coeffs = tuple(_trim(cs))
        return u

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    # -- basics ---------------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self) -> int:
        if not self.coeffs:
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.k))

    def __str__(self):
        return _terms_text([((i,), c) for i, c in enumerate(self.coeffs) if c][::-1],
                           ("u",), self.field.elem_str)

    __repr__ = __str__

    # -- arithmetic --------------------------------------------------------------
    def _bin(self, other, op):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly._of(F, [op(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __add__(self, other):
        return self._bin(other, self.field.addi)

    def __sub__(self, other):
        return self._bin(other, self.field.subi)

    def __neg__(self):
        F = self.field
        return UPoly._of(F, [F.negi(c) for c in self.coeffs])

    def __mul__(self, other):
        return UPoly._of(self.field, _pmul(self.coeffs, other.coeffs, self.field))

    def scale(self, c) -> "UPoly":
        F = self.field
        ce = F.encode(c)
        return UPoly._of(F, [F.muli(ce, a) for a in self.coeffs])

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        return self.scale(self.field.invi(self.leading()))

    def divmod(self, other) -> tuple["UPoly", "UPoly"]:
        q, r = _pdivmod(self.coeffs, other.coeffs, self.field)
        return UPoly._of(self.field, q), UPoly._of(self.field, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other) -> "UPoly":
        """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
        return UPoly._of(self.field, _pgcd(self.coeffs, other.coeffs, self.field))

    def derivative(self) -> "UPoly":
        F, cs = self.field, self.coeffs
        if F.k == 1:
            p = F.p
            return UPoly._of(F, [i * cs[i] % p for i in range(1, len(cs))])
        return UPoly._of(F, [F.muli(i % F.p, cs[i]) for i in range(1, len(cs))])

    def pow(self, n: int, mod: "UPoly | None" = None) -> "UPoly":
        m = None if mod is None else mod.coeffs
        return UPoly._of(self.field, _ppowmod(self.coeffs, n, m, self.field))

    def eval_enc(self, x_enc: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.addi(F.muli(acc, x_enc), c)
        return acc

    def __call__(self, x) -> GFElem:
        return GFElem(self.field, self.eval_enc(self.field.elem(x).enc))

    # -- structure ---------------------------------------------------------------
    def is_squarefree(self) -> bool:
        """No repeated roots over the algebraic closure: gcd(f, f') = 1.

        If f' = 0 the gcd is monic f, of positive degree unless f is
        constant: f is then a polynomial in u^p, hence a p-th power over a
        perfect field.
        """
        if self.is_zero():
            raise ValidationError("squarefree test on the zero polynomial")
        return self.gcd(self.derivative()).degree == 0

    def map_to(self, target: FieldSpec) -> "UPoly":
        emb = target.embedding_from(self.field)
        return UPoly(target, [emb(c) for c in self.coeffs])

    def roots_in(self, target: FieldSpec | None = None) -> list[int]:
        """The encodings of all roots lying in ``target`` (default: own
        field), each once, sorted.  Exhaustive scan for small fields; for
        large ones the in-field part is split off with u^q - u and then
        factored by randomized splitting.
        """
        K = target or self.field
        f = self.map_to(K) if K != self.field else self
        if f.is_zero():
            raise ValidationError("roots of the zero polynomial")
        if f.degree == 0:
            return []
        if K.q <= _ROOT_BRUTE_MAX_Q:
            return [e for e in range(K.q) if f.eval_enc(e) == 0]
        # u^q - u is the squarefree product of u - r over r in K, so the gcd
        # keeps each in-field root once, whatever its multiplicity in f
        xq = UPoly.x(K).pow(K.q, mod=f)
        lin = f.gcd(xq - UPoly.x(K))
        rng = random.Random(0xF9)
        return sorted(_split_linear(lin, rng))


def _split_linear(g: UPoly, rng: random.Random) -> list[int]:
    """Roots (encodings) of a product of distinct monic linear factors, by
    random splitting."""
    K = g.field
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [K.muli(K.negi(g.coeff(0)), K.invi(g.coeff(1)))]
    while True:
        r = rng.randrange(1, K.q)
        s = rng.randrange(K.q)
        probe = UPoly(K, (s, r))  # r*u + s
        if K.p == 2:
            # trace map T(z) = z + z^2 + ... + z^{2^{m-1}}, m = log2(q)
            m = K.k  # q = 2^k
            z = probe % g
            acc = z
            for _ in range(m - 1):
                z = (z * z) % g
                acc = acc + z
            h = g.gcd(acc)
        else:
            h = g.gcd(probe.pow((K.q - 1) // 2, mod=g) - UPoly.one(K))
        if 0 < h.degree < g.degree:
            rest = g.divmod(h)[0]
            return _split_linear(h, rng) + _split_linear(rest, rng)
