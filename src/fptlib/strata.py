"""Stratification machinery: candidate filters, censuses, witness searches.

Writing 2/d = a/b in lowest terms, a truncation place L can only carry the
threshold of a reduced binary form if

  (I)   gcd(p, b) = 1 implies L <= ord of p in (Z/bZ)^*,
  (II)  p > b implies a < (a*p^e' mod b) for every 1 <= e' < L,
  (III) 1 <= (a*p^L mod b) <= b - a,

and additionally the truncation value must avoid the excluded open interval
(1/p, 1/(p-1)).  These conditions are necessary, not sufficient; censuses
below enumerate actual coefficient spaces and check observed values against
the candidate list, raising an anomaly on any violation.  Every binary
answer is an orbit invariant, so forms are counted by orbit under
PGL_2(F_q) x| Gal(F_q/F_p), one squarefree test and one threshold per orbit.
A census is one pass in index order: the orbit walk yields the classes, the
thresholds come from ``map`` or, in order, from a worker pool, and the first
class with a value is that value's witness.  The walk moves between census
indices through one index map per generator, built block by block inside
each census call and dropped with it: a step is one array lookup and a byte
set in the visited map, with no coefficient list and no re-indexing.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, gcd

from .errors import AnomalyError, BudgetError, ValidationError
from .forms import HomForm, in_frobenius_power, is_squarefree_binary
from .forms import pow_mod_frobenius  # noqa: F401  kept bound: fptbench/tracer.py wraps it here
from .fptengine import fpt_binary_exact
from .genericfpt import generic_fpt_binary
from .gfpoly import FieldSpec, GFElem, UPoly
from .ratbase import (bms_excluded, is_prime, lucas_binom, min_e_two_p_pow, mult_order,
                      require_prime, trunc)

DEFAULT_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# candidate truncations
# ---------------------------------------------------------------------------

def hnwz_flags(d: int, p: int, L: int) -> tuple[bool, bool, bool]:
    """The three necessary conditions at place L, each vacuously true outside
    its guard (I needs gcd(p,b)=1, II needs p>b)."""
    if d < 2 or L < 1:
        raise ValidationError("need d >= 2 and L >= 1")
    require_prime(p)
    lam = Fraction(2, d)
    a, b = lam.numerator, lam.denominator
    if gcd(p, b) == 1:
        cond1 = L <= mult_order(p, b)
    else:
        cond1 = True
    if p > b:
        cond2 = all(a < (a * p ** e1) % b for e1 in range(1, L))
    else:
        cond2 = True
    rem = (a * p ** L) % b
    cond3 = 1 <= rem <= b - a
    return cond1, cond2, cond3


@dataclass(frozen=True)
class CandidateEntry:
    L: int
    value: Fraction
    cond_I: bool
    cond_II: bool
    cond_III: bool
    bms_excluded: bool
    above_generic: bool = False   # exceeds the closed-form maximum

    @property
    def admissible(self) -> bool:
        return (self.cond_I and self.cond_II and self.cond_III
                and not self.bms_excluded and not self.above_generic
                and self.value > 0)

    def to_dict(self) -> dict:
        return {"L": self.L, "value": str(self.value), "cond_I": self.cond_I,
                "cond_II": self.cond_II, "cond_III": self.cond_III,
                "bms_excluded": self.bms_excluded,
                "above_generic": self.above_generic,
                "admissible": self.admissible}


@dataclass(frozen=True)
class CandidateReport:
    d: int
    p: int
    entries: tuple[CandidateEntry, ...]
    generic_value: Fraction
    generic_L: int | None         # None when the generic value is 2/d itself

    def admissible_values(self) -> list[Fraction]:
        vals = {e.value for e in self.entries if e.admissible}
        if self.generic_L is None:
            vals.add(self.generic_value)
        return sorted(vals)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "d": self.d, "p": self.p,
            "entries": [e.to_dict() for e in self.entries],
            "generic_value": str(self.generic_value),
            "generic_L": self.generic_L,
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["L", "value", "cond_I", "cond_II", "cond_III",
                 "bms_excluded", "above_generic", "admissible"]]
        for e in self.entries:
            rows.append([str(e.L), str(e.value), str(e.cond_I), str(e.cond_II),
                         str(e.cond_III), str(e.bms_excluded),
                         str(e.above_generic), str(e.admissible)])
        return rows


def candidates(d: int, p: int, l_cap: int = 12) -> CandidateReport:
    """All candidate truncation places with their condition flags, plus the
    generic (maximal) value.  When gcd(p, b) = 1 the range of places is the
    order bound from condition (I); otherwise ``l_cap`` bounds the listing."""
    if d < 2:
        raise ValidationError("need d >= 2")
    require_prime(p)
    lam = Fraction(2, d)
    b = lam.denominator
    bound = mult_order(p, b) if b % p else l_cap
    gval = generic_fpt_binary(d, p)
    gL = None
    if gval != lam:
        gL = min_e_two_p_pow(d, p, target=1)
    entries = []
    for L in range(1, bound + 1):
        c1, c2, c3 = hnwz_flags(d, p, L)
        val = trunc(lam, p, L).value
        excl = bms_excluded(val, p) if val > 0 else False
        entries.append(CandidateEntry(L, val, c1, c2, c3, excl, val > gval))
    return CandidateReport(d, p, tuple(entries), gval, gL)


# ---------------------------------------------------------------------------
# census of a coefficient space
# ---------------------------------------------------------------------------

@dataclass
class ValueRecord:
    count_reduced: int = 0
    count_nonreduced: int = 0
    witness_index: int | None = None
    witness_coeffs: tuple[int, ...] | None = None
    witness_text: str | None = None

    def to_dict(self) -> dict:
        return {"count_reduced": self.count_reduced,
                "count_nonreduced": self.count_nonreduced,
                "witness": self.witness_text}


@dataclass
class CensusReport:
    d: int
    p: int
    k: int
    reduced_only: bool
    e_cap: int
    total: int
    records: dict                 # Fraction -> ValueRecord
    unresolved: int = 0
    skipped_nonreduced: int = 0

    def reduced_values(self) -> set[Fraction]:
        return {v for v, rec in self.records.items() if rec.count_reduced}

    def all_values(self) -> set[Fraction]:
        return set(self.records)

    def counts_consistent(self) -> bool:
        s = sum(r.count_reduced + r.count_nonreduced for r in self.records.values())
        return s + self.unresolved + self.skipped_nonreduced == self.total

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "d": self.d, "p": self.p, "k": self.k,
            "reduced_only": self.reduced_only,
            "e_cap": self.e_cap,
            "total": self.total,
            "unresolved": self.unresolved,
            "skipped_nonreduced": self.skipped_nonreduced,
            "values": {str(v): rec.to_dict()
                       for v, rec in sorted(self.records.items())},
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["value", "count_reduced", "count_nonreduced", "witness"]]
        for v, rec in sorted(self.records.items()):
            rows.append([str(v), str(rec.count_reduced), str(rec.count_nonreduced),
                         rec.witness_text or ""])
        return rows


def _coeffs_of_index(g: int, d: int, q: int) -> list[int]:
    """The g-th projective representative (first nonzero coefficient 1), in
    lexicographic order over coefficient tuples."""
    t = 0
    block = q ** d
    while g >= block:
        g -= block
        t += 1
        block //= q
    coeffs = [0] * (d + 1)
    coeffs[t] = 1
    digits = []
    for _ in range(d - t):
        digits.append(g % q)
        g //= q
    for s, c in enumerate(reversed(digits)):
        coeffs[t + 1 + s] = c
    return coeffs


def _primitive_element(K: FieldSpec) -> int:
    """The smallest encoding that generates the multiplicative group."""
    q = K.q
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
    return next(a for a in range(1, q)
                if all(K.powi(a, (q - 1) // r) != 1 for r in primes))


_CHUNK = 1 << 14        # map entries computed at once, as a list, before they go into an array


def _orbit_maps(K: FieldSpec, d: int) -> list:
    """One map of the census indices per generator of PGL_2(F_q) x| Gal(F_q/F_p)
    acting on degree-d binary forms, each an array('I') of 4-byte entries.

    The generators act on coefficient lists [a_0, ..., a_d] (a_i the
    coefficient of x^(d-i) y^i): x -> x+y, x <-> y, y -> b*y for b
    primitive (left out over F_2), and coefficientwise Frobenius for k > 1.
    The first two give the unipotent matrices over F_p; conjugating x -> x+y
    by y -> b*y gives x -> x + b^j y, whose sums reach every c in F_q =
    F_p[b], so with the diagonal matrices they generate GL_2(F_q).

    Block t of the indices holds the classes whose first nonzero coefficient
    is a 1 in slot t; index offset_t + h has the base-q digits of h as
    a_(t+1), ..., a_d.  The maps are filled block by block, from the map of
    block t+1 or from tables on the digits, never one class at a time, and
    in chunks of at most _CHUNK entries:

    - x -> x+y keeps that 1.  With a in slot t+1 and the rest r, the image
      is a + (d-t) in slot t+1, then block t+1's image of r translated
      digitwise by C(d-t-1, j+1) + a C(d-t-1, j) in slot t+1+j.
    - y -> b*y multiplies slot i by b^(i-t), and Frobenius maps every digit:
      block t's image is block t+1's image with one more digit below.
    - x <-> y reverses the digits and divides them by the last nonzero one,
      v in slot u.  The indices with that (u, v) form one strided slice of
      block t, filled from one table of the digits strictly between slots t
      and u, reversed and divided by v, shared by every t with that u - t.
    """
    from array import array     # not at the top: loading it adds 0.1 MB to every process
    q, p = K.q, K.p
    offset = [(q ** (d + 1) - q ** (d + 1 - t)) // (q - 1) for t in range(d + 2)]
    n = offset[d + 1]

    def translation(u: int, size: int, base: int) -> list[int]:
        # x -> base + (x + u digitwise) on [0, size).  Sums in F_{p^k} are
        # digitwise mod p on encodings, so x and u are read in base p
        tab, w = [base], 1
        while w < size:
            c, wider = u // w % p, []
            for a in range(p):
                x = (a + c) % p * w
                wider.extend([x + y for y in tab])
            tab, w = wider, w * p
        return tab

    def shift() -> array:
        out = array("I", [0]) * n
        out[n - 1] = n - 1          # y^d is fixed
        for m in range(1, d + 1):      # block t = d - m, of m digits
            lo, o, w = offset[d - m], offset[d - m + 1], q ** (m - 1)
            binom = [comb(m - 1, j) % p for j in range(m + 1)]
            for a in range(q):
                u = 0
                for j in range(1, m):
                    u = u * q + K.addi(binom[j + 1], K.muli(a, binom[j]))
                tau = translation(u, w, lo + K.addi(a, m % p) * w)
                for i in range(0, w, _CHUNK):
                    prev = out[o + i:o + min(i + _CHUNK, w)]
                    at = lo + a * w + i
                    out[at:at + len(prev)] = array("I", [tau[y - o] for y in prev])
        return out

    def swap() -> array:
        out = array("I", [0]) * n
        for t in range(d + 1):
            out[offset[t]] = offset[d - t]    # x^(d-t) y^t <-> x^t y^(d-t)
        for v in range(1, q):
            w = K.invi(v)
            row = [K.muli(w, a) for a in range(q)]
            rev = array("I", [0])            # j digits, reversed and times w
            for j in range(d):
                if j:
                    shifted, rev = [y * q for y in rev], array("I")
                    for c in row:
                        rev.extend([c + y for y in shifted])
                for t in range(d - j):
                    u = t + j + 1              # the slot of the last nonzero coefficient, v
                    step, scale = q ** (d - u + 1), q ** (t + 1)
                    start = offset[t] + v * q ** (d - u)
                    base = offset[d - u] + w * q ** t
                    for i in range(0, len(rev), _CHUNK):
                        part = rev[i:i + _CHUNK]
                        at = start + i * step
                        out[at:at + len(part) * step:step] = \
                            array("I", [base + y * scale for y in part])
        return out

    def digitwise(last) -> array:
        # block t's image is block t+1's with the digit a in slot d appended
        # as last[d - t][a]
        out = array("I", [0]) * n
        out[n - 1] = n - 1
        step = max(1, _CHUNK // q)
        for t in range(d - 1, -1, -1):
            lo, o, hi = offset[t], offset[t + 1], offset[t + 2]
            cs = [lo - o * q + c for c in last[d - t]]
            for i in range(o, hi, step):
                prev = [y * q for y in out[i:min(i + step, hi)]]
                at = lo + (i - o) * q
                out[at:at + len(prev) * q] = array("I", [y + c for y in prev for c in cs])
        return out

    maps = [shift(), swap()]
    if q > 2:
        b = _primitive_element(K)
        maps.append(digitwise([[K.muli(K.powi(b, m), a) for a in range(q)]
                               for m in range(d + 1)]))
    if K.k > 1:
        maps.append(digitwise([[K.frobi(a) for a in range(q)]] * (d + 1)))
    return maps


def _mark(maps, g: int, seen: bytearray) -> int:
    """Mark the orbit of index g in ``seen``, depth first, and return its
    size.  Each member costs one lookup in each generator's index map."""
    seen[g] = 1
    stack, size = [g], 0
    while stack:
        c = stack.pop()
        size += 1
        for m in maps:
            j = m[c]
            if not seen[j]:
                seen[j] = 1
                stack.append(j)
    return size


def _classes(K: FieldSpec, d: int):
    """The census classes, one per orbit, in increasing order of their
    smallest index, as (index, form, weight, reduced).

    Squarefreeness and every threshold fpt_binary_exact returns, exact or
    interval, are invariant under linear coordinate changes and Galois
    conjugation (see fptengine), so each orbit is one class, weighted by its
    size.  An orbit is met first at its smallest index, which is the class's.
    """
    maps = _orbit_maps(K, d)
    seen = bytearray(len(maps[0]))
    g = 0
    while (g := seen.find(0, g)) >= 0:
        f = HomForm.from_coeffs(K, _coeffs_of_index(g, d, K.q))
        yield g, f, _mark(maps, g, seen), is_squarefree_binary(f)


def _threshold(cls, e_cap: int, reduced_only: bool):
    """The class with its exact threshold, or None for an interval or for a
    non-reduced class of a reduced-only census."""
    if reduced_only and not cls[3]:
        return cls, None
    res = fpt_binary_exact(cls[1], e_cap=e_cap)
    return cls, res.value if res.is_exact else None


def census(d: int, p: int, k: int = 1, reduced_only: bool = False, e_cap: int = 2,
           budget: int = DEFAULT_BUDGET, workers: int = 1) -> CensusReport:
    """Count every degree-d binary form over F_{p^k} up to scalar (first
    nonzero coefficient normalized to 1) by its threshold, with the
    lexicographically first witness per value.

    Each orbit under PGL_2(F_q) x| Gal(F_q/F_p) is one class (see _classes):
    one squarefree test and one threshold, counted once for every form in
    it.  One pass walks the orbits in index order; with ``workers`` > 1 a
    fork pool computes the thresholds, in order, while the walk stays here.
    Reduced values are checked against the admissible candidate set on the
    fly; a violation raises AnomalyError.  Interval-only results are counted
    as unresolved; with ``reduced_only`` non-reduced orbits get no threshold
    and are counted as skipped.

    The walk holds 4 bytes per class for each generator's index map and 1
    for the visited map: 9 bytes per class over F_2, 13 over other prime
    fields and 17 over F_{p^k}, k > 1, plus a table of q^(d-1) ints while
    the maps are built.
    """
    if d < 2:
        raise ValidationError("census needs d >= 2")
    if workers < 1:
        raise ValidationError(f"need at least 1 worker, got {workers}")
    if e_cap < 1:
        raise ValidationError(f"need e_cap >= 1, got {e_cap}")
    require_prime(p)
    K = FieldSpec(p, k)
    q = K.q
    total = (q ** (d + 1) - 1) // (q - 1)
    if total > budget:
        raise BudgetError(f"enumeration needs {total} forms but budget is {budget}; "
                          f"rerun with budget >= {total}", required=total, budget=budget)
    admissible = frozenset(candidates(d, p).admissible_values()) | {Fraction(2, d)}
    threshold = partial(_threshold, e_cap=e_cap, reduced_only=reduced_only)
    records: dict[Fraction, ValueRecord] = {}
    unresolved = skipped = 0
    if workers > 1:
        import multiprocessing as mp   # not at the top: it adds ~12 ms to every import
    with mp.get_context("fork").Pool(workers) if workers > 1 else nullcontext() as pool:
        classes = _classes(K, d)
        results = map(threshold, classes) if pool is None else \
            pool.imap(threshold, classes, chunksize=16)
        for (g, f, weight, reduced), v in results:
            if reduced_only and not reduced:
                skipped += weight
                continue
            if v is None:
                unresolved += weight
                continue
            if reduced and v not in admissible:
                raise AnomalyError(
                    f"census d={d} p={p} k={k}: reduced form {f.as_text()} has "
                    f"threshold {v} outside the admissible candidate set {sorted(admissible)}"
                )
            rec = records.get(v)
            if rec is None:
                # classes come in index order: the first with v is its witness
                rec = records[v] = ValueRecord(witness_index=g,
                                               witness_coeffs=tuple(f.coeff_list()),
                                               witness_text=f.as_text())
            if reduced:
                rec.count_reduced += weight
            else:
                rec.count_nonreduced += weight
    return CensusReport(d, p, k, reduced_only, e_cap, total, records,
                        unresolved, skipped)


# ---------------------------------------------------------------------------
# trinomial witness search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessResult:
    a_value: GFElem
    field: FieldSpec
    form: HomForm
    target: Fraction
    obstruction: str              # the gcd of the obstruction polynomials, printed

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "a": str(self.a_value),
            "field": f"F_{self.field.q}",
            "form": self.form.as_text(),
            "target": str(self.target),
            "obstruction_gcd": self.obstruction,
        }


def _target_depth(d: int, p: int, target: Fraction) -> tuple[int, int]:
    """Validate that target is a truncation of 2/d and return (N, e) in the
    reduced representation target = N/p^e."""
    lam = Fraction(2, d)
    if not 0 < target < lam:
        raise ValidationError(f"target {target} is not a positive truncation of {lam}")
    den = target.denominator
    e = 0
    while den % p == 0:
        den //= p
        e += 1
    if den != 1 or e == 0:
        raise ValidationError(f"target {target} does not have a p-power denominator")
    for L in range(1, 4 * e + 8):
        tv = trunc(lam, p, L)
        if tv.value == target:
            return target.numerator, e
        if tv.value > target:
            break
    raise ValidationError(f"target {target} is not a truncation of {lam} base {p}")


def trinomial_obstructions(p: int, family: tuple[int, int, int], N: int, e: int) -> dict:
    """The coefficients of f^N outside (x^{p^e}, y^{p^e}) for the family
    f = x^i y^j (x^{2m} + a x^m y^m + y^{2m}), as nonzero polynomials in a
    over F_p keyed by exponent pairs.

    A term of f^N takes k2 middle factors and k3 factors y^{2m}; with
    s = k2 + 2 k3 it is x^{iN+m(2N-s)} y^{jN+ms}, and its coefficient is the
    sum of the multinomials C(N, k2) C(N-k2, k3) a^{k2} mod p (Lucas).
    """
    i, j, m = family
    F, B = FieldSpec(p, 1), p ** e
    out = {}
    for s in range(2 * N + 1):
        exps = (i * N + m * (2 * N - s), j * N + m * s)
        if max(exps) >= B:
            continue
        cs = [0] * (min(s, N) + 1)
        for k2 in range(s % 2, len(cs), 2):
            cs[k2] = lucas_binom(N, k2, p) * lucas_binom(N - k2, (s - k2) // 2, p)
        ob = UPoly(F, cs)
        if ob:
            out[exps] = ob
    return out


def trinomial_witness_search(p: int, d: int, target: Fraction, family: tuple[int, int, int],
                             k_max: int = 3) -> WitnessResult | None:
    """Search the one-parameter family x^i y^j (x^{2m} + a x^m y^m + y^{2m})
    for a specialization with threshold forced down to ``target``.

    The coefficients of f^N that survive the target Frobenius power are
    polynomials in a (trinomial_obstructions) that must all vanish, so any
    witness is a root of their gcd.  Roots are searched in F_{p^kappa} for
    kappa = 1..k_max and only specializations that stay squarefree are
    accepted.  None means no witness at this scale, never a proof of
    nonexistence.
    """
    require_prime(p)
    i, j, m = family
    if i < 0 or j < 0 or m < 1 or i + j + 2 * m != d:
        raise ValidationError(f"family {family} does not have degree {d}")
    if k_max < 1:
        raise ValidationError(f"need k_max >= 1, got {k_max}")
    N, e = _target_depth(d, p, Fraction(target))
    G: UPoly | None = None
    for ob in trinomial_obstructions(p, family, N, e).values():
        G = ob if G is None else G.gcd(ob)
    if G is not None and G.degree == 0:
        return None  # a nonzero constant obstruction: no value of a works
    for kappa in range(1, k_max + 1):
        K = FieldSpec(p, kappa)
        for a0 in range(K.q) if G is None else G.roots_in(K):
            coeffs = [0] * (d + 1)          # indexed by the power of y
            coeffs[j], coeffs[j + m], coeffs[j + 2 * m] = 1, a0, 1
            form = HomForm.from_coeffs(K, coeffs)
            if not is_squarefree_binary(form):
                continue
            if not in_frobenius_power(form, N, e):
                raise AnomalyError(
                    f"specialized witness at a={K.elem_str(a0)} lost the membership "
                    f"f^{N} in depth {e} it was constructed for"
                )
            # the gcd is univariate in the parameter; print it in 'a'
            gtext = "0" if G is None else str(G.monic()).replace("u", "a")
            return WitnessResult(GFElem(K, a0), K, form, Fraction(N, p ** e), gtext)
    return None


# ---------------------------------------------------------------------------
# single-depth outside-ness predicate
# ---------------------------------------------------------------------------

def verify_genL1(p: int, d: int, i: int, j: int, g: HomForm) -> bool:
    """Check f = x^i y^j g stays outside (x^p, y^p) at exponent N, where
    2p = dN + r with 3 <= r <= d - 1.

    Hypotheses enforced: 0 <= i, j < p/N, the total degree is d, g is not
    divisible by x or y, and i + j is d-2 or d-1 (the printed source range
    "d-1 <= i+j <= d-2" is inconsistent as stated; the proof uses g of
    degree one or two, which is what is accepted here).
    """
    require_prime(p)
    if d < 4:
        raise ValidationError("need d >= 4")
    N, r = divmod(2 * p, d)
    if not 3 <= r <= d - 1:
        raise ValidationError(f"2p = {d}*{N} + {r}: remainder {r} outside [3, {d - 1}]")
    if i < 0 or j < 0 or (N > 0 and not (i < Fraction(p, N) and j < Fraction(p, N))):
        raise ValidationError(f"need 0 <= i, j < p/N = {p}/{N}")
    if i + j not in (d - 2, d - 1):
        raise ValidationError(f"i + j = {i + j} must be d-2 or d-1")
    if g.n != 2:
        raise ValidationError("g must be a binary form")
    if g.d != d - i - j:
        raise ValidationError(f"deg g = {g.d} but x^{i} y^{j} g must have degree {d}")
    if not g.coeff((g.d, 0)) or not g.coeff((0, g.d)):
        raise ValidationError("g must not be divisible by x or y")
    terms = {(ax + i, ay + j): c for (ax, ay), c in g.terms.items()}
    f = HomForm(g.field, 2, d, terms)
    return not in_frobenius_power(f, N, 1)


# ---------------------------------------------------------------------------
# lower bounds and their sharpness witnesses
# ---------------------------------------------------------------------------

def lower_bound_reduced(d: int, p: int) -> Fraction:
    """First nonzero truncation of the possibly-terminating base-p expansion
    of 2/d: a lower bound for the threshold of any reduced form of degree d."""
    if d < 2:
        raise ValidationError("need d >= 2")
    require_prime(p)
    lam = Fraction(2, d)
    e = 1
    while True:
        tv = trunc(lam, p, e, terminating=True)
        if tv.numer:
            return tv.value
        e += 1


def sharp_witness(d: int, p: int, e: int, k_max: int = 2, trials: int = 600,
                  seed: int = 0) -> HomForm:
    """A reduced degree-d witness with threshold exactly 1/p^e, for
    p^e + 1 <= d <= 2 p^e.

    Every form supported away from the exponent window (d - p^e, p^e) lies in
    the e-th Frobenius power, which caps its threshold at 1/p^e; the reduced
    lower bound meets that cap in this degree range, so any squarefree member
    of the family is a sharp witness.  The search is deterministic-seeded and
    raises if nothing is found through F_{p^k_max}.
    """
    require_prime(p)
    B = p ** e
    if not B + 1 <= d <= 2 * B:
        raise ValidationError(f"need p^e + 1 <= d <= 2 p^e, got d={d}, p^e={B}")
    if lower_bound_reduced(d, p) != Fraction(1, B):
        raise AnomalyError(f"lower bound at d={d}, p={p} is not 1/p^{e}")
    allowed = [idx for idx in range(d + 1)
               if d - idx >= B or idx >= B]  # x-exp = d - idx, y-exp = idx
    rng = random.Random(seed)
    for kappa in range(1, k_max + 1):
        K = FieldSpec(p, kappa)
        fixed: list[list[int]] = []
        # a few structured guesses first, then random draws on the support
        g1 = [0] * (d + 1)
        g1[0] = g1[d] = 1
        if B <= d:
            g1[B] = 1
        fixed.append(g1)
        g2 = list(g1)
        g2[d - B] = 1
        fixed.append(g2)
        for coeffs in fixed:
            f = HomForm.from_coeffs(K, coeffs)
            if is_squarefree_binary(f) and in_frobenius_power(f, 1, e):
                return f
        for _ in range(trials):
            coeffs = [0] * (d + 1)
            for idx in allowed:
                coeffs[idx] = rng.randrange(K.q)
            if not any(coeffs):
                continue
            f = HomForm.from_coeffs(K, coeffs)
            if is_squarefree_binary(f) and in_frobenius_power(f, 1, e):
                return f
    raise ValidationError(
        f"no reduced witness with threshold 1/{B} found for d={d} through F_{p}^{k_max}"
    )
