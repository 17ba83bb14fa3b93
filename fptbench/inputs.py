"""Seeded inputs for the three workloads, as plain data.

Nothing here imports fptlib: forms are built with the oracle's own field
arithmetic and handed to fptlib only as text (queries) or parameters
(censuses, witness searches).  Each workload has a fixed make-up, a list of
slots with fixed counts; the seed picks the forms inside each slot and the
order of the operations, so every seed costs about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

import oracle

# census(d, p, k, reduced_only): spaces of 121 to 3,280 forms, each call at
# most about a second; d = 7 over F_3 has the deepest ladder (ord_7(3) = 6)
CENSUS_CASES = [
    (7, 2, 1, False), (9, 2, 1, False), (5, 3, 1, False), (6, 3, 1, False),
    (4, 5, 1, False), (3, 7, 1, False), (4, 2, 2, False), (3, 2, 3, False),
    (3, 3, 2, False), (2, 2, 4, False),
    (8, 2, 1, True), (10, 2, 1, True), (7, 3, 1, True), (3, 11, 1, True),
    (5, 2, 2, True),
]

# exact_queries slots: (kind, d, p, k, count, e_cap).  Costs are chosen so
# that a large slot of like-cost queries (d = 7 over F_23, which all take
# the same two ladder steps) straddles the median and another (d = 19 over
# F_13, all resolved at L = 7) fills the top 10%, which keeps
# latency_p50_ms and latency_tail_ms from depending on the seed.  Slots
# whose cost varies much from form to form are kept small.
QUERY_SLOTS = [
    # below the median: monomials, perfect squares g^2 (d is deg g), cheap
    # ladders, shallow intervals
    ("monomial", 9, 5, 1, 6, 8), ("monomial", 6, 2, 8, 2, 8),
    ("nonreduced", 9, 2, 1, 6, 4), ("power", 5, 2, 2, 4, 8),
    ("reduced", 7, 3, 1, 10, 8), ("nonreduced", 5, 7, 1, 4, 2),
    ("reduced", 11, 2, 1, 8, 8), ("power", 3, 5, 1, 4, 8),
    ("power", 4, 7, 1, 4, 8), ("reduced", 13, 2, 1, 8, 8),
    ("reduced", 7, 2, 8, 8, 8), ("nonreduced", 12, 3, 1, 4, 4),
    # the median; F_{2^8} is the field whose table set-up builds lazily
    ("reduced", 7, 23, 1, 24, 8), ("reduced", 9, 2, 8, 8, 8),
    # above: deep ladders with large residue windows, F_{3^7} (above the
    # table cutoff), and intervals over larger primes
    ("reduced", 19, 2, 1, 4, 8), ("nonreduced", 8, 11, 1, 4, 2),
    ("nonreduced", 10, 7, 1, 4, 3), ("reduced", 19, 3, 1, 4, 8),
    ("reduced", 5, 3, 7, 6, 8), ("reduced", 11, 19, 1, 6, 8),
    ("reduced", 11, 7, 1, 6, 8), ("reduced", 17, 7, 1, 6, 8),
    ("reduced", 13, 11, 1, 6, 8), ("reduced", 17, 5, 1, 3, 8),
    ("nonreduced", 6, 23, 1, 3, 2), ("reduced", 20, 13, 1, 4, 8),
    ("reduced", 19, 13, 1, 18, 8),
]

# multivar_queries slots: (n, d, p, k, count, e_cap) for fpt_general, with
# n = 4 cubics over F_3 at the median and n = 3 cubics over F_7 in the top
# 17%.  Slots whose cost is bimodal (n = 3 quartics over F_3, n = 3 cubics
# over F_3 at depth 3) are left out: near the median they moved it by seed.
GENERAL_SLOTS = [
    (3, 3, 2, 1, 16, 3), (3, 3, 2, 2, 12, 3), (4, 4, 2, 1, 16, 3),
    (4, 3, 3, 1, 24, 2),
    (3, 5, 3, 1, 6, 2), (3, 3, 3, 2, 6, 3), (4, 3, 2, 1, 8, 3),
    (3, 3, 5, 1, 10, 2), (3, 4, 5, 1, 6, 2), (3, 3, 7, 1, 24, 2),
]
# parametric trinomial witness searches (p, d, target, (i, j, m)): witnesses
# over F_p and F_{p^2}, and searches that find none.  The same in every
# pass and for every seed, since their cost differs 100-fold.
WITNESS_SEARCHES = [
    (3, 4, Fraction(1, 3), (1, 1, 1)), (3, 5, Fraction(10, 27), (0, 1, 2)),
    (5, 6, Fraction(41, 125), (1, 1, 2)), (5, 8, Fraction(31, 125), (0, 0, 4)),
    (5, 4, Fraction(2, 5), (1, 1, 1)), (5, 4, Fraction(62, 125), (0, 0, 2)),
    (7, 4, Fraction(171, 343), (0, 0, 2)), (7, 5, Fraction(19, 49), (0, 1, 2)),
    (7, 8, Fraction(85, 343), (1, 1, 3)), (7, 6, Fraction(2, 7), (0, 0, 3)),
    (7, 6, Fraction(114, 343), (1, 1, 2)), (3, 7, Fraction(2, 9), (1, 0, 3)),
    (5, 6, Fraction(8, 25), (2, 2, 1)), (5, 5, Fraction(49, 125), (3, 0, 1)),
    (7, 8, Fraction(12, 49), (2, 2, 2)), (7, 5, Fraction(19, 49), (0, 3, 1)),
]
WITNESS_K_MAX = 2

MIN_PASSES = 3


def tail_percentile(ops_per_pass: int) -> int:
    """The highest whole percentile with at least ten of the operations a run
    of MIN_PASSES passes holds beyond it (77 for census, 98 for
    exact_queries, 97 for multivar_queries)."""
    return int(100 * (1 - 10 / (MIN_PASSES * ops_per_pass)))


@dataclass
class Op:
    kind: str                   # census | query | general | witness
    args: tuple                 # what fptlib is called with
    forms: int                  # forms the operation covers
    p: int = 0
    k: int = 1
    n: int = 2
    terms: dict = field(default_factory=dict)   # the form, for the oracle


def fields_used(workload: str) -> list[tuple[int, int]]:
    """Every (p, k) whose FieldSpec the workload's operations use."""
    if workload == "census":
        out = {(p, k) for _, p, k, _ in CENSUS_CASES}
    elif workload == "exact_queries":
        out = {(p, k) for _, _, p, k, _, _ in QUERY_SLOTS}
    else:
        out = {(p, k) for _, _, p, k, _, _ in GENERAL_SLOTS}
        out |= {(w[0], kappa) for w in WITNESS_SEARCHES for kappa in range(1, WITNESS_K_MAX + 1)}
    return sorted(out)


# ---------------------------------------------------------------------------
# text in the fptlib grammar
# ---------------------------------------------------------------------------

def _coeff_text(F: oracle.Field, enc: int) -> str:
    if F.k == 1:
        return str(enc)
    parts = []
    for i in range(F.k - 1, -1, -1):
        c = enc // F.p ** i % F.p
        if not c:
            continue
        mono = "" if i == 0 else "t" if i == 1 else f"t^{i}"
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return "(" + "+".join(parts) + ")"


def form_text(F: oracle.Field, terms: dict) -> str:
    n = len(next(iter(terms)))
    names = ["x", "y"] if n == 2 else [f"x{i + 1}" for i in range(n)]
    out = []
    for exps in sorted(terms, reverse=True):
        factors = [name if a == 1 else f"{name}^{a}" for name, a in zip(names, exps) if a]
        c = terms[exps]
        if c != 1 or not factors:
            factors.insert(0, _coeff_text(F, c))
        out.append("*".join(factors))
    return "+".join(out)


# ---------------------------------------------------------------------------
# random forms
# ---------------------------------------------------------------------------

def _poly_mul(F: oracle.Field, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _random_binary(F: oracle.Field, d: int, rng: random.Random) -> list[int]:
    """Coefficients [a_0..a_d] with a_0 = 1 and a_d != 0."""
    cs = [1] + [rng.randrange(F.q) for _ in range(d)]
    cs[d] = cs[d] or 1
    return cs


def _reduced(F: oracle.Field, d: int, rng: random.Random) -> list[int]:
    while True:
        cs = _random_binary(F, d, rng)
        if oracle.is_squarefree_binary(F, cs):
            return cs


def _nonreduced(F: oracle.Field, d: int, rng: random.Random) -> list[int]:
    """(x + a y)^2 * g with g squarefree of degree d - 2."""
    a = rng.randrange(F.q)
    lin = [1, a]
    while True:
        g = _random_binary(F, d - 2, rng)
        cs = _poly_mul(F, _poly_mul(F, lin, lin), g)
        if any(cs[1:-1]) and oracle.is_squarefree_binary(F, g):
            return cs


def _query(F, p, k, d, rng, kind, e_cap) -> Op:
    if kind == "reduced":
        cs = _reduced(F, d, rng)
    elif kind == "nonreduced":
        cs = _nonreduced(F, d, rng)
    elif kind == "monomial":
        a = rng.randrange(1, d)
        cs = [0] * (d + 1)
        cs[d - a] = rng.randrange(1, F.q)
    else:                                   # power: g^2 with g reduced
        g = _reduced(F, d, rng)
        cs = _poly_mul(F, g, g)
    terms = oracle.binary_terms(cs)
    return Op("query", (form_text(F, terms), e_cap), 1, p, k, 2, terms)


def _random_general(F: oracle.Field, n: int, d: int, rng: random.Random) -> dict:
    """A dense random form with every x_i^d present (so no variable is free)."""
    terms = {}
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        c = rng.randrange(F.q)
        if max(e) == d:
            c = c or 1
        if c:
            terms[tuple(e)] = c
    return terms


def build(workload: str, seed: int, moduli: dict) -> list[Op]:
    """The operation list of one pass.  ``moduli`` maps (p, k) to the
    modulus fptlib uses for F_{p^k}; the oracle checks it is irreducible."""
    rng = random.Random(f"{workload}:{seed}")
    fields = {pk: oracle.Field(pk[0], moduli[pk]) for pk in fields_used(workload)}
    ops: list[Op] = []
    if workload == "census":
        for d, p, k, reduced_only in CENSUS_CASES:
            q = p ** k
            ops.append(Op("census", (d, p, k, reduced_only),
                          oracle.projective_count(q, d), p, k))
    elif workload == "exact_queries":
        for kind, d, p, k, count, e_cap in QUERY_SLOTS:
            for _ in range(count):
                ops.append(_query(fields[(p, k)], p, k, d, rng, kind, e_cap))
    elif workload == "multivar_queries":
        for n, d, p, k, count, e_cap in GENERAL_SLOTS:
            F = fields[(p, k)]
            for _ in range(count):
                terms = _random_general(F, n, d, rng)
                ops.append(Op("general", (form_text(F, terms), e_cap), 1, p, k, n, terms))
        for args in WITNESS_SEARCHES:
            ops.append(Op("witness", args + (WITNESS_K_MAX,), 1, args[0]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
