"""Running operations through fptlib's public functions, and checking them.

Every call goes through an attribute of the ``fptlib`` package, looked up at
call time, so the tracer's wrappers see it.  Checks follow from the maths,
never from a stored copy of an earlier output; see oracle.py.
"""

from __future__ import annotations

from fractions import Fraction

import fptlib
import oracle
from inputs import Op


class Runner:
    """Holds the workload's FieldSpecs, built once in set-up."""

    def __init__(self, fields: list[tuple[int, int]]):
        self.fields = {pk: fptlib.FieldSpec(*pk) for pk in fields}
        for K in self.fields.values():
            K.muli(1, 1)                 # force a lazily built table

    def call(self, op: Op):
        if op.kind == "census":
            d, p, k, reduced_only = op.args
            return fptlib.census(d, p, k, reduced_only=reduced_only, workers=1)
        if op.kind == "query":
            text, e_cap = op.args
            f = fptlib.parse_form(text, self.fields[(op.p, op.k)])
            return fptlib.fpt_binary_exact(f, e_cap=e_cap)
        if op.kind == "general":
            text, e_cap = op.args
            f = fptlib.parse_form(text, self.fields[(op.p, op.k)], n=op.n)
            return fptlib.fpt_general(f, e_cap=e_cap)
        p, d, target, family, k_max = op.args
        return fptlib.trinomial_witness_search(p, d, target, family, k_max=k_max)


def as_dict(result):
    return None if result is None else result.to_dict()


# ---------------------------------------------------------------------------
# checks: each returns a list of problems (empty when the output is right)
# ---------------------------------------------------------------------------

class Checker:
    """Checks outputs with the oracle and counts what it could check."""

    def __init__(self):
        self.fields: dict = {}
        self.outputs = 0          # outputs that make a checkable claim
        self.deep = 0             # of those, checked beyond depth 1

    def field(self, K) -> oracle.Field:
        key = (K.p, K.k, K.modulus)
        if key not in self.fields:
            self.fields[key] = oracle.Field(K.p, K.modulus)
        return self.fields[key]

    def _depths(self, p: int, n: int, top: int) -> list[int]:
        depths = [e for e in range(1, max(top, 1) + 1) if oracle.affordable(p, n, e)]
        return depths or [1]

    def _value(self, F, terms, n, v: Fraction) -> list[str]:
        """Audit an exact value at every affordable depth up to its own."""
        den, L = v.denominator, 0
        while den % F.p == 0:
            den //= F.p
            L += 1
        depths = self._depths(F.p, n, max(L, 2))
        self.outputs += 1
        self.deep += depths[-1] > 1
        return [f"value {v} fails the audit at depth {e}"
                for e in depths if not oracle.audit_value(F, terms, v, e)]

    def _interval(self, F, terms, n, result, e_cap) -> list[str]:
        low, high = result.low, result.high
        # a power-rule interval for f = g^r is a depth-e_cap interval of g
        # divided by r, and r divides the degree
        r = Fraction(1)
        if result.method == "power-rule" and high > low:
            r = 1 / ((high - low) * F.p ** e_cap)
        d = sum(next(iter(terms)))
        if (r.denominator != 1 or d % r.numerator
                or not oracle.is_depth_interval(F.p, low, high, e_cap, r.numerator)):
            return [f"({low}, {high}] is not a depth-{e_cap} interval"]
        depths = self._depths(F.p, n, e_cap)
        self.outputs += 1
        self.deep += depths[-1] > 1
        return [f"interval ({low}, {high}] fails at depth {e}"
                for e in depths if not oracle.audit_interval(F, terms, low, high, e)]

    def check(self, op: Op, result, runner: Runner) -> list[str]:
        if op.kind == "census":
            return self._census(op, result)
        if op.kind == "witness":
            return self._witness(op, result, runner)
        F = self.field(runner.fields[(op.p, op.k)])
        if result.is_exact:
            problems = self._value(F, op.terms, op.n, result.value)
        else:
            problems = self._interval(F, op.terms, op.n, result, op.args[1])
        if op.kind == "general":
            g = fptlib.generic_fpt(op.n, sum(next(iter(op.terms))), op.p).value
            # g is the maximum: an exact value may equal it, an interval
            # (low, high] may not start at it
            if result.value > g if result.is_exact else result.low >= g:
                problems.append(f"{result.describe()} lies above the generic value {g}")
        return problems

    def _census(self, op: Op, rep) -> list[str]:
        d, p, k, reduced_only = op.args
        q = p ** k
        problems = []
        if rep.total != oracle.projective_count(q, d):
            problems.append(f"total {rep.total} != {oracle.projective_count(q, d)}")
        if not rep.counts_consistent():
            problems.append("counts do not add up to the total")
        if reduced_only:
            reduced = rep.total - rep.skipped_nonreduced
        else:
            reduced = sum(r.count_reduced for r in rep.records.values())
        if reduced != oracle.squarefree_count(q, d):
            problems.append(f"{reduced} reduced forms, expected {oracle.squarefree_count(q, d)}")
        F = self.field(fptlib.FieldSpec(p, k))
        for v, rec in rep.records.items():
            problems += self._value(F, oracle.binary_terms(list(rec.witness_coeffs)), 2, v)
        return problems

    def _witness(self, op: Op, w, runner: Runner) -> list[str]:
        p, d, target, (i, j, m), k_max = op.args
        N, e = target.numerator, 0
        den = target.denominator
        while den % p == 0:
            den //= p
            e += 1
        self.outputs += 1
        if w is None:
            return self._no_witness(op, runner, N, e)
        F = self.field(w.field)
        cs = w.form.coeff_list()
        problems = []
        if len(cs) != d + 1 or any(c != c_a for c, c_a in zip(cs, _family(d, j, m, w.a_value.enc))):
            problems.append(f"{w.form.as_text()} is not in family {(i, j, m)} at a={w.a_value}")
        if not oracle.is_squarefree_binary(F, cs):
            problems.append(f"witness {w.form.as_text()} is not squarefree")
        if not oracle.is_member(F, oracle.binary_terms(cs), N, e):
            problems.append(f"witness f^{N} is outside depth {e}")
        return problems

    def _no_witness(self, op: Op, runner: Runner, N: int, e: int) -> list[str]:
        """A search that returns None claims that no a in F_{p^kappa},
        kappa <= k_max, gives a squarefree member with f^N in m^[p^e]: try
        every such a."""
        p, d, _, (_, j, m), k_max = op.args
        for kappa in range(1, k_max + 1):
            F = self.field(runner.fields[(p, kappa)])
            for a in range(F.q):
                cs = _family(d, j, m, a)
                if (oracle.is_squarefree_binary(F, cs)
                        and oracle.is_member(F, oracle.binary_terms(cs), N, e)):
                    return [f"no witness found, but a={a} in F_{p}^{kappa} is one"]
        return []


def _family(d: int, j: int, m: int, a: int) -> list[int]:
    """Coefficients of x^i y^j (x^{2m} + a x^m y^m + y^{2m}); index = y-degree."""
    cs = [0] * (d + 1)
    cs[j], cs[j + m], cs[j + 2 * m] = 1, a, 1
    return cs
