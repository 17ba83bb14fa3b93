"""Per-layer spans and counters, from wrappers installed on fptlib's attributes.

Wrappers go on the module attributes that callers look up (for example
``fptlib.strata.fpt_binary_exact``, which the census calls), and on a few
class attributes (``HomForm.from_coeffs``, ``FieldSpec.muli``).  A wrapped
call records a span [name, start, end, parent span, operation id] in
memory, timed with the Clock's pure-time clock so reference samples taken
during a span are not charged to it.  A traced pass installs one of two
sets of wrappers:

- ``timing``: spans on the functions in FUNCTION_SPANS and on form building.
- ``counting``: field operations (``muli``, ``addi``, ``frobi``) are
  counted, and field set-up is timed: ``FieldSpec.__init__`` and the first
  ``muli`` of each new FieldSpec, where a lazy multiplication table is
  built.  The table build itself makes no counted call.

Field operations run millions of times a pass, so counting them in the
timing pass would charge the counter's cost to every span.  In a timing
pass a table built lazily inside an operation is charged to the span that
first multiplies in the new field.
"""

from __future__ import annotations

import json
from collections import Counter

import fptlib
from fptlib import fptengine, forms, gfpoly, strata

# (module, attribute, span name)
FUNCTION_SPANS = [
    (fptlib, "parse_form", "parse"),
    (fptlib, "fpt_binary_exact", "fpt"),
    (fptlib, "fpt_general", "fpt"),
    (fptlib, "census", "census"),
    (fptlib, "trinomial_witness_search", "witness"),
    (strata, "fpt_binary_exact", "fpt"),
    (strata, "is_squarefree_binary", "squarefree"),
    (strata, "in_frobenius_power", "member"),
    (strata, "pow_mod_frobenius", "pow_mod"),
    (strata, "candidates", "candidates"),
    (fptengine, "fpt_binary_exact", "fpt"),
    (fptengine, "fpt_general", "fpt"),
    (fptengine, "in_frobenius_power", "member"),
    (fptengine, "is_squarefree_binary", "squarefree"),
    (fptengine, "perfect_power_decompose", "perfect_power"),
    (fptengine, "nu", "nu"),
    (forms, "pow_mod_frobenius", "pow_mod"),
]
COUNTED = ["muli", "addi", "frobi"]
METHODS = ["monomial", "power-rule", "prime-power-degree", "truncation-candidate",
           "generic-two-over-d", "bounded-fallback"]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._saved: list[tuple] = []
        self._fresh: set[int] = set()     # FieldSpecs not yet multiplied in

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, self.clock.now(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = self.clock.now()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if name == "fpt" and (rec[3] < 0 or tracer.spans[rec[3]][0] != "fpt"):
                tracer.counts["method." + result.method] += 1
                tracer.counts["fpt_top"] += 1
                tracer.counts["fpt_exact"] += result.is_exact
            return result

        return wrapper

    def _field_init(self, fn):
        tracer = self

        def wrapper(field, *args, **kwargs):
            rec = tracer._open("field_setup")
            try:
                fn(field, *args, **kwargs)
            finally:
                tracer._close(rec)
            tracer._fresh.add(id(field))

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        def wrapper(field, *args):
            tracer.counts[name] += 1
            if name == "muli" and id(field) in tracer._fresh:
                tracer._fresh.discard(id(field))
                rec = tracer._open("field_setup")
                try:
                    return fn(field, *args)
                finally:
                    tracer._close(rec)
            return fn(field, *args)

        return wrapper

    # -- installation ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, mode: str) -> None:
        """Wrap for a ``timing`` or a ``counting`` pass (see the module doc)."""
        if mode == "counting":
            self._set(gfpoly.FieldSpec, "__init__", self._field_init(gfpoly.FieldSpec.__init__))
            for attr in COUNTED:
                self._set(gfpoly.FieldSpec, attr,
                          self._counted(attr, getattr(gfpoly.FieldSpec, attr)))
            return
        for module, attr, name in FUNCTION_SPANS:
            self._set(module, attr, self._wrap(name, getattr(module, attr)))
        self._set(forms.HomForm, "monic", self._wrap("build", forms.HomForm.monic))
        from_coeffs = forms.HomForm.__dict__["from_coeffs"].__func__
        self._set(forms.HomForm, "from_coeffs", classmethod(self._wrap("build", from_coeffs)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def layer_times(spans: list[list], factors: dict) -> dict:
    """Per span name: calls, total and self normalized seconds.  Total counts
    only spans with no ancestor of the same name, so recursion is not counted
    twice; self time is a span's time minus its children's."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        f = factors.get(op, 1.0)
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "under": Counter()})
        row["calls"] += 1
        row["self"] += (end - start - child[i]) * f
        outer, j = True, parent
        while j >= 0:
            if spans[j][0] == name:
                outer = False
                break
            j = spans[j][3]
        if outer:
            row["total"] += (end - start) * f
        if parent >= 0:
            row["under"][spans[parent][0]] += 1
    return out


def counting_layers(spans: list[list], counts: Counter, factors: dict) -> dict:
    """The per-layer metrics of one counting pass."""
    out = {f"gfpoly.{name}_calls": counts[name] for name in COUNTED}
    out["gfpoly.field_setup_s"] = layer_times(spans, factors).get(
        "field_setup", {"total": 0.0})["total"]
    return out


def per_layer(spans: list[list], counts: Counter, factors: dict, forms_covered: int) -> dict:
    """The per-layer metrics of one timing pass."""
    t = layer_times(spans, factors)
    row = lambda name: t.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "under": Counter()})
    out = {
        "forms.parse_s": row("parse")["total"],
        "forms.build_s": row("build")["total"],
        "forms.squarefree_calls": row("squarefree")["calls"],
        "forms.squarefree_per_form": row("squarefree")["calls"] / forms_covered,
        "forms.squarefree_s": row("squarefree")["total"],
        "forms.perfect_power_calls": row("perfect_power")["calls"],
        "forms.perfect_power_s": row("perfect_power")["total"],
        "forms.member_calls": row("member")["calls"],
        "forms.member_per_form": row("member")["calls"] / forms_covered,
        "forms.member_s": row("member")["total"],
        "forms.pow_mod_calls": row("pow_mod")["calls"],
        "forms.pow_mod_s": row("pow_mod")["total"],
        "fptengine.fpt_calls": row("fpt")["calls"],
        "fptengine.fpt_self_s": row("fpt")["self"],
        "fptengine.nu_calls": row("nu")["calls"],
        "fptengine.nu_probes": row("member")["under"]["nu"],
        "fptengine.nu_s": row("nu")["total"],
        "strata.census_calls": row("census")["calls"],
        "strata.census_self_s": row("census")["self"],
        "strata.candidates_s": row("candidates")["total"],
        "strata.witness_calls": row("witness")["calls"],
        "strata.witness_s": row("witness")["total"],
    }
    for m in METHODS:
        out["fptengine.method." + m] = counts["method." + m]
    out["fptengine.exact_ratio"] = counts["fpt_exact"] / counts["fpt_top"] if counts["fpt_top"] else 0.0
    return out
