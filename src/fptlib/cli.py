"""Command-line interface.

Subcommands: fpt, generic, census, candidates, witness, verify-paper.
All numeric output is exact rational text.  Exit codes: 0 success,
2 validation/parse error, 3 budget refusal, 4 verification mismatch,
5 internal anomaly.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction

from . import tables
from .errors import AnomalyError, BudgetError, ParseError, ValidationError
from .forms import parse_form
from .fptengine import fpt_general
from .genericfpt import generic_fpt
from .gfpoly import FieldSpec
from .strata import DEFAULT_BUDGET, candidates, census, trinomial_witness_search

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4
EXIT_ANOMALY = 5


def _emit(args, payload: dict, text: str, csv_rows: list[list[str]] | None = None) -> None:
    # json and csv are imported only by the branch that prints them, so a
    # text run loads neither
    if args.format == "json":
        import json
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        import csv
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        print(text)


def _ints(text: str, expected: str, count: int | None = None) -> list[int]:
    """``text`` as comma-separated integers, exactly ``count`` of them if
    given; anything else is a ValidationError saying what was ``expected``."""
    try:
        vals = [int(t) for t in text.split(",")]
    except ValueError:
        vals = None
    if vals is None or count not in (None, len(vals)):
        raise ValidationError(f"{expected}, got {text!r}")
    return vals


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {text!r}: {exc}") from exc


def cmd_fpt(args) -> int:
    field = FieldSpec(args.p, args.k)
    f = parse_form(args.poly, field, n=args.n)
    res = fpt_general(f, e_cap=args.e_cap)
    _emit(args, res.to_dict(), res.describe())
    return EXIT_OK


def cmd_generic(args) -> int:
    rep = generic_fpt(args.n, args.d, args.p)
    _emit(args, rep.to_dict(), rep.describe())
    return EXIT_OK


def cmd_candidates(args) -> int:
    rep = candidates(args.d, args.p, l_cap=args.l_cap)
    lines = [f"candidate truncations for d={args.d}, p={args.p}:"]
    for e in rep.entries:
        flags = (f"I={'y' if e.cond_I else 'n'} II={'y' if e.cond_II else 'n'} "
                 f"III={'y' if e.cond_III else 'n'} excluded={'y' if e.bms_excluded else 'n'}")
        verdict = "admissible" if e.admissible else "inadmissible"
        lines.append(f"  L={e.L}: {e.value}  [{flags}] -> {verdict}")
    if rep.generic_L is None:
        lines.append(f"  top value 2/d = {rep.generic_value} (always attained)")
    else:
        lines.append(f"  top value {rep.generic_value} at L={rep.generic_L} (generic)")
    _emit(args, rep.to_dict(), "\n".join(lines), rep.to_csv_rows())
    return EXIT_OK


def cmd_census(args) -> int:
    rep = census(args.d, args.p, args.k, reduced_only=args.reduced_only,
                 e_cap=args.e_cap, budget=args.budget)
    lines = [f"census d={args.d} over F_{args.p}^{args.k}: {rep.total} forms"]
    for v, rec in sorted(rep.records.items()):
        lines.append(f"  {v}: reduced={rec.count_reduced} other={rec.count_nonreduced}"
                     f"  witness {rec.witness_text}")
    lines.append(f"  unresolved intervals: {rep.unresolved}"
                 + (f", skipped non-reduced: {rep.skipped_nonreduced}"
                    if rep.skipped_nonreduced else ""))
    _emit(args, rep.to_dict(), "\n".join(lines), rep.to_csv_rows())
    return EXIT_OK


def cmd_witness(args) -> int:
    target = _parse_fraction(args.target)
    fam = tuple(_ints(args.family, "family must be i,j,m", 3))
    w = trinomial_witness_search(args.p, args.d, target, fam, k_max=args.k_max)
    if w is None:
        _emit(args, {"schema_version": 1, "found": False},
              f"no witness found for target {target} with family {fam} "
              f"through F_{args.p}^{args.k_max}")
        return EXIT_OK
    _emit(args, w.to_dict(),
          f"a={w.a_value} over F_{w.field.q}: {w.form.as_text()} has threshold {w.target}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    """Check computed values for 3 <= d <= 8 against the reference tables."""
    if not 3 <= args.d <= 8:
        raise ValidationError("verify-paper supports degrees 3..8")
    if args.budget < 0:
        raise ValidationError(f"need budget >= 0, got {args.budget}")
    primes = _ints(args.primes, "--primes must be comma-separated integers")
    failures = []
    matrix = []
    for p in primes:
        expected = tables.reduced_fpt_values(args.d, p)
        rep = candidates(args.d, p)
        row = {"d": args.d, "p": p,
               "expected": sorted(str(v) for v in expected)}
        problems = []
        if rep.generic_value != max(expected):
            problems.append(
                f"generic value {rep.generic_value} != table max {max(expected)}")
        allowed = set(rep.admissible_values())
        stray = expected - allowed
        if stray:
            problems.append(f"table values {sorted(map(str, stray))} "
                            f"fail the necessary conditions")
        total = (p ** (args.d + 1) - 1) // (p - 1)
        observed = None
        if total <= args.budget:
            crep = census(args.d, p, 1, reduced_only=True, e_cap=2,
                          budget=args.budget)
            observed = crep.reduced_values()
            unsound = observed - expected
            if unsound:
                problems.append(f"census found reduced values "
                                f"{sorted(map(str, unsound))} outside the table")
            row["observed_F_p"] = sorted(str(v) for v in observed)
            row["unwitnessed_at_k1"] = sorted(str(v) for v in expected - observed)
        row["status"] = "FAIL" if problems else "PASS"
        row["problems"] = problems
        matrix.append(row)
        if problems:
            failures.append((p, problems))
    lines = [f"verification matrix for d={args.d}:"]
    for row in matrix:
        lines.append(f"  p={row['p']}: {row['status']}  expected {row['expected']}")
        if "observed_F_p" in row:
            lines.append(f"        observed over F_p: {row['observed_F_p']}"
                         + (f"; not yet witnessed at k=1: {row['unwitnessed_at_k1']}"
                            if row["unwitnessed_at_k1"] else ""))
        for prob in row["problems"]:
            lines.append(f"        !! {prob}")
    payload = {"schema_version": 1, "d": args.d, "matrix": matrix}
    _emit(args, payload, "\n".join(lines))
    return EXIT_MISMATCH if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fptlib",
        description="Exact F-pure thresholds of homogeneous forms over finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, *formats):
        sp.add_argument("--format", choices=["text", "json", *formats], default="text")

    sp = sub.add_parser("fpt", help="threshold of one polynomial")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--n", type=int, default=None,
                    help="number of variables (default: inferred)")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--e-cap", dest="e_cap", type=int, default=None,
                    help="fallback interval depth when no exact rule applies "
                         "(default: 8 for binary forms, 4 otherwise); a residue of "
                         "more than 2^18 terms or a product of more than 2^24 "
                         "coefficient pairs exits 3")
    common(sp)
    sp.set_defaults(func=cmd_fpt)

    sp = sub.add_parser("generic", help="closed-form maximal threshold")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_generic)

    sp = sub.add_parser("candidates", help="candidate truncation table")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--l-cap", dest="l_cap", type=int, default=12)
    common(sp, "csv")
    sp.set_defaults(func=cmd_candidates)

    sp = sub.add_parser("census", help="enumerate a coefficient space by threshold")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--reduced-only", action="store_true")
    sp.add_argument("--e-cap", dest="e_cap", type=int, default=2)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(sp, "csv")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("witness", help="search a trinomial family for a stratum witness")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--target", required=True, help="target threshold, e.g. 2/9")
    sp.add_argument("--family", required=True, help="i,j,m with i+j+2m = d")
    sp.add_argument("--k-max", dest="k_max", type=int, default=3)
    common(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("verify-paper",
                        help="compare computed strata for d in 3..8 with the reference tables")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--primes", required=True, help="comma-separated primes")
    sp.add_argument("--budget", type=int, default=7_000_000)
    common(sp)
    sp.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AnomalyError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
