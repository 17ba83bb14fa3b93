"""Do two revisions give the same outputs and make the same products?

    python3 tools/same_outputs.py BASE CHANGE --seeds 0 1 5 113 --workdir /tmp/same
    python3 tools/same_outputs.py BASE CHANGE --cli tools/cli_cases.txt --workdir /tmp/same

Each revision is exported with ``git archive`` into its own directory under
``--workdir``, and a child interpreter runs one pass of every fptbench
workload there, at each seed, with that tree's ``src`` and ``fptbench`` first
on its path and no bytecode written: the operation list comes from the
tree's ``fptbench/inputs.py`` and each operation is run by its
``fptbench/workloads.py``, which are imported, never edited.  For every
(workload, seed) the child reports the sha256 of the ``to_dict()`` of each
operation (or of the error it raised), and how many ``forms._mul`` calls and
coefficient pairs (len(A) * len(B) per call) the pass made; a sum accumulated
into a dict by ``_mul`` counts as a call and its pairs too.  Both sides are
printed with two verdicts: OUTPUTS, SAME or DIFFERENT, on the hashes and the
number of raised errors, naming the first operation whose output differs;
and PRODUCTS, the change in ``_mul`` calls and pairs in percent.  The exit
status is 1 when the outputs differ and 0 otherwise: a change that saves
products keeps its outputs.

With ``--cli FILE`` each line of FILE is one ``fptlib`` argument list, split
as a shell would (``#`` starts a comment), run as ``python -m fptlib.cli`` in
both trees with that tree's ``src`` on the path.  Each case is reported same
or DIFFERENT on its stdout, stderr and exit code (a case longer than 160
characters is shown cut), then CLI SAME or CLI DIFFERENT, and any difference makes the exit status 1.  ``--seeds`` and
``--cli`` can be given together; at least one is needed.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ["census", "exact_queries", "multivar_queries"]


def export(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` extracted into ``dest``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return dest


def child(tree: Path, workloads: list[str], seeds: list[int]) -> dict:
    """Run in the child: one pass per (workload, seed) in ``tree``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "fptbench")]
    import fptlib
    from fptlib import forms
    import inputs
    import workloads as wl

    counts = [0, 0]
    mul = forms._mul

    def counting_mul(A, B, *args, **kwargs):
        counts[0] += 1
        counts[1] += len(A) * len(B)
        return mul(A, B, *args, **kwargs)

    forms._mul = counting_mul
    out = {}
    for w in workloads:
        fields = inputs.fields_used(w)
        for seed in seeds:
            moduli = {pk: fptlib.FieldSpec(*pk).modulus for pk in fields}
            ops = inputs.build(w, seed, moduli)
            runner = wl.Runner(fields)
            counts[:] = [0, 0]
            hashes, failed = [], 0
            for op in ops:
                try:
                    doc = wl.as_dict(runner.call(op))
                except Exception as exc:      # a raised error is an output too
                    doc, failed = {"raised": repr(exc)}, failed + 1
                text = json.dumps(doc, sort_keys=True, default=str)
                hashes.append(hashlib.sha256(text.encode()).hexdigest())
            out[f"{w} seed {seed}"] = {
                "ops": len(ops), "failed": failed, "mul_calls": counts[0],
                "pairs": counts[1],
                "sha256": hashlib.sha256("".join(hashes).encode()).hexdigest(),
                "op_sha256": hashes}
    return out


def run_side(tree: Path, workloads: list[str], seeds: list[int]) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
         "--workload", *workloads, "--seeds", *map(str, seeds)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"the run in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_cli(tree: Path, cases: list[list[str]]) -> list[tuple[int, str, str]]:
    """(exit code, sha256 of stdout, sha256 of stderr) of each ``fptlib``
    argument list in ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    out = []
    for argv in cases:
        proc = subprocess.run([sys.executable, "-m", "fptlib.cli", *argv],
                              cwd=tree, env=env, capture_output=True)
        out.append((proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
                    hashlib.sha256(proc.stderr).hexdigest()))
    return out


def compare_cli(cases: list[list[str]], base: list, change: list) -> tuple[list[str], bool]:
    """One report line per case, and whether any stdout, stderr or exit code differs."""
    lines, differ = [], False
    for argv, (b_code, b_out, b_err), (c_code, c_out, c_err) in zip(cases, base, change):
        same = (b_code, b_out, b_err) == (c_code, c_out, c_err)
        differ |= not same
        case = shlex.join(argv)
        if len(case) > 160:
            case = f"{case[:150]}... ({len(case):,} characters)"
        lines.append(f"  {'same' if same else 'DIFFERENT':9}  exit {b_code} -> {c_code}"
                     f"  stdout {b_out[:12]} -> {c_out[:12]}  stderr {b_err[:12]} -> {c_err[:12]}"
                     f"  {case}")
    return lines, differ


def percent(before: int, after: int) -> str:
    return f"{100 * (after - before) / before:+.1f}%" if before else "n/a"


def compare(base: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines for both sides, and whether any output differs."""
    lines, differ = [], False
    for key in base:
        b, c = base[key], change[key]
        lines.append(f"{key}: {b['ops']} operations")
        for side, r in (("base", b), ("change", c)):
            lines.append(f"  {side:6}  sha256 {r['sha256'][:16]}  _mul calls {r['mul_calls']:,}"
                         f"  coefficient pairs {r['pairs']:,}  raised {r['failed']}")
        diffs = [name for name in ("sha256", "failed") if b[name] != c[name]]
        if diffs:
            differ = True
            first = next((i for i, (x, y) in enumerate(zip(b["op_sha256"], c["op_sha256"]))
                          if x != y), None)
            where = "" if first is None else f"; first differing operation #{first}"
            lines.append(f"  outputs DIFFER: {', '.join(diffs)}{where}")
        else:
            lines.append("  outputs same")
        lines.append(f"  products: _mul calls {percent(b['mul_calls'], c['mul_calls'])},"
                     f" coefficient pairs {percent(b['pairs'], c['pairs'])}")
    calls, pairs = ([sum(r[name] for r in side.values()) for side in (base, change)]
                    for name in ("mul_calls", "pairs"))
    lines.append(f"PRODUCTS over all runs: _mul calls {calls[0]:,} -> {calls[1]:,}"
                 f" ({percent(*calls)}), coefficient pairs"
                 f" {pairs[0]:,} -> {pairs[1]:,} ({percent(*pairs)})")
    return lines, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="parent revision")
    ap.add_argument("change", nargs="?", help="revision with the change")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--cli", type=Path, help="file of fptlib argument lists, one a line")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--workdir", type=Path, help="where the exports go")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seeds)))
        return 0
    if not (args.base and args.change and args.workdir):
        ap.error("BASE, CHANGE and --workdir are required")
    if not (args.seeds or args.cli):
        ap.error("give --seeds, --cli or both")
    trees = [export(rev, args.workdir / side)
             for side, rev in (("base", args.base), ("change", args.change))]
    print(f"base {args.base}, change {args.change}")
    differ = False
    if args.seeds:
        lines, differ = compare(*(run_side(t, args.workload, args.seeds) for t in trees))
        print("\n".join(lines))
        print("OUTPUTS", "DIFFERENT" if differ else "SAME")
    if args.cli:
        cases = [argv for line in args.cli.read_text().splitlines()
                 if (argv := shlex.split(line, comments=True))]
        lines, cli_differ = compare_cli(cases, *(run_cli(t, cases) for t in trees))
        print(f"CLI cases from {args.cli}:")
        print("\n".join(lines))
        print("CLI", "DIFFERENT" if cli_differ else "SAME")
        differ |= cli_differ
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
