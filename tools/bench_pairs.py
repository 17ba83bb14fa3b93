"""Alternating benchmark pairs of two revisions, summarized per metric.

    python3 tools/bench_pairs.py BASE CHANGE --workload multivar_queries \\
        --seeds 71 72 73 --pairs 10 --seconds 25 --workdir /tmp/pairs

Each revision is exported with ``git archive`` into its own directory under
``--workdir`` (so no ``__pycache__`` comes along), and ``fptbench/run.py``
runs there under PYTHONDONTWRITEBYTECODE=1, as the benchmark itself runs.
Pair i uses seed ``seeds[i % len(seeds)]`` on both sides; BASE runs first in
even pairs and CHANGE in odd ones.  For every end-to-end metric named in
BENCHMARK.json the summary gives both sides' median and quartiles, the
change's wins out of the pairs (ties count for neither), and whether the
medians differ by more than BASE's interquartile range.  The raw results go
to ``--workdir``/pairs-<workload>.json.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from same_outputs import export


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``fptbench/run.py`` run in ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "fptbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per metric: medians and quartiles, wins, and the IQR test."""
    lines = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        beyond = abs(cq[1] - bq[1]) > bq[2] - bq[0]
        shift = (cq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
        lines.append(f"  {name:16} base {bq[1]:10.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
                     f"change {cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  {shift:+7.1%}  "
                     f"wins {wins}/{len(pairs)}  beyond base IQR: {'yes' if beyond else 'no'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="parent revision")
    ap.add_argument("change", help="revision with the change")
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload of fptbench/run.py; repeat for several")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--workdir", type=Path, required=True,
                    help="where the exports and raw results go")
    args = ap.parse_args(argv)
    trees = {side: export(rev, args.workdir / side)
             for side, rev in (("base", args.base), ("change", args.change))}
    metrics = json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]
    for w in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {side: run_once(trees[side], w, seed, args.seconds) for side in order}
            pairs.append((got["base"], got["change"]))
            print(f"{w} pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): " + ", ".join(
                f"{m['name']} {got['base']['metrics'][m['name']]['value']:.4g} -> "
                f"{got['change']['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True)
        (args.workdir / f"pairs-{w}.json").write_text(json.dumps(
            {"base": args.base, "change": args.change, "seeds": args.seeds,
             "seconds": args.seconds, "pairs": pairs}, indent=1))
        failed = [sum(r["failed"] for r in side) for side in zip(*pairs)]
        wrong = [sum(not r["correct"] for r in side) for side in zip(*pairs)]
        print(f"{w}: {args.pairs} pairs, {args.seconds:g} s each; failed operations "
              f"base {failed[0]}, change {failed[1]}; incorrect runs base {wrong[0]}, "
              f"change {wrong[1]}")
        print("\n".join(summarize(metrics, pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
