"""Steadiness check: sets of runs made at different times, summarized.

    python3 fptbench/steady.py

Runs SETS sets, GAP_S seconds apart.  Each set runs every workload of
BENCHMARK.json once per seed (seeds 1..SEEDS in the first set, SEEDS+1..
2*SEEDS in the next, and so on), one run at a time, each for the file's
``run_seconds``.  For every workload and end-to-end metric it prints the
median and quartiles of each set, raw and normalized, the spread
(q3 - q1) / median, and how far each set's median is from the first set's.
The raw figures are the same quantities before the reference-loop
normalization (peak RSS has no raw form).  Everything is also written to
fptbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10          # runs per workload per set
SETS = 2
GAP_S = 60          # seconds between sets


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs: dict = {w: [] for w in workloads}
    for s in range(SETS):
        if s:
            time.sleep(GAP_S)
        for w in workloads:
            for seed in range(s * SEEDS + 1, (s + 1) * SEEDS + 1):
                r = one_run(w, seed, bench["run_seconds"])
                r["set"] = s
                runs[w].append(r)
                print(f"set {s} {w} seed {seed}: {json.dumps(r['result'])}", flush=True)
    report: dict = {}
    for w in workloads:
        names = list(runs[w][0]["result"]["metrics"])
        for name in names:
            for kind in ("normalized", "raw"):
                rows = []
                for s in range(SETS):
                    sel = [r for r in runs[w] if r["set"] == s]
                    if kind == "normalized":
                        vals = [r["result"]["metrics"][name]["value"] for r in sel]
                    elif name in sel[0]["detail"]["raw"]:
                        vals = [r["detail"]["raw"][name] for r in sel]
                    else:
                        continue
                    rows.append(summary(vals))
                if not rows:
                    continue
                report.setdefault(w, {}).setdefault(name, {})[kind] = rows
                base = rows[0]["median"]
                cells = "  ".join(
                    f"set{s}: med {r['median']:.6g} [{r['q1']:.6g}, {r['q3']:.6g}] "
                    f"spread {100 * r['spread']:.1f}% shift {100 * (r['median'] / base - 1):+.1f}%"
                    for s, r in enumerate(rows))
                print(f"{w:17s} {name:16s} {kind:10s} {cells}")
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs[w]})
        print(f"{w:17s} failed share(s) seen: {shares}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"runs": runs, "summary": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
