"""One benchmark run of one workload, printing one JSON line at the end.

    python3 fptbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: fptlib is imported from ./src, never
from an installed copy.  A run is closed-loop with one caller: it repeats
passes over the workload's fixed operation list (see inputs.py) until
``--seconds`` have gone by and at least MIN_PASSES passes are done, timing
each operation with the Clock (see clock.py).  Afterwards it checks every
output (see workloads.py).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it repeats the cycle untraced, counting,
untraced, timing pass (see tracer.py) and reports the per-layer ones.  The
line before the last one holds the raw (unnormalized) figures and the
reference speeds seen.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("census", "exact_queries", "multivar_queries")
SETUP_REPS = 5
COLD_START_REPS = 5
TRACE_CYCLE = (None, "counting", None, "timing")     # tracer mode of each pass
CHILD_TIMEOUT_S = 120
COLD_START_CMD = ["-m", "fptlib.cli", "fpt", "--p", "7", "--poly", "x^5+y^5"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(fields, reps: int) -> list[dict]:
    """Set-up of fptlib in ``reps`` fresh interpreters (see setup_probe.py)."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(fields)],
            env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def cold_starts(clock, reps: int) -> list[float]:
    """Normalized wall time of a fresh ``fptlib fpt`` process."""
    out = []
    for _ in range(reps):
        _, err, _, norm = clock.run(functools.partial(
            subprocess.run, [sys.executable] + COLD_START_CMD,
            env=_child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S, check=True))
        if err is not None:
            raise err
        out.append(norm)
    return out


def percentile(xs: list[float], pct: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run(args) -> dict:
    import fptlib
    if Path(fptlib.__file__).resolve().parent != SRC / "fptlib":
        raise SystemExit(f"fptlib was imported from {fptlib.__file__}, not from {SRC}")
    import inputs
    import workloads
    from clock import Clock

    w = args.workload
    fields = inputs.fields_used(w)
    moduli = {pk: fptlib.FieldSpec(*pk).modulus for pk in fields}
    ops = inputs.build(w, args.seed, moduli)
    forms_per_pass = sum(op.forms for op in ops)
    setups = measure_setup(fields, SETUP_REPS)

    tracer = None
    passes: list[dict] = []
    first: list = []                 # first pass: (result, to_dict) per op
    bad_runs = [0] * len(ops)        # executions that raised or differed from the first
    mismatched = set()
    raised = {}
    with Clock() as clock:
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer(clock)
            tracer.install("counting")
            tracer.op = "setup"
        runner, err, pure, norm = clock.run(workloads.Runner, fields)
        if err is not None:
            raise err
        setup_factor = norm / pure
        if tracer:
            setup_field_s = tracing.layer_times(tracer.spans, {"setup": setup_factor}) \
                .get("field_setup", {"total": 0.0})["total"]
            tracer.uninstall()
            cold = cold_starts(clock, COLD_START_REPS)
        min_passes = len(TRACE_CYCLE) if args.trace else inputs.MIN_PASSES
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
            traced = TRACE_CYCLE[len(passes) % len(TRACE_CYCLE)] if tracer else None
            if traced:
                tracer.reset()
                tracer.install(traced)
            rows = []
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = i
                result, err, pure, norm = clock.run(runner.call, op)
                rows.append((pure, norm))
                if err is not None:
                    raised.setdefault(i, repr(err))
                    bad_runs[i] += 1
                    out = None
                else:
                    out = workloads.as_dict(result)
                if not passes:
                    first.append((result, out))
                elif err is None and out != first[i][1]:
                    mismatched.add(i)
                    bad_runs[i] += 1
            record = {"traced": traced, "rows": rows}
            if traced:
                tracer.uninstall()
                factors = {i: n / p for i, (p, n) in enumerate(rows) if p > 0}
                if traced == "counting":
                    record["layers"] = tracing.counting_layers(tracer.spans, tracer.counts,
                                                               factors)
                else:
                    record["layers"] = tracing.per_layer(tracer.spans, tracer.counts,
                                                         factors, forms_per_pass)
                if not any(p["traced"] == "timing" for p in passes):
                    OUT.mkdir(exist_ok=True)
                    tracer.dump(OUT / f"trace-{w}-seed{args.seed}.json")
            passes.append(record)
        measured_s = time.perf_counter() - start
        ref_speed = clock.speed_summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = workloads.Checker()
    problems = {}
    for i, (op, (result, _)) in enumerate(zip(ops, first)):
        if i in raised or result is None and op.kind != "witness":
            continue
        try:
            found = checker.check(op, result, runner)
        except Exception as exc:     # a check that cannot run is a failed check
            found = [f"check raised {exc!r}"]
        if found:
            problems[i] = found
    for i, msgs in sorted(problems.items()):
        print(f"check failed: op {i} {ops[i].kind} {ops[i].args}: {msgs}", file=sys.stderr)
    for i, msg in sorted(raised.items()):
        print(f"op {i} {ops[i].kind} {ops[i].args} raised {msg}", file=sys.stderr)
    for i in sorted(mismatched):
        print(f"op {i} {ops[i].kind} {ops[i].args} gave different outputs across passes",
              file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    norms = [n for p in plain for _, n in p["rows"]]
    pures = [t for p in plain for t, _ in p["rows"]]
    tail = inputs.tail_percentile(len(ops))
    detail = {
        "workload": w, "seed": args.seed, "passes": len(passes), "ops_per_pass": len(ops),
        "forms_per_pass": forms_per_pass, "measured_s": measured_s,
        "reference": ref_speed, "tail_percentile": tail,
        "checked_outputs": checker.outputs, "checked_beyond_depth_1": checker.deep,
        "raw": {
            "forms_per_s": median([forms_per_pass / sum(t for t, _ in p["rows"]) for p in plain]),
            "latency_p50_ms": 1000 * median(pures),
            "latency_tail_ms": 1000 * percentile(pures, tail),
            "setup_s": median([s["import_pure_s"] + s["fields_pure_s"] for s in setups]),
        },
    }
    if args.trace:
        pass_s = lambda mode: median([sum(n for _, n in p["rows"])
                                      for p in passes if p["traced"] == mode])
        metrics = {}
        for mode in ("counting", "timing"):
            traced = [p for p in passes if p["traced"] == mode]
            for name in traced[0]["layers"]:
                metrics[name] = median([p["layers"][name] for p in traced])
        metrics["gfpoly.field_setup_s"] += setup_field_s
        metrics["cli.import_s"] = median([s["import_s"] for s in setups])
        metrics["cli.cold_start_s"] = median(cold)
        metrics["trace.overhead_ratio"] = pass_s("timing") / pass_s(None)
        detail["counting_overhead_ratio"] = pass_s("counting") / pass_s(None)
    else:
        metrics = {
            "forms_per_s": median([forms_per_pass / sum(n for _, n in p["rows"]) for p in plain]),
            "latency_p50_ms": 1000 * median(norms),
            "latency_tail_ms": 1000 * percentile(norms, tail),
            "setup_s": median([s["import_s"] + s["fields_s"] for s in setups]),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": not problems and not mismatched and not raised,
        "attempted": len(passes) * len(ops),
        "failed": sum(len(passes) if i in problems else bad for i, bad in enumerate(bad_runs)),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{w}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    return result


def unit_of(name: str) -> str:
    if name == "forms_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_per_form"):
        return "count/form"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fptlib" / "__init__.py").is_file():
        print(f"error: no fptlib source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
