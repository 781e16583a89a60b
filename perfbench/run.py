"""webfoam benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree (the directory holding src/webfoam).
A run starts a fresh interpreter per pass: each one imports the program,
builds the seeded inputs and warms up (set-up), then runs the workload's
fixed input set once (a pass).  A new pass starts only if a pass of the
median length so far ends within --seconds of the start, and further
interpreters that only set up are started until SETUPS set-up times are
known.  Every output is checked.

With --trace 0 the last line of standard output is the result object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
from a traced pass.  The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import FUNCTION_SETS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("skein_random", "planar_census", "module_algebra", "cli_cold")
SETUPS = 5
RUN_BUDGET_S = 170  # a run that cannot finish inside this is an error
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB",
}
COUNTERS = ("skein.leaves", "generate.iso_tests", "generate.census_graphs", "tait.one_sets",
            "gf2.rref_calls", "gf2.rref_cells", "gf2.matmul_calls", "gf2.matmul_ops",
            "modules.summands", "foams.exprs", "webs.parse_calls")
COUNT_UNITS = {"gf2.rref_cells": "cells_computed", "gf2.matmul_ops": "madds_computed"}
EXTRA_MS = ("cli.python_start_ms", "cli.import_ms", "cli.main_ms") + tuple(
    f"cli.main_ms.{k}" for k in
    ("tait", "euler", "foam-eval", "dims", "module", "catalogue", "adhm-verify"))


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    # a fixed hash seed: set iteration order is the same in every run, so
    # the seed changes the inputs and nothing else
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, index, role, traced, env, give_up_at) -> dict:
    cfg = {"workload": workload, "seed": seed, "index": index, "role": role, "traced": traced}
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, give_up_at - spawned),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{role} process {index} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile of one pass that has TAIL_BEYOND samples beyond it."""
    return 100.0 * max(ops_per_pass - TAIL_BEYOND, 0) / ops_per_pass


def quantile(xs: list, pct: float) -> float:
    """Nearest-rank quantile."""
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, math.ceil(len(xs) * pct / 100) - 1))]


def end_to_end(passes: list, setups: list) -> dict:
    """Latency quantiles pool the ops of all passes; the tail percentile is
    fixed by the pass size, so it does not move with the number of passes."""
    latencies = [x for p in passes for x in p["latencies"]]
    pct = tail_percentile(len(passes[0]["latencies"]))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "ops_per_s": len(latencies) / sum(p["wall"] for p in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * quantile(latencies, pct),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(traced: dict, ratios: list) -> dict:
    tr = traced["trace"]
    counts = traced["counts"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr["self_s"].get(layer, 0.0), "s")
        out[f"{layer}.calls"] = (tr["calls"].get(layer, 0), "count")
    for metric in FUNCTION_SETS:
        if metric != "cli.main_s":
            out[metric] = (tr["inclusive_s"].get(metric, 0.0), "s")
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), COUNT_UNITS.get(name, "count"))
    euler = tr["inclusive_s"].get("skein.euler_s", 0.0)
    out["skein.leaves_per_s"] = (counts.get("skein.leaves", 0) / euler if euler else 0.0, "1/s")
    for name in EXTRA_MS:
        out[name] = (traced["extra"].get(name, 0.0), "ms")
    out["trace.wall_s"] = (traced["wall"], "s")
    out["trace.uncovered_s"] = (traced["wall"] - sum(tr["self_s"].values()), "s")
    out["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return out


def print_report(args, passes, setups, failures, known, attempted, metrics=None, layers=None,
                 traced=None):
    import numpy  # versions only; the workers import their own copies
    import networkx

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  "
          f"networkx {networkx.__version__}  os.cpu_count {os.cpu_count()}  "
          f"BLAS/OpenMP threads 1  PYTHONHASHSEED 0")
    n = len(passes[0]["latencies"])
    print(f"{len(passes)} pass(es) of {n} ops, each in a fresh interpreter; "
          f"{len(setups)} set-ups; closed loop, one client")
    if metrics:
        tail_pct = tail_percentile(n)
        rows = [(k, v, END_TO_END_UNITS[k]) for k, v in metrics.items()]
        rows.insert(5, ("fail_ratio", (len(failures) + len(known)) / attempted, "1"))
        for name, value, unit in rows:
            note = ""
            if name == "op_tail_ms":
                timed = sum(len(p["latencies"]) for p in passes)
                note = f"  p{tail_pct:.1f} of {timed} timed ops ({n} per pass)"
            if name == "fail_ratio":
                note = f"  {len(failures) + len(known)} of {attempted} ops"
            print(f"  {name:<14}{value:>14.6g} {unit:<4}{note}")
    counts = passes[0]["counts"]
    print("work counters of pass 0: " + ", ".join(
        f"{k} {counts[k]}" for k in COUNTERS if k in counts))
    if layers:
        # an untraced cli_cold pass counts only what the CLI prints
        same = all(traced["counts"].get(k) == v for k, v in counts.items())
        spans = traced["trace"]["spans"]
        print(f"work counters of the traced pass {'repeat' if same else 'DIFFER FROM'} pass 0's")
        wall, uncovered = layers["trace.wall_s"][0], layers["trace.uncovered_s"][0]
        print(f"traced pass: {spans} spans; wall {wall:.4f} s = layer self times + uncovered "
              f"{uncovered:.4f} s (benchmark code: input prep, oracles, subprocess start/exit)")
        for layer in LAYERS:
            s, calls = layers[f"{layer}.self_s"][0], layers[f"{layer}.calls"][0]
            if calls or s:
                print(f"  {layer:<10} self {s:>10.4f} s {100 * s / wall:6.1f}%  calls {calls}")
        print(f"  trace.overhead_ratio {layers['trace.overhead_ratio'][0]:.3f}")
    for msg in known:
        print(f"known defect (counted in fail_ratio, see perfbench/README.md): {msg}")
    for msg in failures[:20]:
        print(f"FAILED: {msg}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "webfoam" / "__init__.py").is_file():
        print(f"error: no webfoam source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env(args.seed)
    started = time.monotonic()
    deadline, give_up_at = started + args.seconds, started + RUN_BUDGET_S
    reports, passes, setups, ratios, traced = [], [], [], [], None
    durations = []  # of each pass (or traced pair), process start to exit
    index = 0
    try:
        while True:
            # a new pass starts only if a pass of median length ends by the
            # deadline, so that a run measures about --seconds
            measuring = not passes or (
                time.monotonic() + statistics.median(durations) <= deadline)
            if not measuring and (args.trace or len(setups) >= SETUPS):
                break
            began = time.monotonic()
            if args.trace and measuring:
                # the same inputs untraced, then traced, each in a fresh interpreter
                plain = spawn(args.workload, args.seed, index, "pass", False, env, give_up_at)
                spanned = spawn(args.workload, args.seed, index, "pass", True, env, give_up_at)
                traced = traced or spanned
                ratios.append(spanned["wall"] / plain["wall"])
                passes.append(plain)
                reports += [plain, spanned]
                durations.append(time.monotonic() - began)
            else:
                report = spawn(args.workload, args.seed, index, "pass" if measuring else "setup",
                               False, env, give_up_at)
                setups.append(report["setup_s"])
                reports.append(report)
                if measuring:
                    passes.append(report)
                    durations.append(time.monotonic() - began)
            index += 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for r in reports for f in r["failures"]]
    known = [k for r in reports for k in r.get("known", [])]
    attempted = sum(len(r.get("latencies", ())) + r["warm_ops"] for r in reports)
    if args.trace:
        layers = per_layer(traced, ratios)
        print_report(args, passes, setups, failures, known, attempted,
                     layers=layers, traced=traced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        values = end_to_end(passes, setups)
        print_report(args, passes, setups, failures, known, attempted, metrics=values)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    # a documented known defect is reported above and in fail_ratio, but is
    # not an unexpected failure of this run
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
