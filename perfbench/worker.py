"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py '<json config>'
        Import the layers, install the tracer (counting or tracing), build
        the workload's inputs and warm up: that is set-up.  With role
        "pass", then run every op once, check each output, and print one
        JSON report as the last line of standard output.

    python3 perfbench/worker.py --cli ARGS...
        Traced stand-in for `python -m webfoam.cli ARGS...`: the CLI's own
        output goes to standard output, and a span summary goes to the last
        line of standard error.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_MARK = "PERFBENCH-TRACE "


def _import_program(names) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    for name in names:
        importlib.import_module(f"webfoam.{name}")
    src = Path(sys.modules["webfoam"].__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"webfoam was imported from {src}, not from {ROOT / 'src'}")


def cli_child(argv) -> int:
    from tracer import FUNCTION_SETS, Tracer

    tr = Tracer(spans=True)
    tr.op = 0
    start = time.perf_counter()
    _import_program(["cli"])
    tr.add_span("cli.import", start, time.perf_counter())
    tr.install()
    cli = sys.modules["webfoam.cli"]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    summary = tr.summary(FUNCTION_SETS)
    summary["counts"] = dict(tr.counts)
    print(TRACE_MARK + json.dumps(summary), file=sys.stderr)
    return rc


def _run_op(op, failures, known, counts):
    from workloads import KnownDefect

    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        failures.append(f"{op.kind}: {type(exc).__name__}: {exc}"[:500])
        return time.perf_counter() - start
    latency = time.perf_counter() - start
    try:
        verdict = op.check(out)
    except Exception as exc:
        verdict = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    if isinstance(verdict, KnownDefect):
        known.append(str(verdict))
    elif verdict is not None:
        failures.append(str(verdict)[:500])
    if op.tally is not None:
        counts.update(op.tally(out))
    return latency


def _merge_child_traces(traces) -> tuple[dict, Counter, dict]:
    """Add up the span summaries of traced CLI children."""
    total = {"spans": 0, "self_s": Counter(), "calls": Counter(), "inclusive_s": Counter()}
    counts = Counter()
    main_ms: dict = {}
    for kind, stderr in traces:
        lines = [ln for ln in stderr.splitlines() if ln.startswith(TRACE_MARK)]
        if not lines:
            continue
        s = json.loads(lines[-1][len(TRACE_MARK):])
        total["spans"] += s["spans"]
        for key in ("self_s", "calls", "inclusive_s"):
            total[key].update(s[key])
        counts.update(s["counts"])
        main_ms.setdefault(kind, []).append(1000 * s["inclusive_s"].get("cli.main_s", 0.0))
    extra = {"cli.main_ms": statistics.median(x for xs in main_ms.values() for x in xs)}
    for kind, xs in main_ms.items():
        extra[f"cli.main_ms.{kind}"] = statistics.median(xs)
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in total.items()}, counts, extra


def main(argv) -> int:
    if argv and argv[0] == "--cli":
        return cli_child(argv[1:])
    cfg = json.loads(argv[0])
    name, traced = cfg["workload"], cfg["traced"]
    import workloads
    from tracer import FUNCTION_SETS, Tracer

    imports, build = workloads.WORKLOADS[name]
    _import_program(imports)
    in_process = name != "cli_cold"
    tr = Tracer(spans=traced and in_process)
    tr.install()
    kwargs = {} if in_process else {"env": dict(os.environ), "traced": traced}
    wl = build(cfg["seed"], cfg["index"], ROOT, **kwargs)
    failures: list = []
    known: list = []
    for op in wl.warmup:
        _run_op(op, failures, known, Counter())
    failures = [f"warm-up {f}" for f in failures]
    ready = time.monotonic()
    if cfg["role"] == "setup":
        print(json.dumps({"ready": ready, "failures": failures, "warm_ops": len(wl.warmup)}))
        return 0

    tr.reset_counts()
    counts: Counter = Counter()
    latencies = []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        tr.op = i
        latencies.append(_run_op(op, failures, known, counts))
    wall = time.perf_counter() - start
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    report = {
        "ready": ready,
        "wall": wall,
        "latencies": latencies,
        "failures": failures,
        "known": known,
        "warm_ops": len(wl.warmup),
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "extra": dict(wl.extra),
        "trace": None,
    }
    counts.update(tr.counts)
    if traced and in_process:
        report["trace"] = tr.summary(FUNCTION_SETS)
    elif traced:
        report["trace"], child_counts, extra = _merge_child_traces(wl.child_traces)
        counts.update(child_counts)
        report["extra"].update(extra)
    report["counts"] = dict(counts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
