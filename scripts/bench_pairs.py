"""Run the benchmark on two checkouts in alternating pairs and record them.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --seed N --pairs 10 \\
        --into BENCH_name.json [--what "what the change does"]

PARENT and CHANGE are the roots of two source trees.  Each pair runs the
unchanged ``perfbench/run.py --workload W --seed N --seconds T --trace 0``
once in each tree, where T is ``run_seconds`` of this repository's
``BENCHMARK.json``: pair i runs the parent first when i is odd and the
change first when i is even.  The summary holds, per end-to-end metric
of ``BENCHMARK.json``, both sides' values, medians and quartiles
(inclusive method), the pairs the change won (ties count for neither
side), whether a gain holds: the change wins at least nine tenths of
the pairs and its median beats the parent's by more than the parent's
interquartile range (one pair is summarised, but shows no gain), and a
no-regression verdict on the metric's ``bound``, a fraction of the
parent's median: ``within_bound`` when the change's median is no worse
than the parent's by more than the bound, ``worse`` when it is, and
``unresolved`` when the parent's interquartile range exceeds the bound,
unless every run of the change beats every run of the parent.  It also
holds each run's attempted and failed op counts and its result line,
which records under ``bytecode`` whether ``PYTHONDONTWRITEBYTECODE`` was set and
whether each tree's ``src/webfoam/__pycache__`` existed before and
after the run: a run that writes bytecode caches, or one beside it that
does, changes every later command's start-up.  Progress goes to
standard error.

The summary is written into the ``BENCH_*.json`` document named by
``--into``, under ``perfbench["W/seedN"]``.  A new document also gets the
shared fields: ``what`` (from ``--what``), ``host`` (platform, CPU count,
Python version), ``parent`` and ``change`` (each tree's ``git rev-parse
HEAD``, marked when the tree has uncommitted changes, or its path when it
is not the root of a git checkout) and an empty ``counters`` object for
the change's own work counters.  Adding a run to an existing document
adds its one key and overwrites nothing: a key already present, or
shared fields that differ from the document's, are refused.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

BENCHMARK = json.loads((pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def run(root: pathlib.Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``root``; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def bytecode_state(trees: dict) -> dict:
    """Whether ``PYTHONDONTWRITEBYTECODE`` is set, and for each side of
    ``trees`` (side -> tree root) whether ``src/webfoam/__pycache__`` exists."""
    return {"PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            **{side: (root / "src" / "webfoam" / "__pycache__").is_dir() for side, root in trees.items()}}


def recorded_run(trees: dict, side: str, workload: str, seed: int) -> dict:
    """``run`` in ``trees[side]``, its result line with the bytecode state
    of both trees before and after it under ``bytecode``."""
    before = bytecode_state(trees)
    line = run(trees[side], workload, seed)
    return {**line, "bytecode": {"before": before, "after": bytecode_state(trees)}}


def summary(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles, pairs won, the gain rule and the no-regression
    verdict for one metric.  One pair shows no spread: its quartiles are
    those of [x, x], and no gain holds on it."""
    def quartiles(xs):
        q1, _, q3 = statistics.quantiles(xs * 2 if len(xs) == 1 else xs, n=4, method="inclusive")
        return [q1, q3]

    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (q1, q3), pm, cm = quartiles(parent), statistics.median(parent), statistics.median(change)
    if all(sign * (c - p) > 0 for p in parent for c in change):
        verdict = "within_bound"
    elif q3 - q1 > bound * abs(pm):
        verdict = "unresolved"
    else:
        verdict = "worse" if sign * (pm - cm) > bound * abs(pm) else "within_bound"
    return {
        "parent": parent,
        "change": change,
        "parent_median": pm,
        "parent_q1_q3": [q1, q3],
        "change_median": cm,
        "change_q1_q3": quartiles(change),
        "change_wins": f"{wins}/{len(parent)}",
        "gain_holds": len(parent) > 1 and wins >= 0.9 * len(parent) and sign * (cm - pm) > q3 - q1,
        "no_regression": verdict,
    }


def pairs_summary(lines: dict) -> dict:
    """The summary of the result lines of both sides, ``{"parent": [...], "change": [...]}``."""
    metrics = {}
    for m in BENCHMARK["end_to_end"]:
        values = {s: [r["metrics"][m["name"]]["value"] for r in lines[s]] for s in lines}
        metrics[m["name"]] = {"unit": m["unit"], "bound": m["bound"],
                              **summary(values["parent"], values["change"], m["better"], m["bound"])}
    return {
        "seconds": BENCHMARK["run_seconds"],
        "pairs": len(lines["parent"]),
        "order": "pair i runs the parent first when i is odd, the change first when i is even",
        "correct": all(r["correct"] for side in lines.values() for r in side),
        "attempted_failed": {s: [[r["attempted"], r["failed"]] for r in lines[s]] for s in lines},
        "metrics": metrics,
        "result_lines": lines,
    }


def tree_id(root: pathlib.Path) -> str:
    """``git rev-parse HEAD`` of a checkout's root, or the tree's path."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or pathlib.Path(top).resolve() != root.resolve():
        return str(root.resolve())
    head = git("rev-parse", "HEAD")
    return f"{head} with uncommitted changes" if git("status", "--porcelain") else head


def host() -> dict:
    return {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version()}


def merge(doc: dict | None, shared: dict, key: str, run_summary: dict) -> dict:
    """A copy of ``doc`` (``None`` for a new document) with ``run_summary``
    added under ``perfbench[key]``; ``shared`` holds ``what`` (``None`` when
    not given), ``host``, ``parent`` and ``change``."""
    if doc is None:
        if shared["what"] is None:
            raise ValueError("a new document needs --what")
        doc = {**shared, "perfbench": {}, "counters": {}}
    for field, value in shared.items():
        if value is not None and doc.get(field) != value:
            raise ValueError(f"{field} {value!r} differs from the document's {doc.get(field)!r}")
    if key in doc["perfbench"]:
        raise ValueError(f"the document already holds {key}")
    return {**doc, "perfbench": {**doc["perfbench"], key: run_summary}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--into", type=pathlib.Path, required=True)
    parser.add_argument("--what")
    args = parser.parse_args()
    doc = json.loads(args.into.read_text()) if args.into.exists() else None
    shared = {"what": args.what, "host": host(), "parent": tree_id(args.parent), "change": tree_id(args.change)}
    key = f"{args.workload}/seed{args.seed}"
    try:
        merge(doc, shared, key, {})  # refuse before the runs, not after them
    except ValueError as exc:
        parser.error(f"{args.into}: {exc}")
    lines: dict = {"parent": [], "change": []}
    trees = {"parent": args.parent, "change": args.change}
    for i in range(1, args.pairs + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            lines[side].append(recorded_run(trees, side, args.workload, args.seed))
            print(f"pair {i} {side}: {lines[side][-1]['metrics']}", file=sys.stderr)
    doc = merge(doc, shared, key, pairs_summary(lines))
    args.into.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
