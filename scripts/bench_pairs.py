"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --seed N --pairs 10 > pairs.json

PARENT and CHANGE are the roots of two source trees.  Each pair runs the
unchanged ``perfbench/run.py --workload W --seed N --seconds T --trace 0``
once in each tree, where T is ``run_seconds`` of this repository's
``BENCHMARK.json``: pair i runs the parent first when i is odd and the
change first when i is even.  The JSON written to standard output holds,
per end-to-end metric of ``BENCHMARK.json``, both sides' values, medians
and quartiles (inclusive method), the pairs the change won (ties count for
neither side) and whether a gain holds: the change wins at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range.  It also holds each run's attempted and
failed op counts and its result line.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
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


def summary(parent: list, change: list, better: str) -> dict:
    """Medians, quartiles, pairs won and the gain rule for one metric."""
    def quartiles(xs):
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return [q1, q3]

    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (q1, q3), pm, cm = quartiles(parent), statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_median": pm,
        "parent_q1_q3": [q1, q3],
        "change_median": cm,
        "change_q1_q3": quartiles(change),
        "change_wins": f"{wins}/{len(parent)}",
        "gain_holds": wins >= 0.9 * len(parent) and sign * (cm - pm) > q3 - q1,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    lines: dict = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            lines[side].append(run(getattr(args, side), args.workload, args.seed))
            print(f"pair {i} {side}: {lines[side][-1]['metrics']}", file=sys.stderr)
    metrics = {}
    for m in BENCHMARK["end_to_end"]:
        values = {s: [r["metrics"][m["name"]]["value"] for r in lines[s]] for s in lines}
        metrics[m["name"]] = {"unit": m["unit"], **summary(values["parent"], values["change"], m["better"])}
    json.dump({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": BENCHMARK["run_seconds"],
        "pairs": args.pairs,
        "order": "pair i runs the parent first when i is odd, the change first when i is even",
        "correct": all(r["correct"] for side in lines.values() for r in side),
        "attempted_failed": {s: [[r["attempted"], r["failed"]] for r in lines[s]] for s in lines},
        "metrics": metrics,
        "result_lines": lines,
    }, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
