"""Alternating parent/change pairs of the benchmark, written as BENCH_<label>.json.

Given two checkouts, one of the parent commit and one of the change (say,
each unpacked with ``git archive``), run from the root of the repository:

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --label my_change --parent-commit SHA --note "what the change does" \\
        --claim "what should move" [--pairs 10] [--seed 0] [--workload bulk]

Pair i runs ``python3 perfbench/run.py --seed S`` (all four workloads, or
the one given) once in each checkout, the parent first in even-numbered
pairs. The JSON line each workload prints is kept under ``runs``, and
``summary`` gives, per workload and end-to-end metric, each side's
quartiles, the relative change of the median, the pairs the change read
lower, the parent's interquartile range, whether the change meets the
claim rule, the metric's bound from BENCHMARK.json and whether the
median change is within it, and the failed operations of each side.
Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("pass_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def parse_run(stdout):
    """The JSON result line of each workload in one run.py output, by
    workload: each workload prints a ``workload NAME ...`` header and ends
    with its JSON line."""
    results, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("{") and workload is not None:
            results[workload] = json.loads(line)
            workload = None
    return results


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(median, 4), round(q3, 4)]


def summarize(runs, pairs):
    """Per workload: for each end-to-end metric, the parent's (before) and
    the change's (after) quartiles, the relative change of the median, the
    pairs whose change run read lower, the parent's q3 - q1, whether a
    gain can be claimed, the metric's bound and whether the median change
    is within it; and the failed operations summed over each side's runs.
    ``runs`` maps "parent-i" and "change-i" to the parsed output of pair i.

    Every metric is better lower. The claim rule holds when the change read
    lower in at least nine tenths of the pairs, ties counting for neither
    side, and its median lies below the parent's by more than the parent's
    interquartile range. A change without a claim is judged on the bound
    alone: its median may read worse than the parent's by at most the
    bound, as a fraction."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    summary = {}
    for workload in runs["parent-0"]:
        before = [runs[f"parent-{i}"][workload] for i in range(pairs)]
        after = [runs[f"change-{i}"][workload] for i in range(pairs)]
        entry = {}
        for metric in METRICS:
            b = [r["metrics"][metric]["value"] for r in before]
            a = [r["metrics"][metric]["value"] for r in after]
            q1, _, q3 = statistics.quantiles(b, n=4)
            wins = sum(x < y for x, y in zip(a, b))
            drop = statistics.median(b) - statistics.median(a)
            change = round(statistics.median(a) / statistics.median(b) - 1, 4)
            entry[metric] = {
                "before_q1_median_q3": quartiles(b),
                "after_q1_median_q3": quartiles(a),
                "median_change": change,
                "pairs_after_lower": f"{wins}/{pairs}",
                "parent_iqr": round(q3 - q1, 4),
                "claim_rule_met": 10 * wins >= 9 * pairs and drop > q3 - q1,
                "bound": bounds[metric],
                "within_bound": change <= bounds[metric],
            }
        entry["failed"] = {
            "before": sum(r["failed"] for r in before),
            "after": sum(r["failed"] for r in after),
        }
        summary[workload] = entry
    return summary


def run_once(tree, seed, workload):
    command = [sys.executable, "perfbench/run.py", "--seed", str(seed)]
    if workload:
        command += ["--workload", workload]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    results = parse_run(proc.stdout)
    if proc.returncode != 0 or not results:
        raise SystemExit(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stdout}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--note", required=True, help="what the change does")
    parser.add_argument("--claim", default="none: no end-to-end metric worse than its bound")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", help="one workload; all four when omitted")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    trees = {"parent": args.parent, "change": args.change}

    runs = {}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            print(f"pair {i}: {side}", file=sys.stderr, flush=True)
            runs[f"{side}-{i}"] = run_once(trees[side], args.seed, args.workload)
    runs = {f"{side}-{i}": runs[f"{side}-{i}"] for i in range(args.pairs) for side in SIDES}

    command = f"python3 perfbench/run.py --seed {args.seed}"
    command += f" --workload {args.workload}" if args.workload else " (all four workloads)"
    record = {
        "label": args.label,
        "change": args.note,
        "parent_commit": args.parent_commit,
        "command": command + ", default --seconds, run from the root of a copy of each tree",
        "host": f"{os.cpu_count()} CPUs, {platform.system()}, Python {platform.python_version()}",
        "protocol": (
            f"{args.pairs} alternating pairs of one parent run and one change run, made by "
            "scripts/bench_pairs.py; the parent runs first in even-numbered pairs (0, 2, ...). "
            "before = parent, after = change. Each run entry is the JSON line each workload "
            "printed."
        ),
        "claim": args.claim,
        "summary": summarize(runs, args.pairs),
        "runs": runs,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
