"""Benchmark of the nashcones library: four workloads, end to end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload bulk --seed 3 --seconds 15 --trace 0

or all four, each in its own fresh process, with a summary table:

    python3 perfbench/run.py --seed 0

A run imports the library from ``src/``, sets up (the median of five
set-ups is reported), runs a warm-up pass cut short after WARMUP_SECONDS
(except ``tables``, whose cold cache is the workload) and then whole
measured passes while the next one, judged by the longest so far, ends
within ``--seconds``; at least one. Every operation is checked outside its
timed region; a failed check or an exception counts in ``failed`` and
never stops the run.

Timings are calibrated against the host's speed (see pacing.py): the
gated ``pass_s`` and ``setup_s`` are seconds at the reference speed, and
the raw ``wall_s`` and ``setup_wall_s`` are printed beside them.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics. With ``--trace 1`` the same untraced passes run first,
then the library's public functions are wrapped (see tracing.py) for as
many traced passes, and the JSON carries the per-layer metrics per pass
plus the tracing overhead. Spans and a result file go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import pacing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("tables", "bulk", "rerun", "surface")
LAYERS = tuple(tracing.TRACED)
SETUP_REPEATS = 5
RUN_SECONDS = 15
WARMUP_SECONDS = 2.0

# The end-to-end metrics in the result line, each gated by a bound.
END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed and written to the result file but not gated. wall_s and
# setup_wall_s are the raw times, which drift with the host's speed by more
# than the largest bound a metric may have. The operation percentiles are
# calibrated, but on the single-pass workloads (tables, bulk) each is the
# time of one short operation and spread too far between runs.
UNGATED = (("wall_s", "s"), ("setup_wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))


def import_library():
    """Import the package afresh from src/, returning its layer modules."""
    for name in [n for n in sys.modules if n == "nashcones" or n.startswith("nashcones.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("nashcones")
    return {short: importlib.import_module(f"nashcones.{short}") for short in LAYERS}


def prefill_in_subprocess(seed, size):
    """Fill rerun's caches with one bulk pass in a child process, so the
    bulk pass's memory does not count in rerun's peak RSS."""

    def prefill(cache_dir):
        proc = subprocess.run(
            [sys.executable, str(HERE / "prefill.py"), str(cache_dir), str(seed), size],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, check=False,
        )
        if proc.returncode != 0:
            # rerun's own checks then fail and count; say why here.
            print(f"prefill exited {proc.returncode}: {proc.stdout.strip()}", file=sys.stderr)

    return prefill


def build_workload(name, lib, seed, size, reference):
    if name == "tables":
        return workloads.tables(lib, size, reference)
    if name == "bulk":
        return workloads.bulk(lib, seed, size, reference, OUT)
    if name == "rerun":
        return workloads.rerun(lib, seed, size, reference, OUT, prefill_in_subprocess(seed, size))
    return workloads.surface(lib, size)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def record(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(label)


def attempt(op):
    try:
        return op.run()
    except Exception as exc:  # an operation that raises is a failure
        return exc


def run_pass(wl, tally, pacer, tracer=None, limit=None):
    """One pass over the operations, or its operations that start within
    `limit` seconds; returns the pacer's (start, end, seconds) of each."""
    wl.begin_pass()
    if tracer is not None:
        tracer.begin_pass()
    times = []
    t_start = perf_counter()
    for op in wl.ops:
        if limit is not None and perf_counter() - t_start >= limit:
            break
        result, span = pacer.time(lambda: attempt(op))
        times.append(span)
        try:
            ok = not isinstance(result, Exception) and bool(op.check(result))
        except Exception:  # so is a result the check cannot read
            ok = False
        tally.record(op.label, ok)
    return times


def measure(wl, seconds, tally, pacer, tracer=None):
    """Whole passes while the next, judged by the longest so far, ends
    within `seconds`; at least one."""
    passes = []
    t_start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        passes.append(run_pass(wl, tally, pacer, tracer))
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - t_start + longest > seconds:
            return passes


def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank. Repeating every value k times
    leaves it unchanged, so pooling a varying number of passes of the same
    operations does not move it."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def wall(passes):
    """The median raw seconds of a pass."""
    return statistics.median(sum(s for _, _, s in p) for p in passes)


def summarize(passes, pacer):
    calibrated = [[pacer.calibrate(*op) for op in p] for p in passes]
    ops = [t for p in calibrated for t in p]
    return {
        "pass_s": statistics.median(sum(p) for p in calibrated),
        "wall_s": wall(passes),
        "op_p50_ms": nearest_rank(ops, 50) * 1e3,
        "op_p90_ms": nearest_rank(ops, 90) * 1e3,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_workload(name, seed, seconds, trace, size="full", reference=None):
    """Set up, run and check one workload; returns the result dict."""
    reference = reference or workloads.load_reference()
    OUT.mkdir(parents=True, exist_ok=True)

    pacer = pacing.Pacer()
    pacer.start()
    wl = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            wl, span = pacer.time(
                lambda: build_workload(name, import_library(), seed, size, reference))
            setups.append(span)
        _, prepare = pacer.time(wl.prepare)
        setup_s = (statistics.median(pacer.calibrate(*span) for span in setups)
                   + pacer.calibrate(*prepare))
        setup_wall_s = statistics.median(span[2] for span in setups) + prepare[2]

        tally = Tally()
        gc.collect()
        if wl.warmup:
            run_pass(wl, tally, pacer, limit=WARMUP_SECONDS)
        passes = measure(wl, seconds, tally, pacer)
        pacer.stop()
        metrics = summarize(passes, pacer)
        metrics["setup_s"] = setup_s
        metrics["setup_wall_s"] = setup_wall_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        result = {"passes": len(passes), "warmup": wl.warmup, "e2e": metrics}
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(wl, seconds, tally, pacer, tracer)
            finally:
                tracer.uninstall()
            overhead = {
                "trace.wall_s": wall(traced),
                "trace.untraced_wall_s": metrics["wall_s"],
            }
            overhead["trace.overhead_s"] = overhead["trace.wall_s"] - metrics["wall_s"]
            result["layers"] = tracing.per_layer_metrics(tracer, len(traced), overhead)
            result["top_self_s"] = tracing.top_self_time(tracer, len(traced), overhead["trace.wall_s"])
            result["spans_file"] = str(write_spans(tracer, name, seed))
    finally:
        pacer.stop()
        if wl is not None:
            wl.close()
    result.update(attempted=tally.attempted, failed=tally.failed)
    return result


def write_spans(tracer, name, seed):
    path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write_spans(path, {"workload": name, "seed": seed})
    return path.relative_to(ROOT)


def meta(name, seed):
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def report(name, seed, seconds, trace):
    result = run_workload(name, seed, seconds, trace)
    info = meta(name, seed)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  python {info['python']}  cpus {info['cpu_count']}  "
          f"passes {result['passes']}{' after a warm-up' if result['warmup'] else ''}")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
        print(f"tracing overhead {result['layers']['trace.overhead_s'][0]:.3f} s per pass; "
              f"spans in {result['spans_file']}")
        for span, (self_s, share) in result["top_self_s"]:
            print(f"  self {self_s:9.4f} s  {share:6.1%}  {span}")
        printed = metrics
    else:
        printed = {k: {"value": result["e2e"][k], "unit": u} for k, u in END_TO_END + UNGATED}
        metrics = {k: printed[k] for k, _ in END_TO_END}
        for k, m in printed.items():
            print(f"  {k:12s} {m['value']:12.4f} {m['unit']}{'' if k in metrics else '  (not gated)'}")
    print(f"  failed_ratio {len(failed) / attempted:.4f} ({len(failed)}/{attempted})"
          + (f"  failed: {', '.join(sorted(set(failed)))}" if failed else ""))
    record = {"meta": info, "attempted": attempted, "failed": failed, "metrics": printed}
    result_path(name, seed, trace).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))


def result_path(name, seed, trace):
    return OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"


def report_all(seed, seconds, trace):
    """Each workload in a fresh process, then one table of the results."""
    rows = []
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((name, json.loads(result_path(name, seed, trace).read_text(encoding="utf-8"))))
    if not trace and rows:
        columns = END_TO_END + UNGATED
        print()
        header = ["workload"] + [f"{k} [{u}]" for k, u in columns] + ["failed_ratio"]
        print("  ".join(f"{h:>15s}" for h in header))
        for name, res in rows:
            cells = [f"{res['metrics'][k]['value']:15.4f}" for k, _ in columns]
            ratio = len(res["failed"]) / res["attempted"]
            print("  ".join([f"{name:>15s}"] + cells + [f"{ratio:15.4f}"]))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; all four when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nashcones" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}/nashcones", file=sys.stderr)
        return 2
    if args.workload is None:
        return report_all(args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
