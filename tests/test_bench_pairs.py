"""The summary of scripts/bench_pairs.py, on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(pass_s, failed=0):
    """What perfbench/run.py --seed 0 prints for two workloads."""
    lines = []
    for name, scale in (("tables", 1.0), ("bulk", 3.0)):
        metrics = {
            "pass_s": {"value": pass_s * scale, "unit": "s"},
            "setup_s": {"value": 0.05, "unit": "s"},
            "peak_rss_mb": {"value": 26.0 + pass_s, "unit": "MB"},
        }
        lines += [
            f"workload {name}  seed 0  python 3.11.7  cpus 2  passes 3 after a warm-up",
            f"  pass_s {pass_s * scale:12.4f} s",
            f"  failed_ratio {failed / 10:.4f} ({failed}/10)",
            json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                        "metrics": metrics}),
        ]
    lines += ["", "        workload    pass_s [s]", "          tables        1.0000"]
    return "\n".join(lines) + "\n"


def test_parse_run_keeps_each_workloads_json_line():
    bench = _load()
    parsed = bench.parse_run(_output(1.0, failed=2))
    assert list(parsed) == ["tables", "bulk"]
    assert parsed["bulk"]["metrics"]["pass_s"]["value"] == 3.0
    assert parsed["tables"]["failed"] == 2


def test_summarize_quartiles_medians_and_pair_wins():
    bench = _load()
    parent = [1.0, 1.2, 1.1, 1.3]
    change = [0.9, 1.0, 1.2, 1.0]  # lower in pairs 0, 1 and 3; higher in pair 2
    runs = {}
    for i, (b, a) in enumerate(zip(parent, change)):
        runs[f"parent-{i}"] = bench.parse_run(_output(b))
        runs[f"change-{i}"] = bench.parse_run(_output(a, failed=i % 2))
    summary = bench.summarize(runs, 4)
    assert list(summary) == ["tables", "bulk"]
    tables = summary["tables"]["pass_s"]
    # statistics.quantiles' default (exclusive) method, rounded to 4 places
    assert tables["before_q1_median_q3"] == [1.025, 1.15, 1.275]
    assert tables["after_q1_median_q3"] == [0.925, 1.0, 1.15]
    assert tables["median_change"] == round(1.0 / 1.15 - 1, 4)
    assert tables["pairs_after_lower"] == "3/4"
    assert summary["bulk"]["pass_s"]["pairs_after_lower"] == "3/4"
    assert summary["bulk"]["setup_s"]["pairs_after_lower"] == "0/4"  # ties count for neither
    assert summary["bulk"]["failed"] == {"before": 0, "after": 2}


def _runs(bench, parent, change):
    runs = {}
    for i, (b, a) in enumerate(zip(parent, change)):
        runs[f"parent-{i}"] = bench.parse_run(_output(b))
        runs[f"change-{i}"] = bench.parse_run(_output(a))
    return runs


def test_summarize_claim_rule_needs_nine_tenths_of_pairs_and_a_drop_past_the_iqr():
    bench = _load()
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # parent quartiles 0.98 and 1.02 by the exclusive method
    tables = bench.summarize(_runs(bench, parent, [x - 0.1 for x in parent]), 10)["tables"]
    assert tables["pass_s"]["parent_iqr"] == 0.04
    assert tables["pass_s"]["pairs_after_lower"] == "10/10"
    assert tables["pass_s"]["claim_rule_met"] is True
    assert tables["setup_s"]["claim_rule_met"] is False  # all ties: no pair won

    # nine wins and one tie still meet it; a second tie does not
    one_tie = [x - 0.1 for x in parent[:9]] + [parent[9]]
    assert bench.summarize(_runs(bench, parent, one_tie), 10)["tables"]["pass_s"]["claim_rule_met"]
    two_ties = [x - 0.1 for x in parent[:8]] + parent[8:]
    pass_s = bench.summarize(_runs(bench, parent, two_ties), 10)["tables"]["pass_s"]
    assert pass_s["pairs_after_lower"] == "8/10" and not pass_s["claim_rule_met"]

    # every pair won, but the median drop is inside the parent's spread
    small = bench.summarize(_runs(bench, parent, [x - 0.01 for x in parent]), 10)["tables"]
    assert small["pass_s"]["pairs_after_lower"] == "10/10"
    assert small["pass_s"]["claim_rule_met"] is False


def test_summarize_reads_each_bound_from_the_benchmark_and_checks_the_median():
    bench = _load()
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    slower = bench.summarize(_runs(bench, parent, [x * 1.1 for x in parent]), 10)["tables"]
    assert slower["pass_s"]["bound"] == 0.25
    assert slower["pass_s"]["median_change"] == 0.1
    assert slower["pass_s"]["within_bound"] is True
    assert slower["setup_s"]["within_bound"] is True  # ties: a change of 0
    assert slower["peak_rss_mb"]["bound"] == 0.1
    much_slower = bench.summarize(_runs(bench, parent, [x * 1.3 for x in parent]), 10)["tables"]
    assert much_slower["pass_s"]["median_change"] == 0.3
    assert much_slower["pass_s"]["within_bound"] is False
