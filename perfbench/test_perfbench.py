"""Self-test of the benchmark's own checks, at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload for one traced pass at a tiny size and shows that a
wrong reference value or an operation that fails is counted in `failed`
instead of crashing the run or passing.
"""

import copy
import json
import re
import signal

import pytest

import manifest
import pacing
import run
import tracing
import workloads


def tiny(name, seed=0, reference=None, trace=True):
    return run.run_workload(name, seed, seconds=0, trace=trace, size="tiny",
                            reference=reference)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_passes_its_checks_at_tiny_size(name):
    result = tiny(name)
    assert result["failed"] == []
    assert result["attempted"] > 0
    assert set(result["layers"]) == set(tracing.PER_LAYER)
    assert all(v > 0 for v in result["e2e"].values())


@pytest.mark.parametrize("name", ("bulk", "rerun"))
def test_nonzero_seed_keeps_the_invariant_statistics(name):
    assert tiny(name, seed=7, trace=False)["failed"] == []


def test_wrong_table_count_is_counted_not_raised():
    reference = workloads.load_reference()
    assert (sum(reference["T3"]), sum(reference["T4"])) == (1602, 201)
    reference["T3"][1] += 1  # the paper has T_3(2) = 2
    result = tiny("tables", reference=reference, trace=False)
    assert set(result["failed"]) == {"classify(3,2)"}
    assert result["attempted"] == 8


def test_wrong_statistics_digest_and_bad_input_are_counted():
    reference = workloads.load_reference()
    bulk = reference["bulk"]
    # C_1_1 alone has index 1, so its failure leaves no other cache short.
    bulk[0]["facets"] = [[0, 0, 0]] * 3  # the CLI rejects it with exit 2
    bulk[1]["stats"]["size"] += 1
    bulk[2]["bulk_sha256"] = "0" * 64
    labels = {bulk[i]["name"] for i in (0, 1, 2)}
    result = tiny("bulk", reference=copy.deepcopy(reference), trace=False)
    assert set(result["failed"]) == labels
    assert len(result["failed"]) == 2 * len(labels)  # warm-up and measured pass


def test_an_operation_that_raises_is_a_failure():
    wl = workloads.Workload([
        workloads.Op("raises", lambda: 1 / 0, lambda r: True),
        workloads.Op("passes", lambda: 1, lambda r: r == 1),
        workloads.Op("bad check", lambda: 1, lambda r: r["missing"]),
    ])
    tally = run.Tally()
    run.run_pass(wl, tally, pacing.Pacer())
    assert tally.attempted == 3
    assert tally.failed == ["raises", "bad check"]


def test_pacer_scales_by_the_reference_over_the_local_median():
    pacer = pacing.Pacer()
    for i in range(20):  # the host at half the reference speed, then at it
        pacer.at.append(float(i))
        for ref, out in zip(pacing.REFERENCE, pacer.samples):
            out.append(ref * (2 if i < 10 else 1))
    # One sample a second, so the window widens until it holds five.
    assert pacer.calibrate(2.0, 3.0, 4.0) == pytest.approx(2.0)
    assert pacer.calibrate(15.0, 15.0, 4.0) == pytest.approx(4.0)


def test_pacer_samples_while_running_and_its_time_is_left_out():
    before = signal.getsignal(signal.SIGALRM)
    busy = workloads.Op("busy", lambda: sum(i for i in range(5_000_000)), lambda r: True)
    wl = workloads.Workload([busy])
    pacer = pacing.Pacer()
    pacer.start()
    try:
        (t0, t1, seconds), = run.run_pass(wl, run.Tally(), pacer)
    finally:
        pacer.stop()
    assert len(pacer.at) >= 2 and pacer.stolen > 0
    assert seconds < t1 - t0
    assert signal.getsignal(signal.SIGALRM) is before


def test_seeded_matrices_are_unimodular_and_seed_zero_is_identity():
    lib = run.import_library()
    for d in (3, 4):
        identity = [list(r) for r in lib["intlinalg"].identity(d)]
        assert workloads.seeded_unimodular(d, 0, "C_1_1") == identity
        for seed in range(1, 20):
            u = workloads.seeded_unimodular(d, seed, f"D_5_{seed}")
            assert abs(lib["intlinalg"].det(u)) == 1


def test_tracer_wraps_every_binding_and_restores_it():
    lib = run.import_library()
    original = lib["cones"].canonical_key
    assert lib["nash"].canonical_key is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lib["cones"].canonical_key is not original
        assert lib["nash"].canonical_key is lib["cones"].canonical_key
        cone = lib["cones"].cone_from_facets([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
        lib["nash"].resolution_tree(cone)
    finally:
        tracer.uninstall()
    assert lib["nash"].canonical_key is original
    totals = tracer.layer_totals()
    calls, inclusive, self_s = totals["nash.resolution_tree"]
    assert calls == 1 and 0 <= self_s <= inclusive
    assert totals["cones.canonical_key"][0] >= 1
    assert tracer.counts["nash.nodes.expanded"] >= 1


def test_manifest_and_predictions_match_the_code():
    assert (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == manifest.render()
    with open(run.HERE / "predictions.json", encoding="utf-8") as fh:
        predicted = [m for p in json.load(fh)["predictions"] for m in p["layer_metrics"]]
    assert len(predicted) == len(set(predicted))
    assert set(predicted) == set(tracing.PER_LAYER) - set(tracing.TRACE_METRICS)


def test_manifest_keeps_the_benchmark_contract():
    spec = manifest.build()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(name_re.match(n) for n in names) and len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["per_layer"]) <= 128
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert all(unit_re.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60
