"""Write BENCHMARK.json at the root of the checkout from the benchmark's own
definitions, so the metric names there and in the runs cannot drift apart.

    python3 perfbench/manifest.py
"""

import json

from run import END_TO_END, ROOT, RUN_SECONDS, WORKLOADS
from tracing import PER_LAYER, unit_of

WHY = {
    "tables": "classify(d,i) over the paper's T_3 (i<=27) and T_4 (i<=8) tables from a cold "
              "cache; class deduplication does almost all the work here and none elsewhere",
    "bulk": "resolve every class of dim 3 index<=10 and dim 4 index<=5 through the CLI from "
            "empty caches; blow-ups and canonical_key share the work, caches are written",
    "rerun": "the same 161 resolves against caches filled in set-up: no blow-up, so cache "
             "loading, memo lookup and CLI dispatch are the work",
    "surface": "the six 2-D sweeps of surface_suite at q_max=60; the hj_eval Fraction fast "
               "path does almost all the work and shares nothing with the 3-D/4-D layers",
}

# Share of the parent's median by which each metric may worsen; set from
# the run-to-run spread measured when the benchmark was defined, which was
# at most 0.08 for pass_s and 0.26 for setup_s (a 0.05 s import on three
# of the workloads). setup_s has the largest bound.
BOUNDS = {
    "pass_s": 0.25,
    "setup_s": 0.25,
    "peak_rss_mb": 0.1,
}


def build():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": BOUNDS[name]}
            for name, unit in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit_of(name),
             "better": "higher" if name.endswith("_ratio") else "lower"}
            for name in PER_LAYER
        ],
    }


def render():
    return json.dumps(build(), indent=1) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render(), encoding="utf-8")
