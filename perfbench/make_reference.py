"""Write perfbench/reference.json: the bulk and rerun operations at seed 0.

    python3 perfbench/make_reference.py

For every class of dimension 3 with index <= 10 and of dimension 4 with
index <= 5, in table order, records its presentation, the GL(d,Z)-invariant
statistics of its resolution at --prune-index equal to its index, and the
SHA-256 of the text stdout of a bulk pass (empty caches) and of a rerun
pass (filled caches). Text output is byte-identical by contract, so run
this only when that contract changes on purpose.
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from run import OUT, import_library
from workloads import (
    _STATS_RE,
    BULK_RANGES,
    PAPER_D_5_14,
    REFERENCE_PATH,
    _CacheDirs,
    _resolve_ops,
)


def resolve_all(lib, classes, cache_dir):
    """Run the benchmark's own bulk operations at seed 0, unchecked."""
    ops = _resolve_ops(lib, 0, "full", {"bulk": classes}, _CacheDirs(None, cache_dir), None)
    for cls, op in zip(classes, ops):
        code, out, err = op.run()
        m = _STATS_RE.search(err)
        if code != 0 or m is None or m.group(5) != "True":
            raise SystemExit(f"{cls['name']}: exit {code}: {err.strip()}")
        yield cls, hashlib.sha256(out.encode()).hexdigest(), tuple(map(int, m.groups()[:4]))


def main():
    lib = import_library()
    classes = []
    for d, top in BULK_RANGES["full"]:
        for i in range(1, top + 1):
            for cls in lib["classify"].classify(d, i):
                classes.append({"name": cls.name, "dim": d, "index": i,
                                "facets": [list(r) for r in cls.presentation]})
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        for cls, digest, stats in resolve_all(lib, classes, cache_dir):
            cls["stats"] = dict(zip(("depth", "size", "unique", "max_facets"), stats))
            cls["bulk_sha256"] = digest
        for cls, digest, stats in resolve_all(lib, classes, cache_dir):
            if dict(zip(("depth", "size", "unique", "max_facets"), stats)) != cls["stats"]:
                raise SystemExit(f"{cls['name']}: cached statistics differ from fresh ones")
            cls["rerun_sha256"] = digest
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    stretch = next(c for c in classes if c["name"] == "D_5_14")
    if any(stretch["stats"][k] != v for k, v in PAPER_D_5_14.items()):
        raise SystemExit(f"D_5_14: {stretch['stats']} disagrees with the paper")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"bulk": [\n')
        fh.write(",\n".join(json.dumps(c, separators=(",", ":")) for c in classes))
        fh.write("\n]}\n")
    print(f"wrote {len(classes)} operations to {REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
