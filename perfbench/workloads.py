"""The four benchmark workloads and the checks on every operation.

A workload is a list of operations plus per-pass hooks. An operation is a
label, a callable doing the timed work, and a check on its result that
runs outside the timed region. Workloads reach the library only through
module attributes looked up at call time, so the tracer's wrappers see
every call.

- tables:  classify(3, i) for i <= 27 and classify(4, i) for i <= 8, with
           the classify cache cleared before each pass.
- bulk:    `nashcones resolve --facets ... --prune-index i --cache ...` on
           every class of dimension 3 with index <= 10 and of dimension 4
           with index <= 5, in table order, from empty cache files.
- rerun:   the same invocations against cache files filled in set-up.
- surface: the six 2-D sweeps of checks.surface_suite at q_max = 60.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Class counts T_d(I) from the paper's tables; they sum to 1602 and 201.
PAPER_T3 = (
    1, 2, 4, 7, 8, 11, 14, 21, 23, 25, 28, 43, 38, 45,
    59, 66, 60, 76, 74, 101, 107, 99, 104, 153, 135, 135, 163,
)
PAPER_T4 = (1, 3, 7, 16, 18, 37, 36, 83)
# The stretch case at --prune-index 5: depth 8, raw tree size 14149.
PAPER_D_5_14 = {"depth": 8, "size": 14149}

# (dimension, largest index) of the classes resolved by bulk and rerun.
BULK_RANGES = {"full": ((3, 10), (4, 5)), "tiny": ((3, 3), (4, 2))}
TABLE_RANGES = {"full": ((3, 27), (4, 8)), "tiny": ((3, 5), (4, 3))}
SURFACE_Q_MAX = {"full": 60, "tiny": 8}

_STATS_RE = re.compile(
    r"depth (\d+)\s+size (\d+)\s+unique (\d+)\s+max-facets (\d+)\s+resolved (\w+)"
)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _noop():
    pass


@dataclass
class Workload:
    ops: list
    warmup: bool = True
    prepare: Callable[[], None] = _noop  # set-up work done once, timed
    begin_pass: Callable[[], None] = _noop
    close: Callable[[], None] = _noop


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["T3"], ref["T4"] = list(PAPER_T3), list(PAPER_T4)
    return ref


# ------------------------------------------------------------------ seeds


def seeded_unimodular(d, seed, label):
    """A signed permutation matrix in GL(d,Z) drawn from the seed and the
    class label; seed 0 is the identity.

    The resolver's cost depends on the presentation: the same class can
    cost twice as much in another one. A matrix of its own for each class
    averages that over the pass, so a pass costs about the same on every
    seed, and a signed permutation keeps entries at their size.
    """
    if seed == 0:
        return [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    rng = random.Random(f"{seed}:{d}:{label}")
    perm = list(range(d))
    rng.shuffle(perm)
    return [[(rng.choice((-1, 1)) if perm[i] == j else 0) for j in range(d)] for i in range(d)]


def transform_rows(rows, u):
    """Facet rows F mapped to F U, the same cone up to GL(d,Z)."""
    d = len(u)
    return [tuple(sum(r[k] * u[k][j] for k in range(d)) for j in range(d)) for r in rows]


def rows_text(rows):
    return "; ".join(" ".join(str(x) for x in r) for r in rows)


# ------------------------------------------------------------------ tables


def tables(lib, size, reference):
    """classify(d, i) over the paper's table range; fixed by definition."""
    classify_mod = lib["classify"]
    lru = classify_mod.classify  # the cached function itself, unwrapped
    expected = {3: reference["T3"], 4: reference["T4"]}
    ops = []
    for d, top in TABLE_RANGES[size]:
        for i in range(1, top + 1):
            want = expected[d][i - 1]
            ops.append(Op(
                f"classify({d},{i})",
                lambda d=d, i=i: classify_mod.classify(d, i),
                lambda got, want=want: len(got) == want,
            ))
    # The tables' cold cache is the workload, so no warm-up pass.
    return Workload(ops, warmup=False, begin_pass=lru.cache_clear)


# ------------------------------------------------------------------ resolve


def run_cli(cli, argv):
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def bulk_classes(reference, size):
    ranges = dict(BULK_RANGES[size])
    return [c for c in reference["bulk"] if c["index"] <= ranges.get(c["dim"], 0)]


def check_resolve(result, want, digest_key, seed):
    """Exit 0, resolved, GL(d,Z)-invariant statistics equal to the seed-0
    ones and, at seed 0, the stdout digest of the reference run."""
    code, out, err = result
    m = _STATS_RE.search(err)
    if code != 0 or m is None or m.group(5) != "True":
        return False
    stats = dict(zip(("depth", "size", "unique", "max_facets"), map(int, m.groups()[:4])))
    if stats != want["stats"]:
        return False
    if want["name"] == "D_5_14" and any(stats[k] != v for k, v in PAPER_D_5_14.items()):
        return False
    return seed != 0 or hashlib.sha256(out.encode()).hexdigest() == want[digest_key]


class _CacheDirs:
    """Cache directories under the run's work directory; one per pass for
    bulk, one for the whole run for rerun."""

    def __init__(self, workdir, current=None):
        self.workdir = workdir
        self.current = current

    def fresh(self):
        self.close()
        self.current = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))

    def path(self, d, i):
        return str(self.current / f"cache-{d}-{i}.jsonl")

    def close(self):
        if self.current is not None:
            shutil.rmtree(self.current, ignore_errors=True)
            self.current = None


def _resolve_ops(lib, seed, size, reference, dirs, digest_key):
    cli = lib["cli"]
    ops = []
    for cls in bulk_classes(reference, size):
        d, i = cls["dim"], cls["index"]
        text = rows_text(transform_rows(cls["facets"], seeded_unimodular(d, seed, cls["name"])))

        def run(text=text, d=d, i=i):
            argv = ["resolve", f"--facets={text}", "--prune-index", str(i),
                    "--cache", dirs.path(d, i), "--jobs", "1"]
            return run_cli(cli, argv)

        ops.append(Op(cls["name"], run,
                      lambda res, cls=cls: check_resolve(res, cls, digest_key, seed)))
    return ops


def bulk(lib, seed, size, reference, workdir):
    dirs = _CacheDirs(workdir)
    ops = _resolve_ops(lib, seed, size, reference, dirs, "bulk_sha256")
    return Workload(ops, begin_pass=dirs.fresh, close=dirs.close)


def rerun(lib, seed, size, reference, workdir, prefill):
    """Resolve against caches that prefill(dir) fills with one bulk pass."""
    dirs = _CacheDirs(workdir)
    dirs.fresh()
    ops = _resolve_ops(lib, seed, size, reference, dirs, "rerun_sha256")
    return Workload(ops, prepare=lambda: prefill(dirs.current), close=dirs.close)


def fill_caches(lib, seed, size, reference, cache_dir):
    """One bulk pass writing into cache_dir; returns the failed labels."""
    dirs = _CacheDirs(None, Path(cache_dir))
    failed = []
    for op in _resolve_ops(lib, seed, size, reference, dirs, "bulk_sha256"):
        try:
            ok = op.check(op.run())
        except Exception:  # reported as failed; rerun's own checks count it
            ok = False
        if not ok:
            failed.append(op.label)
    return failed


# ------------------------------------------------------------------ surface


def surface_sweeps(q_max):
    """The sweeps of checks.surface_suite with the suite's scaling."""
    return (
        ("check_convergent_identities", 2 * q_max),
        ("check_subword_denominators", q_max),
        ("check_hull_reduction", min(30, q_max)),
        ("check_descent", q_max),
        ("check_cross_validation", min(20, q_max)),
        ("check_full_resolution", q_max),
    )


def surface(lib, size):
    """One operation per sweep; fixed by definition."""
    checks = lib["checks"]
    ops = [
        Op(f"{func}({bound})",
           lambda func=func, bound=bound: getattr(checks, func)(bound),
           lambda ok: ok is True)
        for func, bound in surface_sweeps(SURFACE_Q_MAX[size])
    ]
    return Workload(ops)
