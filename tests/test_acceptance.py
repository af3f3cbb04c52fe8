"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see per-criterion
output and timings. Every tolerance is exact.
"""

import hashlib
import io
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

from nashcones import checks
from nashcones import intlinalg as la
from nashcones.classify import class_counts, classify
from nashcones.cli import main as cli_main
from nashcones.cones import (
    cone_from_facets,
    cone_from_rays,
    canonical_key,
    equivalent,
    minkowski_sum_hull,
)
from nashcones.hilbert import hilbert_basis
from nashcones.nash import (
    resolution_tree,
    sum_set,
    tree_stats,
    unique_cone_count,
)
from nashcones.serialize import render_dot, render_json, render_text
from nashcones.surface import StdCone2D, hilbert_basis_2d

from tabledata import (
    DIM3_CLASSES,
    DIM4_CLASSES,
    GOLDEN_TREES,
    presentation,
    tree_shape,
)


def report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------------ 1


def test_criterion_1_classification_counts():
    t0 = time.time()
    t3 = class_counts(3, 27)
    t4 = class_counts(4, 8)
    ok = (
        t3 == checks.T3_REFERENCE
        and t3[1] == 2
        and t3[9] == 25
        and t3[26] == 163
        and sum(t3) == 1602
        and t4 == checks.T4_REFERENCE
        and sum(t4) == 201
    )
    report(1, ok, f"T_3 and T_4 tables, {time.time() - t0:.1f}s")


# ------------------------------------------------------------------ 2


def _table_signature(classes):
    """Per-class data invariant under within-index renaming."""
    sig = Counter()
    for cls in classes:
        factors = Counter(cls.reducibility)
        sig[(cls.index, cls.dual_index, tuple(sorted(factors.items())))] += 1
    return sig


def _expected_signature(table, idx):
    sig = Counter()
    for name, (i, istar, _, red) in table.items():
        if i != idx:
            continue
        sig[(i, istar, tuple(sorted(Counter(red).items())))] += 1
    return sig


def test_criterion_2_class_tables():
    expected_counts_3 = checks.T3_REFERENCE[:6]
    ok = True
    for i in range(1, 7):
        classes = classify(3, i)
        ok = ok and len(classes) == expected_counts_3[i - 1]
        ok = ok and _table_signature(classes) == _expected_signature(DIM3_CLASSES, i)
    for i in range(1, 6):
        classes = classify(4, i)
        ok = ok and _table_signature(classes) == _expected_signature(DIM4_CLASSES, i)
    # spot checks named in the criterion
    by_name3 = {c.name: c for i in range(1, 7) for c in classify(3, i)}
    ok = ok and by_name3["C_4_7"].dual_index == 2 and not by_name3["C_4_7"].reducibility
    ok = ok and tuple(sorted(by_name3["C_2_1"].reducibility)) == ("A", "B_2_1")
    report(2, ok, "class multiset and reducibility, dim 3 idx<=6 / dim 4 idx<=5")


# ------------------------------------------------------------------ 3


def test_criterion_3_golden_trees():
    t0 = time.time()
    ok = True
    for name, expected in GOLDEN_TREES.items():
        tr = resolution_tree(cone_from_facets(presentation(name)), memoize=False)
        if tree_shape(tr.root) != expected:
            ok = False
            print(f"  block mismatch: {name}")
    report(3, ok, f"{len(GOLDEN_TREES)} blocks, {time.time() - t0:.1f}s")


# ------------------------------------------------------------------ 4


def test_criterion_4_pruned_shapes():
    ok = True

    c54 = cone_from_facets(presentation("C_5_4"))
    tr = resolution_tree(c54, prune_below_index=5, memoize=False)
    kids = tr.root.children
    c56 = cone_from_facets(presentation("C_5_6"))
    c32 = cone_from_facets(presentation("C_3_2"))
    ok = ok and len(kids) == 5
    ok = ok and sum(n.status == "smooth" for n in kids) == 2
    ok = ok and sum(n.status == "pruned-known" and equivalent(n.cone, c32) for n in kids) == 2
    ok = ok and sum(n.status == "expanded" and equivalent(n.cone, c56) for n in kids) == 1
    ok = ok and tree_stats(tr).resolved  # pruned-known leaves do not spoil resolution

    c44 = cone_from_facets(presentation("C_4_4"))
    tr = resolution_tree(c44, prune_below_index=4, memoize=False)
    c21 = cone_from_facets(presentation("C_2_1"))
    ok = ok and len(tr.root.children) == 4
    ok = ok and all(
        n.status == "pruned-known" and equivalent(n.cone, c21) for n in tr.root.children
    )

    d36 = cone_from_facets(presentation("D_3_6"))
    tr = resolution_tree(d36, prune_below_index=3, memoize=False)
    ok = ok and len(tr.root.children) == 12
    ok = ok and all(n.status == "smooth" for n in tr.root.children)

    report(4, ok, "pruned shapes of C_5_4, C_4_4, D_3_6")


# ------------------------------------------------------------------ 5


def test_criterion_5_anomalies():
    # (a) an index-6 simplicial cone produces a simplicial index-9 child;
    # (b) dual index 3 grows to 4 after two blow-ups; (c) the 4-generator
    # cone with dual index 1 blows up to a copy of C_2_1 with dual index 2
    ok = all(passed for _, passed in checks.anomaly_suite())

    # the cone of (c) sits in the C_7_6 tree
    big = cone_from_facets([(1, 0, 0), (0, 1, 0), (2, 4, 7), (1, 1, 2)])
    c76 = classify(3, 7)[5]
    assert c76.name == "C_7_6"
    tr = resolution_tree(c76.cone, memoize=False)
    big_key = canonical_key(big)

    def contains(node):
        return node.key == big_key or any(contains(ch) for ch in node.children)

    ok = ok and contains(tr.root)
    report(5, ok, "index growth anomalies (a), (b), (c)")


# ------------------------------------------------------------------ 6


def test_criterion_6_surface_sweeps():
    t0 = time.time()
    ok = all(passed for _, passed in checks.surface_suite(100))
    report(6, ok, f"2-D property sweeps, {time.time() - t0:.1f}s")


# ------------------------------------------------------------------ 7


def test_criterion_7_figure_data():
    cone = cone_from_rays([(1, 0), (4, 7)])
    h = hilbert_basis(cone)
    ok = h.elements == ((1, 0), (1, 1), (2, 3), (3, 5), (4, 7))

    s = sum_set(h)
    pairs = list(combinations(h.elements, 2))
    # all 10 pairs are independent; the sums coincide once:
    # (1,1)+(4,7) == (2,3)+(3,5) == (5,8), so the set has 9 points
    ok = ok and len(pairs) == 10 and all(la.rank(p) == 2 for p in pairs)
    ok = ok and s == {la.vadd(a, b) for a, b in pairs}
    ok = ok and s == {(2, 1), (3, 3), (3, 4), (4, 5), (4, 6), (5, 7), (5, 8), (6, 10), (7, 12)}

    v = hilbert_basis_2d(StdCone2D(4, 7))
    consecutive = {la.vadd(v[i], v[i + 1]) for i in range(len(v) - 1)}
    ok = ok and consecutive == {(2, 1), (3, 4), (5, 8), (7, 12)}

    pa = minkowski_sum_hull(cone, s)
    pb = minkowski_sum_hull(cone, consecutive)
    ok = ok and pa.vertices == pb.vertices == ((2, 1), (3, 4), (7, 12))
    ok = ok and pa.inequalities == pb.inequalities
    report(7, ok, "sum sets have 10 pairs / 9 distinct points; hulls agree")


# ------------------------------------------------------------------ 8


# SHA-256 over the rendered trees of criterion 8, in resolution order, taken
# before the double description kept incidence bitsets; never regenerate.
BULK_DIGESTS = {
    "text": "78a6dcccef37f1161dd12cba31402520a89192a17985d8d9f785650df9ca9bf8",
    "json": "ea5a6cb1f210e654e9a82f31ebac829a3d41b27a81f1f8be69cba9798359121f",
    "dot": "980f9cad0a930e176126e6918f87906e86cc1321261648c3d0d6e4954b07ef2b",
}
# SHA-256 over node.key + b"\n" of every node of the same trees, in
# pre-order, taken before canonical_key dropped the HNF transform; never
# regenerate.
BULK_KEY_DIGEST = "416c815de1ff86d99bb5ed3709a94347536d1fdaeca1dc2dacbc6e3b419f228f"


def test_criterion_8_bulk_resolution():
    t0 = time.time()
    ok = True
    memos = {}
    renders = (("text", render_text), ("json", render_json), ("dot", render_dot))
    hashes = {fmt: hashlib.sha256() for fmt, _ in renders}
    keys = hashlib.sha256()
    trees = 0

    def digest(tr):
        for fmt, render in renders:
            hashes[fmt].update(render(tr).encode("utf-8"))
        # node.key of every node in pre-order: memo lookups and cache
        # records read these bytes, and the renderings do not carry them
        stack = [tr.root]
        while stack:
            node = stack.pop()
            keys.update(node.key + b"\n")
            stack.extend(reversed(node.children))

    for i in range(1, 11):
        for cls in classify(3, i):
            memo = memos.setdefault((3, i), {})
            tr = resolution_tree(cls.cone, prune_below_index=i, memoize=True, memo=memo)
            digest(tr)
            trees += 1
            st = tree_stats(tr)
            if not st.resolved:
                ok = False
                print(f"  unresolved: {cls.name}")
    d3_time = time.time() - t0

    t0 = time.time()
    stretch = None
    for i in range(1, 6):
        for cls in classify(4, i):
            memo = memos.setdefault((4, i), {})
            tr = resolution_tree(
                cls.cone, prune_below_index=i, memoize=True, memo=memo, max_nodes=100_000
            )
            digest(tr)
            trees += 1
            st = tree_stats(tr)
            if not st.resolved:
                ok = False
                print(f"  unresolved: {cls.name}")
            if cls.presentation == presentation("D_5_14"):
                stretch = (cls.name, st, unique_cone_count(tr))
    d4_time = time.time() - t0

    ok = ok and stretch is not None
    name, st, unique = stretch
    print(
        f"  stretch case {name} with --prune-index 5: depth {st.depth}, raw size "
        f"{st.size}, {unique} distinct classes (unpruned size is 14253)"
    )
    ok = ok and st.depth == 8 and st.size == 14149
    got = {fmt: h.hexdigest() for fmt, h in hashes.items()}
    if trees != 161 or got != BULK_DIGESTS:
        ok = False
        print(f"  {trees} trees, output digests {got}")
    if keys.hexdigest() != BULK_KEY_DIGEST:
        ok = False
        print(f"  canonical key digest {keys.hexdigest()}")
    report(8, ok, f"dim 3 idx<=10 in {d3_time:.1f}s; dim 4 idx<=5 in {d4_time:.1f}s")


# ------------------------------------------------------------------ 9


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_9_determinism_across_jobs():
    ok = True
    specs = []
    for name in GOLDEN_TREES:
        rows = "; ".join(" ".join(str(x) for x in row) for row in presentation(name))
        specs.append(("resolve", "--facets", rows, "--no-memo"))
    specs.append(("resolve", "--facets", "1 0 0; 0 1 0; 1 1 5", "--prune-index", "5"))
    specs.append(("resolve", "--facets", "1 0 0; 1 3 0; 1 0 3", "--max-depth", "2"))
    specs.append(("resolve", "--facets", "1 0 0; 0 1 0; 2 4 7; 1 1 2", "--format", "json"))
    for args in specs:
        code1, out1 = _run_cli(*args, "--jobs", "1")
        code8, out8 = _run_cli(*args, "--jobs", "8")
        if code1 != code8 or out1 != out8:
            ok = False
            print(f"  nondeterministic: {args}")
    report(9, ok, f"{len(specs)} command outputs byte-identical for jobs 1 vs 8")
