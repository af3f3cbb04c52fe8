import hashlib
import random
import sys
from dataclasses import fields
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from nashcones import checks
from nashcones import intlinalg as la
from nashcones.classify import (
    ConeClass,
    _factor_name,
    _perm_equivalent,
    class_counts,
    classify,
    cone_by_name,
    enumerate_hnf,
)
from nashcones.cones import (
    _splits_at,
    canonical_key,
    cone_from_facets,
    direct_sum_decompose,
    dual_index,
    equivalent,
    index,
    simplicial_cone,
)
from nashcones.surface import StdCone2D, standardize_rays

from tabledata import DIM3_CLASSES, DIM4_CLASSES


def test_enumerate_hnf_trivial():
    for d in (1, 2, 3, 4):
        assert enumerate_hnf(d, 1) == [la.identity(d)]


def test_enumerate_hnf_2_2():
    assert enumerate_hnf(2, 2) == [((1, 0), (1, 2))]


def test_enumerate_hnf_shape():
    for mat in enumerate_hnf(3, 6):
        d = len(mat)
        assert la.det(mat) == 6
        for i in range(d):
            assert mat[i][i] > 0
            g = mat[i][i]
            for j in range(d):
                if j > i:
                    assert mat[i][j] == 0
                else:
                    assert 0 <= mat[i][j] <= mat[i][i] - (j != i)
                g = gcd(g, mat[i][j])
            assert g == 1


def test_enumerate_hnf_equals_the_per_combination_builder():
    for d, top in ((1, 12), (2, 12), (3, 12), (4, 12), (5, 6)):
        for i in range(1, top + 1):
            assert enumerate_hnf(d, i) == oracles.enumerate_hnf(d, i), (d, i)


def test_classify_3_2():
    table = classify(3, 2)
    assert len(table) == 2
    assert len(enumerate_hnf(3, 2)) >= 2


def test_counts_small():
    assert class_counts(3, 12) == checks.T3_REFERENCE[:12]
    assert class_counts(4, 5) == checks.T4_REFERENCE[:5]


def test_classify_names_and_invariants_match_published_tables():
    for dim, table in ((3, DIM3_CLASSES), (4, DIM4_CLASSES)):
        seen = set()
        max_index = 6 if dim == 3 else 5
        for i in range(1, max_index + 1):
            for cls in classify(dim, i):
                assert cls.name in table, cls.name
                want_i, want_istar, want_pres, want_red = table[cls.name]
                assert cls.index == want_i
                assert cls.dual_index == want_istar
                assert cls.presentation == want_pres
                assert tuple(sorted(cls.reducibility)) == tuple(sorted(want_red)), cls.name
                seen.add(cls.name)
        assert seen == set(table)


def test_class_members_have_right_invariants():
    for i in (4, 7):
        for cls in classify(3, i):
            c = cls.cone
            assert c.is_simplicial
            assert index(c) == i == cls.index
            assert dual_index(c) == cls.dual_index


def test_classes_pairwise_inequivalent_and_cover():
    i = 5
    table = classify(3, i)
    for a in range(len(table)):
        for b in range(a + 1, len(table)):
            assert not equivalent(table[a].cone, table[b].cone)
    for m in enumerate_hnf(3, i):
        c = cone_from_facets(m)
        assert sum(equivalent(c, cls.cone) for cls in table) == 1


def test_classes_match_pairwise_permutation_oracle():
    # the pairwise permutation test is an independent oracle for the
    # classifier's orbit marking: every HNF matrix lies in exactly one
    # class, each class is presented by its lex-least HNF matrix, and no
    # two presentations are equivalent. Equivalent matrices share the dual
    # index, so each matrix is tested against the presentations with its own.
    for d, top in ((3, 12), (4, 6)):
        perms = list(permutations(range(d)))
        for i in range(1, top + 1):
            pres = [cls.presentation for cls in classify(d, i)]
            by_istar = {}
            for p in pres:
                by_istar.setdefault(dual_index(simplicial_cone(p)), []).append(p)
            least = {}
            for m in enumerate_hnf(d, i):
                adj, dt = la.adjugate(m), la.det(m)
                bucket = by_istar.get(dual_index(simplicial_cone(m)), [])
                hits = [p for p in bucket if _perm_equivalent(adj, dt, p, perms)]
                assert len(hits) == 1, (d, i, m)
                least[hits[0]] = min(least.get(hits[0], m), m)
            assert all(least[p] == p for p in pres), (d, i)
            for a, b in combinations(pres, 2):
                assert not _perm_equivalent(la.adjugate(a), la.det(a), b, perms), (a, b)


def test_class_keys_pairwise_distinct():
    # classify keys only the classes that are direct-sum factors; the keys
    # of all its classes must still differ
    for i in range(1, 13):
        keys = {canonical_key(cls.cone) for cls in classify(3, i)}
        assert len(keys) == len(classify(3, i)), i


def test_classification_stable_under_enumeration_shuffle():
    # dedup result does not depend on candidate order
    rng = random.Random(60)
    i = 6
    mats = enumerate_hnf(3, i)
    baseline = {cls.name: cls.cone for cls in classify(3, i)}
    for _ in range(3):
        shuffled = mats[:]
        rng.shuffle(shuffled)
        reps = []
        for m in shuffled:
            c = cone_from_facets(m)
            if not any(equivalent(c, r) for r in reps):
                reps.append(c)
        assert len(reps) == len(baseline)
        for r in reps:
            assert sum(equivalent(r, c) for c in baseline.values()) == 1


def test_dimension_2_matches_inverse_pair_count():
    # classes of 2-D standard cones (p, q) match p ~ p^-1 (mod q) orbits
    for q in range(2, 21):
        ps = [p for p in range(q) if gcd(p, q) == 1]
        orbits = set()
        for p in ps:
            orbits.add(frozenset({p, pow(p, -1, q)}))
        assert len(classify(2, q)) == len(orbits), q


def test_dimension_2_standard_form_cross_check():
    from nashcones.cones import cone_from_rays

    for q in range(2, 13):
        table = classify(2, q)
        orbits = {frozenset({p, pow(p, -1, q)}) for p in range(q) if gcd(p, q) == 1}
        assert len(table) == len(orbits)
        for orbit in sorted(orbits, key=min):
            p = min(orbit)
            c = cone_from_rays([(1, 0), (p, q)])
            # each standard cone lands in exactly one class
            assert sum(equivalent(c, cls.cone) for cls in table) == 1
            std, _ = standardize_rays((1, 0), (p, q))
            assert std == StdCone2D(p, q)
            # reflecting the cone across the diagonal gives the inverse class
            mirrored, _ = standardize_rays((0, 1), (q, p))
            assert mirrored.q == q and mirrored.p == pow(p, -1, q)


def test_cone_by_name():
    c = cone_by_name("C_3_3")
    assert c.facets == tuple(sorted(DIM3_CLASSES["C_3_3"][2]))
    assert cone_by_name("A").dim == 1
    with pytest.raises(ValueError):
        cone_by_name("C_3_99")
    with pytest.raises(ValueError):
        cone_by_name("X-3-1")


# every class of the dims 3-5 tables that `enumerate --table` digests pin
TABLE_RANGES = ((3, 27), (4, 8), (5, 6))


def test_cone_by_name_takes_exactly_the_classified_names():
    assert cone_by_name("A") is classify(1, 1)[0].cone
    for d, top in TABLE_RANGES:
        for i in range(1, top + 1):
            for cls in classify(d, i):
                assert cone_by_name(cls.name) is cls.cone, cls.name


def test_reducibility_labels_match_the_count_oracle():
    for d, top in TABLE_RANGES:
        for i in range(1, top + 1):
            for cls in classify(d, i):
                assert cls.reducibility_label == oracles.reducibility_label(cls.reducibility), cls.name


def test_reducibility_labels():
    by_name = {cls.name: cls for i in range(1, 9) for cls in classify(4, i)}
    assert by_name["D_1_1"].reducibility_label == "4A"
    assert by_name["D_2_2"].reducibility_label == "C_{2,2} ⊕ A"
    assert by_name["D_2_3"].reducibility_label == ""
    # the least presentation of each of these classes splits nowhere; only
    # another image of its orbit is block-diagonal
    for name, label in (
        ("D_4_15", "2 B_{2,1}"),
        ("D_6_36", "B_{2,1} ⊕ B_{3,1}"),
        ("D_6_37", "B_{2,1} ⊕ B_{3,2}"),
        ("D_8_68", "B_{2,1} ⊕ B_{4,1}"),
        ("D_8_75", "B_{2,1} ⊕ B_{4,2}"),
    ):
        assert not any(_splits_at(by_name[name].presentation, k) for k in range(1, 4)), name
        assert by_name[name].reducibility_label == label, name


def test_reducibility_keeps_factor_order():
    # factors are listed by decreasing dimension, then index
    by_name = {cls.name: cls for d, i in ((3, 2), (4, 2), (4, 4)) for cls in classify(d, i)}
    assert by_name["C_2_1"].reducibility == ("B_2_1", "A")
    assert by_name["C_2_1"].reducibility_label == "B_{2,1} ⊕ A"
    assert by_name["C_2_2"].reducibility == ()
    assert by_name["C_2_2"].reducibility_label == ""
    assert by_name["D_2_2"].reducibility == ("C_2_2", "A")
    assert by_name["D_2_2"].reducibility_label == "C_{2,2} ⊕ A"
    assert by_name["D_4_15"].reducibility == ("B_2_1", "B_2_1")
    assert by_name["D_4_15"].reducibility_label == "2 B_{2,1}"


def test_reducibility_breaks_dimension_and_index_ties_by_key():
    # D_9_79 is the first class with two distinct factors of equal
    # dimension and index; they come in key order, not name order
    by_name = {cls.name: cls for cls in classify(4, 9)}
    assert by_name["D_9_79"].reducibility == ("B_3_2", "B_3_1")
    assert by_name["D_9_79"].reducibility_label == "B_{3,2} ⊕ B_{3,1}"
    for cls in by_name.values():
        factors = oracles.direct_sum_by_projection(cls.cone)
        assert cls.reducibility == oracles.reducibility_of(factors), cls.name


def test_reducibility_matches_the_decomposition_oracle():
    # classify's factor names and direct_sum_decompose, against the
    # projection route on every class of the dims 3-5 tables
    for d, top in ((3, 27), (4, 8), (5, 3)):
        for i in range(1, top + 1):
            for cls in classify(d, i):
                factors = oracles.direct_sum_by_projection(cls.cone)
                assert cls.reducibility == oracles.reducibility_of(factors), cls.name
                got = oracles.factor_summary(direct_sum_decompose(cls.cone))
                assert got == oracles.factor_summary(factors), cls.name


def test_factor_name_finds_the_class_from_any_presentation():
    # each class's presentation, rows shuffled and moved by a random
    # unimodular map (a sign in dimension 1, where A has no special case)
    rng = random.Random(29)
    for d, top in ((1, 1), (2, 12), (3, 8), (4, 4)):
        for i in range(1, top + 1):
            for cls in classify(d, i):
                rows = list(cls.presentation)
                rng.shuffle(rows)
                u = oracles.random_unimodular(rng, d) if d > 1 else ((rng.choice((1, -1)),),)
                assert _factor_name(simplicial_cone(la.matmul(rows, u))).name == cls.name, cls.name
                # in column HNF already, and lower triangular with a positive
                # diagonal but one entry unreduced
                assert _factor_name(simplicial_cone(cls.presentation)) is cls
                shear = [[int(r == c or (r, c) == (d - 1, 0)) for c in range(d)] for r in range(d)]
                assert _factor_name(simplicial_cone(la.matmul(cls.presentation, shear))) is cls


@st.composite
def _block_sums(draw):
    """The facet rows of U (c_1 + ... + c_n) for 2-3 simplicial cones c_j
    with small random facet matrices, of total dimension at most 5, the
    rows shuffled and U a random unimodular map."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda ds: sum(ds) <= 5))
    d, rows, start = sum(dims), [], 0
    for k in dims:
        block = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=k, max_size=k))
        assume(la.det(block))
        rows += [(0,) * start + row + (0,) * (d - start - k) for row in block]
        start += k
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(rows)
    return la.matmul(rows, oracles.random_unimodular(rng, d))


@settings(max_examples=60, deadline=None)
@given(_block_sums())
def test_block_sums_decompose_as_the_projection_route(rows):
    cone = simplicial_cone(rows)
    factors = direct_sum_decompose(cone)
    want = oracles.direct_sum_by_projection(cone)
    assert tuple(_factor_name(f).name for f in factors) == oracles.reducibility_of(want)
    assert oracles.factor_summary(factors) == oracles.factor_summary(want)


def test_classify_checks_dimension_before_listing_permutations(monkeypatch):
    def unreachable(*args):
        raise AssertionError("d!-sized orbit search started for a dimension without a letter")

    monkeypatch.setattr(la, "_hnf_walk", unreachable)
    with pytest.raises(ValueError, match="dimension 9"):
        classify.__wrapped__(9, 1)


def test_classify_starts_no_walk_from_column_hnf(monkeypatch):
    # classify's enumerated matrices are column HNFs already, so every
    # class walk starts from them; a factor lookup takes facets in any
    # presentation, so reducibilities are read with column_hnf restored
    def unreachable(*args):
        raise AssertionError("column_hnf called from a classify pass")

    classify.cache_clear()
    monkeypatch.setattr(la, "column_hnf", unreachable)
    try:
        table = classify(4, 8)
        monkeypatch.undo()
        assert len(table) == 83
        assert sum(1 for cls in table if cls.reducibility) > 0
    finally:
        classify.cache_clear()


# sha256 over the (name, presentation, reducibility, reducibility_label,
# dual_index) reprs, one line per class, of every class of the dims 3-5
# tables (dim 5 up to index 6), computed before class cones were built on
# demand and I* read off the presentation
CLASS_TABLES_SHA256 = "43c84538340aa5bae2ecc551fbc4fa0e492f3649c7a4d7fe522fa790f37504c1"


def test_class_tables_digest():
    h = hashlib.sha256()
    for d, top in TABLE_RANGES:
        for i in range(1, top + 1):
            for cls in classify(d, i):
                row = (cls.name, cls.presentation, cls.reducibility, cls.reducibility_label, cls.dual_index)
                h.update(repr(row).encode() + b"\n")
    assert h.hexdigest() == CLASS_TABLES_SHA256


def test_classify_builds_no_class_cone():
    classify.cache_clear()
    table = classify(3, 7)
    assert not [cls.name for cls in table if "cone" in vars(cls)]
    # naming a factor compares its key with the keys of its table's
    # classes in order, up to its own, so reading the factors builds the
    # cones of the factor tables' classes up to the last factor class in
    # each, and of no other 2-D class
    factors = {name for cls in table for name in cls.reducibility}
    assert any(name.startswith("B_") for name in factors)
    for i in range(1, 8):
        table2 = classify(2, i)
        last = max((n for n, k in enumerate(table2) if k.name in factors), default=-1)
        assert ["cone" in vars(k) for k in table2] == [n <= last for n in range(len(table2))], i
    for cls in table:
        assert cone_by_name(cls.name) is cls.cone, cls.name
        assert "cone" in vars(cls)
        assert cls.cone == simplicial_cone(cls.presentation)


def test_classify_computes_no_lazy_field(monkeypatch):
    # a table pass walks orbits only: no split, no I*, no factor name, no cone
    def unreachable(*args):
        raise AssertionError("direct_sum_decompose called from a table pass")

    classify.cache_clear()
    try:
        # the package's classify attribute is the function, not the module
        monkeypatch.setattr(sys.modules["nashcones.classify"], "direct_sum_decompose", unreachable)
        table = classify(3, 7)
        monkeypatch.undo()
        assert classify.cache_info().currsize == 1  # no factor table built
        for cls in table:
            assert not {"dual_index", "reducibility", "cone"} & set(vars(cls)), cls.name
        assert any(cls.reducibility for cls in table)
        assert classify.cache_info().currsize == 3  # the 2-D and 1-D tables
    finally:
        classify.cache_clear()


def test_a_class_is_its_four_fields():
    assert [f.name for f in fields(ConeClass)] == ["name", "dim", "index", "presentation"]
    for d, top in ((3, 8), (4, 6)):
        for i in range(1, top + 1):
            for cls in classify(d, i):
                copy = ConeClass(cls.name, cls.dim, cls.index, cls.presentation)
                assert copy == cls and hash(copy) == hash(cls), cls.name
                assert copy.reducibility == cls.reducibility, cls.name
                assert copy.reducibility_label == cls.reducibility_label, cls.name
                assert copy.dual_index == cls.dual_index, cls.name
