import random
from itertools import combinations, permutations
from math import gcd

import pytest

from nashcones import checks
from nashcones import intlinalg as la
from nashcones.classify import (
    _perm_equivalent,
    class_counts,
    classify,
    cone_by_name,
    enumerate_hnf,
)
from nashcones.cones import (
    canonical_key,
    cone_from_facets,
    dual_index,
    equivalent,
    index,
    simplicial_cone,
)
from nashcones.surface import StdCone2D, standardize_rays

from tabledata import DIM3_CLASSES, DIM4_CLASSES, T3_COUNTS, T4_COUNTS


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


def test_classify_3_2():
    table = classify(3, 2)
    assert len(table) == 2
    assert len(enumerate_hnf(3, 2)) >= 2


def test_counts_small():
    assert class_counts(3, 12) == T3_COUNTS[:12]
    assert class_counts(4, 5) == T4_COUNTS[:5]


def test_verify_suite_references_match_tables():
    assert checks.T3_REFERENCE == T3_COUNTS
    assert checks.T4_REFERENCE == T4_COUNTS


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
    # classify never computes canonical keys; those of its classes must
    # still all differ
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


def test_reducibility_labels():
    by_name = {cls.name: cls for i in range(1, 6) for cls in classify(4, i)}
    assert by_name["D_1_1"].reducibility_label == "4A"
    assert by_name["D_4_15"].reducibility_label == "2 B_{2,1}"
    assert by_name["D_2_2"].reducibility_label == "C_{2,2} ⊕ A"
    assert by_name["D_2_3"].reducibility_label == ""


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


def test_classify_checks_dimension_before_listing_permutations(monkeypatch):
    def unreachable(*args):
        raise AssertionError("d!-sized orbit search started for a dimension without a letter")

    monkeypatch.setattr(la, "hnf_images", unreachable)
    with pytest.raises(ValueError, match="dimension 9"):
        classify.__wrapped__(9, 1)
