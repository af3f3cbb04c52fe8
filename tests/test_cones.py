import random
import re
from itertools import combinations, islice, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashcones import intlinalg as la
from nashcones.cones import (
    Polyhedron,
    _dd_cut,
    _dual_extreme_rays,
    _opposite_rays,
    canonical_key,
    cone_from_facets,
    cone_from_rays,
    direct_sum_decompose,
    dual,
    dual_index,
    equivalent,
    index,
    is_smooth,
    localize,
    minkowski_sum_hull,
    simplicial_cone,
)
from nashcones.classify import _perm_equivalent
from nashcones.errors import NotAVertex, NotProper

from oracles import (
    direct_sum_by_projection,
    factor_summary,
    localize_by_tight_facets,
    random_unimodular,
)
from tabledata import DIM3_CLASSES, DIM4_CLASSES, presentation


def orthant(d):
    return cone_from_facets(la.identity(d))


def apply_unimodular(u, cone):
    return cone_from_rays([la.mat_vec(u, r) for r in cone.rays])


def random_proper_cone(rng, d, max_rays=8):
    # sample rays strictly inside a random halfspace to force pointedness
    while True:
        w = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(w):
            break
    rays = []
    n = rng.randint(d, max_rays)
    while len(rays) < n:
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        if any(v) and la.dot(w, v) > 0:
            rays.append(v)
    if la.rank(rays) < d:
        return random_proper_cone(rng, d, max_rays)
    return cone_from_rays(rays)


# ---------------------------------------------------------------- duality


def test_orthant_self_dual():
    for d in (1, 2, 3, 4):
        c = cone_from_rays(la.identity(d))
        assert c.facets == tuple(sorted(la.identity(d)))
        assert c.rays == tuple(sorted(la.identity(d)))


def test_cone_from_rays_examples():
    c = cone_from_rays([(1, 0), (4, 7)])
    assert c.facets == ((0, 1), (7, -4))
    c = cone_from_rays([(2, 0, -1), (0, 2, -1), (0, 0, 1)])
    assert c.facets == ((0, 1, 0), (1, 0, 0), (1, 1, 2))


def test_cone_from_rays_drops_interior_generators():
    c = cone_from_rays([(1, 0), (1, 1), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_cone_from_facets_drops_redundant():
    c = cone_from_facets([(1, 0), (0, 1), (1, 1)])
    assert c.facets == ((0, 1), (1, 0))


def test_improper_inputs_rejected():
    def rejects(build, gens, message):
        with pytest.raises(NotProper, match=f"^{re.escape(message)}$"):
            build(gens)

    rejects(cone_from_rays, [], "a proper cone needs at least one ray")
    rejects(cone_from_facets, [], "a proper cone needs at least one facet")
    rejects(cone_from_rays, [(1, 0), (-1, 0)], "rays do not span the ambient space")
    rejects(cone_from_rays, [(1, 0), (-1, 0), (0, 1), (0, -1)], "cone contains a line")
    rejects(cone_from_rays, [(1, 0, 0), (0, 1, 0)], "rays do not span the ambient space")
    rejects(cone_from_facets, [(1, 0, 0), (0, 1, 0)], "cone contains a line")
    rejects(cone_from_facets, [(1, 0), (-1, 0), (0, 1), (0, -1)], "cone is not full-dimensional")
    with pytest.raises(ValueError, match="^rays have mixed dimensions$"):
        cone_from_rays([(1, 0), (0, 1, 1)])
    with pytest.raises(ValueError, match="^facets have mixed dimensions$"):
        cone_from_facets([(1, 0), (0, 1, 1)])


def test_dual_swaps_rays_and_facets():
    c = cone_from_facets([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    dc = dual(c)
    assert dc.rays == c.facets and dc.facets == c.rays
    assert dual(dc) == c


def test_dual_example():
    c = cone_from_facets([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert dual(c).facets == ((0, 0, 1), (0, 2, -1), (2, 0, -1))


def test_double_description_round_trip_tables():
    for name, (_, _, pres, _) in {**DIM3_CLASSES, **DIM4_CLASSES}.items():
        c = cone_from_facets(pres)
        back = cone_from_rays(c.rays)
        assert back.facets == c.facets, name
        assert back.rays == c.rays


def test_double_description_round_trip_random():
    rng = random.Random(11)
    for _ in range(500):
        d = rng.randint(2, 4)
        c = random_proper_cone(rng, d)
        back = cone_from_rays(c.rays)
        assert back == c
        via_facets = cone_from_facets(c.facets)
        assert via_facets == c
        # every ray satisfies every facet; tightness counts are correct
        for r in c.rays:
            assert all(la.dot(f, r) >= 0 for f in c.facets)
            assert la.rank([f for f in c.facets if la.dot(f, r) == 0]) == d - 1


@st.composite
def _generator_sets(draw, pointed):
    """3-D or 4-D integer generators of full rank, with duplicate (scaled)
    and redundant (summed) members. With ``pointed`` they lie in an open
    halfspace, so they generate a proper cone."""
    d = draw(st.sampled_from((3, 4)))
    vec = st.tuples(*[st.integers(-4, 4)] * d).filter(any)
    w = draw(vec)
    base = draw(st.lists(vec, min_size=d, max_size=7))
    if pointed:
        base = [v if la.dot(w, v) > 0 else la.scale(v, -1) for v in base if la.dot(w, v)]
    assume(len(base) >= d and la.rank(base) == d)
    n = len(base)
    gens = list(base)
    extras = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3))
    for i, j, k in draw(st.lists(extras, max_size=4)):
        gens.append(la.scale(base[i], k))
        gens.append(la.vadd(base[i], base[j]))
    gens = [g for g in gens if any(g)]
    return d, draw(st.permutations(gens))


def _brute_dual_rays(gens, d):
    """Extreme rays of {u : g . u >= 0}: feasible kernels of rank-(d-1) subsets."""
    rays = set()
    for sub in combinations(sorted(set(gens)), d - 1):
        if la.rank(sub) != d - 1:
            continue
        k = la.primitive(la.normal(sub, d))
        for u in (k, la.scale(k, -1)):
            if all(la.dot(g, u) >= 0 for g in gens):
                rays.add(u)
    return sorted(rays)


@settings(max_examples=100, deadline=None)
@given(_generator_sets(pointed=False))
def test_dual_extreme_rays_incidence_bitsets(case):
    d, gens = case
    pairs = _dual_extreme_rays(gens, d)
    assert [r for r, _ in pairs] == _brute_dual_rays(gens, d)
    for r, tight in pairs:
        assert tight == sum(1 << k for k, g in enumerate(gens) if la.dot(g, r) == 0)


@settings(max_examples=100, deadline=None)
@given(_generator_sets(pointed=False), st.data())
def test_dd_cut_by_a_generator_that_cuts_nothing(case, data):
    # a nonnegative combination of the generators is >= 0 on every dual
    # ray: the cut keeps the rays as they are, in order, and sets its bit
    # exactly on the rays it is tight on
    d, gens = case
    pairs = _dual_extreme_rays(gens, d)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    a = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(d))
    bit = 1 << len(gens)
    want = [(r, t | bit if la.dot(a, r) == 0 else t) for r, t in pairs]
    assert _dd_cut(pairs, a, bit, d) == want


@settings(max_examples=100, deadline=None)
@given(_generator_sets(pointed=False))
def test_dd_cut_returns_distinct_rays(case):
    # each new ray lies inside one edge that crosses the cut, and two edges
    # of the pointed dual meet only in a common ray, which is off the cut:
    # no step of the double description returns a ray twice
    d, gens = case
    basis_idx = list(islice(la.independent(gens), d))
    mask = sum(1 << i for i in basis_idx)
    seed = _opposite_rays([gens[i] for i in basis_idx], d)
    pairs = [(r, mask ^ (1 << i)) for r, i in zip(seed, basis_idx)]
    for i, a in enumerate(gens):
        if not mask >> i & 1:
            pairs = _dd_cut(pairs, a, 1 << i, d)
            assert len({r for r, _ in pairs}) == len(pairs)
    assert sorted(pairs) == _dual_extreme_rays(gens, d)


@settings(max_examples=100, deadline=None)
@given(_generator_sets(pointed=True), st.data())
def test_extreme_generators_match_rank_rule(case, data):
    # oracle: a generator is extreme iff the dual rays tight on it have
    # rank d - 1
    d, gens = case
    triples = st.lists(st.sampled_from(gens), min_size=3, max_size=3)
    gens = gens + [tuple(map(sum, zip(*t))) for t in data.draw(st.lists(triples, max_size=3))]
    gens.append(tuple(map(sum, zip(*gens))))  # interior
    prim = sorted({la.primitive(g) for g in gens})
    pairs = _dual_extreme_rays(prim, d)
    want = tuple(
        g for k, g in enumerate(prim) if la.rank([w for w, t in pairs if t >> k & 1]) == d - 1
    )
    assert cone_from_rays(gens).rays == want
    assert cone_from_facets(gens).facets == want


def _two_pass_hull(c, points):
    """The hull route with a second double description over the facets of
    the homogenization cone, the oracle for the one-pass route."""
    pts = sorted(set(points))
    gens = sorted([(0,) + r for r in c.rays] + [(1,) + p for p in pts])
    hom_facets = sorted(f for f, _ in _dual_extreme_rays(gens, c.dim + 1))
    hom_rays = [r for r, _ in _dual_extreme_rays(hom_facets, c.dim + 1)]
    assert all(r[0] in (0, 1) for r in hom_rays)
    verts = tuple(sorted(r[1:] for r in hom_rays if r[0] == 1))
    rec = sorted(r[1:] for r in hom_rays if r[0] == 0)
    ineqs = []
    for f in hom_facets:
        if any(f[1:]):
            g = la.vec_gcd(f[1:])
            ineqs.append((tuple(x // g for x in f[1:]), -f[0] // g))
    return verts, tuple(rec), tuple(sorted(ineqs))


@settings(max_examples=100, deadline=None)
@given(_generator_sets(pointed=True), st.data())
def test_minkowski_sum_hull_matches_two_pass_route(case, data):
    d, gens = case
    c = cone_from_rays(gens)
    pts = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=6))
    p = minkowski_sum_hull(c, pts)
    verts, rec, ineqs = _two_pass_hull(c, pts)
    assert (p.vertices, c.rays, p.inequalities) == (verts, rec, ineqs)


def test_dimension_one():
    c = cone_from_rays([(2,)])
    assert c.rays == ((1,),) and c.facets == ((1,),)
    assert is_smooth(c)


# ---------------------------------------------------------------- indices


def test_index_examples():
    assert (index(orthant(3)), dual_index(orthant(3))) == (1, 1)
    c = cone_from_facets([(1, 0, 0), (0, 1, 0), (1, 1, 5)])
    assert (index(c), dual_index(c)) == (5, 25)
    c = cone_from_facets([(1, 0, 0), (1, 2, 0), (1, 0, 2)])
    assert (index(c), dual_index(c)) == (4, 2)


def test_index_invariance_under_unimodular_maps():
    rng = random.Random(12)
    for name in ("C_2_2", "C_4_7", "C_6_5", "D_4_16"):
        c = cone_from_facets(presentation(name))
        i0, j0 = index(c), dual_index(c)
        for _ in range(100):
            u = random_unimodular(rng, c.dim)
            img = apply_unimodular(u, c)
            assert (index(img), dual_index(img)) == (i0, j0)


def test_is_smooth_examples():
    assert is_smooth(orthant(4))
    assert is_smooth(cone_from_facets([(1, 1, 2), (1, 0, 0), (1, 1, 1)]))
    assert not is_smooth(cone_from_facets(presentation("C_2_2")))
    assert not is_smooth(cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]))


# ---------------------------------------------------------------- sums and
# localization


def test_minkowski_sum_orthant_translate():
    c = orthant(3)
    p = minkowski_sum_hull(c, [(1, 1, 1)])
    assert p.vertices == ((1, 1, 1),)
    assert p.recession == c
    assert sorted(p.inequalities) == [((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1)]
    assert localize(p, (1, 1, 1)) == c


def test_minkowski_sum_figure_cone():
    # boundary generators of the (4,7) cone: candidate points (2,1), (3,4),
    # (5,8), (7,12); the middle sum (5,8) is not a vertex since the turns
    # there are collinear
    c = cone_from_rays([(1, 0), (4, 7)])
    pts = [(2, 1), (3, 4), (5, 8), (7, 12)]
    p = minkowski_sum_hull(c, pts)
    assert p.vertices == ((2, 1), (3, 4), (7, 12))
    assert set(p.vertices) <= set(pts)
    loc = localize(p, (2, 1))
    assert loc.rays == ((1, 0), (1, 3))
    loc = localize(p, (7, 12))
    assert loc.rays == tuple(sorted([(4, 7), (-1, -2)]))


def test_minkowski_vertices_subset_of_points_random():
    rng = random.Random(13)
    for _ in range(60):
        d = rng.randint(2, 3)
        c = random_proper_cone(rng, d, max_rays=5)
        pts = {tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, 6))}
        p = minkowski_sum_hull(c, pts)
        assert set(p.vertices) <= pts
        for v in p.vertices:
            tight = [n for n, b in p.inequalities if la.dot(n, v) == b]
            assert la.rank(tight) == d
        for v in p.vertices:
            for n, b in p.inequalities:
                assert la.dot(n, v) >= b


def test_minkowski_sum_rejects_points_of_another_dimension():
    c = cone_from_rays([(1, 0), (0, 1)])
    for pts in ([(1, 1), (2,)], [(1, 1, 1)], [(1, 1), (1, 1, 5)]):
        with pytest.raises(ValueError, match="^points and cone live in different dimensions$"):
            minkowski_sum_hull(c, pts)


def test_localize_not_a_vertex():
    p = minkowski_sum_hull(orthant(2), [(1, 1)])
    with pytest.raises(NotAVertex):
        localize(p, (5, 5))


def test_localize_without_the_incidence():
    p = minkowski_sum_hull(orthant(2), [(2, 0), (1, 1), (0, 2)])
    bare = Polyhedron(p.dim, p.vertices, p.recession, p.inequalities)
    assert bare == p and bare.incidence is None
    for v in p.vertices:
        assert localize(bare, v) == localize(p, v)


@st.composite
def _cones_with_points(draw):
    """A proper cone of dimension 2-4 and a point set holding repeated
    points and points inside the hull (a point plus a ray of the cone, or
    the midpoint of two points); a single point is among the draws."""
    d = draw(st.sampled_from((2, 3, 4)))
    bound = {2: 6, 3: 3, 4: 2}[d]
    ray = st.tuples(*[st.integers(-bound, bound)] * (d - 1), st.integers(1, bound))
    rays = draw(st.lists(ray, min_size=d, max_size=d + 3))
    assume(la.rank(rays) == d)
    c = cone_from_rays(rays)
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=6))
    picks = st.tuples(st.integers(0, len(pts) - 1), st.integers(0, len(pts) - 1))
    for i, j in draw(st.lists(picks, max_size=3)):
        pts.append(pts[i])
        pts.append(la.vadd(pts[i], c.rays[j % len(c.rays)]))
        mid = la.vadd(pts[i], pts[j])
        if all(x % 2 == 0 for x in mid):
            pts.append(tuple(x // 2 for x in mid))
    return c, pts


@settings(max_examples=150, deadline=None)
@given(_cones_with_points())
def test_localize_from_incidence_matches_tight_facets(case):
    # the tangent cone read off the hull's incidence equals the cone of
    # the inequalities tight at the vertex, at every vertex
    c, pts = case
    p = minkowski_sum_hull(c, pts)
    for v in p.vertices:
        assert localize(p, v) == localize_by_tight_facets(p, v), v


# ---------------------------------------------------------------- equivalence


def test_equivalent_random_unimodular_images():
    rng = random.Random(14)
    pool = [
        cone_from_facets(presentation("C_2_2")),
        cone_from_facets(presentation("C_4_7")),
        cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]),
    ]
    for c in pool:
        for _ in range(20):
            u = random_unimodular(rng, c.dim)
            assert equivalent(c, apply_unimodular(u, c))


def test_equivalent_distinct_classes():
    a = cone_from_facets([(1, 0, 0), (0, 1, 0), (1, 1, 3)])
    b = cone_from_facets([(1, 0, 0), (0, 1, 0), (2, 2, 3)])
    assert not equivalent(a, b)


def test_equivalent_blowup_child():
    child = cone_from_facets([(0, 1, 0), (1, 2, 2), (1, 0, 0)])
    c21 = cone_from_facets(presentation("C_2_1"))
    assert equivalent(child, c21)


def test_equivalence_relation_on_small_table():
    cones = {name: cone_from_facets(p) for name, (_, _, p, _) in DIM3_CLASSES.items()}
    names = sorted(cones)
    for n in names:
        assert equivalent(cones[n], cones[n])
    for a, b in combinations(names, 2):
        ab = equivalent(cones[a], cones[b])
        ba = equivalent(cones[b], cones[a])
        assert ab == ba
        assert not ab  # distinct classes stay distinct
    # transitivity on unimodular copies
    rng = random.Random(15)
    c = cones["C_4_4"]
    x = apply_unimodular(random_unimodular(rng, 3), c)
    y = apply_unimodular(random_unimodular(rng, 3), x)
    assert equivalent(c, x) and equivalent(x, y) and equivalent(c, y)


def test_equivalent_agrees_with_permutation_test():
    # the classifier's permutation-integrality test is an independent oracle
    # for simplicial cones of equal index
    rng = random.Random(16)
    by_index = {}
    for name, (i, _, pres, _) in DIM3_CLASSES.items():
        by_index.setdefault(i, []).append(pres)
    perms = list(permutations(range(3)))
    outcomes = set()
    for _ in range(120):
        group = by_index[rng.choice(sorted(by_index))]
        pa = rng.choice(group)
        pb = pa if rng.random() < 0.5 else rng.choice(group)
        a = apply_unimodular(random_unimodular(rng, 3), cone_from_facets(pa))
        b = apply_unimodular(random_unimodular(rng, 3), cone_from_facets(pb))
        want = _perm_equivalent(la.adjugate(a.facets), la.det(a.facets), b.facets, perms)
        assert equivalent(a, b) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def _lex_independent_rows(rows, d):
    picked = []
    for r in rows:
        if la.rank(picked + [r]) == len(picked) + 1:
            picked.append(r)
            if len(picked) == d:
                return picked
    raise AssertionError("rows do not span")


def _equivalent_by_ray_bases(a, b):
    """Oracle: some ordered d-tuple of b's rays is the image of a fixed ray
    basis of a under a unimodular map that carries all rays of a onto all
    rays of b."""
    d = a.dim
    base_cols = la.transpose(la.mat(_lex_independent_rows(list(a.rays), d)))
    det_base = la.det(base_cols)
    adj_base = la.adjugate(base_cols)
    target = set(b.rays)
    for tup in permutations(range(len(b.rays)), d):
        t_cols = la.transpose(la.mat([b.rays[i] for i in tup]))
        num = la.matmul(t_cols, adj_base)
        if any(x % det_base for row in num for x in row):
            continue
        u = tuple(tuple(x // det_base for x in row) for row in num)
        if abs(la.det(u)) == 1 and {la.mat_vec(u, r) for r in a.rays} == target:
            return True
    return False


def test_canonical_key_agrees_with_ray_basis_oracle_nonsimplicial():
    rng = random.Random(22)
    pool = []
    while len(pool) < 36:
        c = random_proper_cone(rng, 3, max_rays=5)
        if len(c.rays) in (4, 5):
            pool.append(c)
            pool.append(apply_unimodular(random_unimodular(rng, 3), c))
    outcomes = set()
    for a in pool:
        for b in pool:
            want = _equivalent_by_ray_bases(a, b)
            assert (canonical_key(a) == canonical_key(b)) == want
            assert equivalent(a, b) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_equivalent_dimension_mismatch():
    with pytest.raises(ValueError):
        equivalent(orthant(2), orthant(3))


# ---------------------------------------------------------------- canonical
# keys


def test_canonical_key_orthant():
    key = canonical_key(orthant(3))
    rng = random.Random(17)
    img = apply_unimodular(random_unimodular(rng, 3), orthant(3))
    assert canonical_key(img) == key


def test_canonical_key_invariance():
    rng = random.Random(18)
    for name, (_, _, pres, _) in DIM3_CLASSES.items():
        c = cone_from_facets(pres)
        k = canonical_key(c)
        for _ in range(100):
            img = apply_unimodular(random_unimodular(rng, 3), c)
            assert canonical_key(img) == k, name


def test_canonical_key_separates_classes():
    keys = {}
    for name, (i, _, pres, _) in DIM3_CLASSES.items():
        if i != 6:
            continue
        keys[name] = canonical_key(cone_from_facets(pres))
    assert len(set(keys.values())) == 11


def test_canonical_key_nonsimplicial():
    rng = random.Random(19)
    c = cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    k = canonical_key(c)
    for _ in range(25):
        img = apply_unimodular(random_unimodular(rng, 3), c)
        assert canonical_key(img) == k
    other = cone_from_facets([(1, 0, 0), (0, 1, 0), (2, 4, 7), (1, 1, 2)])
    assert canonical_key(other) != k


def _stacked_column_hnf_key(c):
    """canonical_key as first written: one stacked column HNF per ordered
    basis, the bases picked out of permutations of the rows by determinant."""
    d = c.dim
    bucket = (d, len(c.rays), len(c.facets), index(c), dual_index(c))
    if is_smooth(c):
        best = tuple(sorted(la.identity(d)))
    else:
        rows = c.rays if len(c.rays) <= len(c.facets) else c.facets
        best = min(
            tuple(sorted(la.column_hnf(basis + rows)[d:]))
            for basis in permutations(rows, d)
            if la.det(basis)
        )
    return repr((bucket, best)).encode()


@st.composite
def _keyed_cones(draw):
    """(c, u): a 3-D or 4-D proper cone, simplicial from d facet normals or
    generated by :func:`_generator_sets`, and a random unimodular u of its
    dimension."""
    if draw(st.booleans()):
        d = draw(st.sampled_from((3, 4)))
        rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=d, max_size=d))
        assume(la.det(rows) != 0)
        c = simplicial_cone(rows)
    else:
        d, gens = draw(_generator_sets(pointed=True))
        c = cone_from_rays(gens)
    return c, random_unimodular(draw(st.randoms(use_true_random=False)), d)


@settings(max_examples=80, deadline=None)
@given(_keyed_cones())
def test_canonical_key_matches_stacked_column_hnf_oracle(case):
    c, u = case
    img = apply_unimodular(u, c)
    assert canonical_key(c) == _stacked_column_hnf_key(c)
    assert canonical_key(img) == _stacked_column_hnf_key(img) == canonical_key(c)


def test_key_equality_matches_equivalence():
    rng = random.Random(20)
    pool = []
    for name in ("C_2_1", "C_2_2", "C_6_5", "C_6_9"):
        c = cone_from_facets(presentation(name))
        pool.append(c)
        pool.append(apply_unimodular(random_unimodular(rng, 3), c))
    for a in pool:
        for b in pool:
            assert (canonical_key(a) == canonical_key(b)) == equivalent(a, b)


# ---------------------------------------------------------------- direct sums


def test_decompose_examples():
    c21 = cone_from_facets(presentation("C_2_1"))
    factors = direct_sum_decompose(c21)
    assert [f.dim for f in factors] == [2, 1]
    assert index(factors[0]) == 2 and dual_index(factors[0]) == 2

    c22 = cone_from_facets(presentation("C_2_2"))
    assert len(direct_sum_decompose(c22)) == 1

    d415 = cone_from_facets(presentation("D_4_15"))
    factors = direct_sum_decompose(d415)
    assert [(f.dim, index(f)) for f in factors] == [(2, 2), (2, 2)]


def test_decompose_irreducible_returns_cone_without_key():
    # an irreducible cone comes back as itself, with no canonical key computed
    for name in ("C_2_2", "C_4_4", "D_2_3"):
        c = simplicial_cone(presentation(name))
        factors = direct_sum_decompose(c)
        assert factors == [c] and factors[0] is c, name
        assert c._key is None, name


def test_decompose_reducible_factor_order():
    # decreasing dimension, then index
    for name, want in (("C_2_1", [(2, 2), (1, 1)]), ("D_2_2", [(3, 2), (1, 1)]),
                       ("D_4_15", [(2, 2), (2, 2)])):
        factors = direct_sum_decompose(simplicial_cone(presentation(name)))
        assert [(f.dim, index(f)) for f in factors] == want, name


def test_index_multiplicative_over_direct_sums():
    for table in (DIM3_CLASSES, DIM4_CLASSES):
        for name, (i, istar, pres, red) in table.items():
            if not red:
                continue
            c = cone_from_facets(pres)
            factors = direct_sum_decompose(c)
            prod_i = prod_j = 1
            for f in factors:
                prod_i *= index(f)
                prod_j *= dual_index(f)
            assert prod_i == i == index(c), name
            assert prod_j == istar == dual_index(c), name


def test_decompose_invariant_under_unimodular_maps():
    rng = random.Random(21)
    c = cone_from_facets(presentation("D_4_15"))
    for _ in range(10):
        img = apply_unimodular(random_unimodular(rng, 4), c)
        factors = direct_sum_decompose(img)
        assert [(f.dim, index(f), dual_index(f)) for f in factors] == [(2, 2, 2), (2, 2, 2)]


# The square cone over (+-1, 0), (0, +-1) at height 1: non-simplicial,
# 3-D, index 4, dual index 2.
SQUARE = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))


def test_decompose_nonsimplicial_factor():
    c = cone_from_rays([r + (0,) for r in SQUARE] + [(0, 0, 0, 1)])
    factors = direct_sum_decompose(c)
    assert [(f.dim, len(f.rays), index(f)) for f in factors] == [(3, 4, 4), (1, 1, 1)]
    assert equivalent(factors[0], cone_from_rays(SQUARE))


def test_decompose_rational_split_is_not_a_lattice_split():
    # span(square) + span((1,1,1,2)) is all of Q^4, but the two sublattices
    # generate a subgroup of index 2, so the cone stays irreducible
    c = cone_from_rays([r + (0,) for r in SQUARE] + [(1, 1, 1, 2)])
    assert direct_sum_decompose(c) == [c]


def test_decompose_nonsimplicial_invariant_under_unimodular_maps():
    c = cone_from_rays([r + (0, 0) for r in SQUARE] + [(0, 0, 0, 1, 0), (0, 0, 0, 1, 2)])

    def summary(cone):
        factors = direct_sum_decompose(cone)
        shape = [(f.dim, len(f.rays), index(f), dual_index(f)) for f in factors]
        return shape, [canonical_key(f) for f in factors]

    shape, keys = summary(c)
    assert shape == [(3, 4, 4, 2), (2, 2, 2, 2)]
    rng = random.Random(22)
    for _ in range(5):
        assert summary(apply_unimodular(random_unimodular(rng, 5), c)) == (shape, keys)


@st.composite
def _small_cones(draw, d):
    """A proper cone in Z^d on at most five generators, simplicial or not."""
    vec = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    w = draw(vec)
    gens = draw(st.lists(vec, min_size=d, max_size=5))
    gens = [v if la.dot(w, v) > 0 else la.scale(v, -1) for v in gens if la.dot(w, v)]
    assume(len(gens) >= d and la.rank(gens) == d)
    return cone_from_rays(gens)


@st.composite
def _direct_sums(draw):
    """(c1, c2, u): proper cones of total dimension at most 4 and a random
    unimodular u of that dimension."""
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(1, 4 - d1))
    u = random_unimodular(draw(st.randoms(use_true_random=False)), d1 + d2)
    return draw(_small_cones(d1)), draw(_small_cones(d2)), u


def _direct_sum(rays1, rays2):
    pad1, pad2 = (0,) * len(rays1[0]), (0,) * len(rays2[0])
    return cone_from_rays([r + pad2 for r in rays1] + [pad1 + r for r in rays2])


def _assert_decompose_matches_projection(c):
    want = factor_summary(direct_sum_by_projection(c))
    assert factor_summary(direct_sum_decompose(c)) == want, c


@settings(max_examples=100, deadline=None)
@given(_direct_sums())
def test_decompose_image_of_direct_sum(case):
    # the factors of U (c1 + c2) are those of c1 and of c2, up to GL(d,Z),
    # and those the projection oracle finds
    c1, c2, u = case
    img = apply_unimodular(u, _direct_sum(c1.rays, c2.rays))
    want = factor_summary(direct_sum_decompose(c1) + direct_sum_decompose(c2))
    assert factor_summary(direct_sum_decompose(img)) == want
    _assert_decompose_matches_projection(img)


# A cone over a triangular prism plus a ray: 7 rays and 6 facets; its
# dual has 6 rays and 7 facets.
PRISM_PLUS_RAY = [(x, y, z, 1, 0) for z in (0, 1) for x, y in ((0, 0), (1, 0), (0, 1))]
PRISM_PLUS_RAY.append((0, 0, 0, 0, 1))


def test_decompose_prism_plus_a_ray_and_its_dual():
    c = cone_from_rays(PRISM_PLUS_RAY)
    assert (len(c.rays), len(c.facets)) == (7, 6)
    rng = random.Random(23)
    for cone, prism in ((c, (4, 6, 5)), (dual(c), (4, 5, 6))):
        factors = direct_sum_decompose(cone)
        assert [(f.dim, len(f.rays), len(f.facets)) for f in factors] == [prism, (1, 1, 1)]
        for _ in range(5):
            _assert_decompose_matches_projection(apply_unimodular(random_unimodular(rng, 5), cone))


def _simplex_product(a, b):
    """The rays of the cone over a product of an a- and a b-simplex, in
    Z^(a + b + 1): e_i + f_j, the last f dropped (it is sum e - sum f)."""
    return [
        tuple(int(k == i) for k in range(a + 1)) + tuple(int(k == j) for k in range(b))
        for i in range(a + 1)
        for j in range(b + 1)
    ]


def test_decompose_many_rays_and_facets(monkeypatch):
    # over a segment times a 5-simplex: 7-D, 12 rays, 8 facets and
    # irreducible. Each of the 2^6 - 1 sets of basis positions holding the
    # first costs at most two column HNFs, one step per column of the
    # basis and of all 12 rays, where the orbit search over the facets
    # alone has 8! leaves.
    c = cone_from_rays(_simplex_product(1, 5))
    assert (c.dim, len(c.rays), len(c.facets)) == (7, 12, 8)
    steps = []
    pivot = la._pivot
    monkeypatch.setattr(la, "_pivot", lambda *args: steps.append(args) or pivot(*args))
    rng = random.Random(24)
    for u in (la.identity(7), random_unimodular(rng, 7), random_unimodular(rng, 7)):
        img = apply_unimodular(u, c)
        steps.clear()
        assert direct_sum_decompose(img) == [img]
        assert len(steps) <= (7 + 12) * (2**6 - 1)
    # 7-D, 10 rays, 9 facets: a 4-D and a 3-D factor
    c = _direct_sum(_simplex_product(1, 2), _simplex_product(1, 1))
    for _ in range(3):
        _assert_decompose_matches_projection(apply_unimodular(random_unimodular(rng, 7), c))


# ---------------------------------------------------------------- misc


def test_simplicial_cone_matches_general_constructor():
    for name, (_, _, pres, _) in DIM3_CLASSES.items():
        assert simplicial_cone(pres) == cone_from_facets(pres), name


def test_cone_equality_and_hash():
    a = cone_from_facets(presentation("C_2_2"))
    b = cone_from_facets(presentation("C_2_2"))
    assert a == b and hash(a) == hash(b)
    assert a != cone_from_facets(presentation("C_2_1"))
