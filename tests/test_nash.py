import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashcones import intlinalg as la
from nashcones import nash
from nashcones.cones import (
    Cone,
    _HullDD,
    canonical_key,
    cone_from_facets,
    cone_from_rays,
    dual_index,
    equivalent,
    index,
    is_smooth,
    minkowski_sum_hull,
)
from nashcones.errors import BudgetExceeded
from nashcones.hilbert import hilbert_basis
from nashcones.nash import (
    MemoEntry,
    ResolutionTree,
    TreeNode,
    _min_weight_sum,
    _sum_hull,
    nash_blowup,
    resolution_tree,
    sum_set,
    tree_stats,
    unique_cone_count,
)

from oracles import hnf_images, localize_by_tight_facets, mat_vec, random_unimodular
from tabledata import DIM3_CLASSES, DIM4_CLASSES, GOLDEN_TREES, presentation


# ---------------------------------------------------------------- sum sets


def test_sum_set_orthant():
    h = hilbert_basis(cone_from_rays(la.identity(4)))
    assert sum_set(h) == {(1, 1, 1, 1)}


def test_sum_set_figure_cone():
    h = hilbert_basis(cone_from_rays([(1, 0), (4, 7)]))
    s = sum_set(h)
    pairs = list(combinations(h.elements, 2))
    assert len(pairs) == 10  # all pairs independent
    # two pairs share a sum: (1,1)+(4,7) == (2,3)+(3,5) == (5,8)
    expected = {la.vadd(a, b) for a, b in pairs}
    assert s == expected
    assert len(s) == 9
    assert s == {(2, 1), (3, 3), (3, 4), (4, 5), (4, 6), (5, 7), (5, 8), (6, 10), (7, 12)}


def test_sum_set_matches_brute_force():
    cones = [cone_from_facets(presentation(name)) for name in ("C_2_2", "C_6_4", "C_4_7")]
    cones += [cone_from_facets(presentation(name)) for name in ("D_3_5", "D_4_13")]
    # non-simplicial: a square pyramid, whose basis holds dependent triples
    cones.append(cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]))
    cones.append(cone_from_rays([(1, 0), (4, 7)]))
    inputs = [hilbert_basis(c).elements for c in cones] + [((1,), (2,), (5,))]
    for elements in inputs:
        d = len(elements[0])
        brute = set()
        for subset in combinations(elements, d):
            if la.rank(subset) == d:
                brute.add(tuple(sum(col) for col in zip(*subset)))
        assert sum_set(elements) == brute, elements


@pytest.mark.parametrize("elements", [[], [(1, 0, 0), (0, 1, 0)]])
def test_sum_set_rejects_fewer_elements_than_the_dimension(elements):
    # the first raised a bare IndexError, the second an AssertionError
    with pytest.raises(ValueError, match="^sum_set needs at least d basis elements in Z\\^d$"):
        sum_set(elements)


# ---------------------------------------------------------------- greedy
# oracle


HILBERT_CAP = {2: 24, 3: 18, 4: 14}


@st.composite
def _small_cones(draw):
    """A cone of dimension 2-4 with d to d + 2 rays and a small Hilbert
    basis; every pointed cone is GL(d,Z)-equivalent to one whose rays have
    a positive last coordinate."""
    d = draw(st.sampled_from((2, 3, 4)))
    bound = {2: 6, 3: 3, 4: 2}[d]
    ray = st.tuples(*[st.integers(-bound, bound)] * (d - 1), st.integers(1, bound))
    rays = draw(st.lists(ray, min_size=d, max_size=d + 2))
    assume(la.rank(rays) == d)
    c = cone_from_rays(rays)
    assume(not is_smooth(c))
    h = hilbert_basis(c).elements
    assume(len(h) <= HILBERT_CAP[d])
    return c, h


def _explicit_blowup(c):
    # the sum set listed in full and each tangent cone built from its
    # tight inequalities: no code shared with the cutting-plane route
    # beyond the one-shot hull
    p = minkowski_sum_hull(c, sum_set(hilbert_basis(c)))
    return tuple(localize_by_tight_facets(p, v) for v in p.vertices)


def _assert_cuts_are_one_shot_hulls(c, batches):
    # the hull seeded with the first batch and cut by each further batch
    # equals, after every cut, the hull built from scratch over the points
    # so far
    hull = _HullDD(c, batches[0])
    points = list(batches[0])
    for batch in batches[1:]:
        hull.add(batch)
        points += batch
        assert hull.polyhedron() == minkowski_sum_hull(c, points)


@settings(max_examples=60, deadline=None)
@given(_small_cones(), st.data())
def test_min_weight_sum_is_minimal_over_sum_set(case, data):
    c, h = case
    coeffs = data.draw(st.lists(st.integers(0, 4), min_size=len(c.facets), max_size=len(c.facets)))
    u = la.vec_mat(coeffs, c.facets)
    s = sum_set(h)
    x = _min_weight_sum(h, u, c.dim)
    assert x in s
    assert la.dot(u, x) == min(la.dot(u, y) for y in s)


@settings(max_examples=60, deadline=None)
@given(_small_cones())
def test_cutting_plane_hull_equals_explicit_sum_set_hull(case):
    c, h = case
    assert _sum_hull(c) == minkowski_sum_hull(c, sum_set(h))


@settings(max_examples=60, deadline=None)
@given(_small_cones(), st.data())
def test_hull_cuts_equal_one_shot_hulls(case, data):
    c, _ = case
    point = st.tuples(*[st.integers(-4, 4)] * c.dim)
    points = data.draw(st.lists(point, min_size=2, max_size=8, unique=True))
    ends = sorted(data.draw(st.sets(st.integers(1, len(points) - 1), min_size=1)))
    bounds = [0] + ends + [len(points)]
    _assert_cuts_are_one_shot_hulls(c, [points[a:b] for a, b in zip(bounds, bounds[1:])])


def _bulk_subset_blowups():
    # every blow-up of the memoized trees, resolved as the bulk set does
    # (pruned at the root's index), including the non-simplicial children
    for name in ("C_4_7", "C_6_5", "D_3_5", "D_4_13", "D_4_16", "D_5_9"):
        c = cone_from_facets(presentation(name))
        tree = resolution_tree(c, prune_below_index=index(c))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.status == "expanded":
                yield name, node.cone
            stack.extend(node.children)


def test_blowup_matches_explicit_path_on_bulk_subset():
    for name, c in _bulk_subset_blowups():
        assert nash_blowup(c) == _explicit_blowup(c), name


def test_no_weight_reaches_the_oracle_twice(monkeypatch):
    # a normal the oracle has answered, a seed's included, never cuts again,
    # so each primitive weight is asked about once; the children stay those
    # of the explicit sum set
    asked = []

    def recording(elements, u, d):
        asked.append(la.primitive(u))
        return _min_weight_sum(elements, u, d)

    monkeypatch.setattr(nash, "_min_weight_sum", recording)
    for name in GOLDEN_TREES:
        if name.startswith("D"):
            c = cone_from_facets(presentation(name))
            asked.clear()
            children = nash_blowup(c)
            assert len(asked) == len(set(asked)), name
            assert children == _explicit_blowup(c), name


def test_hull_cuts_on_bulk_subset():
    for _, c in _bulk_subset_blowups():
        points = sorted(sum_set(hilbert_basis(c)))
        _assert_cuts_are_one_shot_hulls(c, [points[0::3], points[1::3], points[2::3]])


# ---------------------------------------------------------------- one step


def test_blowup_smooth_fixed_point():
    orthant = cone_from_rays(la.identity(3))
    assert nash_blowup(orthant) == (orthant,)
    skew = cone_from_rays([(2, 1, 0), (3, 2, 0), (5, 3, 1)])
    assert nash_blowup(skew) == (skew,)


def test_blowup_c22():
    c = cone_from_facets(presentation("C_2_2"))
    p = minkowski_sum_hull(c, sum_set(hilbert_basis(c)))
    assert p.vertices == ((1, 1, 1), (1, 4, -2), (4, 1, -2))
    kids = nash_blowup(c)
    assert len(kids) == 3
    assert all(is_smooth(k) for k in kids)


def test_blowup_c44_children_are_c21():
    c = cone_from_facets(presentation("C_4_4"))
    c21 = cone_from_facets(presentation("C_2_1"))
    kids = nash_blowup(c)
    assert len(kids) == 4
    for k in kids:
        assert (index(k), dual_index(k)) == (2, 2)
        assert equivalent(k, c21)


def test_blowup_equivariance():
    rng = random.Random(50)
    for name, (i, _, pres, _) in DIM3_CLASSES.items():
        c = cone_from_facets(pres)
        base = sorted(canonical_key(k) for k in nash_blowup(c))
        images = 10 if i <= 4 else 4
        for _ in range(images):
            u = random_unimodular(rng, 3, flip=0)
            img = cone_from_rays([mat_vec(u, r) for r in c.rays])
            assert sorted(canonical_key(k) for k in nash_blowup(img)) == base, name


def test_blowup_direct_sum_compatibility():
    # children of a direct sum are the pairwise sums of the factors' children
    c21 = cone_from_facets(presentation("C_2_1"))  # 2-D factor x A
    kids = nash_blowup(c21)
    assert len(kids) == 2 and all(is_smooth(k) for k in kids)

    d415 = cone_from_facets(presentation("D_4_15"))  # 2-D factor x 2-D factor
    kids = nash_blowup(d415)
    assert len(kids) == 4 and all(is_smooth(k) for k in kids)


# ---------------------------------------------------------------- trees


def test_tree_orthant():
    tr = resolution_tree(cone_from_rays(la.identity(3)))
    st = tree_stats(tr)
    assert (st.depth, st.size, st.max_facets, st.resolved) == (0, 1, 3, True)
    assert tr.root.status == "smooth"


def test_tree_stats_examples():
    c22 = resolution_tree(cone_from_facets(presentation("C_2_2")), memoize=False)
    assert tree_stats(c22) == tree_stats(c22).__class__(1, 4, 3, True)
    c33 = resolution_tree(cone_from_facets(presentation("C_3_3")), memoize=False)
    st = tree_stats(c33)
    assert (st.depth, st.size) == (2, 9)
    d23 = resolution_tree(cone_from_facets(presentation("D_2_3")), memoize=False)
    st = tree_stats(d23)
    assert (st.depth, st.size, st.resolved) == (1, 5, True)


def test_tree_children_sorted_by_key():
    tr = resolution_tree(cone_from_facets(presentation("C_3_3")), memoize=False)
    keys = [n.key for n in tr.root.children]
    assert keys == sorted(keys)


# ---------------------------------------------------------------- class
# registry


def _fresh_key(c):
    return canonical_key(Cone(c.dim, c.rays, c.facets))


def _assert_tree_keys_are_fresh_keys(tree, name):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        assert node.key == _fresh_key(node.cone), name
        stack.extend(node.children)


def test_registry_keys_equal_fresh_keys_on_golden_trees():
    for name in GOLDEN_TREES:
        if name.startswith("D"):
            for memoize in (True, False):
                tree = resolution_tree(cone_from_facets(presentation(name)), memoize=memoize)
                _assert_tree_keys_are_fresh_keys(tree, name)


def test_least_image_keys_and_bases_equal_the_unbounded_search(monkeypatch):
    # every node of the dim-4 golden trees, expanded: the search that stops
    # at a registered minimum gives the keys and the registry that the
    # minimum over every image gives, its yields sort strictly lower one
    # after another, and it stops at an image with the least sorted rows
    def trees():
        return [
            resolution_tree(cone_from_facets(presentation(name)), memoize=False)
            for name in GOLDEN_TREES
            if name.startswith("D")
        ]

    def keys(tree):
        stack, out = [tree.root], []
        while stack:
            node = stack.pop()
            out.append(node.key)
            stack.extend(node.children)
        return out

    least_images = la.least_images
    stops, firsts, ran_out = [], [], []

    def recording_search(rows):
        firsts.append(min(tuple(sorted(h)) for h in hnf_images(rows)))
        stops.append(None)
        for image in least_images(rows):
            key = tuple(sorted(image))
            assert stops[-1] is None or key < stops[-1]
            stops[-1] = key
            yield image
        ran_out.append(rows)

    def unbounded_search(rows):
        yield min(hnf_images(rows), key=lambda h: tuple(sorted(h)))

    monkeypatch.setattr(la, "least_images", recording_search)
    cut = trees()
    assert stops == firsts
    monkeypatch.setattr(la, "least_images", unbounded_search)
    unbounded = trees()
    for a, b in zip(cut, unbounded, strict=True):
        assert keys(a) == keys(b)
        assert a.registry == b.registry
    # only a miss runs the search out, and each miss registers its class
    registered = sum(len(tree.registry) for tree in cut)
    assert len(ran_out) == registered > 12
    assert len(stops) > registered


def test_registry_keys_equal_fresh_keys_on_bulk_subset():
    for name in ("C_4_7", "C_6_5", "D_3_5", "D_4_13", "D_4_16", "D_5_9"):
        c = cone_from_facets(presentation(name))
        tree = resolution_tree(c, prune_below_index=index(c))
        assert tree.registry  # the non-smooth nodes went through it
        _assert_tree_keys_are_fresh_keys(tree, name)


@pytest.mark.parametrize(
    "rays_a, rays_b",
    [
        # 1/3(1,1) and 1/3(1,2), each times a ray
        ([(0, 0, 1), (0, 3, -1), (1, 0, 0)], [(0, 0, 1), (0, 3, -2), (1, 0, 0)]),
        # two 3-D cones met in resolution trees, with equal pairing-matrix
        # row and column profiles: b has images on the basis of a's least
        # image, but none with a's rows
        (
            [(0, -1, 1), (0, 3, -2), (1, 2, -2), (2, 0, -1)],
            [(-2, 4, -1), (0, -2, 1), (1, 4, -2), (2, 1, -1)],
        ),
    ],
)
def test_registry_misses_a_same_bucket_class(rays_a, rays_b):
    # one bucket, but not equivalent: the second search runs to its end
    a, b = cone_from_rays(rays_a), cone_from_rays(rays_b)
    assert (len(a.facets), index(a), dual_index(a)) == (len(b.facets), index(b), dual_index(b))
    registry = set()
    ka, kb = canonical_key(a, registry), canonical_key(b, registry)
    assert ka != kb
    assert (ka, kb) == (_fresh_key(a), _fresh_key(b))
    assert len(registry) == 2


def test_registry_hit_on_a_signed_permutation_image():
    rays = ((-2, -3, 2, 1), (-2, 3, 0, -1), (0, 0, -1, 1), (3, -5, 2, 0), (3, 1, 0, -2))
    c = cone_from_rays(rays)
    assert not c.is_simplicial and not is_smooth(c)
    registry = set()
    key = canonical_key(c, registry)
    rng = random.Random(13)
    for _ in range(5):
        perm = rng.sample(range(4), 4)
        signs = [rng.choice((-1, 1)) for _ in range(4)]
        img = cone_from_rays([[s * r[j] for s, j in zip(signs, perm)] for r in rays])
        assert canonical_key(img, registry) == key
        assert len(registry) == 1  # a hit registers nothing


@st.composite
def _signed_shears(draw, d):
    """x -> x . T for T a signed permutation matrix times a shear
    e_i -> e_i + q e_j."""
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    t = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
    q = draw(st.integers(-3, 3))
    t[i] = [x + q * y for x, y in zip(t[i], t[j])]
    return la.mat(t)


@settings(max_examples=40, deadline=None)
@given(_small_cones(), _small_cones(), st.data())
def test_shared_registry_keys_equal_fresh_keys(case_a, case_b, data):
    # images of two cones under signed permutations and shears, keyed in
    # a drawn order through one registry: every key is the fresh key, and
    # the registry holds one pair per class
    cones = [case_a[0], case_b[0]]
    for c in list(cones):
        for t in data.draw(st.lists(_signed_shears(c.dim), min_size=1, max_size=3)):
            cones.append(cone_from_rays([la.vec_mat(r, t) for r in c.rays]))
    cones = data.draw(st.permutations(cones))
    registry = set()
    fresh = [_fresh_key(c) for c in cones]
    assert [canonical_key(c, registry) for c in cones] == fresh
    assert len(registry) == len(set(fresh))


def test_pruning_never_applies_to_root():
    c = cone_from_facets(presentation("C_2_2"))
    tr = resolution_tree(c, prune_below_index=2, memoize=False)
    assert tr.root.status == "expanded"


def test_budget_arguments_must_be_positive():
    c = cone_from_facets(presentation("C_3_3"))
    orthant = cone_from_rays(la.identity(3))
    for root in (c, orthant):
        with pytest.raises(ValueError, match="max_depth"):
            resolution_tree(root, max_depth=-1)
        for bad in (0, -4):
            with pytest.raises(ValueError, match="max_nodes"):
                resolution_tree(root, max_nodes=bad)
    assert tree_stats(resolution_tree(orthant, max_depth=0, max_nodes=1)).resolved


def test_dropped_tree_frees_memo_without_gc():
    # no reference cycle holds the memo: dropping the tree frees its
    # entries by reference counting alone
    c = cone_from_facets(presentation("C_4_3"))
    gc.disable()
    try:
        tree = resolution_tree(c)
        assert tree.memo
        ref = weakref.ref(next(iter(tree.memo.values())))
        del tree
        assert ref() is None
    finally:
        gc.enable()


def test_memoization_consistency():
    c = cone_from_facets(presentation("C_4_3"))
    plain = resolution_tree(c, memoize=False)
    memo = resolution_tree(c, memoize=True)
    assert tree_stats(plain) == tree_stats(memo)
    assert unique_cone_count(memo) == unique_cone_count(plain)


def test_unique_count_ignores_visit_order():
    # a memo from earlier runs holds a -> b -> c. Under depth cap 3 the
    # memoized leaf a at depth 1 fits, while the node b at depth 3 is
    # capped: c is reached through the memo, whichever of a and b the walk
    # meets first, as it is in the tree without a memo
    memo = {b"a": MemoEntry(3, 2, 2, 2, 3, 3, False, (b"b",)),
            b"b": MemoEntry(3, 2, 2, 1, 2, 3, False, (b"c",))}
    a = TreeNode(None, "memoized", b"a", memo[b"a"])
    b = TreeNode(None, "pruned-depth", b"b", None, resolved=False)
    chain = TreeNode(None, "expanded", b"x", None, children=[
        TreeNode(None, "expanded", b"y", None, children=[b])])

    def count(children):
        tree = ResolutionTree(None, True, 3, 100, memo)
        tree.root = TreeNode(None, "expanded", b"r", None, children=children)
        return unique_cone_count(tree)

    assert count([chain, a]) == count([a, chain]) == 6


def test_memoized_subtree_stats():
    # within one tree a repeated class reappears as a memoized leaf but
    # contributes its full cached statistics
    c = cone_from_facets(presentation("D_4_8"))
    tr = resolution_tree(c, memoize=True)
    statuses = [n.status for n in tr.root.children]
    assert "memoized" in statuses
    assert tree_stats(tr) == tree_stats(resolution_tree(c, memoize=False))


@pytest.mark.parametrize("max_depth", [32, 3, 2])
@pytest.mark.parametrize("prune", [None, 5])
def test_expanded_entries_equal_the_memo_entries(max_depth, prune):
    # memoization may change a tree's cost, never its statistics: each
    # resolved expanded node of a memo-free tree carries the entry that
    # the memoized run keeps under its key, and each memoized node holds
    # the memo's own object, as does the node each new memo entry came
    # from. D_5_14 alone would take seconds a run; CI compares its
    # memoized and memo-free statistics
    compared = 0
    for name in [*DIM3_CLASSES, *(n for n in DIM4_CLASSES if n != "D_5_14")]:
        c = cone_from_facets(presentation(name))
        plain = resolution_tree(c, prune, memoize=False, max_depth=max_depth)
        memo = resolution_tree(c, prune, max_depth=max_depth)
        stack = [plain.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.status == "expanded" and node.resolved:
                assert node.entry == memo.memo[node.key], name
                compared += 1
        stack, held = [memo.root], set()
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            held.add(id(node.entry))
            if node.status == "memoized":
                assert node.entry is memo.memo[node.key], name
        assert all(id(memo.memo[key]) in held for key in memo.new_memo_keys), name
    assert compared


def test_memo_shared_across_runs():
    memo = {}
    c = cone_from_facets(presentation("C_3_3"))
    resolution_tree(c, memoize=True, memo=memo)
    again = resolution_tree(c, memoize=True, memo=memo)
    assert again.root.status == "memoized"
    assert tree_stats(again) == tree_stats(resolution_tree(c, memoize=False))
    assert not again.new_memo_keys


def test_max_depth_gives_pruned_depth_leaves():
    c = cone_from_facets(presentation("C_3_3"))
    tr = resolution_tree(c, max_depth=1, memoize=False)
    st = tree_stats(tr)
    assert not st.resolved
    assert any(n.status == "pruned-depth" for n in tr.root.children)


def test_max_nodes_budget():
    c = cone_from_facets(presentation("C_3_3"))
    with pytest.raises(BudgetExceeded) as info:
        resolution_tree(c, max_nodes=3, memoize=False)
    tree = info.value.tree
    assert tree is not None and tree.budget_hit
    assert not tree_stats(tree).resolved


def test_memo_history_never_changes_stats():
    # memo entries from runs under any depth cap, in any order, and from
    # full runs made first, give the statistics and the unique count of the
    # unmemoized tree under the current cap
    cones = [cone_from_facets(p) for i, _, p, _ in DIM3_CLASSES.values() if i <= 6]
    depths = (1, 2, 3, 4)

    def stats(tree):
        return tree_stats(tree), unique_cone_count(tree)

    want = {
        (k, m): stats(resolution_tree(c, memoize=False, max_depth=m))
        for k, c in enumerate(cones)
        for m in depths
    }
    runs = list(want)
    rng = random.Random(51)
    sequences = [runs, runs[::-1]] + [rng.sample(runs, len(runs)) for _ in range(2)]
    sequences += [[(k, m) for m in order for k in range(len(cones))]
                  for order in (depths, depths[::-1])]
    prefilled = {}
    for c in cones:
        resolution_tree(c, memo=prefilled)
    for seq, start in [(seq, {}) for seq in sequences] + [(runs, prefilled), (runs[::-1], prefilled)]:
        memo = dict(start)
        for k, m in seq:
            tr = resolution_tree(cones[k], memoize=True, max_depth=m, memo=memo)
            assert stats(tr) == want[(k, m)], (k, m)
