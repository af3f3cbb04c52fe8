import random
from fractions import Fraction
from itertools import islice, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashcones import intlinalg as la
from nashcones.cones import (
    _dual_extreme_rays,
    cone_from_facets,
    cone_from_rays,
    dual,
    is_smooth,
    simplicial_cone,
)
from nashcones.hilbert import hilbert_basis, parallelepiped_points, triangulate
from nashcones.surface import StdCone2D, hilbert_basis_2d

from tabledata import DIM3_CLASSES, presentation


def in_cone(c, v):
    return all(la.dot(f, v) >= 0 for f in c.facets)


def brute_parallelepiped(rays, bound=40):
    """Oracle: scan an integer box for points with all ray-coordinates in
    [0, 1), solving exactly with Fractions."""
    d = len(rays)
    g = la.mat(rays)
    det_g = la.det(g)
    adj_g = la.adjugate(g)
    # coordinate j of any parallelepiped point lies between the summed
    # negative parts and the summed positive parts of the ray coordinates
    lo = [sum(min(0, r[j]) for r in rays) - 1 for j in range(d)]
    hi = [sum(max(0, r[j]) for r in rays) + 1 for j in range(d)]
    out = []
    for x in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        coords = [Fraction(n, det_g) for n in la.vec_mat(x, adj_g)]
        if all(0 <= t < 1 for t in coords):
            out.append(x)
    return sorted(out)


def brute_hilbert(c, bound):
    """Oracle: indecomposable cone lattice points found by box scan."""
    d = c.dim
    pts = [
        x
        for x in product(range(-bound, bound + 1), repeat=d)
        if any(x) and in_cone(c, x)
    ]
    basis = []
    for h in pts:
        # h is decomposable iff h = u + v with u, v nonzero cone points
        if not any(u != h and in_cone(c, la.vsub(h, u)) for u in pts):
            basis.append(h)
    return sorted(basis)


# ---------------------------------------------------------------- triangulate


def test_triangulate_simplicial_identity():
    c = cone_from_facets(presentation("C_2_2"))
    assert triangulate(c) == [c]


def test_triangulate_square_cone():
    c = cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    pieces = triangulate(c)
    assert len(pieces) == 2
    dets = sorted(abs(la.det(p.rays)) for p in pieces)
    assert dets == [2, 2]
    # pieces cover c and have disjoint interiors: grid check
    for x in product(range(-3, 4), repeat=3):
        if not any(x) or not in_cone(c, x):
            continue
        containing = [p for p in pieces if in_cone(p, x)]
        assert containing, x
        interior = [p for p in containing if all(la.dot(f, x) > 0 for f in p.facets)]
        if interior:
            assert len(containing) == 1


def test_triangulate_pieces_span_cone_rays():
    rng = random.Random(30)
    for _ in range(30):
        d = rng.randint(2, 4)
        rays = []
        while True:
            w = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(w):
                break
        while len(rays) < d + rng.randint(0, 3):
            v = tuple(rng.randint(-5, 5) for _ in range(d))
            if any(v) and la.dot(w, v) > 0:
                rays.append(v)
        if la.rank(rays) < d:
            continue
        c = cone_from_rays(rays)
        pieces = triangulate(c)
        ray_set = set(c.rays)
        for p in pieces:
            assert p.is_simplicial
            assert set(p.rays) <= ray_set
            for r in p.rays:
                assert in_cone(c, r)


def _triangulate_from_scratch(c):
    """The placing triangulation with a fresh double description of the
    placed rays before each new ray, the oracle for the incremental one."""
    rays, d = c.rays, c.dim
    if len(rays) == d:
        return [c]
    seed = list(islice(la.independent(rays), d))
    simplices = {tuple(sorted(seed))}
    placed = sorted(seed)
    for i, r in enumerate(rays):
        if i in seed:
            continue
        facets = [f for f, _ in _dual_extreme_rays([rays[j] for j in placed], d)]
        new_simplices = set()
        for f in facets:
            if la.dot(f, r) < 0:
                for simplex in simplices:
                    face = tuple(j for j in simplex if la.dot(f, rays[j]) == 0)
                    if len(face) == d - 1:
                        new_simplices.add(tuple(sorted(face + (i,))))
        simplices |= new_simplices
        placed.append(i)
    return [dual(simplicial_cone([rays[j] for j in s])) for s in sorted(simplices)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.data())
def test_triangulate_matches_from_scratch_route(d, data):
    ray = st.tuples(*[st.integers(-4, 4)] * (d - 1), st.integers(1, 4))
    rays = data.draw(st.lists(ray, min_size=d, max_size=d + 5))
    assume(la.rank(rays) == d)
    c = cone_from_rays(rays)
    assert triangulate(c) == _triangulate_from_scratch(c)


# ---------------------------------------------------------------- fundamental
# parallelepiped


def test_parallelepiped_examples():
    orthant = cone_from_rays(la.identity(3))
    assert parallelepiped_points(orthant) == [(0, 0, 0)]
    c = cone_from_rays([(1, 0), (1, 2)])
    assert parallelepiped_points(c) == [(0, 0), (1, 1)]
    c = cone_from_rays([(1, 0), (4, 7)])
    assert len(parallelepiped_points(c)) == 7


def test_parallelepiped_against_box_oracle():
    rng = random.Random(31)
    cases = [
        [(1, 0), (4, 7)],
        [(1, 0), (1, 2)],
        [(2, 0, -1), (0, 2, -1), (0, 0, 1)],
        [(1, 0, 0), (1, 3, 0), (1, 0, 3)],
    ]

    def draw(d, span):
        while True:
            rows = [tuple(rng.randint(-span, span) for _ in range(d)) for _ in range(d)]
            if la.det(rows) != 0 and all(any(r) for r in rows):
                return [la.primitive(r) for r in rows]

    cases += [draw(rng.randint(2, 3), 4) for _ in range(20)]
    cases += [draw(4, 2) for _ in range(8)]
    pieces = []
    for rays in cases:
        try:
            c = cone_from_rays(rays)
        except Exception:
            continue
        if len(c.rays) == c.dim:
            pieces.append(c)
    assert {c.dim for c in pieces} == {2, 3, 4}
    # and every piece of some non-simplicial 3-D and 4-D cones
    for c in (
        cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]),
        cone_from_facets([(1, 0, 0), (0, 1, 0), (2, 4, 7), (1, 1, 2)]),
        cone_from_rays([(2, 0, 0, 1), (0, 3, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (1, 1, 2, 1), (0, 0, -1, 2)]),
        cone_from_facets([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5), (2, 1, 1, 3)]),
    ):
        assert not c.is_simplicial
        pieces.extend(triangulate(c))
    for c in pieces:
        assert parallelepiped_points(c) == brute_parallelepiped(c.rays)


# ---------------------------------------------------------------- Hilbert
# bases


def test_hilbert_orthant():
    for d in (1, 2, 3, 4):
        h = hilbert_basis(cone_from_rays(la.identity(d)))
        assert sorted(h.elements) == sorted(la.identity(d))


def test_hilbert_figure_cone():
    h = hilbert_basis(cone_from_rays([(1, 0), (4, 7)]))
    assert h.elements == ((1, 0), (1, 1), (2, 3), (3, 5), (4, 7))


def test_hilbert_against_brute_force():
    for facets, bound in [
        (presentation("C_2_2"), 6),
        (presentation("C_2_1"), 6),
        (presentation("C_6_4"), 8),
        (((1, 0, 0), (1, 3, 0), (1, 0, 3)), 8),
    ]:
        c = cone_from_facets(facets)
        mine = sorted(hilbert_basis(c).elements)
        assert mine == brute_hilbert(c, bound)


def test_hilbert_nonsimplicial_against_brute_force():
    c = cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    assert sorted(hilbert_basis(c).elements) == brute_hilbert(c, 5)
    c = cone_from_facets([(1, 0, 0), (0, 1, 0), (2, 4, 7), (1, 1, 2)])
    assert sorted(hilbert_basis(c).elements) == brute_hilbert(c, 8)


def test_hilbert_matches_2d_closed_form():
    for q in range(1, 31):
        for p in range(q):
            if gcd(p, q) != 1:
                continue
            c = cone_from_rays([(1, 0), (p, q)])
            expected = sorted(hilbert_basis_2d(StdCone2D(p, q)))
            assert sorted(hilbert_basis(c).elements) == expected, (p, q)


def test_hilbert_minimality():
    for name in ("C_2_2", "C_4_7", "C_6_5"):
        c = cone_from_facets(presentation(name))
        h = hilbert_basis(c)
        for a in h.elements:
            for b in h.elements:
                if a == b:
                    continue
                diff = la.vsub(a, b)
                assert not (any(diff) and in_cone(c, diff))


def test_hilbert_generation_greedy():
    # every small cone lattice point decomposes greedily into basis
    # elements, across all 3-D classes with index up to 8
    from nashcones.classify import classify

    cones = [cls.cone for i in range(1, 9) for cls in classify(3, i)]
    for c in cones:
        h = hilbert_basis(c)
        elements = sorted(h.elements, key=lambda v: (-sum(abs(x) for x in v), v))
        for x in product(range(-5, 6), repeat=3):
            if not any(x) or not in_cone(c, x):
                continue
            v = x
            progress = True
            while any(v) and progress:
                progress = False
                for e in elements:
                    w = la.vsub(v, e)
                    if in_cone(c, w):
                        v = w
                        progress = True
                        break
            assert not any(v), (c.facets, x)


def test_hilbert_size_d_iff_smooth():
    cases = [cone_from_facets(p) for _, (_, _, p, _) in DIM3_CLASSES.items()]
    cases.append(cone_from_rays([(2, 1, 0), (3, 2, 0), (5, 3, 1)]))
    for c in cases:
        h = hilbert_basis(c)
        assert (len(h.elements) == c.dim) == is_smooth(c)


def test_parallelepiped_needs_simplicial():
    c = cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    with pytest.raises(ValueError):
        parallelepiped_points(c)
