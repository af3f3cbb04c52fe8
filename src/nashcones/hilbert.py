"""Hilbert bases of proper cones.

Candidates come from the fundamental parallelepipeds of a placing
triangulation, each a Hermite normal form box folded by its piece's own
facets; one reduction pass in degree order, against the elements kept so
far, keeps exactly the indecomposable ones.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice, product

from . import intlinalg as la
from .cones import Cone, _dd_cut, _dual_extreme_rays, dual, simplicial_cone
from .errors import BoxTooLarge


@dataclass(frozen=True)
class HilbertBasis:
    """The unique minimal generating set of cone lattice points."""

    cone: Cone
    elements: tuple


def triangulate(c):
    """Placing triangulation of c into simplicial subcones on its own rays.

    Rays are inserted in sorted order (after a greedy independent seed);
    each new ray is joined to the visible boundary simplices of the cone
    built so far. Pieces have pairwise disjoint interiors and cover c. The
    facets of the cone built so far come from one double description of
    the placed rays, cut by each ray once it is placed.
    """
    rays = c.rays
    d = c.dim
    if len(rays) == d:
        return [c]

    seed = sorted(islice(la.independent(rays), d))
    simplices = {tuple(seed)}
    rest = [i for i in range(len(rays)) if i not in seed]
    pairs = _dual_extreme_rays([rays[j] for j in seed], d)

    for n, i in enumerate(rest):
        r = rays[i]
        new_simplices = set()
        for f, _ in pairs:
            if la.dot(f, r) >= 0:
                continue  # f is not visible from r
            for simplex in simplices:
                face = tuple(j for j in simplex if la.dot(f, rays[j]) == 0)
                if len(face) == d - 1:
                    new_simplices.add(tuple(sorted(face + (i,))))
        simplices |= new_simplices
        pairs = _dd_cut(pairs, r, 1 << d + n, d)

    # d independent rays: the dual of {x : rays @ x >= 0} is the piece
    return [dual(simplicial_cone([rays[j] for j in simplex])) for simplex in sorted(simplices)]


def parallelepiped_points(c):
    """All lattice points of {sum of t_i * ray_i : 0 <= t_i < 1}.

    The row HNF of the ray matrix is upper triangular, so the box
    0 <= x_i < h[i][i] holds one representative of each coset of the ray
    lattice in Z^d. Each ray r has exactly one facet f of c with f . r != 0,
    and f vanishes on the other rays, so the coordinate of x along r is
    (f . x) / (f . r): x is folded into the half-open parallelepiped by
    subtracting that coordinate's floor times r, for each r. The count
    equals |det| of the ray matrix. A box side past ``sys.maxsize``, which
    no range can hold, raises :class:`errors.BoxTooLarge`.
    """
    g = c.rays
    d = c.dim
    if len(g) != d:
        raise ValueError("parallelepiped_points needs a simplicial cone")
    det_g = la.det(g)
    h = la.row_hnf(g)
    if any(h[i][i] > sys.maxsize for i in range(d)):
        raise BoxTooLarge(f"parallelepiped box side exceeds {sys.maxsize}")
    pairs = [(f, n) for r in g for f in c.facets if (n := la.dot(f, r))]

    points = []
    for x in product(*(range(h[i][i]) for i in range(d))):
        floors = tuple(la.dot(f, x) // n for f, n in pairs)
        points.append(la.vsub(x, la.vec_mat(floors, g)))
    if len(points) != abs(det_g):
        raise AssertionError("parallelepiped point count mismatch")
    return sorted(points)


def _sort_key(v):
    return (sum(v), v)


def hilbert_basis(c):
    """Hilbert basis of the semigroup of lattice points of c.

    Candidates are the primitive rays plus all parallelepiped points over a
    placing triangulation. In order of degree, the sum of the facet values
    (positive on c minus 0), h is kept iff h - k leaves c, that is its
    facet values do not dominate k's entry by entry, for every k kept
    before it (Bruns-Ichim, J. Algebra 2010).
    """
    zero = (0,) * c.dim
    candidates = set(c.rays)
    for piece in triangulate(c):
        candidates.update(parallelepiped_points(piece))
    candidates.discard(zero)
    values = {v: tuple(la.dot(f, v) for f in c.facets) for v in candidates}

    kept = []  # (element, facet values)
    for h in sorted(candidates, key=lambda v: (sum(values[v]), v)):
        if not any(all(x >= y for x, y in zip(values[h], low)) for _, low in kept):
            kept.append((h, values[h]))
    return HilbertBasis(c, tuple(sorted((h for h, _ in kept), key=_sort_key)))
