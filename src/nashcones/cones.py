"""Exact cones and polyhedra: duality, vertex/facet enumeration, Minkowski
sums with a recession cone, localization at vertices, lattice indices,
unimodular equivalence, and direct-sum decomposition.

A cone is always kept in dual form: primitive extreme rays plus primitive
inward facet normals, both sorted. Both constructors, the placing
triangulation and the hull of a Minkowski sum share one double
description: a seed step, then one cut step per generator, each dual ray
carrying its incidence as an int bitset. Redundancy is read off that
incidence and never recomputed: a generator is extreme iff the dual rays
tight on it share no other generator (the face rule of Fukuda-Prodon
1996). The hull keeps its state, so points added later cut it alone, and
the same incidence gives each vertex's tangent cone: the facets through
the vertex and the edges from it. Every operation is exact and pure.

Canonical keys come from :func:`intlinalg.least_images`, the GL(d,Z)
orbit walk of each basis subset. A caller that keys many cones, such as
a resolution tree, can hand :func:`canonical_key` a registry of the
class minima keyed so far; a cone of a registered class stops the search
at the first image that sorts to its class's minimum, and takes its key
unchanged. Lattice direct sums are read off column HNFs, by the rule
:func:`direct_sum_decompose` states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, islice
from operator import and_

from . import intlinalg as la
from .errors import NotAVertex, NotProper, RankDeficient


class Cone:
    """A proper (pointed, full-dimensional) rational polyhedral cone.

    Build instances with :func:`cone_from_rays` or :func:`cone_from_facets`;
    the constructor trusts its arguments. Immutable and hashable.
    """

    __slots__ = ("dim", "rays", "facets", "_index", "_dual_index", "_key")

    def __init__(self, dim, rays, facets):
        self.dim = dim
        self.rays = rays
        self.facets = facets
        self._index = None
        self._dual_index = None
        self._key = None

    @property
    def is_simplicial(self):
        return len(self.facets) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return self.dim == other.dim and self.rays == other.rays and self.facets == other.facets

    def __hash__(self):
        return hash((self.dim, self.rays))

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={list(self.rays)}, facets={list(self.facets)})"


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron as vertices + recession cone + inequalities.

    Vertices are integer points (guaranteed for sums cone + hull of lattice
    points). Each inequality is (normal, offset) meaning normal . x >= offset
    with a primitive integer normal. ``incidence`` is (gens, pairs, extreme)
    of the homogenization cone: its generators (0, r) for the recession
    rays and (1, x) for the points, its dual extreme rays paired with the
    bitset of the generators tight on each, and the bitset of its extreme
    generators. :func:`localize` reads tangent cones off it; equality
    ignores it.
    """

    dim: int
    vertices: tuple
    recession: Cone
    inequalities: tuple
    incidence: tuple = field(default=None, compare=False, repr=False)


# ------------------------------------------------------------------ double
# description


def _opposite_rays(rows, d):
    """For d independent rows, the primitive ray opposite each row: tight on
    the other d - 1 (their cofactor normal) and oriented positive on it."""
    rays = []
    for j, row in enumerate(rows):
        n = la.normal(rows[:j] + rows[j + 1 :], d)
        rays.append(la.primitive(n if la.dot(n, row) > 0 else la.scale(n, -1)))
    return rays


def _dual_extreme_rays(gens, d):
    """Extreme rays of {u : g . u >= 0 for all g in gens}, with incidence.

    Returns sorted pairs (ray, tight): bit k of the int ``tight`` is set iff
    gens[k] . ray == 0. One incremental double description pass: seed with
    d linearly independent generators (a simplicial dual, each seed ray
    tight on the other d - 1), then :func:`_dd_cut` by the rest in input
    order. Raises RankDeficient, before any cut, when the seed step finds
    fewer than d (the dual would not be pointed).
    """
    basis_idx = list(islice(la.independent(gens), d))
    if len(basis_idx) < d:
        raise RankDeficient("generators do not span the space")
    basis_rows = [gens[i] for i in basis_idx]

    basis_mask = sum(1 << i for i in basis_idx)
    pairs = [
        (ray, basis_mask ^ (1 << i)) for ray, i in zip(_opposite_rays(basis_rows, d), basis_idx)
    ]
    for i, a in enumerate(gens):
        if not basis_mask >> i & 1:
            pairs = _dd_cut(pairs, a, 1 << i, d)
    return sorted(pairs)


def _dd_cut(pairs, a, bit, d):
    """The double description step: the extreme rays, with incidence, of
    the dual cut by one more generator a, whose incidence bit is ``bit``.

    A ray the cut leaves at zero gains the bit; a ray w combined from
    adjacent rp, rn is tight on exactly their common set plus the cut,
    since each earlier g . w = sp (g . rn) - sn (g . rp) sums two
    nonnegative terms. Two rays are adjacent iff no third ray is tight on
    all of their common set (Fukuda-Prodon 1996). Returns a new list, with
    no ray twice: each new ray lies inside one edge that crosses the cut,
    and two edges of the pointed dual meet only in a common ray, which is
    off the cut.
    """
    new_pairs, pos, neg = [], [], []
    for r, t in pairs:
        s = la.dot(a, r)
        if s < 0:
            neg.append((r, t, s))
            continue
        if s > 0:
            pos.append((r, t, s))
        new_pairs.append((r, t if s else t | bit))
    for rp, tp, sp in pos:
        for rn, tn, sn in neg:
            common = tp & tn
            if common.bit_count() < d - 2:
                continue
            if sum(t & common == common for _, t in pairs) > 2:
                continue  # a third ray shares the common face: not adjacent
            w = la.primitive(tuple(sp * y - sn * x for x, y in zip(rp, rn)))
            new_pairs.append((w, common | bit))
    return new_pairs


def _face(pairs, members, within):
    """The generators, as a bitset inside ``within``, of the smallest face
    holding the generators in ``members``: those tight on every dual ray
    of ``pairs`` tight on all of them (Fukuda-Prodon 1996). A generator k
    is extreme iff its face is 1 << k, and two extreme generators span an
    edge iff their face holds no third extreme one, the test
    :func:`_dd_cut` makes on the dual side."""
    return reduce(and_, (t for _, t in pairs if t & members == members), within)


# ------------------------------------------------------------------ cone
# constructors


def _double_description(gens, noun, low_rank, dual_low_rank):
    """Shared body of the two constructors: (d, kept, dual) where dual are
    the extreme rays of the dual of the cone generated by gens and kept are
    the extreme primitive gens, both read off one double description.

    gens[k] is extreme iff the smallest face holding it holds no other
    generator (:func:`_face`)."""
    rows = [la.vec(g) for g in gens]
    if not rows:
        raise NotProper(f"a proper cone needs at least one {noun}")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError(f"{noun}s have mixed dimensions")
    prim = sorted({la.primitive(r) for r in rows})
    try:
        pairs = _dual_extreme_rays(prim, d)
    except RankDeficient:
        raise NotProper(low_rank) from None
    dual = tuple(w for w, _ in pairs)
    if la.rank(dual) < d:
        raise NotProper(dual_low_rank)
    every = (1 << len(prim)) - 1
    kept = [g for k, g in enumerate(prim) if _face(pairs, 1 << k, every) == 1 << k]
    return d, tuple(kept), dual


def cone_from_rays(rays):
    """Cone generated by the given nonzero integer rays.

    Computes the irredundant primitive facet normals by double description
    and keeps only the extreme rays among the inputs.
    """
    d, extreme, facets = _double_description(
        rays, "ray", "rays do not span the ambient space", "cone contains a line"
    )
    return Cone(d, extreme, facets)


def cone_from_facets(facets):
    """Cone {x : f . x >= 0 for all f} from inward facet normals.

    Redundant or duplicate inequalities are dropped; extreme rays are
    computed by double description.
    """
    d, irredundant, rays = _double_description(
        facets, "facet", "cone contains a line", "cone is not full-dimensional"
    )
    return Cone(d, rays, irredundant)


def simplicial_cone(facet_matrix):
    """Fast constructor for {x : A x >= 0} with A square nonsingular."""
    a = la.mat(facet_matrix)
    d = len(a)
    if la.det(a) == 0:
        raise NotProper("facet matrix is singular")
    rays = sorted(_opposite_rays(a, d))
    norms = sorted(la.primitive(row) for row in a)
    return Cone(d, tuple(rays), tuple(norms))


def dual(c):
    """Dual cone: rays and facets swap roles."""
    return Cone(c.dim, c.facets, c.rays)


def index(c) -> int:
    """Lattice index of the subgroup of Z^d generated by the facet normals."""
    if c._index is None:
        c._index = la.lattice_index(c.facets)
    return c._index


def dual_index(c) -> int:
    """Lattice index of the subgroup of Z^d generated by the rays."""
    if c._dual_index is None:
        c._dual_index = la.lattice_index(c.rays)
    return c._dual_index


def is_smooth(c) -> bool:
    """Whether the cone is unimodularly equivalent to the orthant."""
    return c.is_simplicial and index(c) == 1


# ------------------------------------------------------------------ sums and
# localization


class _HullDD:
    """The double description of the homogenization cone of c + Hull(S):
    its generators 0 x rays of c and 1 x points of S, and its dual extreme
    rays with incidence over them. Points only ever join S, so each
    :meth:`add` cuts the state by the new points alone; a cutting-plane
    round reads only :meth:`inequalities`."""

    __slots__ = ("cone", "gens", "pairs")

    def __init__(self, c, points):
        self.cone = c
        self.gens = tuple((0,) + r for r in c.rays) + tuple((1,) + x for x in points)
        self.pairs = _dual_extreme_rays(self.gens, c.dim + 1)

    def add(self, points):
        """Cut by new points: distinct, and none a generator yet (the face
        rule needs the generators distinct). A cutting-plane round's
        points violate the current hull, so none of them is in it."""
        for x in points:
            self.gens += ((1,) + x,)
            self.pairs = _dd_cut(self.pairs, self.gens[-1], 1 << len(self.gens) - 1, self.cone.dim + 1)

    def inequalities(self):
        """The facets of c + Hull(S), sorted: each dual ray (-b, n) other
        than x0 >= 0 gives n . x >= b, divided by the gcd of n."""
        ineqs = []
        for g, _ in self.pairs:
            normal = g[1:]
            if not any(normal):
                continue  # the height facet x0 >= 0; no constraint on P itself
            gcd_n = la.vec_gcd(normal)
            offset = -g[0]
            if offset % gcd_n != 0:
                raise AssertionError("facet offset not divisible by normal gcd")
            ineqs.append((tuple(x // gcd_n for x in normal), offset // gcd_n))
        return tuple(sorted(ineqs))

    def polyhedron(self):
        """c + Hull(S) read off the state: the height-zero and height-one
        extreme generators (by the face rule) are the recession rays and
        the vertices, and :meth:`inequalities` the facets."""
        c, gens, pairs = self.cone, self.gens, self.pairs
        every = (1 << len(gens)) - 1
        extreme = sum(1 << k for k in range(len(gens)) if _face(pairs, 1 << k, every) == 1 << k)
        rec = [g[1:] for k, g in enumerate(gens) if extreme >> k & 1 and g[0] == 0]
        verts = sorted(g[1:] for k, g in enumerate(gens) if extreme >> k & 1 and g[0] == 1)
        if rec != list(c.rays):
            raise AssertionError("recession cone does not match the input cone")
        if not verts:
            raise AssertionError("hull has no vertex")
        return Polyhedron(c.dim, tuple(verts), c, self.inequalities(), (gens, pairs, extreme))


def minkowski_sum_hull(c, points):
    """The polyhedron c + Hull(points) for a finite set of lattice points.

    Works through the homogenization cone in Q^(d+1) generated by 0 x rays
    and 1 x points, built by one double description: its facets give the
    inequalities, and its extreme rays, read off the same pass's incidence,
    give the vertices (height one) and the recession cone (height zero).
    """
    pts = sorted({la.vec(p) for p in points})
    if not pts:
        raise ValueError("points must be nonempty")
    if any(len(p) != c.dim for p in pts):
        raise ValueError("points and cone live in different dimensions")
    return _HullDD(c, pts).polyhedron()


def localize(p, v):
    """Cone of feasible directions at a vertex v, read off the hull's
    incidence: its facets are the facets of p through v, and its rays the
    edge directions at v, primitive(w - v) for each vertex w on an edge
    with v and each recession ray r with v + r on an edge from v. Both are
    edges of the homogenization cone, found by :func:`_face`. A polyhedron
    built without its incidence is rebuilt from its recession cone and
    vertices, which give it exactly (it is pointed)."""
    vv = la.vec(v)
    if vv not in p.vertices:
        raise NotAVertex(f"{vv} is not a vertex of the polyhedron")
    if p.incidence is None:
        p = minkowski_sum_hull(p.recession, p.vertices)
    gens, pairs, extreme = p.incidence
    k = gens.index((1,) + vv)
    through = [(g, t) for g, t in pairs if t >> k & 1]
    rays = []
    for j, g in enumerate(gens):
        edge = 1 << k | 1 << j
        if j != k and extreme >> j & 1 and _face(through, edge, extreme) == edge:
            rays.append(g[1:] if g[0] == 0 else la.primitive(la.vsub(g[1:], vv)))
    facets = sorted(la.primitive(g[1:]) for g, _ in through)
    return Cone(p.dim, tuple(sorted(rays)), tuple(facets))


# ------------------------------------------------------------------ GL(d,Z)
# equivalence


def equivalent(a, b) -> bool:
    """Whether some element of GL(d,Z) maps one cone onto the other."""
    if a.dim != b.dim:
        raise ValueError("cones live in different dimensions")
    return canonical_key(a) == canonical_key(b)


def _sorted_rows(m):
    return tuple(sorted(m))


def canonical_key(c, registry=None) -> bytes:
    """Deterministic byte key, equal exactly for GL(d,Z)-equivalent cones.

    Within the invariant bucket (d, ray count, facet count, I, I*), the key
    is the lexicographic minimum, over ordered bases drawn from the smaller
    of the two generator sets, of the row-sorted generator matrix brought
    into column HNF on that basis: the last yield of the GL(d,Z) orbit
    walk :func:`intlinalg.least_images`, which sorts only the images whose
    least row can still be the least image's.

    ``registry``, a set owned by the caller, holds the (bucket, minimum)
    pairs of the non-smooth classes keyed so far. The search stops at the
    first yield whose pair is in it: equal sorted images in one bucket mean
    equal generator sets up to a unimodular map, so the cone is of that
    class, and its minimum is the registered one. The class minimum itself
    is always yielded, so a registered class never runs the search to its
    end. Otherwise the search runs out and its pair joins the registry.
    """
    if c._key is not None:
        return c._key
    d = c.dim
    bucket = (d, len(c.rays), len(c.facets), index(c), dual_index(c))
    if is_smooth(c):
        best = _sorted_rows(la.identity(d))
    else:
        rows = c.rays if len(c.rays) <= len(c.facets) else c.facets
        for image in la.least_images(rows):
            best = _sorted_rows(image)
            if registry is not None and (bucket, best) in registry:
                break
        else:
            if registry is not None:
                registry.add((bucket, best))
    c._key = repr((bucket, best)).encode()
    return c._key


# ------------------------------------------------------------------ direct
# sums


def _cuts(h):
    """The k in 1..d-1 at which the HNF image h, d = len(h[0]), splits:
    its lower triangular basis rows h[:d] have a zero lower-left block
    h[k:d][:k] (read up from row d - 1, stopping at a row that starts
    nonzero, as most do), and every other row is zero on one side of k."""
    d = len(h[0])
    cuts, low = [], d
    for k in range(d - 1, 0, -1):
        low = min(low, next(j for j, x in enumerate(h[k]) if x))
        if not low:
            break
        if low == k:
            cuts.append(k)
    for row in h[d:]:
        support = [j for j, x in enumerate(row) if x]
        cuts = [k for k in cuts if not support[0] < k <= support[-1]]
    return cuts[::-1]


def _finest_split(images):
    """The blocks of the first of the HNF images of one orbit with the most
    cuts: for each, the rows nonzero in it (each row is nonzero in one
    block only), restricted to its columns.
    They present the atoms of the finest lattice direct sum, one block
    when the cone is irreducible (see :func:`direct_sum_decompose`).

    Only an image whose basis row d - 1 starts at 0 is read: :func:`_cuts`
    reads that row first and stops at a row that starts nonzero, so every
    other image has no cut. With no cut anywhere the block is the first
    image."""
    images = iter(images)
    h = next(images)
    d, cuts = len(h[0]), []
    for g in chain((h,), images):
        if not g[d - 1][0]:
            found = _cuts(g)
            if len(found) > len(cuts):
                h, cuts = g, found
    bounds = (0, *cuts, d)
    return [tuple(row[i:j] for row in h if any(row[i:j])) for i, j in zip(bounds, bounds[1:])]


def _factor_order(f):
    """The order of direct-sum factors: decreasing dimension, then index,
    then key. Equivalent cones sort together."""
    return (-f.dim, index(f), canonical_key(f))


def direct_sum_decompose(c):
    """Finest decomposition of c as a lattice direct sum of lower cones:
    the indecomposable factors, each in coordinates of a lattice basis of
    its span, sorted by :func:`_factor_order`; [c] when c is irreducible.

    This is the one direct-sum rule, which ``classify`` shares. Order a
    basis b of the rays first and take the column HNF of the rays, their
    image under the unimodular u that puts b in column HNF. At a cut
    (:func:`_cuts`), u splits Z^d and the rays. Conversely, when c = c1 +
    c2, each ray of b lies in one summand, and b ordered summand by summand
    has a block-diagonal column HNF (it is unique, and a block-diagonal
    matrix of HNFs is one), so a cut depends only on the set of basis
    positions before it. These splitting sets are closed under complement
    and intersection, so the factors are the atoms, each the smallest
    splitting set holding the first unplaced position: at most 2^(d-1) - 1
    sets tried. Ordered atom by atom, the image cuts at each atom's end
    and nowhere else, and its blocks (:func:`_finest_split`) are the
    factors.
    """
    d = c.dim
    basis = list(islice(la.independent(c.rays), d))
    rows = [c.rays[i] for i in basis] + [r for i, r in enumerate(c.rays) if i not in basis]

    def image(s, gens):  # basis positions s first
        return la.column_hnf([gens[j] for j in s] + [r for j, r in enumerate(gens) if j not in s])

    def splits(s):  # the basis alone first: most sets fail there
        return all(len(s) in _cuts(image(s, part)) for part in (rows[:d], rows))

    atoms, rest = [], tuple(range(d))
    while rest:
        found = ((rest[0], *x) for n in range(len(rest) - 1) for x in combinations(rest[1:], n))
        atom = next((s for s in found if splits(s)), rest)
        atoms.append(atom)
        rest = tuple(j for j in rest if j not in atom)
    if len(atoms) == 1:
        return [c]
    factors = [cone_from_rays(b) for b in _finest_split([image(sum(atoms, ()), rows)])]
    return sorted(factors, key=_factor_order)
