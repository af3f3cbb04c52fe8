"""Exact cones and polyhedra: duality, vertex/facet enumeration, Minkowski
sums with a recession cone, localization at vertices, lattice indices,
unimodular equivalence, and direct-sum decomposition.

A cone is always kept in dual form: primitive extreme rays plus primitive
inward facet normals, both sorted. Both constructors, and the hull of a
Minkowski sum, run one double description pass that carries each dual
ray's incidence as an int bitset, so redundancy is read off that pass and
never recomputed. Every operation is exact and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from . import intlinalg as la
from .errors import NotAVertex, NotProper


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
    with a primitive integer normal.
    """

    dim: int
    vertices: tuple
    recession: Cone
    inequalities: tuple


# ------------------------------------------------------------------ double
# description


def _dual_extreme_rays(gens, d):
    """Extreme rays of {u : g . u >= 0 for all g in gens}, with incidence.

    Returns sorted pairs (ray, tight): bit k of the int ``tight`` is set iff
    gens[k] . ray == 0. One incremental double description pass: seed with
    d linearly independent generators (a simplicial dual, each seed ray
    tight on the other d - 1), then cut by the rest in input order. A ray
    the cut leaves at zero gains its bit; a ray w combined from adjacent
    rp, rn is tight on exactly their common set plus the cut, since each
    earlier g . w = sp (g . rn) - sn (g . rp) sums two nonnegative terms.
    Two rays are adjacent iff no third ray is tight on all of their common
    set (Fukuda-Prodon 1996). Requires rank(gens) == d (a pointed dual).
    """
    basis_rows = []
    basis_idx = []
    for i, g in enumerate(gens):
        if la.rank(basis_rows + [g]) == len(basis_rows) + 1:
            basis_rows.append(g)
            basis_idx.append(i)
            if len(basis_rows) == d:
                break
    if len(basis_rows) < d:
        raise ValueError("generators do not span the space")

    b_mat = la.mat(basis_rows)
    det_b = la.det(b_mat)
    adj_b = la.adjugate(b_mat)
    sign = 1 if det_b > 0 else -1
    basis_mask = sum(1 << i for i in basis_idx)
    state = [
        (la.primitive(tuple(sign * adj_b[r][j] for r in range(d))), basis_mask ^ (1 << i))
        for j, i in enumerate(basis_idx)
    ]

    for i, a in enumerate(gens):
        if basis_mask >> i & 1:
            continue
        bit = 1 << i
        new_state, pos, neg = [], [], []
        for r, t in state:
            s = la.dot(a, r)
            if s < 0:
                neg.append((r, t, s))
                continue
            if s > 0:
                pos.append((r, t, s))
            new_state.append((r, t if s else t | bit))
        for rp, tp, sp in pos:
            for rn, tn, sn in neg:
                common = tp & tn
                if common.bit_count() < d - 2:
                    continue
                if sum(t & common == common for _, t in state) > 2:
                    continue  # a third ray shares the common face: not adjacent
                w = la.primitive(tuple(sp * y - sn * x for x, y in zip(rp, rn)))
                new_state.append((w, common | bit))
        state = list(dict(new_state).items())  # parallel combinations repeat a ray

    return sorted(state)


# ------------------------------------------------------------------ cone
# constructors


def _double_description(gens, noun, low_rank, dual_low_rank):
    """Shared body of the two constructors: (d, kept, dual) where dual are
    the extreme rays of the dual of the cone generated by gens and kept are
    the primitive gens whose tight dual rays have rank d - 1 (the extreme
    ones), both read off one double description."""
    rows = [la.vec(g) for g in gens]
    if not rows:
        raise NotProper(f"a proper cone needs at least one {noun}")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError(f"{noun}s have mixed dimensions")
    prim = sorted({la.primitive(r) for r in rows})
    if la.rank(prim) < d:
        raise NotProper(low_rank)
    pairs = _dual_extreme_rays(prim, d)
    dual = tuple(w for w, _ in pairs)
    if la.rank(dual) < d:
        raise NotProper(dual_low_rank)
    kept = [g for k, g in enumerate(prim) if la.rank([w for w, t in pairs if t >> k & 1]) == d - 1]
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
    dt = la.det(a)
    if dt == 0:
        raise NotProper("facet matrix is singular")
    adj = la.adjugate(a)
    sign = 1 if dt > 0 else -1
    rays = sorted(la.primitive(tuple(sign * adj[r][j] for r in range(d))) for j in range(d))
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
    d = c.dim
    hom = cone_from_rays([(0,) + r for r in c.rays] + [(1,) + p for p in pts])

    rec = [r[1:] for r in hom.rays if r[0] == 0]
    verts = [r[1:] for r in hom.rays if r[0] == 1]
    if len(rec) + len(verts) != len(hom.rays):
        raise AssertionError(f"non-lattice vertex ray among {hom.rays}")
    if rec != list(c.rays):
        raise AssertionError("recession cone does not match the input cone")
    if not set(verts) <= set(pts):
        raise AssertionError("hull vertex outside the input point set")

    ineqs = []
    for g in hom.facets:
        normal = g[1:]
        if not any(normal):
            continue  # the height facet x0 >= 0; no constraint on P itself
        gcd_n = la.vec_gcd(normal)
        offset = -g[0]
        if offset % gcd_n != 0:
            raise AssertionError("facet offset not divisible by normal gcd")
        ineqs.append((tuple(x // gcd_n for x in normal), offset // gcd_n))

    return Polyhedron(d, tuple(verts), c, tuple(sorted(ineqs)))


def localize(p, v):
    """Cone of feasible directions at a vertex: inequalities tight at v."""
    vv = la.vec(v)
    if vv not in p.vertices:
        raise NotAVertex(f"{vv} is not a vertex of the polyhedron")
    tight = [n for n, b in p.inequalities if la.dot(n, vv) == b]
    return cone_from_facets(tight)


# ------------------------------------------------------------------ GL(d,Z)
# equivalence


def equivalent(a, b) -> bool:
    """Whether some element of GL(d,Z) maps one cone onto the other."""
    if a.dim != b.dim:
        raise ValueError("cones live in different dimensions")
    return canonical_key(a) == canonical_key(b)


def canonical_key(c) -> bytes:
    """Deterministic byte key, equal exactly for GL(d,Z)-equivalent cones.

    Within the invariant bucket (d, ray count, facet count, I, I*), the key
    is the lexicographic minimum, over ordered bases drawn from the smaller
    of the two generator sets, of the column-HNF-normalized row-sorted
    generator matrix.
    """
    if c._key is not None:
        return c._key
    d = c.dim
    bucket = (d, len(c.rays), len(c.facets), index(c), dual_index(c))
    if is_smooth(c):
        best = tuple(sorted(la.identity(d)))
    else:
        rows = c.rays if len(c.rays) <= len(c.facets) else c.facets
        best = None
        for tup in permutations(range(len(rows)), d):
            basis = la.mat([rows[i] for i in tup])
            if la.det(basis) == 0:
                continue
            _, u = la.column_hnf(basis)
            cand = tuple(sorted(la.matmul(rows, u)))
            if best is None or cand < best:
                best = cand
    c._key = repr((bucket, best)).encode()
    return c._key


# ------------------------------------------------------------------ direct
# sums


def _split_once(c):
    d = c.dim
    rays = c.rays
    n = len(rays)
    if d <= 1 or n <= 1:
        return None
    rest = range(1, n)
    for size in range(0, n - 1):
        for extra in combinations(rest, size):
            part1 = [rays[0]] + [rays[i] for i in extra]
            chosen = {0, *extra}
            part2 = [rays[i] for i in rest if i not in chosen]
            # k1, k2: saturated bases of the annihilators of the two spans.
            # Z^d splits along the spans iff the projection onto span(part1)
            # along span(part2) is integral, iff its transpose (Z^d* onto
            # span(k2) along span(k1)) is, iff k2 + k1 is a basis of Z^d*:
            # d rows with |det| 1. Then k2 . r are the coordinates of r in
            # a lattice basis of span(part1), and k1 . r likewise for part2.
            k1 = la.kernel_basis(part1)
            k2 = la.kernel_basis(part2)
            if len(k1) + len(k2) != d or abs(la.det(k2 + k1)) != 1:
                continue
            c1 = cone_from_rays([la.mat_vec(k2, r) for r in part1])
            c2 = cone_from_rays([la.mat_vec(k1, r) for r in part2])
            return c1, c2
    return None


def direct_sum_decompose(c):
    """Finest decomposition of c as a lattice direct sum of lower cones.

    Returns the indecomposable factors (each in coordinates of a lattice
    basis of its span), sorted by decreasing dimension then index; a
    singleton list when c is irreducible.
    """

    def factors(cone):
        split = _split_once(cone)
        if split is None:
            return [cone]
        c1, c2 = split
        return factors(c1) + factors(c2)

    found = factors(c)
    if len(found) == 1:
        return found
    return sorted(found, key=lambda f: (-f.dim, index(f), canonical_key(f)))
