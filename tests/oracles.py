"""Reference routes that faster library code is checked against, and the
random unimodular maps the equivalence tests draw."""

from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import gcd

from nashcones import intlinalg as la
from nashcones import surface
from nashcones.classify import _display, _factor_name, _ordered_factorizations
from nashcones.cones import (
    canonical_key,
    cone_from_facets,
    cone_from_rays,
    dual_index,
    index,
)
from nashcones.nash import MEMOIZED
from nashcones.serialize import _subtree_shape


def mat_vec(m, v):
    """The matrix m times the column vector v."""
    return tuple(la.dot(row, v) for row in m)


def localize_by_tight_facets(p, v):
    """The tangent cone of p at the vertex v as a double description of
    its own: the cone of the inequalities of p tight at v."""
    tight = [n for n, b in p.inequalities if la.dot(n, v) == b]
    return cone_from_facets(tight)


def random_unimodular(rng, d, steps=14, flip=0.25):
    """A product of steps random shears of Z^d; after each shear the
    sheared row is negated with probability flip, with no draw when flip
    is 0, so each seeded caller keeps its stream of draws."""
    u = [list(row) for row in la.identity(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        q = rng.randint(-3, 3)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        if flip and rng.random() < flip:
            u[i] = [-x for x in u[i]]
    return la.mat(u)


# The remainder-loop Hermite step, the reference for intlinalg._pivot.


def _sub_row(rows, i, j, q):
    if q:
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]


def _pivot(a, r, c):
    """Column c's step of :func:`row_hnf` at row r, on row lists in place;
    False, leaving a alone, when the column is zero from row r down."""
    rest, below = range(r, len(a)), range(r + 1, len(a))
    if not any(a[i][c] for i in rest):
        return False
    while True:
        i0 = min((i for i in rest if a[i][c]), key=lambda i: abs(a[i][c]))
        a[r], a[i0] = a[i0], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in below:
            _sub_row(a, i, r, a[i][c] // a[r][c])
        if not any(a[i][c] for i in below):
            break
    for i in range(r):
        _sub_row(a, i, r, a[i][c] // a[r][c])
    return True


def row_hnf(m):
    """The row Hermite form of m by the remainder-loop step."""
    a = [list(row) for row in m]
    r = 0
    for c in range(len(a[0]) if a else 0):
        r += _pivot(a, r, c)
    return la.mat(a)


def hnf_images(rows):
    """The images the key search of :func:`intlinalg.least_images` walks,
    from their definition: for each ordered basis among rows, in
    lexicographic order of row indices, the column Hermite form of the
    basis rows stacked over the others in input order. The walk meets
    them in another order, subset by subset."""
    d = len(rows[0]) if rows else 0
    for p in permutations(range(len(rows)), d):
        if la.det([rows[i] for i in p]):
            stacked = [rows[i] for i in p] + [row for i, row in enumerate(rows) if i not in p]
            yield la.transpose(row_hnf(la.transpose(stacked)))


# Johnson's mobile-integer rule, the reference for the plain-changes
# order of intlinalg._hnf_walk.


def plain_changes(d):
    """The d! orders of range(d) in plain-changes order, by Johnson's
    rule: every item starts facing left; each step swaps the largest
    item that faces a smaller neighbour with that neighbour, then turns
    around every item larger than it."""
    order, left = list(range(d)), [True] * d

    def faced(p):  # the position the item at p faces
        return p - 1 if left[order[p]] else p + 1

    while True:
        yield tuple(order)
        mobile = [p for p in range(d) if 0 <= faced(p) < d and order[faced(p)] < order[p]]
        if not mobile:
            return
        p = max(mobile, key=lambda p: order[p])
        q, x = faced(p), order[p]
        order[p], order[q] = order[q], order[p]
        for y in range(x + 1, d):
            left[y] = not left[y]


# The two-matrix route to the 2-D standard form, the reference for
# surface.standardize_rays, with an extended Euclid of its own.


def _ext_gcd(a, b):
    """(x, y) with x*a + y*b == gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_x, old_y


def standardize_rays(r1, r2):
    """(p, q) and the SL(2,Z) transform of the cone spanned by two
    non-parallel primitive rays: a Bezout matrix takes the clockwise ray
    to (1, 0), then a shear reduces the other ray's first entry mod q."""
    if r1[0] * r2[1] - r1[1] * r2[0] < 0:
        r1, r2 = r2, r1
    a, b = r1
    x, y = _ext_gcd(a, b)
    if x * a + y * b < 0:
        x, y = -x, -y
    first = ((x, y), (-b, a))
    assert mat_vec(first, r1) == (1, 0)
    e, f = mat_vec(first, r2)
    assert f > 0
    shear = ((1, -(e // f)), (0, 1))
    return (e - (e // f) * f, f), la.matmul(shear, first)


# The Fraction-based 2-D blow-up, the reference for surface.nash_blowup_2d
# on integer pairs.


def nash_blowup_2d(s):
    """Children of a singular standard cone: the Hilbert basis from the
    expansion of Fraction(p, q), the boundary steps by vector helpers."""
    v = surface.hj_expand(Fraction(s.p, s.q)).convergents
    steps = [la.scale(v[0], -1)] + [la.vsub(c, a) for a, c in zip(v, v[2:])] + [v[-1]]
    children = []
    for back, ahead in zip(steps, steps[1:]):
        if back[0] * ahead[1] - back[1] * ahead[0] != 0:
            std, _ = surface.standardize_rays(la.primitive(la.scale(back, -1)), la.primitive(ahead))
            children.append(std)
    return children


# The two-stage sibling grouping, the reference for serialize._group_children.


def group_children(children):
    """Group siblings by key, then rescan the merged groups for each
    non-simplicial group and fold it into the first earlier non-simplicial
    group with the same subtree shape."""
    by_key = {}
    for ch in children:
        by_key.setdefault(ch.key, []).append(ch)
    groups = []
    for members in by_key.values():
        rep = next((m for m in members if m.status != MEMOIZED), members[0])
        groups.append([rep, len(members)])
    merged = []
    for rep, count in groups:
        if not rep.cone.is_simplicial:
            shape = _subtree_shape(rep)
            target = next(
                (m for m in merged if not m[0].cone.is_simplicial and _subtree_shape(m[0]) == shape),
                None,
            )
            if target is not None:
                target[1] += count
                continue
        merged.append([rep, count])
    return merged


# The convergent recurrence over finished terms, the reference for the
# convergents surface.hj_expand carries through its Euclid loop.


def convergents(terms):
    """(p_i, q_i) for i = 0..k of [a_1, ..., a_k]."""
    ps = [0, 1]  # p_{-1}, p_0
    qs = [0]  # q_0
    for i, a in enumerate(terms, start=1):
        ps.append(a * ps[-1] - ps[-2])
        qs.append(1 if i == 1 else a * qs[-1] - qs[-2])
    return tuple(zip(ps[1:], qs))


# The count-per-name direct-sum label, the reference for
# classify.ConeClass.reducibility_label.


def reducibility_label(reducibility):
    if not reducibility:
        return ""
    terms = []
    for name in dict.fromkeys(reducibility):
        k = reducibility.count(name)
        disp = _display(name)
        if k == 1:
            terms.append(disp)
        elif name == "A":
            terms.append(f"{k}A")
        else:
            terms.append(f"{k} {disp}")
    return " ⊕ ".join(terms)


# The direct-sum split by one integral projection per set of ray-basis
# positions, the reference for the split test of cones.direct_sum_decompose.


def direct_sum_by_projection(c):
    """Finest decomposition of c as a lattice direct sum of lower cones.

    Returns the indecomposable factors (each in coordinates of a lattice
    basis of its span), sorted by decreasing dimension then index; a
    singleton list when c is irreducible.

    Every split partitions the rays of a basis b (the first d independent
    rays), so it is a set s of basis positions. With D = det b and
    a = adj b, x = (x a) b / D, and s splits Z^d iff every ray's support in
    x a lies inside s or outside it and the projection a diag(1_s) b / D
    onto span(s) along the rest is integral. Splitting sets are closed
    under complement and intersection, so the factors are the atoms: the
    smallest splitting set holding the first unplaced position, by size.
    """
    d = c.dim
    b = [c.rays[i] for i in islice(la.independent(c.rays), d)]
    big_d = la.det(b)
    a = la.adjugate(b)
    supports = [sum(1 << j for j, x in enumerate(la.vec_mat(r, a)) if x) for r in c.rays]

    def projection(s):  # D * p_s
        return [[sum(a[i][j] * b[j][k] for j in s) for k in range(d)] for i in range(d)]

    def splits(s):
        mask = sum(1 << j for j in s)
        return all(t & mask in (0, t) for t in supports) and not any(
            x % big_d for row in projection(s) for x in row
        )

    atoms, rest = [], list(range(d))
    while rest:
        found = ((rest[0], *x) for n in range(len(rest) - 1) for x in combinations(rest[1:], n))
        atom = next((s for s in found if splits(s)), rest)
        atoms.append(atom)
        rest = [j for j in rest if j not in atom]
    if len(atoms) == 1:
        return [c]

    factors = []
    for s in atoms:
        mask = sum(1 << j for j in s)
        # the columns of p_s span the integer functionals vanishing on the
        # rest, so their Hermite basis gives lattice coordinates on span(s)
        p = la.transpose([[x // big_d for x in row] for row in projection(s)])
        k = [row for row in la.row_hnf(p) if any(row)]
        part = [r for r, t in zip(c.rays, supports) if t & mask]
        factors.append(cone_from_rays([mat_vec(k, r) for r in part]))
    return sorted(factors, key=lambda f: (-f.dim, index(f), canonical_key(f)))


def reducibility_of(factors):
    """A class's reducibility from factor cones sorted by decreasing
    dimension, then index, then key, as :func:`direct_sum_by_projection`
    returns them: each named by the class that :func:`classify._factor_name`
    finds for it, none when there is one factor."""
    if len(factors) == 1:
        return ()
    return tuple(_factor_name(f).name for f in factors)


def factor_summary(factors):
    """Sorted (dim, rays, facets, I, I*, key) of direct-sum factors: equal
    for equal factorizations, whatever coordinates each factor is in."""
    return sorted(
        (f.dim, len(f.rays), len(f.facets), index(f), dual_index(f), canonical_key(f))
        for f in factors
    )


# The per-combination matrix builder, the reference for
# classify.enumerate_hnf, which builds each row once per diagonal.


def enumerate_hnf(d, idx):
    """The HNF presentations of index idx, sorted: for each diagonal and
    each combination of coprime row heads, every row assembled anew."""
    results = []
    for diag in _ordered_factorizations(idx, d):
        per_row = [
            [head for head in product(range(di), repeat=i) if gcd(di, *head) == 1]
            for i, di in enumerate(diag)
        ]
        for combo in product(*per_row):
            results.append(tuple(combo[i] + (diag[i],) + (0,) * (d - 1 - i) for i in range(d)))
    results.sort()
    return results
