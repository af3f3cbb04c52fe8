"""Reference routes that faster library code is checked against, and the
random unimodular maps the equivalence tests draw."""

from itertools import permutations

from nashcones import intlinalg as la
from nashcones.classify import _display
from nashcones.cones import cone_from_facets
from nashcones.nash import MEMOIZED
from nashcones.serialize import _subtree_shape


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
    """What :func:`intlinalg.hnf_images` yields, from its definition: for
    each ordered basis among rows, in lexicographic order of row indices,
    the column Hermite form of the basis rows stacked over the others."""
    d = len(rows[0]) if rows else 0
    for p in permutations(range(len(rows)), d):
        if la.det([rows[i] for i in p]):
            stacked = [rows[i] for i in p] + [row for i, row in enumerate(rows) if i not in p]
            yield la.transpose(row_hnf(la.transpose(stacked)))


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
    assert la.mat_vec(first, r1) == (1, 0)
    e, f = la.mat_vec(first, r2)
    assert f > 0
    shear = ((1, -(e // f)), (0, 1))
    return (e - (e // f) * f, f), la.matmul(shear, first)


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
