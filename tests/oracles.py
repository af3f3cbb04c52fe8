"""Reference routes that faster library code is checked against."""

from itertools import permutations

from nashcones import intlinalg as la
from nashcones.cones import cone_from_facets


def localize_by_tight_facets(p, v):
    """The tangent cone of p at the vertex v as a double description of
    its own: the cone of the inequalities of p tight at v."""
    tight = [n for n, b in p.inequalities if la.dot(n, v) == b]
    return cone_from_facets(tight)


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


def hnf_images(rows, basis=None):
    """What :func:`intlinalg.hnf_images` yields, from its definition: for
    each ordered basis among rows, in lexicographic order of row indices,
    the column Hermite form of the basis rows stacked over the others,
    kept only if it starts with ``basis`` when that is given."""
    d = len(rows[0]) if rows else 0
    for p in permutations(range(len(rows)), d):
        if la.det([rows[i] for i in p]):
            stacked = [rows[i] for i in p] + [row for i, row in enumerate(rows) if i not in p]
            h = la.transpose(row_hnf(la.transpose(stacked)))
            if basis is None or h[:d] == basis:
                yield h
