"""Exact integer vectors, matrices, and integer normal forms.

Vectors are tuples of Python ints, matrices are tuples of row tuples.
Python's arbitrary-precision ints make every operation exact; all
functions here are pure.

The determinant and the cofactor normal take closed forms up to order
4, where most of the library's matrices fall: :func:`det` by cofactor
expansion (Bareiss elimination above), :func:`normal` as (-a1, a0), the
cross product and its 4-D analogue. The lattice index of a square
matrix is its |det|. Beside them, two eliminations carry the kernel:
the greedy fraction-free echelon of :func:`independent` (rank, and
every greedy basis the other modules pick) and the Hermite form
:func:`row_hnf` (column forms, the other lattice indices and Smith
forms). Its column step is one pass down the column with one
exact-quotient or extended-gcd 2x2 unimodular row combination per row
(Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.4.5).
The row Hermite form of a matrix is unique, so the combinations the
step picks never show in a result.

One walk lists GL(d,Z) orbits of column HNFs: the d! row orders of a
square nonsingular matrix in plain-changes order (Steinhaus-Johnson-
Trotter, Johnson 1963), each one adjacent row swap from the one before,
the form repaired after each swap with one 2x2 unimodular fix of two
columns (:func:`_orbit_repairs`). ``_hnf_walk`` walks from a matrix in
column HNF, as ``classify``'s enumerated matrices are, and lists the
class orbits. :func:`least_images`, the canonical-key search over any
rows spanning Q^d, walks each nonsingular d-subset of the rows the same
way, the other rows riding along in every column operation, and yields
each image whose sorted rows are below all before it, cutting an image
unsorted when its least row is above the last yield's least row, and
``cones.canonical_key`` keys cones by it, direct-sum factors included.
The extended Euclid, :func:`xgcd`, is the package's only one: the column
step, the walk's fix and ``surface``'s 2-D standard form take their
Bezout pairs from it. Adjugates come from cofactor normals. Direct sums
are read off column HNFs by ``cones.direct_sum_decompose``, the
package's one direct-sum rule.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import index as as_int, mul

from .errors import NotFullRank, NotInteger, NotSquare, RankDeficient, Singular, ZeroVector

Vec = tuple
Mat = tuple


def vec(entries) -> Vec:
    """The entries as a tuple of ints; raises NotInteger for an entry that
    is not an integer type (a float, Fraction or str is never rounded)."""
    try:
        return tuple(map(as_int, entries))
    except TypeError:
        raise NotInteger(f"entries must be integers, got {entries!r}") from None


def mat(rows) -> Mat:
    return tuple(vec(row) for row in rows)


def vec_gcd(v) -> int:
    return gcd(*v)


def xgcd(x, y):
    """(g, s, t) with g = s*x + t*y and |g| = gcd(x, y), by extended Euclid.

    The one extended Euclid of the package: the Hermite step's 2x2
    combination, the orbit walk's 2x2 fix and the 2-D standard form's
    Bezout pair. g takes the sign the floor-division remainders leave, so
    callers that need a positive gcd flip it.
    """
    g, h, s0, s1, t0, t1 = x, y, 1, 0, 0, 1
    while h:
        q = g // h
        g, h, s0, s1, t0, t1 = h, g - q * h, s1, s0 - q * s1, t1, t0 - q * t1
    return g, s0, t0


def primitive(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ZeroVector("cannot primitivize the zero vector")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a, b) -> int:
    return sum(map(mul, a, b))


def identity(d) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def transpose(m) -> Mat:
    return tuple(tuple(col) for col in zip(*m))


def matmul(a, b) -> Mat:
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def vec_mat(v, m) -> Vec:
    return tuple(dot(v, col) for col in zip(*m))


def scale(v, c) -> Vec:
    return tuple(c * x for x in v)


def vadd(a, b) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def det(m) -> int:
    """Exact determinant: closed cofactor forms for orders 1-4, and
    fraction-free (Bareiss) elimination above.

    Order 4 expands along row 0, its cofactors being the :func:`normal` of
    the other rows, over the six 2x2 minors of the last two. Bareiss runs
    with row pivoting, which keeps all intermediate values integral.
    """
    n = len(m)
    if list(map(len, m)).count(n) != n:  # any() over a generator costs more
        raise NotSquare("determinant requires a square matrix")
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:  # normal(m[1:]) . x == det(m[1:] + [x]), three row swaps from m
        return -dot(normal(m[1:], 4), m[0])
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate(m) -> Mat:
    """Adjugate matrix: m @ adjugate(m) == det(m) * identity.

    Column i is the cofactor normal of the other rows, signed so that row
    i of m takes the value det(m) on it.
    """
    m = mat(m)
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquare("adjugate requires a square matrix")
    if det(m) == 0:
        raise Singular("adjugate of a singular matrix")
    return transpose([scale(normal(m[:i] + m[i + 1 :], n), (-1) ** (n - 1 - i)) for i in range(n)])


def normal(rows, d) -> Vec:
    """Cofactor normal of d - 1 vectors in Z^d: n . x == det(rows + [x]).

    Entry j is the signed minor of rows with column j deleted, so n is zero
    iff rows are dependent, and otherwise orthogonal to each of them. The
    closed forms: (-a1, a0) for d = 2, the cross product for d = 3, and for
    d = 4 the 3x3 minors expanded along the first row over the six 2x2
    minors of the last two. Other d take each minor from :func:`det`.
    """
    if d == 2:
        ((a0, a1),) = rows
        return (-a1, a0)
    if d == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    if d == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        s01, s02, s03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        s12, s13, s23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        return (
            a2 * s13 - a1 * s23 - a3 * s12,
            a0 * s23 - a2 * s03 + a3 * s02,
            a1 * s03 - a0 * s13 - a3 * s01,
            a0 * s12 - a1 * s02 + a2 * s01,
        )
    sign = -1 if d % 2 == 0 else 1  # (-1) ** (d - 1), the sign of entry 0
    n = []
    for j in range(d):
        n.append(sign * det([row[:j] + row[j + 1 :] for row in rows]))
        sign = -sign
    return tuple(n)


def independent(rows):
    """Yield, in order, the index of each row independent of the rows
    yielded before it: the greedy basis of the rows' span over Q.

    One incremental fraction-free echelon: each row is reduced against the
    rows kept so far, kept row k being zero at the pivots of rows < k, and
    it is kept iff something nonzero is left. The generator stops once the
    echelon spans the whole space.
    """
    echelon = []  # (pivot column, primitive row)
    for i, v in enumerate(rows):
        for p, row in echelon:
            if v[p]:
                v = tuple(row[p] * x - v[p] * y for x, y in zip(v, row))
        if any(v):
            echelon.append((next(j for j, x in enumerate(v) if x), primitive(v)))
            yield i
            if len(echelon) == len(v):
                return


def rank(m) -> int:
    """Rank over Q: the number of rows :func:`independent` keeps."""
    return sum(1 for _ in independent(m))


def _pivot(a, r, c):
    """Column c's step of :func:`row_hnf` at row r, on row lists in place;
    False, leaving a alone, when the column is zero from row r down.

    One pass down the column. The entry x of least absolute value from
    row r down (the lowest such row on a tie) moves to row r, and each
    nonzero entry y below it is cleared by one 2x2 unimodular combination
    of the two rows: the exact quotient when x divides y; otherwise the
    extended-gcd step, in which g = s*x + t*y takes row r to s*row_r +
    t*row_i and row i to (x/g)*row_i - (y/g)*row_r (determinant 1), and
    x becomes g. Then the pivot row's sign makes the pivot positive, so
    the pivot is the gcd of the column from row r down, the entries below
    it are zero, and the rows above are reduced into [0, pivot). The row
    Hermite form of a matrix is unique, so the combinations chosen here
    never show in what :func:`row_hnf` or :func:`least_images` return."""
    i0, x = None, 0
    for i in range(r, len(a)):
        y = a[i][c]
        if y and (not x or abs(y) < abs(x)):
            i0, x = i, y
    if i0 is None:
        return False
    a[r], a[i0] = a[i0], a[r]
    top = a[r]
    for i in range(r + 1, len(a)):
        row = a[i]
        y = row[c]
        if not y:
            continue
        if y % x == 0:
            q = y // x
            a[i] = [v - q * u for u, v in zip(top, row)]
            continue
        g, s, t = xgcd(x, y)
        xg, yg = x // g, y // g
        top, a[i] = (
            [s * u + t * v for u, v in zip(top, row)],
            [xg * v - yg * u for u, v in zip(top, row)],
        )
        x = g
    if x < 0:
        top, x = [-u for u in top], -x
    a[r] = top
    for i in range(r):
        q = a[i][c] // x
        if q:
            a[i] = [v - q * u for u, v in zip(top, a[i])]
    return True


def row_hnf(m):
    """Row-style Hermite form h of m, equal to u @ m for some unimodular u.

    h is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot). The row lattice of h equals that of m.
    """
    a = [list(row) for row in m]
    r = 0
    for c in range(len(a[0]) if a else 0):
        r += _pivot(a, r, c)
    return mat(a)


@lru_cache(maxsize=None)
def _plain_changes(d):
    """The adjacent swaps of plain changes (Steinhaus-Johnson-Trotter):
    swap i exchanges the items at positions i and i + 1, and the d! - 1
    swaps, made in turn, visit every order of d items once. The swaps of
    d items interleave those of the first d - 1 with sweeps of the last
    item, from position d - 1 down to 0, then back up, and so on; while
    it stands at 0 the others sit one position higher. Built once per d."""
    swaps = []
    for n in range(2, d + 1):
        down, up = list(range(n - 2, -1, -1)), list(range(n - 1))
        out = list(down)
        for k, j in enumerate(swaps):
            out.append(j + 1 - k % 2)
            out += up if k % 2 == 0 else down
        swaps = out
    return tuple(swaps)


def _hnf_walk(h):
    """Iterate over the column HNF of each row order of h, a square
    nonsingular matrix in column HNF, the d! orders in plain-changes order
    (:func:`_plain_changes`), h first: the HNF presentations of h's class,
    one per order (:func:`_orbit_repairs`)."""
    for a in _orbit_repairs([list(row) for row in h], len(h)):
        yield tuple(map(tuple, a))


def _orbit_repairs(h, d):
    """Walk the d! orders of the first d rows of h, row lists in column
    HNF on those rows, in plain-changes order, yielding h itself, live,
    before the first swap and after each repair. The rows past d ride
    along: every column operation acts on them too, so each yield is the
    column HNF of the first d rows, in their current order, stacked over
    the other rows in theirs.

    The walk repairs the form in place after each swap of rows i and
    i + 1. The form was lower triangular, so the swap leaves one entry
    b > 0 above the diagonal, at (i, i + 1), and a = entry (i, i) with
    0 <= a < b. If a = 0, swapping columns i and i + 1 gives the new form
    outright: each entry stays reduced against the diagonal of its row.
    Otherwise, with (g, s, t) = ``xgcd(a, b)``, columns c_i, c_j
    (j = i + 1) become s c_i + t c_j and (b/g) c_i - (a/g) c_j, a
    unimodular map that takes row i to (g, 0) and gives row j the
    positive diagonal (b/g) times the old (i, i). Then columns j, i,
    0..i-1, in that order, are reduced against columns i..d-1: only their
    entries in rows i and below can have been left unreduced."""
    yield h
    for i in _plain_changes(d):
        h[i], h[i + 1] = h[i + 1], h[i]
        a, b = h[i][i], h[i][i + 1]
        if not a:
            for row in h[i:]:
                row[i], row[i + 1] = row[i + 1], row[i]
        else:
            g, s, t = xgcd(a, b)
            ag, bg = a // g, b // g
            for row in h[i:]:
                x, y = row[i], row[i + 1]
                row[i], row[i + 1] = s * x + t * y, bg * x - ag * y
            for c in (i + 1, i, *range(i)):
                for r in range(max(c + 1, i), d):
                    q = h[r][c] // h[r][r]
                    if q:
                        for row in h[r:]:
                            row[c] -= q * row[r]
        yield h


def _basis_starts(rows):
    """Yield, for each nonsingular d-subset s of the rows in
    ``itertools.combinations`` order, the column HNF of the subset stacked
    over the other rows in input order, as row lists: its walk's start. The
    search runs depth first on rows transposed, pivoting subset row k into
    column k (:func:`_pivot`, which never changes a row list in place, on
    a shallow copy), so a common prefix is eliminated once, and a prefix
    of dependent rows cuts its subtree. Its stack holds (columns, s, j):
    row j is still to be pivoted in after the prefix s, the least j on
    top, so each pivot is made only when its subtree is reached."""
    d, n = len(rows[0]), len(rows)
    stack = [([list(col) for col in zip(*rows)], (), j) for j in range(n - d, -1, -1)]
    while stack:
        a, s, j = stack.pop()
        a = a[:]
        if not _pivot(a, len(s), j):
            continue
        s += (j,)
        if len(s) < d:
            stack += [(a, s, i) for i in range(n - d + len(s), j, -1)]
            continue
        cols = list(zip(*a))
        yield [list(cols[i]) for i in s] + [list(c) for i, c in enumerate(cols) if i not in s]


def least_images(rows):
    """Search the ordered bases among rows, which span Q^d, for the image
    with the least sorted rows: an image is rows @ u, basis rows first and
    the others in input order, u putting the basis in column HNF. Yield
    each image whose sorted rows are strictly below those of every image
    yielded before it; the last yield has the least sorted rows, and there
    is none when rows have no basis.

    Each nonsingular d-subset of the rows (:func:`_basis_starts`) walks
    its d! orders (:func:`_orbit_repairs`), the other rows riding along.
    An image whose least row is above the least row of the last yield is
    strictly larger, and is cut before its sort. The least image is never
    cut and is below every image before it, so it is always yielded: a
    caller that knows the least sorted rows may stop at the yield that
    has them."""
    if not rows:
        return
    d = len(rows[0])
    least = best = None
    for h in _basis_starts(rows):
        for a in _orbit_repairs(h, d):
            if least is not None and min(a) > least:
                continue
            key = tuple(sorted(map(tuple, a)))
            if best is None or key < best:
                best, least = key, list(key[0])
                yield tuple(map(tuple, a))


def column_hnf(m):
    """Column-style Hermite form h of m, equal to m @ u for some unimodular u.

    For square nonsingular input, h is lower triangular with positive
    diagonal and each off-diagonal entry reduced into [0, diagonal), so the
    diagonal entry is the unique greatest entry of its row.
    """
    ht = row_hnf(transpose(m))
    if any(not any(row) for row in ht):
        raise RankDeficient("column HNF requires full column rank")
    return transpose(ht)


def lattice_index(m) -> int:
    """Index in Z^d of the subgroup generated by the rows of m: |det(m)|
    when m is square, else the product of the pivots of its row HNF."""
    d = len(m[0]) if m else 0
    if len(m) == d:
        index = abs(det(m))
        if not index:
            raise NotFullRank("rows do not span Q^d")
        return index
    h = row_hnf(m)
    pivots = []
    for row in h:
        nz = next((x for x in row if x != 0), None)
        if nz is not None:
            pivots.append(nz)
    if len(pivots) < d:
        raise NotFullRank("rows do not span Q^d")
    index = 1
    for p in pivots:
        index *= p
    return index


def _hnf_augmented(a, t):
    """row_hnf([a | t]) split back into (h, u @ t), where h = u @ a is the
    Hermite form of a: past the a block the elimination only combines rows
    whose a block is zero, so that block comes out as row_hnf(a)."""
    k = len(a[0]) if a else 0
    ht = row_hnf(tuple(x + y for x, y in zip(a, t)))
    return tuple(row[:k] for row in ht), tuple(row[k:] for row in ht)


def snf(m):
    """Smith normal form: returns (s, u, v) with s = u @ m @ v.

    u and v are unimodular; s is diagonal with nonnegative entries and
    each diagonal entry divides the next. Column and row Hermite forms
    alternate until the matrix is diagonal (Kannan-Bachem 1979); a
    diagonal entry that does not divide a later one gets the later row
    added to it, and the rounds go on. Each round puts the column form
    first: a row form first would take the added row straight back out.
    """
    n = len(m)
    d = len(m[0]) if n else 0
    u, v = identity(n), identity(d)
    a = mat(m)
    if not (n and d):  # transposing would lose the shape
        return a, u, v
    while True:
        at, vt = _hnf_augmented(transpose(a), transpose(v))
        a, v = transpose(at), transpose(vt)
        a, u = _hnf_augmented(a, u)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        diag = [a[i][i] for i in range(min(n, d))]
        # zero entries come last, so a zero diag[i] leaves nothing to divide
        offender = next(
            ((i, j) for j in range(len(diag)) for i in range(j) if diag[i] and diag[j] % diag[i]),
            None,
        )
        if offender is None:
            return a, u, v
        i, j = offender
        a = a[:i] + (vadd(a[i], a[j]),) + a[i + 1 :]
        u = u[:i] + (vadd(u[i], u[j]),) + u[i + 1 :]
