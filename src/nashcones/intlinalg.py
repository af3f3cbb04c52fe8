"""Exact integer vectors, matrices, and integer normal forms.

Vectors are tuples of Python ints, matrices are tuples of row tuples.
Python's arbitrary-precision ints make every operation exact; all
functions here are pure.
"""

from __future__ import annotations

from math import gcd

from .errors import NotFullRank, NotSquare, RankDeficient, Singular, ZeroVector

Vec = tuple
Mat = tuple


def vec(entries) -> Vec:
    return tuple(int(x) for x in entries)


def mat(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ZeroVector("cannot primitivize the zero vector")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def identity(d) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def transpose(m) -> Mat:
    return tuple(tuple(col) for col in zip(*m))


def matmul(a, b) -> Mat:
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(m, v) -> Vec:
    return tuple(dot(row, v) for row in m)


def vec_mat(v, m) -> Vec:
    return tuple(dot(v, col) for col in zip(*m))


def scale(v, c) -> Vec:
    return tuple(c * x for x in v)


def vadd(a, b) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def det(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Dimensions 1-3 use the closed cofactor forms; larger matrices run
    Bareiss with row pivoting, which keeps all intermediate values integral.
    """
    n = len(m)
    if any(len(row) != n for row in m):
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
    """Adjugate matrix: m @ adjugate(m) == det(m) * identity."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquare("adjugate requires a square matrix")
    if det(m) == 0:
        raise Singular("adjugate of a singular matrix")
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return mat(adj)


def normal(rows, d) -> Vec:
    """Cofactor normal of d - 1 vectors in Z^d: n . x == det(rows + [x]).

    Entry j is the signed minor of rows with column j deleted, so n is zero
    iff rows are dependent, and otherwise orthogonal to each of them.
    """
    sign = -1 if d % 2 == 0 else 1  # (-1) ** (d - 1), the sign of entry 0
    n = []
    for j in range(d):
        n.append(sign * det([row[:j] + row[j + 1 :] for row in rows]))
        sign = -sign
    return tuple(n)


def rank(m) -> int:
    """Rank over Q, fraction-free elimination with full pivoting."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 0
    d = len(a[0])
    r = 0
    prev = 1
    for c in range(d):
        pivot_row = next((i for i in range(r, n) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][c]
        for i in range(r + 1, n):
            aic = a[i][c]
            for j in range(c + 1, d):
                a[i][j] = (a[i][j] * pivot - aic * a[r][j]) // prev
            a[i][c] = 0
        prev = pivot
        r += 1
        if r == n:
            break
    return r


def _negate_row(rows, i):
    rows[i] = [-x for x in rows[i]]


def _sub_row(rows, i, j, q):
    if q:
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]


def row_hnf(m):
    """Row-style Hermite form h of m, equal to u @ m for some unimodular u.

    h is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot). The row lattice of h equals that of m.
    """
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return ()
    cols = len(a[0])
    r = 0
    for c in range(cols):
        if r == n:
            break
        if all(a[i][c] == 0 for i in range(r, n)):
            continue
        while True:
            i0 = min((i for i in range(r, n) if a[i][c] != 0), key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            if a[r][c] < 0:
                _negate_row(a, r)
            pivot = a[r][c]
            done = True
            for i in range(r + 1, n):
                if a[i][c]:
                    _sub_row(a, i, r, a[i][c] // pivot)
                    if a[i][c]:
                        done = False
            if done:
                break
        pivot = a[r][c]
        for i in range(r):
            _sub_row(a, i, r, a[i][c] // pivot)
        r += 1
    return mat(a)


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
    """Index in Z^d of the subgroup generated by the rows of m."""
    d = len(m[0]) if m else 0
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


def snf(m):
    """Smith normal form: returns (s, u, v) with s = u @ m @ v.

    u and v are unimodular; s is diagonal with nonnegative entries and
    each diagonal entry divides the next.
    """
    a = [list(row) for row in m]
    n = len(a)
    d = len(a[0]) if n else 0
    u = [list(row) for row in identity(n)]
    v = [list(row) for row in identity(d)]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def sub_col(j, k, q):
        if q:
            for row in a:
                row[j] -= q * row[k]
            for row in v:
                row[j] -= q * row[k]

    def negate_col(j):
        for row in a:
            row[j] = -row[j]
        for row in v:
            row[j] = -row[j]

    t = 0
    while t < min(n, d):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, d) if a[i][j] != 0]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            if a[t][t] < 0:
                _negate_row(a, t)
                _negate_row(u, t)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // pivot
                    _sub_row(a, i, t, q)
                    _sub_row(u, i, t, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, d):
                if a[t][j]:
                    q = a[t][j] // pivot
                    sub_col(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            break
        pivot = a[t][t]
        offender = next(
            ((i, j) for i in range(t + 1, n) for j in range(t + 1, d) if a[i][j] % pivot != 0),
            None,
        )
        if offender is not None:
            i, _ = offender
            _sub_row(a, t, i, -1)
            _sub_row(u, t, i, -1)
            continue
        t += 1
    for j in range(min(n, d)):
        if a[j][j] < 0:
            negate_col(j)
    return mat(a), mat(u), mat(v)


def kernel_basis(m):
    """Basis rows of the integer kernel {x in Z^d : m @ x == 0}.

    The basis is saturated (its rows are columns of the unimodular Smith
    transform): every integer vector of the rational kernel is an integer
    combination of it. Direct-sum splitting in ``cones`` relies on this.
    """
    n = len(m)
    d = len(m[0]) if n else 0
    if n == 0:
        return identity(d)
    s, _, v = snf(m)
    free = [j for j in range(d) if j >= n or s[j][j] == 0]
    return tuple(tuple(v[i][j] for i in range(d)) for j in free)

