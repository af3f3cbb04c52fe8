import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from nashcones import intlinalg as la
from nashcones.classify import classify, enumerate_hnf
from nashcones.errors import NotFullRank, NotSquare, RankDeficient, Singular, ZeroVector


# ---------------------------------------------------------------- oracles


def det_cofactor(m):
    """Independent determinant oracle: textbook cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def rank_fraction(m):
    """Independent rank oracle: Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    if n == 0:
        return 0
    d = len(a[0])
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, n):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def random_matrix(rng, n, d, bound=20):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(n))


def random_nonsingular(rng, n, bound=20):
    while True:
        m = random_matrix(rng, n, n, bound)
        if det_cofactor(m) != 0:
            return m


# ---------------------------------------------------------------- primitive


def test_primitive_examples():
    assert la.primitive((0, 2, -2)) == (0, 1, -1)
    assert la.primitive((1, 1, 2)) == (1, 1, 2)
    # gcd computed directly: gcd(4, 6, 10) == 2
    assert gcd(4, gcd(6, 10)) == 2
    assert la.primitive((4, 6, 10)) == (2, 3, 5)


def test_primitive_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        la.primitive((0, 0, 0))


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6))
def test_primitive_properties(entries):
    v = tuple(entries)
    if all(x == 0 for x in v):
        with pytest.raises(ZeroVector):
            la.primitive(v)
        return
    p = la.primitive(v)
    assert la.vec_gcd(p) == 1
    g = la.vec_gcd(v)
    assert tuple(x * g for x in p) == v


def test_vec_gcd_of_nothing_is_zero():
    assert la.vec_gcd(()) == 0
    assert la.vec_gcd(iter([0, -4, 6])) == 2
    with pytest.raises(ZeroVector):
        la.primitive(())


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
@example(0, 0)
@example(0, 5)
@example(-5, 0)
@example(0, -5)
@example(-4, 6)
@example(4, -6)
@example(-4, -6)
@example(-7, 7)
def test_xgcd_bezout_identity(x, y):
    g, s, t = la.xgcd(x, y)
    assert g == s * x + t * y
    assert abs(g) == gcd(x, y)


# ---------------------------------------------------------------- det


def test_det_examples():
    assert la.det(la.identity(3)) == 1
    assert la.det(((1, 0, 0), (0, 1, 0), (1, 1, 2))) == 2
    assert la.det(((1, 0, 0), (1, 2, 0), (1, 0, 2))) == 4


def test_det_not_square():
    for m in (((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4, 5)), ((1, 2, 3), (4, 5), (6, 7, 8)), ((),)):
        with pytest.raises(NotSquare):
            la.det(m)


def test_det_matches_cofactor_oracle():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert la.det(m) == det_cofactor(m)


def cofactor_normal(rows, d):
    """Independent normal oracle: entry j is (-1) ** (d - 1 + j) times the
    cofactor-expanded minor of rows with column j deleted."""
    return tuple(
        (-1) ** (d - 1 + j) * det_cofactor([row[:j] + row[j + 1 :] for row in rows])
        for j in range(d)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_det_and_normal_near_2_to_70(n):
    # entries within 9 of +-2^70: every product overflows a machine word
    # and the determinant is mostly cancellation, so each closed form and
    # the Bareiss route must stay exact
    rng = random.Random(n)
    big = 2**70
    for _ in range(40):
        m = tuple(
            tuple(rng.choice((-big, big)) + rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
        )
        assert la.det(m) == det_cofactor(m)
        rows = list(m[:-1])
        nv = la.normal(rows, n)
        assert nv == cofactor_normal(rows, n)
        assert la.dot(nv, m[-1]) == la.det(m)
        assert all(la.dot(nv, row) == 0 for row in rows)


# ---------------------------------------------------------------- adjugate


def test_adjugate_examples():
    assert la.adjugate(la.identity(4)) == la.identity(4)
    m = ((1, 0, 0), (0, 1, 0), (1, 1, 2))
    adj = la.adjugate(m)
    # columns (2,0,-1), (0,2,-1), (0,0,1)
    assert la.transpose(adj) == ((2, 0, -1), (0, 2, -1), (0, 0, 1))
    a, b, c, d = 3, -5, 7, 2
    assert la.adjugate(((a, b), (c, d))) == ((d, -b), (-c, a))


def test_adjugate_singular_rejected():
    with pytest.raises(Singular):
        la.adjugate(((1, 2), (2, 4)))


def test_adjugate_identity_product():
    rng = random.Random(2)
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = random_nonsingular(rng, n, bound=9)
        d = la.det(m)
        expected = tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))
        assert la.matmul(m, la.adjugate(m)) == expected


# ---------------------------------------------------------------- rank


def test_rank_matches_fraction_oracle():
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(1, 6)
        d = rng.randint(1, 6)
        m = random_matrix(rng, n, d, bound=6)
        assert la.rank(m) == rank_fraction(m)


# ---------------------------------------------------------------- HNF


def check_column_hnf_shape(h):
    n = len(h)
    d = len(h[0])
    assert n == d
    for i in range(d):
        assert h[i][i] > 0
        for j in range(d):
            if j > i:
                assert h[i][j] == 0
            elif j < i:
                assert 0 <= h[i][j] < h[i][i]


def column_transform(m, h):
    """The u with m @ u == h for square nonsingular m: adj(m) @ h / det(m)."""
    dt = la.det(m)
    num = la.matmul(la.adjugate(m), h)
    assert all(x % dt == 0 for row in num for x in row)
    return tuple(tuple(x // dt for x in row) for row in num)


def row_transform(m, h):
    """The u with u @ m == h for square nonsingular m: h @ adj(m) / det(m)."""
    dt = la.det(m)
    num = la.matmul(h, la.adjugate(m))
    assert all(x % dt == 0 for row in num for x in row)
    return tuple(tuple(x // dt for x in row) for row in num)


def check_same_row_lattice(m, h):
    """Stacked over m, either way round, h is already the row HNF."""
    zeros = tuple((0,) * len(h[0]) for _ in m)
    assert la.row_hnf(h + m) == h + zeros
    assert la.row_hnf(m + h) == h + zeros


def test_column_hnf_examples():
    for d in (1, 2, 4):
        h = la.column_hnf(la.identity(d))
        assert h == la.identity(d)
    m = ((1, 0, 0), (1, 2, 0), (1, 0, 2))
    h = la.column_hnf(m)
    assert h == m
    assert column_transform(m, h) == la.identity(3)
    m = ((4, 7), (1, 2))
    h = la.column_hnf(m)
    assert h == la.identity(2)
    assert abs(la.det(column_transform(m, h))) == 1


def test_column_hnf_rank_deficient():
    with pytest.raises(RankDeficient):
        la.column_hnf(((1, 2), (2, 4)))


def test_column_hnf_random_properties():
    rng = random.Random(4)
    for _ in range(300):
        d = rng.randint(1, 5)
        m = random_nonsingular(rng, d)
        h = la.column_hnf(m)
        assert abs(la.det(column_transform(m, h))) == 1
        check_column_hnf_shape(h)
        assert la.column_hnf(h) == h


def test_column_hnf_is_coset_invariant():
    # same canonical form for m and m @ w with w unimodular
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(2, 4)
        m = random_nonsingular(rng, d)
        w = oracles.random_unimodular(rng, d, steps=12, flip=0.3)
        assert la.column_hnf(m) == la.column_hnf(la.matmul(m, w))


def test_row_hnf_examples():
    h = la.row_hnf(((2, 0), (0, 2)))
    assert h == ((2, 0), (0, 2))
    h = la.row_hnf(((1, 0, 0), (0, 1, 0), (2, 4, 7), (1, 1, 2)))
    nonzero = [row for row in h if any(row)]
    pivots = [next(x for x in row if x) for row in nonzero]
    assert pivots == [1, 1, 1]
    m = ((3, 6),)
    h = la.row_hnf(m)
    assert h == ((3, 6),)
    check_same_row_lattice(m, h)


def test_row_hnf_random_properties():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 5)
        d = rng.randint(1, 5)
        m = random_matrix(rng, n, d, bound=9)
        h = la.row_hnf(m)
        # row lattice preserved: each is an integer combination of the other
        check_same_row_lattice(m, h)
        assert la.row_hnf(h) == h
        if n == d and la.det(m) != 0:
            assert abs(la.det(row_transform(m, h))) == 1
            # square nonsingular: upper triangular, |det| on the diagonal
            assert all(h[i][j] == 0 for i in range(n) for j in range(i))
            assert all(h[i][i] > 0 for i in range(n))
            assert prod(h[i][i] for i in range(n)) == abs(la.det(m))


def walk_images(rows):
    """Every image the key search behind :func:`intlinalg.least_images`
    walks, in order: each nonsingular subset's walk with the other rows
    riding along."""
    for h in la._basis_starts(rows):
        for a in la._orbit_repairs(h, len(rows[0])):
            yield tuple(map(tuple, a))


def test_hnf_images_of_square_matrix_are_column_hnfs_of_permutations():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 4)
        m = random_nonsingular(rng, d, bound=9)
        images = list(la._hnf_walk(la.column_hnf(m)))
        assert len(images) == factorial(d)
        assert sorted(images) == sorted(la.column_hnf(p) for p in permutations(m))


def test_plain_changes_visit_every_order_once():
    for d in range(1, 7):
        order, orders = list(range(d)), [tuple(range(d))]
        for i in la._plain_changes(d):
            assert 0 <= i < d - 1
            order[i], order[i + 1] = order[i + 1], order[i]
            orders.append(tuple(order))
        assert len(orders) == len(set(orders)) == factorial(d)
        assert orders == list(oracles.plain_changes(d))


@st.composite
def orbit_inputs(draw):
    """A square nonsingular matrix of order 1..5, entries in +-9 or in
    +-10**6, often with zero entries (then some swap of the walk meets
    a zero diagonal entry), times a random unimodular map, so that the
    input is rarely in HNF."""
    d = draw(st.integers(1, 5))
    bound = draw(st.sampled_from((9, 10**6)))
    zeros = draw(st.floats(0, 0.7))
    rng = draw(st.randoms(use_true_random=False))
    m = [[0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
    assume(la.det(m))
    return la.matmul(m, oracles.random_unimodular(rng, d) if d > 1 else ((1,),))


@settings(max_examples=60, deadline=None)
@given(orbit_inputs())
@example(((2, 0, 0), (0, 3, 0), (0, 0, 5)))
@example(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
@example(((10**6, 1, 0), (-7, 0, 3), (0, 999_983, -2)))
def test_hnf_orbit_is_the_column_hnf_of_each_plain_changes_order(m):
    # image k is the column form of m's rows in the k-th plain-changes
    # order, from the remainder-loop row HNF of the transpose
    images = list(la._hnf_walk(la.column_hnf(m)))
    expected = [
        la.transpose(oracles.row_hnf(la.transpose([m[i] for i in order])))
        for order in oracles.plain_changes(len(m))
    ]
    assert images == expected


def test_class_orbits_partition_the_enumeration():
    # the dims 3-5 tables (dim 5 up to index 3): each enumerated HNF lies
    # in the orbit of exactly one class
    for d, top in ((3, 27), (4, 8), (5, 3)):
        for i in range(1, top + 1):
            enumerated = enumerate_hnf(d, i)
            orbits = [set(la._hnf_walk(cls.presentation)) for cls in classify(d, i)]
            assert sum(map(len, orbits)) == len(enumerated), (d, i)
            for m in enumerated:
                assert sum(m in orbit for orbit in orbits) == 1, m


def test_hnf_images_count_ordered_bases_with_repeated_and_dependent_rows():
    rng = random.Random(8)
    for _ in range(15):
        d = rng.randint(2, 4)
        m = random_nonsingular(rng, d, bound=9)
        extras = (m[0], la.vadd(m[0], m[1]), la.scale(m[1], -2), random_matrix(rng, 1, d)[0])
        for k in range(1, len(extras) + 1):
            rows = m + extras[:k]
            n = len(rows)
            # each nonsingular subset in combinations order, its orders
            # in plain-changes order
            bases = [
                tuple(s[i] for i in order)
                for s in combinations(range(n), d)
                if la.det([rows[i] for i in s])
                for order in oracles.plain_changes(d)
            ]
            ordered = [p for p in permutations(range(n), d) if la.det([rows[i] for i in p])]
            assert sorted(bases) == ordered
            images = list(walk_images(rows))
            assert len(images) == len(bases)
            for p, h in zip(bases, images):
                basis = tuple(rows[i] for i in p)
                rest = tuple(rows[i] for i in range(n) if i not in p)
                assert h[:d] == la.column_hnf(basis)
                assert h == la.column_hnf(basis + rest)


@st.composite
def hermite_inputs(draw):
    """An n x d matrix, n and d in 1..6, with entries in +-9 or in +-10**6,
    sometimes with a zero column or a repeated row; n < d gives a wide one."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bound = draw(st.sampled_from((9, 10**6)))
    m = [[draw(st.integers(-bound, bound)) for _ in range(d)] for _ in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, d - 1))
        for row in m:
            row[j] = 0
    if n > 1 and draw(st.booleans()):
        m[draw(st.integers(1, n - 1))] = list(m[0])
    return la.mat(m)


@settings(max_examples=60, deadline=None)
@given(hermite_inputs())
def test_hermite_forms_match_the_remainder_loop_oracle(m):
    # the row HNF is unique, and so is each image of the key search: the
    # extended-gcd step and the walk's repairs give the remainder loop's
    # forms, one image per ordered basis
    assert la.row_hnf(m) == oracles.row_hnf(m)
    assert sorted(walk_images(m)) == sorted(oracles.hnf_images(m))


@st.composite
def least_image_inputs(draw):
    """d in 1..5 and rows spanning Q^d with entries in +-4, negative ones
    included. Half the time the rows are closed under a coordinate swap
    or a coordinate's sign flip, a symmetry under which images tie on the
    least row; then up to two repeated, summed or negated rows and
    sometimes a zero row join, at most d + 3 rows in all (d + 2 for
    d = 5)."""
    d = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    rows = [tuple(draw(entry) for _ in range(d)) for _ in range(draw(st.integers(1, d + 1)))]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))

        def g(r):  # swap coordinates i and j, or flip the sign of i
            r = list(r)
            r[i], r[j] = (-r[i], -r[i]) if i == j else (r[j], r[i])
            return tuple(r)

        rows += [g(r) for r in rows if g(r) not in rows]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(draw(st.sampled_from((a, la.vadd(a, b), la.scale(a, -1)))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (0,) * d)
    rows = tuple(rows[: d + 3 - (d == 5)])
    assume(la.rank(rows) == d)
    return rows


@settings(max_examples=100, deadline=None)
@given(least_image_inputs())
@example(((0, 0), (0, 1), (1, -1), (1, 0), (-1, 1)))
@example(((1, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)))
def test_each_subset_walk_is_the_column_hnf_of_each_ordered_basis(rows):
    # subset by subset in combinations order, the walk with the other rows
    # riding yields the column HNF of the ordered basis stacked over the
    # others in input order, the orders in plain-changes order; over all
    # subsets, one image per ordered basis
    d, n = len(rows[0]), len(rows)
    starts = la._basis_starts(rows)
    walked = []
    for s in combinations(range(n), d):
        basis = [rows[i] for i in s]
        if not la.det(basis):
            continue
        rest = [row for i, row in enumerate(rows) if i not in s]
        images = [tuple(map(tuple, a)) for a in la._orbit_repairs(next(starts), d)]
        assert images == [
            la.transpose(oracles.row_hnf(la.transpose([basis[i] for i in order] + rest)))
            for order in oracles.plain_changes(d)
        ]
        walked += images
    assert next(starts, None) is None
    assert sorted(walked) == sorted(oracles.hnf_images(rows))


@settings(max_examples=200, deadline=None)
@given(least_image_inputs())
# d = 1, a later sign flip least; a later, smaller image tying on the
# first column's minimum; a later image sorting equal on other basis rows;
# tied least images, the walk's last yield not the first of the
# depth-first order over ordered bases
@example(((1,), (-1,), (3,)))
@example(((0, 1, -3), (-1, 0, -1), (1, 2, -2), (1, 0, 0)))
@example(((0, -3), (-1, 1), (-1, 2), (-3, 1)))
@example(((0, 0), (0, 1), (1, -1), (1, 0), (-1, 1)))
def test_least_image_sorts_to_the_least_oracle_image(rows):
    # each yield is an image and sorts strictly below the one before, and
    # the last has the least sorted rows of all images; which of several
    # tied images comes last is the walk's order, and no key reads it
    images = list(la.least_images(rows))
    keys = [tuple(sorted(h)) for h in images]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    oracle = set(oracles.hnf_images(rows))
    assert set(images) <= oracle
    assert keys[-1] == min(tuple(sorted(h)) for h in oracle)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=7).filter(any))
@example([0, 3, -2, 0, 2, -3])
@example([-1, 0, 4])
def test_least_image_on_one_column(column):
    # d = 1: the subsets are the nonzero rows in input order, as the
    # ordered bases are, so the last yield is the first least image
    rows = tuple((x,) for x in column)
    *_, last = la.least_images(rows)
    assert last == min(oracles.hnf_images(rows), key=lambda h: tuple(sorted(h)))


def test_least_image_without_a_basis_is_none():
    assert next(la.least_images(((1, 2), (2, 4))), None) is None
    assert next(la.least_images(((0,),)), None) is None
    assert next(la.least_images(()), None) is None


@st.composite
def pivot_inputs(draw):
    """A matrix of row lists, a row r in 0..n (n itself included: a wide
    matrix's row HNF runs out of rows) and a column c, the column sometimes
    zero from row r down."""
    m = [list(row) for row in draw(hermite_inputs())]
    r, c = draw(st.integers(0, len(m))), draw(st.integers(0, len(m[0]) - 1))
    if draw(st.booleans()):
        for row in m[r:]:
            row[c] = 0
    return m, r, c


@settings(max_examples=300, deadline=None)
@given(pivot_inputs())
def test_pivot_step_contract(case):
    # the pivot is the gcd of the column from row r down, zeros below it,
    # the rows above reduced into [0, pivot) by multiples of the pivot row;
    # False leaves a untouched
    a, r, c = case
    before = la.mat(a)
    g = la.vec_gcd(row[c] for row in before[r:])
    if not la._pivot(a, r, c):
        assert g == 0
        assert la.mat(a) == before
        return
    assert a[r][c] == g
    assert all(row[c] == 0 for row in a[r + 1 :])
    for new, old in zip(a[:r], before[:r]):
        assert 0 <= new[c] < g
        q = (old[c] - new[c]) // g
        assert la.vsub(old, new) == la.scale(a[r], q)
    # rows r and below span the lattice they spanned
    assert oracles.row_hnf(a[r:]) == oracles.row_hnf(before[r:])


# ---------------------------------------------------------------- normal


@st.composite
def normal_inputs(draw):
    """d in 1..5, d - 1 rows (sometimes dependent) and a vector x."""
    d = draw(st.integers(1, 5))
    entries = st.integers(-7, 7)
    rows = [tuple(draw(entries) for _ in range(d)) for _ in range(d - 1)]
    if d > 2 and draw(st.booleans()):
        # replace the last row by an integer combination of the others
        coeffs = [draw(entries) for _ in rows[:-1]]
        rows[-1] = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d))
    x = tuple(draw(entries) for _ in range(d))
    return d, rows, x


@given(normal_inputs())
def test_normal_is_the_cofactor_vector(case):
    d, rows, x = case
    n = la.normal(rows, d)
    assert len(n) == d
    assert la.dot(n, x) == la.det(rows + [x])
    assert any(n) == (la.rank(rows) == d - 1)


# ---------------------------------------------------------------- index


def test_lattice_index_examples():
    assert la.lattice_index(la.identity(3)) == 1
    assert la.lattice_index(((1, 0, 0), (0, 1, 0), (1, 1, 5))) == 5
    assert la.lattice_index(((2, 0), (0, 2))) == 4


def test_lattice_index_not_full_rank():
    with pytest.raises(NotFullRank):
        la.lattice_index(((1, 2), (2, 4)))  # square: |det| is 0
    with pytest.raises(NotFullRank):
        la.lattice_index(((1, 2), (2, 4), (3, 6)))  # not square: an HNF pivot is missing


def test_lattice_index_equals_abs_det():
    # a square matrix takes |det|; the oracle is the product of its row
    # HNF's pivots, the route every other shape takes. A row appended from
    # the lattice leaves the index alone and sends it down that route.
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_nonsingular(rng, n, bound=9)
        h = la.row_hnf(m)
        assert la.lattice_index(m) == prod(h[i][i] for i in range(n)) == abs(det_cofactor(m))
        coeffs = [rng.randint(-2, 2) for _ in m]
        extra = tuple(sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n))
        assert la.lattice_index(m + (extra,)) == la.lattice_index(m)


@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), max_size=6))
def test_independent_is_a_greedy_basis(rows):
    rows = [tuple(r) for r in rows]
    picked = list(la.independent(rows))
    assert picked == sorted(set(picked))
    assert len(picked) == la.rank(rows) == rank_fraction(rows)
    for i, row in enumerate(rows):
        if i not in picked:
            before = [rows[j] for j in picked if j < i]
            assert rank_fraction(before + [row]) == len(before)


# ---------------------------------------------------------------- SNF


def check_snf(m, s, u, v):
    assert la.matmul(la.matmul(u, m), v) == s
    assert abs(la.det(u)) == 1
    assert abs(la.det(v)) == 1
    n, d = len(s), len(s[0]) if s else 0
    diag = [s[i][i] for i in range(min(n, d))]
    for i in range(n):
        for j in range(d):
            if i != j:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)


def test_snf_examples():
    s, u, v = la.snf(la.identity(3))
    assert s == la.identity(3)
    s, _, _ = la.snf(((2, 0), (0, 3)))
    assert s == ((1, 0), (0, 6))
    m = ((1, 0, 0), (0, 1, 0), (1, 1, 2))
    s, u, v = la.snf(m)
    assert s == ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    check_snf(m, s, u, v)
    # a row-form-first alternation never ends on this one
    m = ((0, 8, 2, 4), (-5, -4, -6, 8), (1, 2, 6, 7), (-3, 0, -5, 2), (7, 0, 7, -7))
    s, u, v = la.snf(m)
    assert s == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2), (0, 0, 0, 0))
    check_snf(m, s, u, v)
    assert la.snf(()) == ((), (), ())
    assert la.snf(((),)) == (((),), ((1,),), ())


def test_snf_random_properties():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 5)
        d = rng.randint(1, 5)
        m = random_matrix(rng, n, d, bound=9)
        s, u, v = la.snf(m)
        check_snf(m, s, u, v)


def test_snf_invariant_factor_product():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_nonsingular(rng, n, bound=9)
        s, _, _ = la.snf(m)
        assert prod(s[i][i] for i in range(n)) == abs(la.det(m))
