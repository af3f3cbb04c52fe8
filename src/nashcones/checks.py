"""The built-in check suites, shared between the command-line verify
command and the test suite.

The 2-D sweeps cover every coprime standard cone (p, q) up to a bound;
the table suite compares the classification counts with the published
tables; the anomaly suite replays the three index-growth examples. Every
suite prints one PASS/FAIL line per check and returns (name, ok) pairs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

from .classify import class_counts
from .cones import (
    cone_from_facets,
    cone_from_rays,
    dual_index,
    equivalent,
    index,
    is_smooth,
    minkowski_sum_hull,
)
from .nash import nash_blowup, sum_set
from .surface import (
    StdCone2D,
    hilbert_basis_2d,
    hj_expand,
    hj_tails,
    nash_blowup_2d,
    resolve_2d,
    standard_form_2d,
    standardize_rays,
)
from . import intlinalg as la


def standard_pairs(q_max):
    for q in range(1, q_max + 1):
        for p in range(q):
            if gcd(p, q) == 1:
                yield p, q


def mirror(s):
    """The standard form of the same cone with the edge roles swapped."""
    if s.q == 1:
        return s
    return StdCone2D(pow(s.p, -1, s.q), s.q)


def check_convergent_identities(q_max=200):
    """Determinant identity, lowest terms, increasing denominators, and
    round-trip evaluation for every expansion with q <= q_max."""
    for p, q in standard_pairs(q_max):
        exp = hj_expand(Fraction(p, q))
        v = exp.convergents
        if exp.value != Fraction(p, q):
            return False
        if any(a <= 1 for a in exp.terms[1:]):
            return False
        for i in range(1, len(v)):
            if v[i - 1][0] * v[i][1] - v[i][0] * v[i - 1][1] != 1:
                return False
            if gcd(v[i][0], v[i][1]) != 1:
                return False
            if v[i][1] <= v[i - 1][1] and i > 1:
                return False
    return True


def check_subword_denominators(q_max=100):
    """Denominator of the (i..j] subword equals p_i q_j - p_j q_i, and
    interior subwords have strictly smaller denominator than the whole.

    One hj_tails pass over a[:j] per right end j yields every subword
    a[i:j], i = j-1 down to 0, as a coprime pair, so the sweep costs
    O(k^2) steps per expansion.
    """
    for p, q in standard_pairs(q_max):
        exp = hj_expand(Fraction(p, q))
        a = exp.terms
        v = exp.convergents
        k = len(a)
        for j in range(1, k + 1):
            for i, (_, m) in zip(range(j - 1, -1, -1), hj_tails(a[:j])):
                expected = v[i][0] * v[j][1] - v[j][0] * v[i][1]
                if abs(m) != expected:
                    return False
                if i >= 1 and j < k and abs(m) >= q:
                    return False
    return True


def check_hull_reduction(q_max=30):
    """cone + Hull(all pair sums) equals cone + Hull(consecutive sums),
    compared vertex-for-vertex and inequality-for-inequality through the
    general kernel. The pair sums are the sum set: two distinct primitive
    vectors of a pointed cone are independent."""
    for p, q in standard_pairs(q_max):
        if q == 1:
            continue
        cone = cone_from_rays([(1, 0), (p, q)])
        v = hilbert_basis_2d(StdCone2D(p, q))
        full = sum_set(v)
        consecutive = {la.vadd(v[i], v[i + 1]) for i in range(len(v) - 1)}
        pa = minkowski_sum_hull(cone, full)
        pb = minkowski_sum_hull(cone, consecutive)
        if pa.vertices != pb.vertices or pa.inequalities != pb.inequalities:
            return False
    return True


def check_descent(q_max=100):
    """q strictly drops under blow-up except at p = q - 1, where both
    children are (up to edge reflection and primitivization) the standard
    cone on (q-2, q) and the next step strictly drops."""
    for p, q in standard_pairs(q_max):
        if q == 1:
            continue
        children = nash_blowup_2d(StdCone2D(p, q))
        if p != q - 1:
            if any(c.q >= q for c in children):
                return False
            continue
        expected, _ = standardize_rays((1, 0), la.primitive((q - 2, q)))
        allowed = {expected, mirror(expected)}
        if len(children) != 2 or any(c not in allowed for c in children):
            return False
        # where q did not drop, it must strictly drop at the next step
        for c in children:
            if c.q == q and any(g.q >= q for g in nash_blowup_2d(c)):
                return False
    return True


def check_cross_validation(q_max=20):
    """The 2-D fast path and the general engine produce the same multiset
    of standard forms."""
    for p, q in standard_pairs(q_max):
        if q == 1:
            continue
        fast = Counter(nash_blowup_2d(StdCone2D(p, q)))
        cone = cone_from_rays([(1, 0), (p, q)])
        general = Counter(standard_form_2d(ch)[0] for ch in nash_blowup(cone))
        if fast != general:
            return False
    return True


def check_full_resolution(q_max=100):
    """Every standard cone resolves to all-smooth within q steps."""
    for p, q in standard_pairs(q_max):
        steps, levels = resolve_2d(StdCone2D(p, q))
        if steps > q:
            return False
        if any(not c.is_smooth for c in levels[-1]):
            return False
    return True


def surface_suite(q_max=100):
    """The named sweeps with their published ranges scaled by q_max."""
    report = []
    _check(report, "convergent identities", check_convergent_identities(2 * q_max))
    _check(report, "subword denominators", check_subword_denominators(q_max))
    _check(report, "hull reduction to consecutive sums", check_hull_reduction(min(30, q_max)))
    _check(report, "blow-up descent", check_descent(q_max))
    _check(report, "fast path vs general engine", check_cross_validation(min(20, q_max)))
    _check(report, "full resolution within q steps", check_full_resolution(q_max))
    return report


def _check(report, name, ok):
    report.append((name, bool(ok)))
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


T3_REFERENCE = [
    1, 2, 4, 7, 8, 11, 14, 21, 23, 25, 28, 43, 38, 45,
    59, 66, 60, 76, 74, 101, 107, 99, 104, 153, 135, 135, 163,
]
T4_REFERENCE = [1, 3, 7, 16, 18, 37, 36, 83]


def tables_suite():
    """Class counts T_3(I) for I <= 27 and T_4(I) for I <= 8, and totals."""
    report = []
    got3 = class_counts(3, 27)
    _check(report, "3-D class counts, index <= 27", got3 == T3_REFERENCE)
    _check(report, "3-D total class count 1602", sum(got3) == 1602)
    got4 = class_counts(4, 8)
    _check(report, "4-D class counts, index <= 8", got4 == T4_REFERENCE)
    _check(report, "4-D total class count 201", sum(got4) == 201)
    return report


def anomaly_suite():
    """The three index-growth anomalies of iterated blow-ups."""
    report = []
    c65 = cone_from_facets([(1, 0, 0), (0, 1, 0), (1, 3, 6)])
    target = cone_from_facets([(1, 3, 6), (1, 3, 3), (2, 3, 6)])
    kids = nash_blowup(c65)
    ok = any(k.is_simplicial and index(k) == 9 and equivalent(k, target) for k in kids)
    _check(report, "index 6 cone blows up to a simplicial index-9 cone", ok)

    c922 = cone_from_facets([(1, 0, 0), (1, 3, 0), (1, 0, 3)])
    named = cone_from_facets([(1, 1, 0), (1, 0, 1), (4, 3, 3)])
    grand = []
    for k in nash_blowup(c922):
        if not is_smooth(k):
            grand.extend(nash_blowup(k))
    winners = [g for g in grand if g.is_simplicial and dual_index(g) == 4]
    ok = dual_index(c922) == 3 and winners and any(equivalent(g, named) for g in winners)
    _check(report, "dual index 3 -> 4 after two blow-ups", ok)

    big = cone_from_facets([(1, 0, 0), (0, 1, 0), (2, 4, 7), (1, 1, 2)])
    c21 = cone_from_facets([(1, 0, 0), (0, 1, 0), (0, 1, 2)])
    kids = nash_blowup(big)
    ok = (
        len(big.rays) == 4
        and dual_index(big) == 1
        and any(k.is_simplicial and dual_index(k) == 2 and equivalent(k, c21) for k in kids)
    )
    _check(report, "dual index 1 -> 2 through a 4-facet cone", ok)
    return report
