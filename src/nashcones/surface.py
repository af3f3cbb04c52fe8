"""The complete 2-D theory: Hirzebruch-Jung continued fractions, closed-form
Hilbert bases, the consecutive-sum boundary, blow-up descent, and full
surface resolution, all on integer pairs: a Hilbert basis is one Euclid loop
on (p, q), and a resolution blows up each distinct cone once. The standard
form is one Bezout pair of the clockwise ray, from the kernel's one extended
Euclid (:func:`intlinalg.xgcd`), and one division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import intlinalg as la
from .errors import ZeroDenominator


@dataclass(frozen=True)
class HJExpansion:
    """Continued fraction [a_1, ..., a_k] with a_i > 1 for i > 1.

    convergents holds (p_i, q_i) for i = 0..k, starting at (1, 0).
    """

    terms: tuple
    convergents: tuple

    @property
    def value(self):
        return Fraction(*self.convergents[-1])


class StdCone2D(NamedTuple):
    """Standard-form 2-D cone spanned by (1,0) and (p,q), 0 <= p < q coprime."""

    p: int
    q: int

    @property
    def is_smooth(self):
        return self.q == 1


def hj_tails(terms):
    """Yield the tails a_i - 1/(... - 1/a_k) for i = k down to 1.

    Each tail is an integer pair (n, m) with value n/m: the first is
    (a_k, 1) and each step maps (n, m) to (a_i*n - m, n). The pairs are
    coprime without any gcd, since gcd(a*n - m, n) = gcd(m, n) and the
    first pair is coprime; m may be negative. Raises ZeroDenominator when
    a tail that still has to be inverted is 0.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("empty continued fraction")
    n, m = terms[-1], 1
    yield n, m
    for a in reversed(terms[:-1]):
        if n == 0:
            raise ZeroDenominator("intermediate tail evaluates to 0")
        n, m = a * n - m, n
        yield n, m


def hj_eval(terms) -> Fraction:
    """Value of a_1 - 1/(a_2 - 1/(... - 1/a_k)), in lowest terms.

    The value is the last pair of hj_tails, already coprime, so no
    Fraction is built along the way. It does not use the convergent
    recurrence, which the subword check compares it against.
    """
    for n, m in hj_tails(terms):
        pass
    return Fraction(n, m)


def _hj_euclid(p, q):
    """Terms and convergents of p/q, q > 0, as lists, by Euclid steps:
    a = ceil(p/q), then (p, q) -> (q, a*q - p) until q is 0 (round up,
    subtract, invert). Each step takes (p_i, q_i) = a_i (p_{i-1}, q_{i-1})
    - (p_{i-2}, q_{i-2}) one term on from (0, -1), (1, 0). The terms depend
    only on the ratio, so an unreduced pair gives the same lists."""
    terms, convergents = [], [(1, 0)]
    p0, q0, p1, q1 = 0, -1, 1, 0
    while q:
        a = -(-p // q)
        terms.append(a)
        p0, q0, p1, q1 = p1, q1, a * p1 - p0, a * q1 - q0
        convergents.append((p1, q1))
        p, q = q, a * q - p
    return terms, convergents


def hj_expand(x) -> HJExpansion:
    """The unique expansion of a rational with a_i > 1 past the first term."""
    x = Fraction(x)
    terms, convergents = _hj_euclid(x.numerator, x.denominator)
    return HJExpansion(tuple(terms), tuple(convergents))


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def standardize_rays(r1, r2):
    """SL(2,Z)-normalize the cone spanned by two primitive rays.

    Returns (StdCone2D, transform) with transform mapping the clockwise
    edge to (1, 0) and the other edge to (p, q). The clockwise edge is the
    one from which the other ray lies counterclockwise within a half turn.

    In closed form: with r1 = (a, b) the clockwise edge and x*a + y*b = 1
    a Bezout pair, the rows (x, y) and (-b, a) take r1 to (1, 0) and r2 to
    (e, q) with q = cross(r1, r2) > 0; the shear subtracting k = e // q
    times the second row from the first leaves p = e mod q. Any Bezout
    pair gives the same transform, as only one linear map takes r1 and r2
    to (1, 0) and (p, q). Raises ValueError for parallel or non-primitive
    rays.
    """
    q = _cross(r1, r2)
    if q == 0:
        raise ValueError("rays are parallel")
    if q < 0:
        r1, r2, q = r2, r1, -q
    a, b = r1
    g, x, y = la.xgcd(a, b)
    if abs(g) != 1 or gcd(*r2) != 1:
        raise ValueError("rays must be primitive")
    x, y = g * x, g * y
    k, p = divmod(x * r2[0] + y * r2[1], q)
    return StdCone2D(p, q), ((x + k * b, y - k * a), (-b, a))


def standard_form_2d(c):
    """Standard form of a proper 2-D cone, with the SL(2,Z) transform."""
    if c.dim != 2:
        raise ValueError("standard_form_2d needs a 2-D cone")
    r1, r2 = c.rays
    return standardize_rays(r1, r2)


def check_standard_2d(s):
    """Raise ValueError unless s is a standard form: 0 <= p < q, coprime."""
    if not 0 <= s.p < s.q or gcd(s.p, s.q) != 1:
        raise ValueError("need 0 <= p < q with p, q coprime")


def hilbert_basis_2d(s) -> tuple:
    """Hilbert basis of the standard cone: p/q's convergents, on integers.
    An unreduced pair spans the cone of its reduced one and gives its basis."""
    return tuple(_hj_euclid(s.p, s.q)[1])


def nash_blowup_2d(s):
    """Blow up a singular standard cone; children in standard form.

    The blow-up polyhedron's boundary is the chain of consecutive sums
    v_i + v_{i+1} of the Hilbert basis v_0, ..., v_k: it comes in along
    -v_0, steps from sum to sum by v_{i+2} - v_i, and leaves along v_k. One
    walk over those directions finds the vertices, the sums where the
    direction back and the direction ahead are not parallel, and
    standardizes each tangent cone, spanned by the way back and the way
    ahead.
    """
    check_standard_2d(s)
    if s.q == 1:
        raise ValueError("cone is smooth; nothing to blow up")
    v = hilbert_basis_2d(s)
    steps = [(-1, 0)] + [(c[0] - a[0], c[1] - a[1]) for a, c in zip(v, v[2:])] + [v[-1]]
    children = []
    for back, ahead in zip(steps, steps[1:]):
        if _cross(back, ahead) != 0:
            std, _ = standardize_rays(la.primitive((-back[0], -back[1])), la.primitive(ahead))
            children.append(std)
    return children


def resolve_2d(s):
    """Iterate blow-ups breadth-first until every cone is smooth.

    Returns (steps, levels); levels[i] lists the cones after i steps, with
    repeats. Each distinct cone is blown up once per call.
    """
    check_standard_2d(s)
    children = {}
    levels = [[s]]
    while any(t.q > 1 for t in levels[-1]):
        for t in levels[-1]:
            if t.q > 1 and t not in children:
                children[t] = nash_blowup_2d(t)
        levels.append([c for t in levels[-1] if t.q > 1 for c in children[t]])
    return len(levels) - 1, levels
