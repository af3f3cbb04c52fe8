import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from nashcones import checks, surface
from nashcones.cones import cone_from_rays, equivalent
from nashcones.errors import ZeroDenominator
from nashcones.surface import (
    StdCone2D,
    check_standard_2d,
    hilbert_basis_2d,
    hj_eval,
    hj_expand,
    hj_tails,
    nash_blowup_2d,
    resolve_2d,
    standard_form_2d,
    standardize_rays,
)


# ---------------------------------------------------------------- expansion


def test_expand_examples():
    assert hj_expand(0).terms == (0,)
    assert hj_expand(Fraction(2, 3)).terms == (1, 3)
    exp = hj_expand(Fraction(4, 7))
    assert exp.terms == (1, 3, 2, 2)
    assert exp.convergents == ((1, 0), (1, 1), (2, 3), (3, 5), (4, 7))


def test_expand_negative_and_integers():
    assert hj_expand(5).terms == (5,)
    assert hj_expand(-3).terms == (-3,)
    exp = hj_expand(Fraction(-7, 3))
    assert hj_eval(exp.terms) == Fraction(-7, 3)


def test_eval_examples():
    assert hj_eval([5]) == 5
    assert hj_eval([1, 3]) == Fraction(2, 3)
    for k in range(1, 7):
        assert hj_eval([2] * k) == Fraction(k + 1, k)


def test_eval_zero_denominator():
    with pytest.raises(ZeroDenominator):
        hj_eval([3, 1, 1])  # tail [1, 1] evaluates to 0


@settings(max_examples=200)
@given(st.integers(-50, 50), st.integers(1, 60))
def test_expand_eval_round_trip(n, d):
    x = Fraction(n, d)
    exp = hj_expand(x)
    assert hj_eval(exp.terms) == x
    assert all(a > 1 for a in exp.terms[1:])
    assert exp.value == x


def test_convergent_recursion_and_determinant():
    for q in range(2, 60):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            exp = hj_expand(Fraction(p, q))
            v = exp.convergents
            assert v[0] == (1, 0)
            assert v[-1] == (p, q)
            for i in range(1, len(v)):
                assert v[i - 1][0] * v[i][1] - v[i][0] * v[i - 1][1] == 1


# ---------------------------------------------------------------- integer
# kernel against the Fraction loops it replaced (test-only references)


def _ref_eval(terms):
    terms = list(terms)
    if not terms:
        raise ValueError("empty continued fraction")
    t = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        if t == 0:
            raise ZeroDenominator("intermediate tail evaluates to 0")
        t = a - Fraction(1) / t
    return t


def _ref_expand(x):
    x = Fraction(x)
    terms = []
    while True:
        a = -((-x.numerator) // x.denominator)
        terms.append(a)
        rem = a - x
        if rem == 0:
            break
        x = 1 / rem
    return tuple(terms), oracles.convergents(terms)


def _outcome(f, terms):
    try:
        return f(terms)
    except ZeroDenominator:
        return ZeroDenominator


_hj_terms = st.lists(st.integers(-20, 20), min_size=1, max_size=8)


@settings(max_examples=200)
@given(_hj_terms)
@example([3, 1, 1])
@example([0, 2, 1, 1])
def test_eval_matches_fraction_reference(terms):
    assert _outcome(hj_eval, terms) == _outcome(_ref_eval, terms)


def test_eval_empty_rejected():
    with pytest.raises(ValueError):
        hj_eval([])


@settings(max_examples=200)
@given(_hj_terms)
@example([3, 1, 1])
def test_tails_are_coprime_and_end_at_eval(terms):
    pairs = []
    try:
        for pair in hj_tails(terms):
            pairs.append(pair)
    except ZeroDenominator:
        assert _outcome(hj_eval, terms) is ZeroDenominator
    for idx, (n, m) in enumerate(pairs):
        assert gcd(n, m) == 1
        assert Fraction(n, m) == _ref_eval(terms[len(terms) - 1 - idx :])
    if len(pairs) == len(terms):
        assert Fraction(*pairs[-1]) == hj_eval(terms)


@settings(max_examples=200)
@given(st.integers(-50, 50), st.integers(1, 60))
def test_expand_matches_fraction_reference(n, d):
    exp = hj_expand(Fraction(n, d))
    assert (exp.terms, exp.convergents) == _ref_expand(Fraction(n, d))


@settings(max_examples=200)
@given(st.integers(-10**40, 10**40), st.integers(1, 10**4))
@example(0, 1)
@example(-7, 1)
@example(12345678901234567890123, 1)
@example(-3, 7)
@example(1, 10**4)
def test_expand_convergents_match_the_recurrence_oracle(n, d):
    # negative, integer and large rationals; the expansion has at most
    # about d terms, as the remainders' denominators strictly decrease
    x = Fraction(n, d)
    exp = hj_expand(x)
    assert exp.convergents == oracles.convergents(exp.terms)
    assert exp.convergents[-1] == (x.numerator, x.denominator)


def test_subword_sweep_detects_wrong_evaluator(monkeypatch):
    assert checks.check_subword_denominators(12)

    def off_by_one(terms):
        terms = list(terms)
        terms[-1] += 1
        return hj_tails(terms)

    monkeypatch.setattr(checks, "hj_tails", off_by_one)
    assert not checks.check_subword_denominators(12)


# ---------------------------------------------------------------- standard
# form


def test_standard_form_examples():
    std, u = standardize_rays((1, 0), (4, 7))
    assert std == StdCone2D(4, 7)
    assert u == ((1, 0), (0, 1))
    std, _ = standardize_rays((1, 0), (0, 1))
    assert std.q == 1 and std.is_smooth
    c = cone_from_rays([(2, 1), (1, 3)])
    std, u = standard_form_2d(c)
    target = cone_from_rays([(1, 0), (std.p, std.q)])
    assert equivalent(c, target)


def test_standard_form_transform_is_exact():
    import random

    rng = random.Random(40)
    for _ in range(300):
        r1 = (rng.randint(-9, 9), rng.randint(-9, 9))
        r2 = (rng.randint(-9, 9), rng.randint(-9, 9))
        if r1 == (0, 0) or r2 == (0, 0) or r1[0] * r2[1] - r1[1] * r2[0] == 0:
            continue
        from nashcones import intlinalg as la

        p1, p2 = la.primitive(r1), la.primitive(r2)
        std, u = standardize_rays(p1, p2)
        assert la.det(u) == 1
        images = {oracles.mat_vec(u, p1), oracles.mat_vec(u, p2)}
        assert images == {(1, 0), (std.p, std.q)}
        assert 0 <= std.p < std.q or (std.p, std.q) == (0, 1)
        assert gcd(std.p, std.q) == 1


@pytest.mark.parametrize("r1, r2", [((1, 0), (0, 2)), ((1, 0), (2, 4)), ((0, 2), (1, 0))])
def test_standard_form_rejects_a_non_primitive_counterclockwise_ray(r1, r2):
    # the first two gave StdCone2D(0, 2) and StdCone2D(2, 4), not standard cones
    with pytest.raises(ValueError, match="primitive"):
        standardize_rays(r1, r2)


@pytest.mark.parametrize("r1, r2", [((2, 0), (1, 1)), ((1, 1), (2, 0)), ((3, -6), (0, 1))])
def test_standard_form_rejects_a_non_primitive_clockwise_ray(r1, r2):
    with pytest.raises(ValueError, match="primitive"):
        standardize_rays(r1, r2)


def test_standard_form_rejects_parallel_rays():
    with pytest.raises(ValueError, match="parallel"):
        standardize_rays((1, 2), (-1, -2))


# The standard form has an oracle of its own: check_cross_validation
# standardizes both of its sides through standard_form_2d, so a fault in
# the standard form would show on both sides alike and pass there.
ray = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).filter(
    lambda r: gcd(*r) == 1
)


@settings(max_examples=300)
@given(ray, ray)
@example((1, 0), (4, 7))
@example((4, 7), (1, 0))
@example((0, -1), (1, 0))
@example((-1, 0), (0, -1))
def test_standard_form_matches_the_two_matrix_oracle(r1, r2):
    assume(r1[0] * r2[1] - r1[1] * r2[0] != 0)
    std, u = standardize_rays(r1, r2)
    assert (tuple(std), u) == oracles.standardize_rays(r1, r2)
    assert standardize_rays(r2, r1) == (std, u)


# ---------------------------------------------------------------- bases and
# blow-ups


def test_basis_2d_examples():
    assert hilbert_basis_2d(StdCone2D(4, 7)) == ((1, 0), (1, 1), (2, 3), (3, 5), (4, 7))
    assert hilbert_basis_2d(StdCone2D(0, 1)) == ((1, 0), (0, 1))
    # the Euclid loop reads only the ratio p/q
    assert hilbert_basis_2d(StdCone2D(8, 14)) == hilbert_basis_2d(StdCone2D(4, 7))


def test_blowup_examples():
    assert nash_blowup_2d(StdCone2D(1, 2)) == [StdCone2D(0, 1), StdCone2D(0, 1)]
    assert nash_blowup_2d(StdCone2D(2, 3)) == [StdCone2D(1, 3), StdCone2D(1, 3)]
    assert nash_blowup_2d(StdCone2D(4, 7)) == [StdCone2D(1, 3), StdCone2D(0, 1), StdCone2D(0, 1)]


# SHA-256 over the children of every singular standard cone with q <= 100,
# one line per coprime pair 0 <= p < q ordered by q then p, taken before
# the boundary was walked in one pass; never regenerate.
BLOWUP_2D_DIGEST = "2a846aee5c462a17061c22e160a698c579e21938823162cd48e54a917233008e"


def test_blowup_2d_digest():
    lines = [
        " ".join(f"({c.p},{c.q})" for c in nash_blowup_2d(StdCone2D(p, q))) + "\n"
        for q in range(2, 101)
        for p in range(q)
        if gcd(p, q) == 1
    ]
    assert len(lines) == 3043
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == BLOWUP_2D_DIGEST


def test_blowup_matches_the_fraction_oracle():
    singular = [StdCone2D(p, q) for q in range(2, 121) for p in range(q) if gcd(p, q) == 1]
    assert len(singular) == 4385
    for s in singular:
        assert hilbert_basis_2d(s) == hj_expand(Fraction(s.p, s.q)).convergents
        assert nash_blowup_2d(s) == oracles.nash_blowup_2d(s), s


def test_blowup_smooth_rejected():
    with pytest.raises(ValueError):
        nash_blowup_2d(StdCone2D(0, 1))


@settings(max_examples=200)
@given(st.integers(-30, 30), st.integers(-30, 30))
@example(3, 3)
@example(2, 4)
@example(5, 3)
@example(0, 0)
def test_non_standard_pairs_rejected(p, q):
    # nash_blowup_2d(StdCone2D(3, 3)) had blown up a smooth cone
    assume(not (0 <= p < q and gcd(p, q) == 1))
    for f in (nash_blowup_2d, resolve_2d, check_standard_2d):
        with pytest.raises(ValueError, match="^need 0 <= p < q with p, q coprime$"):
            f(StdCone2D(p, q))


def test_resolve_examples():
    assert resolve_2d(StdCone2D(0, 1))[0] == 0
    assert resolve_2d(StdCone2D(1, 2))[0] == 1
    steps, levels = resolve_2d(StdCone2D(4, 7))
    assert all(c.is_smooth for c in levels[-1])


def test_resolve_blows_up_each_distinct_cone_once(monkeypatch):
    # the levels keep their repeats, but each distinct cone is blown up
    # once per call, and a second call starts afresh
    blown = []

    def counting(s):
        blown.append(s)
        return nash_blowup_2d(s)

    monkeypatch.setattr(surface, "nash_blowup_2d", counting)
    s = StdCone2D(29, 60)
    steps, levels = surface.resolve_2d(s)
    singular = [t for level in levels for t in level if t.q > 1]
    assert len(singular) > len(set(singular)) and len(blown) == len(set(blown)) == len(set(singular))
    assert levels[1:] == [
        [c for t in level if t.q > 1 for c in nash_blowup_2d(t)] for level in levels[:-1]
    ]
    assert surface.resolve_2d(s) == (steps, levels) and len(blown) == 2 * len(set(singular))


SURFACE_CHECKS = [
    "convergent identities",
    "subword denominators",
    "hull reduction to consecutive sums",
    "blow-up descent",
    "fast path vs general engine",
    "full resolution within q steps",
]


def test_surface_suite_prints_one_line_per_check(capsys):
    report = checks.surface_suite(q_max=12)
    assert capsys.readouterr().out == "".join(f"PASS  {name}\n" for name in SURFACE_CHECKS)
    assert report == [(name, True) for name in SURFACE_CHECKS]
