"""Cross-checks of the exact integer kernel against sympy (test-only).

The runtime stays stdlib-only; this module is skipped where sympy is not
installed.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashcones import intlinalg as la

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402


@st.composite
def matrices(draw, max_rows=5, square=False, max_cols=5, bound=9):
    n = draw(st.integers(1, max_rows))
    d = n if square else draw(st.integers(1, max_cols))
    entries = st.integers(-bound, bound)
    return tuple(tuple(draw(entries) for _ in range(d)) for _ in range(n))


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_det_matches_sympy(m):
    assert la.det(m) == sympy.Matrix(m).det()


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_sympy(m):
    assert la.rank(m) == sympy.Matrix(m).rank()


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_snf_diagonal_matches_invariant_factors(m):
    s, _, _ = la.snf(m)
    diag = [s[i][i] for i in range(min(len(m), len(m[0])))]
    assert diag == [int(x) for x in invariant_factors(sympy.Matrix(m))]


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=4, max_cols=4, bound=6))
def test_row_hnf_matches_sympy_hermite_form(m):
    # sympy's hermite_normal_form places its pivots from the last column
    # backwards; on full-rank input, row_hnf of the column-reversed matrix,
    # read back with columns and rows reversed, is the same matrix.
    assume(la.rank(m) == min(len(m), len(m[0])))
    h = la.row_hnf(tuple(row[::-1] for row in m))
    rows = [row[::-1] for row in h if any(row)]
    expected = hermite_normal_form(sympy.Matrix(m).T).T
    assert sympy.Matrix(rows[::-1]) == expected
