"""Exact elimination in `intlin` against sympy's exact matrix algebra on
hypothesis-drawn integer matrices."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latorb import intlin

DRAWN = settings(max_examples=150, deadline=None)


def matrices(rows, cols, entries=st.integers(-4, 4)):
    return rows.flatmap(
        lambda r: cols.flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def square_matrices(entries=st.integers(-4, 4)):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@st.composite
def unimodular_matrices(draw):
    """Products of drawn row shears, swaps and sign flips."""
    n = draw(st.integers(1, 6))
    m = intlin.identity(n)
    for _ in range(draw(st.integers(0, 15))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("shear", "swap", "negate")))
        if op == "negate":
            m[i] = [-x for x in m[i]]
        elif i != j and op == "swap":
            m[i], m[j] = m[j], m[i]
        elif i != j:
            f = draw(st.integers(-3, 3))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


def as_fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@DRAWN
@given(matrices(st.integers(1, 6), st.integers(1, 6), st.integers(-2, 2)))
def test_rational_rank_matches_sympy(m):
    assert intlin.rational_rank(m) == sympy.Matrix(m).rank()


@DRAWN
@given(square_matrices(st.integers(-2, 2)))
def test_det_bareiss_matches_sympy(m):
    assert intlin.det_bareiss(m) == sympy.Matrix(m).det()


@DRAWN
@given(square_matrices(st.integers(-2, 2)), st.data())
def test_rational_solve_and_inverse_match_sympy(a, data):
    n = len(a)
    b = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    s = sympy.Matrix(a)
    if s.det() == 0:
        with pytest.raises(ValueError):
            intlin.rational_solve(a, b)
        with pytest.raises(ValueError):
            intlin.rational_inverse(a)
        return
    inv = as_fractions(s.inv())
    assert intlin.rational_inverse(a) == inv
    x = intlin.rational_solve(a, b)
    assert x == [row[0] for row in as_fractions(s.inv() * sympy.Matrix(b))]


@DRAWN
@given(square_matrices(st.integers(-2, 2)))
def test_integer_inverse_rejects_exactly_the_non_unimodular(a):
    s = sympy.Matrix(a)
    if abs(s.det()) == 1:
        assert intlin.integer_inverse(a) == as_fractions(s.inv())
    else:
        with pytest.raises(ValueError):
            intlin.integer_inverse(a)


@DRAWN
@given(unimodular_matrices())
def test_integer_inverse_matches_sympy(w):
    inv = intlin.integer_inverse(w)
    assert all(type(x) is int for row in inv for x in row)
    assert inv == as_fractions(sympy.Matrix(w).inv())


@DRAWN
@given(matrices(st.integers(1, 5), st.integers(1, 5)).filter(
    lambda m: len(m) != len(m[0])
))
def test_non_square_input_is_rejected(m):
    with pytest.raises(ValueError):
        intlin.integer_inverse(m)
    with pytest.raises(ValueError):
        intlin.rational_inverse(m)
    with pytest.raises(ValueError):
        intlin.rational_solve(m, [1] * len(m))
