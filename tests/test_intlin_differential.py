"""Exact elimination in `intlin` against sympy's exact matrix algebra on
hypothesis-drawn integer matrices, and the congruence reduction behind
`signature` against the older Schur-complement reduction kept in
`helpers.reference_signature`, and the Hermite form with its transform
against the two-matrix elimination kept in `helpers.reference_row_hnf`."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from helpers import reference_row_hnf, reference_signature
from latorb import intlin
from latorb.errors import DegenerateGram
from latorb.lattice_core import Sublattice, extend_to_unimodular_basis

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
    m = [list(r) for r in intlin.identity(n)]
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


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of size 0–8 with many zero entries, so
    zero pivots occur; when flagged, the congruent image WᵀSW under a W
    with two equal columns, which is singular."""
    n = draw(st.integers(0, 8))
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = draw(st.sampled_from((-2, -1, 0, 0, 0, 1, 2)))
    if n >= 2 and draw(st.booleans()):
        w = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        i, j = draw(st.permutations(range(n)))[:2]
        for row in w:
            row[j] = row[i]
        s = intlin.mat_mul(intlin.mat_mul(intlin.transpose(w), s), w)
    return s


@st.composite
def hermite_inputs(draw):
    """Integer matrices of 1–8 rows and columns, entries −3..3 with half
    of them zero; when flagged and there are three rows or more, the last
    row is the sum of the first two, so the rank drops."""
    r = draw(st.integers(1, 8))
    c = draw(st.integers(1, 8))
    entry = st.sampled_from((0, 0, 0, 0, 0, 0, -3, -2, -1, 1, 2, 3))
    m = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if r >= 3 and draw(st.booleans()):
        m[-1] = [a + b for a, b in zip(m[0], m[1])]
    return m


def as_fractions(m):
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows)
    )


@DRAWN
@given(matrices(st.integers(1, 6), st.integers(1, 6), st.integers(-2, 2)))
def test_rational_rank_matches_sympy(m):
    assert intlin.rational_rank(m) == sympy.Matrix(m).rank()


@DRAWN
@given(square_matrices(st.integers(-2, 2)))
def test_det_bareiss_matches_sympy(m):
    assert intlin.det_bareiss(m) == sympy.Matrix(m).det()


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


@DRAWN
@given(symmetric_matrices())
def test_signature_matches_reference_reduction(s):
    singular = intlin.det_bareiss(s) == 0
    if singular:
        with pytest.raises(DegenerateGram):
            reference_signature(s)
        with pytest.raises(DegenerateGram):
            intlin.signature(s)
        return
    p, q = intlin.signature(s)
    assert (p, q) == reference_signature(s)
    assert p + q == len(s)
    basis = intlin.positive_basis(s)
    assert len(basis) == p
    assert all(type(x) is int for v in basis for x in v)


@DRAWN
@given(matrices(st.integers(1, 6), st.integers(1, 6), st.integers(-2, 2)))
def test_hnf_rank_and_sublattice_independence_match_sympy(m):
    rank = sympy.Matrix(m).rank()
    assert len(intlin.hnf_basis(m)) == rank
    if rank == len(m):
        assert Sublattice(m).rank == rank
    else:
        with pytest.raises(ValueError):
            Sublattice(m)


@DRAWN
@given(matrices(st.integers(1, 5), st.integers(1, 6), st.integers(-3, 3)))
def test_kernel_basis_is_a_saturated_kernel_of_sympy_rank(a):
    ker = intlin.kernel_basis(a)
    assert len(ker) == len(a[0]) - sympy.Matrix(a).rank()
    for x in ker:
        assert intlin.mat_vec(a, x) == (0,) * len(a)
    if ker:  # independent and saturated: every invariant factor is 1
        assert invariant_factors(sympy.Matrix(ker), domain=sympy.ZZ) == (1,) * len(ker)


def is_int_tuples(m):
    return isinstance(m, tuple) and all(
        isinstance(r, tuple) and all(type(x) is int for x in r) for r in m
    )


@DRAWN
@given(
    matrices(st.integers(1, 5), st.integers(1, 5)),
    unimodular_matrices(),
    symmetric_matrices(),
)
def test_every_matrix_result_is_a_tuple_of_int_tuples(m, u, s):
    n = len(m[0])
    h, t = intlin.row_hnf(m)
    results = [
        intlin.identity(n),
        intlin.transpose(m),
        intlin.mat_mul(m, intlin.transpose(m)),
        h,
        t,
        intlin.hnf_basis(m),
        intlin.kernel_basis(m),
        intlin.integer_inverse(u),
        intlin.positive_basis(s),
        (intlin.mat_vec(m, m[0]), intlin.xgcd_vector(m[0])[1]),
    ]
    assert all(is_int_tuples(r) for r in results)


@DRAWN
@given(hermite_inputs())
def test_row_hnf_and_hnf_basis_match_the_reference_elimination(m):
    h, u = reference_row_hnf(m)
    assert intlin.row_hnf(m) == (h, u)
    assert intlin.hnf_basis(m) == tuple(row for row in h if any(row))


@DRAWN
@given(hermite_inputs(), st.data())
def test_unimodular_completion_matches_the_reference_elimination(m, data):
    # the leading rows of a unimodular transform span a saturated
    # sublattice; its completion is u⁻¹ for the Hermite transform u of the
    # basis columns, and the inverse of a unimodular u is the transform
    # that brings u to I
    _, w = reference_row_hnf(m)
    k = data.draw(st.integers(1, len(w)))
    basis = w[:k]
    _, u = reference_row_hnf(intlin.transpose(basis))
    ident, out = reference_row_hnf(u)
    assert ident == intlin.identity(len(u))
    if len(w) > k and intlin.det_bareiss(out) == -1:
        out = tuple(r[:-1] + (-r[-1],) for r in out)
    assert extend_to_unimodular_basis(Sublattice(basis)) == out
