"""The sparse Gram readers of `lattice_core` against the dense products of
`intlin`, on hypothesis-drawn nondegenerate symmetric Grams (sparse and
dense, rank 1–8) and on the five CLI models; `sublattice_gram` also on
repeated and dependent rows, on no rows, and on the columns of K3
isometries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latorb import intlin
from latorb.cli import MODELS
from latorb.isometries import map_isotropic
from latorb.lattice_core import (
    QuadLattice,
    Sublattice,
    gram_column,
    inner,
    k3_model,
    split_hyperbolic,
    sublattice_gram,
)

from helpers import random_primitive_isotropic

DRAWN = settings(max_examples=150, deadline=None)

SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2, 3))
DENSE = st.integers(-4, 4).filter(bool)


@st.composite
def lattices(draw):
    """A symmetric Gram from a drawn upper triangle; a singular draw is
    shifted by the first multiple of the identity that makes it regular."""
    n = draw(st.integers(1, 8))
    entries = draw(st.sampled_from((SPARSE, DENSE)))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entries)
    shift = next(c for c in range(n + 1) if intlin.det_bareiss(
        [[x + (c if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(g)]
    ))
    for i in range(n):
        g[i][i] += shift
    return QuadLattice(g)


def vectors(n, count):
    return st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=count,
        max_size=count,
    )


def dense_inner(L, v, w):
    return sum(a * b for a, b in zip(v, intlin.mat_vec(L.gram, w)))


def dense_sublattice_gram(L, rows):
    return intlin.mat_mul(intlin.mat_mul(rows, L.gram), intlin.transpose(rows))


def check_readers(L, vs):
    for v in vs:
        assert gram_column(L, v) == intlin.mat_vec(L.gram, v)
        for w in vs:
            assert inner(L, v, w) == dense_inner(L, v, w)
    basis = intlin.hnf_basis(vs)
    if basis:
        S = Sublattice(basis)
        assert sublattice_gram(L, S.basis) == dense_sublattice_gram(L, S.basis)
    # repeated and dependent rows: the table needs no basis
    rows = [*vs, vs[0], [a - 2 * b for a, b in zip(vs[0], vs[-1])]]
    assert sublattice_gram(L, rows) == dense_sublattice_gram(L, rows)


@DRAWN
@given(st.data())
def test_sparse_readers_match_dense_products(data):
    L = data.draw(lattices())
    vs = data.draw(vectors(L.rank, data.draw(st.integers(1, L.rank + 1))))
    check_readers(L, vs)
    assert sublattice_gram(L, intlin.identity(L.rank)) == L.gram
    assert sublattice_gram(L, []) == ()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_sparse_readers_match_dense_products_on_models(model):
    L = MODELS[model]()
    n = L.rank
    rng = random.Random(n)
    unit = intlin.identity(n)
    drawn = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(4)]
    check_readers(L, [*unit, *drawn])
    check_readers(L, drawn)
    if model in ("t4", "k3"):
        _, comp = split_hyperbolic(L, unit[0])
        assert sublattice_gram(L, comp.basis) == dense_sublattice_gram(L, comp.basis)


def test_isometry_columns_pair_as_the_gram():
    # MᵀGM = G: the table of an isometry's columns is the lattice's Gram
    K3 = k3_model()
    rng = random.Random(25)
    for _ in range(20):
        u, v = (random_primitive_isotropic(rng, K3) for _ in range(2))
        cols = intlin.transpose(map_isotropic(K3, u, v).matrix)
        assert sublattice_gram(K3, cols) == K3.gram == dense_sublattice_gram(K3, cols)
