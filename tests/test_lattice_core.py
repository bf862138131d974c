import random

import pytest

from helpers import spans_saturated
from latorb import intlin
from latorb.errors import (
    DegenerateGram,
    DimensionMismatch,
    NoHyperbolicSplit,
    NotIsotropic,
    NotPrimitive,
    NotSaturated,
)
from latorb.lattice_core import (
    QuadLattice,
    Sublattice,
    determinant,
    direct_sum,
    e8_minus,
    extend_to_unimodular_basis,
    gram_column,
    hyperbolic,
    inner,
    is_even,
    is_isotropic,
    is_primitive,
    is_unimodular,
    k3_model,
    orthogonal_sublattice,
    saturation,
    signature,
    span4,
    split_hyperbolic,
    sublattice_gram,
    t4_model,
)

U2 = direct_sum(hyperbolic(), hyperbolic())


def random_primitive_isotropic(rng, L, height_cap=5):
    """Small primitive isotropic vector: first hyperbolic block fixes the norm.

    Writes u = x1 + b*y1 + w with w supported outside the leading hyperbolic
    plane, so (u,u) = 2b + (w,w); taking b = -(w,w)/2 lands on the cone and
    the leading 1 makes u primitive.
    """
    n = L.rank
    while True:
        w = [0, 0] + [rng.choice((-1, 0, 0, 0, 1)) for _ in range(n - 2)]
        ww = inner(L, w, w)
        if abs(ww // 2) <= height_cap:
            u = list(w)
            u[0] = 1
            u[1] = -ww // 2
            return tuple(u)


def test_quadlattice_validation():
    with pytest.raises(ValueError):
        QuadLattice(((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(ValueError):
        QuadLattice(((1, 2, 3), (2, 1, 1)))  # not square
    with pytest.raises(DegenerateGram):
        QuadLattice(((1, 1), (1, 1)))
    L = QuadLattice(((0, 1), (1, 0)))
    assert L.rank == 2


def test_quadlattice_keeps_its_determinant(monkeypatch):
    L = k3_model()
    u = (1,) + (0,) * 21
    calls = []
    real = intlin.det_bareiss
    monkeypatch.setattr(
        intlin, "det_bareiss", lambda m: calls.append(m) or real(m)
    )
    split_hyperbolic(L, u)
    assert calls == []  # the constructor's determinant is reused
    assert determinant(L) == -1 and is_unimodular(L)
    # the kept value is not a field: equality and hashing read the Gram only
    fresh = k3_model()
    assert L == fresh and hash(L) == hash(fresh) and repr(L) == repr(fresh)
    assert L != t4_model()
    assert len({L, fresh, t4_model()}) == 2


def test_sublattice_validation():
    with pytest.raises(ValueError):
        Sublattice(((1, 0), (2, 0)))  # dependent rows
    with pytest.raises(ValueError):
        Sublattice(((1, 0), (0, 1, 2)))  # ragged
    assert Sublattice(()).rank == 0


def test_standard_models():
    U = hyperbolic()
    assert U.gram == ((0, 1), (1, 0))
    assert signature(U) == (1, 1)
    assert is_even(U) and is_unimodular(U)

    E8 = e8_minus()
    assert E8.rank == 8
    assert determinant(E8) == 1
    assert signature(E8) == (0, 8)
    assert is_even(E8) and is_unimodular(E8)
    assert all(E8.gram[i][i] == -2 for i in range(8))

    S = span4()
    assert S.gram == ((4,),)
    assert determinant(S) == 4
    assert not is_unimodular(S)

    T4 = t4_model()
    assert T4.rank == 6
    assert signature(T4) == (3, 3)
    assert is_even(T4) and is_unimodular(T4)

    K3 = k3_model()
    assert K3.rank == 22
    assert signature(K3) == (3, 19)
    assert is_even(K3) and is_unimodular(K3)
    assert determinant(K3) == -1  # sign forced by the odd negative inertia


def test_inner_and_friends():
    U = hyperbolic()
    assert inner(U, (1, 0), (0, 1)) == 1
    assert inner(U, (1, 0), (1, 0)) == 0
    assert inner(U, (1, 1), (1, 1)) == 2
    assert gram_column(U, (1, 0)) == (0, 1)
    assert is_isotropic(U, (1, 0))
    assert not is_isotropic(U, (1, 1))
    with pytest.raises(DimensionMismatch):
        inner(U, (1, 0, 0), (0, 1))


def test_primitivity_and_divisor():
    U = hyperbolic()
    assert is_primitive(U, (2, 3))
    assert not is_primitive(U, (2, 4))
    with pytest.raises(ValueError):
        is_primitive(U, (0, 0))


def test_direct_sum_blocks():
    L = direct_sum(hyperbolic(), span4())
    assert L.gram == ((0, 1, 0), (1, 0, 0), (0, 0, 4))
    assert signature(L) == (2, 1)


def test_orthogonal_sublattice():
    # {x1 + y2, y1}^perp in U + U, in the basis (x1, y1, x2, y2)
    S = orthogonal_sublattice(U2, [(1, 0, 0, 1), (0, 1, 0, 0)])
    assert S.basis == ((0, 1, -1, 0), (0, 0, 0, 1))
    assert sublattice_gram(U2, S.basis) == ((0, -1), (-1, 0))
    # no constraints: the whole lattice
    assert orthogonal_sublattice(U2, []).rank == 4


def test_orthogonal_sublattice_properties():
    rng = random.Random(11)
    T4 = t4_model()
    for _ in range(40):
        k = rng.randint(1, 3)
        vecs = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(k)]
        S = orthogonal_sublattice(T4, vecs)
        for b in S.basis:
            for v in vecs:
                assert inner(T4, b, v) == 0
        rows = [gram_column(T4, v) for v in vecs]
        assert S.rank == 6 - intlin.rational_rank(rows)
        assert spans_saturated(S.basis)


def test_saturation():
    L = QuadLattice(((1, 0), (0, 1)))
    assert saturation(L, Sublattice(((2, 0),))).basis == ((1, 0),)
    # index-6 sublattice of Z^2 saturates to all of Z^2
    sat = saturation(L, Sublattice(((2, 4), (0, 3))))
    assert sat.basis == ((1, 2), (0, 3)) or sat.basis == ((1, 0), (0, 1))
    assert spans_saturated(sat.basis)


def test_saturation_properties():
    rng = random.Random(12)
    T4 = t4_model()
    for _ in range(40):
        k = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(k)]
        if intlin.rational_rank(rows) < k:
            continue
        S = Sublattice(tuple(tuple(r) for r in rows))
        sat = saturation(T4, S)
        assert sat.rank == S.rank
        assert spans_saturated(sat.basis)
        # same rational span
        stacked = [list(r) for r in sat.basis] + [list(r) for r in rows]
        assert intlin.rational_rank(stacked) == S.rank
        # saturating twice changes nothing
        assert saturation(T4, sat).basis == sat.basis


def test_extend_to_unimodular_basis():
    out = extend_to_unimodular_basis(Sublattice(((2, 3),)))
    assert out == ((2, -1), (3, -1))
    assert intlin.det_bareiss([list(r) for r in out]) == 1
    with pytest.raises(NotSaturated):
        extend_to_unimodular_basis(Sublattice(((2, 0),)))
    with pytest.raises(ValueError):
        extend_to_unimodular_basis(Sublattice(()))


def test_extend_to_unimodular_basis_properties():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if intlin.rational_rank(rows) < k:
            continue
        sat = intlin.hnf_basis(rows)  # kernel-style saturation via HNF is not
        # enough here; use invariant factors to filter saturated inputs
        if not spans_saturated(sat):
            continue
        S = Sublattice(tuple(tuple(r) for r in sat))
        out = extend_to_unimodular_basis(S)
        m = [list(r) for r in out]
        assert abs(intlin.det_bareiss(m)) == 1
        for j, b in enumerate(S.basis):
            assert [m[i][j] for i in range(n)] == list(b)


def test_split_hyperbolic_worked_example():
    u = (1, 0, 0, 1)  # x1 + y2
    z, lp = split_hyperbolic(U2, u)
    assert z == (0, 1, 0, 0)  # y1
    assert lp.basis == ((0, 1, -1, 0), (0, 0, 0, 1))
    assert sublattice_gram(U2, lp.basis) == ((0, -1), (-1, 0))
    # basis of the plane plus the complement generates everything
    full = [list(u), list(z)] + [list(b) for b in lp.basis]
    assert abs(intlin.det_bareiss(full)) == 1


def test_split_hyperbolic_rank_two():
    z, lp = split_hyperbolic(hyperbolic(), (1, 0))
    assert z == (0, 1)
    assert lp.rank == 0


def test_split_hyperbolic_errors():
    with pytest.raises(NotIsotropic):
        split_hyperbolic(hyperbolic(), (1, 1))
    with pytest.raises(NotPrimitive):
        split_hyperbolic(hyperbolic(), (2, 0))
    with pytest.raises(NoHyperbolicSplit):
        split_hyperbolic(QuadLattice(((1, 0), (0, -1))), (1, 1))  # odd lattice
    with pytest.raises(NoHyperbolicSplit):
        split_hyperbolic(span4(), (0,) * 1)


def test_split_hyperbolic_postconditions():
    rng = random.Random(14)
    for L, drop in ((t4_model(), (2, 2)), (k3_model(), (2, 18))):
        for _ in range(25):
            u = random_primitive_isotropic(rng, L)
            z, lp = split_hyperbolic(L, u)
            assert inner(L, u, z) == 1
            assert inner(L, z, z) == 0
            g = QuadLattice(sublattice_gram(L, lp.basis))
            assert g.rank == L.rank - 2
            assert is_even(g) and is_unimodular(g)
            assert signature(g) == drop
            for b in lp.basis:
                assert inner(L, b, u) == 0 and inner(L, b, z) == 0
