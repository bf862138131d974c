import dataclasses
import json
import math
import random
from collections import deque
from pathlib import Path

import pytest

from helpers import mat_eq, reflection
from latorb import intlin, isometries, lattice_core
from latorb.errors import (
    NoHyperbolicSplit,
    NotIsotropic,
    NotPrimitive,
)
from latorb.irrationality import UNIT, Symbol, from_columns
from latorb.isometries import (
    Isometry,
    apply,
    compose,
    eichler_transvection,
    gu_lattice_generators,
    identity_isometry,
    invert,
    is_in_gu,
    is_in_hy,
    is_in_ky,
    is_in_so_plus,
    map_isotropic,
)
from latorb.lattice_core import (
    QuadLattice,
    direct_sum,
    e8_minus,
    gram_column,
    hyperbolic,
    inner,
    is_isotropic,
    is_primitive,
    k3_model,
    split_hyperbolic,
    sublattice_gram,
    t4_model,
)

UU = direct_sum(hyperbolic(), hyperbolic())
T4 = t4_model()
K3 = k3_model()
X1 = (1, 0, 0, 0, 0, 0)


def random_primitive_isotropic(rng, L, cap=3):
    n = L.rank
    while True:
        w = [0, 0] + [rng.choice((-1, 0, 0, 1)) for _ in range(n - 2)]
        ww = inner(L, w, w)
        if abs(ww // 2) <= cap:
            w[0] = 1
            w[1] = -ww // 2
            return tuple(w)


def random_transvection(rng, L):
    while True:
        e = random_primitive_isotropic(rng, L)
        a = [rng.randint(-2, 2) for _ in range(L.rank)]
        # project a into e-perp by shaving off the pairing along a partner
        pe = gram_column(L, e)
        pa = sum(x * y for x, y in zip(pe, a))
        k = next(i for i, x in enumerate(pe) if x != 0)
        if pa % pe[k] == 0:
            a[k] -= pa // pe[k]
            return eichler_transvection(L, e, a)


def bfs_reaches(L, gens, u, v, height_cap=6, max_nodes=200000):
    """Breadth-first orbit search: can words in gens carry u to v?"""
    mats = [[list(r) for r in g.matrix] for g in gens]
    mats += [[list(r) for r in invert(g).matrix] for g in gens]
    seen = {tuple(u)}
    queue = deque([tuple(u)])
    target = tuple(v)
    while queue and len(seen) < max_nodes:
        cur = queue.popleft()
        if cur == target:
            return True
        for m in mats:
            nxt = tuple(intlin.mat_vec(m, list(cur)))
            if nxt in seen or any(abs(x) > height_cap for x in nxt):
                continue
            seen.add(nxt)
            queue.append(nxt)
    return target in seen


def test_transvection_worked_example():
    g = eichler_transvection(UU, (1, 0, 0, 0), (0, 0, 1, 0))
    assert apply(g, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert apply(g, (0, 0, 1, 0)) == (0, 0, 1, 0)
    assert apply(g, (0, 1, 0, 0)) == (0, 1, 1, 0)  # y1 + x2
    assert apply(g, (0, 0, 0, 1)) == (-1, 0, 0, 1)  # y2 - x1
    assert g.matrix == ((1, 0, 0, -1), (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))


def test_transvection_degenerate_inputs():
    e = (1, 0, 0, 0)
    assert eichler_transvection(UU, e, (0, 0, 0, 0)).matrix == identity_isometry(UU).matrix
    # a parallel to e also collapses to the identity
    assert eichler_transvection(UU, e, (3, 0, 0, 0)).matrix == identity_isometry(UU).matrix
    with pytest.raises(NotIsotropic):
        eichler_transvection(UU, (1, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(ValueError):
        eichler_transvection(UU, (1, 0, 0, 0), (0, 1, 0, 0))  # (e,a) = 1
    with pytest.raises(ValueError):
        eichler_transvection(QuadLattice(((1, 0), (0, -1))), (0, 1), (0, 0))


def test_transvection_properties():
    rng = random.Random(20)
    for L in (T4, K3):
        gram = [list(r) for r in L.gram]
        for _ in range(40):
            g = random_transvection(rng, L)
            m = [list(r) for r in g.matrix]
            mt = intlin.transpose(m)
            assert mat_eq(intlin.mat_mul(intlin.mat_mul(mt, gram), m), gram)
            assert g.det == 1
            n = L.rank
            mi = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
            cube = intlin.mat_mul(intlin.mat_mul(mi, mi), mi)
            assert all(all(x == 0 for x in row) for row in cube)


def test_group_plumbing():
    rng = random.Random(21)
    g = random_transvection(rng, T4)
    h = random_transvection(rng, T4)
    assert compose(g, invert(g)).matrix == identity_isometry(T4).matrix
    v = (1, 2, 0, -1, 3, 0)
    assert apply(invert(g), apply(g, v)) == v
    assert apply(identity_isometry(T4), v) == v
    composed = compose(g, h)  # stays an isometry: constructor revalidates
    assert apply(composed, v) == apply(g, apply(h, v))
    with pytest.raises(Exception):
        compose(g, random_transvection(rng, K3))


def test_isometry_validation():
    with pytest.raises(ValueError):
        Isometry(((1, 1), (0, 1)), hyperbolic())  # shear breaks the form
    with pytest.raises(Exception):
        Isometry(((1, 0, 0), (0, 1, 0), (0, 0, 1)), hyperbolic())


def test_isometry_rejects_every_unit_perturbation_of_a_k3_map():
    # the check compares one triangle of MᵀGM = G, yet a change to any
    # entry of M, above or below the diagonal, still fails it
    rng = random.Random(62)
    g = map_isotropic(K3, random_primitive_isotropic(rng, K3), random_primitive_isotropic(rng, K3))
    n = K3.rank
    for i in range(n):
        for j in range(n):
            for d in (1, -1):
                m = [list(r) for r in g.matrix]
                m[i][j] += d
                with pytest.raises(ValueError):
                    Isometry(m, K3)


def test_isometry_check_and_sublattice_gram_read_the_sparse_gram(monkeypatch):
    rng = random.Random(63)
    u = random_primitive_isotropic(rng, K3)
    g = map_isotropic(K3, u, random_primitive_isotropic(rng, K3))
    _, comp = split_hyperbolic(K3, u)
    expected = sublattice_gram(K3, comp.basis)
    calls = []
    for module, name in ((intlin, "mat_mul"), (intlin, "mat_vec"), (lattice_core, "inner")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    assert Isometry(g.matrix, K3) == g
    assert sublattice_gram(K3, comp.basis) == expected
    assert calls == []  # both read the Gram through gram_column only


def test_so_plus_examples():
    U = hyperbolic()
    assert is_in_so_plus(identity_isometry(U))
    assert not is_in_so_plus(Isometry(((-1, 0), (0, -1)), U))
    g = eichler_transvection(UU, (1, 0, 0, 0), (0, 0, 1, 0))
    assert is_in_so_plus(g)
    flip = reflection(T4, (1, 1, 0, 0, 0, 0))  # det −1: not in SO⁺
    assert not is_in_so_plus(flip)
    u = (0, 0, 1, 0, 0, 0)  # isotropic and fixed by the reflection
    assert apply(flip, u) == u and not is_in_gu(flip, u)


def test_so_plus_multiplicative():
    rng = random.Random(22)
    pool = []
    for _ in range(6):
        pool.append(random_transvection(rng, T4))
    pool.append(compose(reflection(T4, (1, 1, 0, 0, 0, 0)),
                        reflection(T4, (1, -1, 0, 0, 0, 0))))
    pool.append(compose(reflection(T4, (1, 1, 0, 0, 0, 0)),
                        reflection(T4, (0, 0, 1, 1, 0, 0))))
    pool.append(compose(reflection(T4, (0, 0, 0, 0, 1, -1)),
                        reflection(T4, (0, 0, 1, 1, 0, 0))))
    for _ in range(60):
        g = rng.choice(pool)
        h = rng.choice(pool)
        assert is_in_so_plus(compose(g, h)) == (is_in_so_plus(g) == is_in_so_plus(h))


def test_map_isotropic_identity_case():
    u = (1, 0, 0, 0)
    assert apply(map_isotropic(UU, u, u), u) == u


def test_map_isotropic_uu_with_bfs_oracle():
    u, v = (1, 0, 0, 0), (0, 1, 0, 0)
    g = map_isotropic(UU, u, v)
    assert apply(g, u) == v
    assert g.det == 1 and is_in_so_plus(g)
    # independent witness: v is reachable from u by short transvection words
    gens = []
    basis = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    for e in basis:
        for a in basis:
            if inner(UU, e, e) == 0 and inner(UU, e, a) == 0 and e != a:
                gens.append(eichler_transvection(UU, e, a))
    assert bfs_reaches(UU, gens, u, v)


def test_map_isotropic_random_pairs():
    rng = random.Random(23)
    for L, trials in ((T4, 25), (K3, 8)):
        for _ in range(trials):
            u = random_primitive_isotropic(rng, L)
            v = random_primitive_isotropic(rng, L)
            g = map_isotropic(L, u, v)
            assert apply(g, u) == v
            assert g.det == 1
            assert is_in_so_plus(g)
            # round trip fixes u without being forced to be the identity
            back = compose(map_isotropic(L, v, u), g)
            assert apply(back, u) == u


def test_map_isotropic_k3_across_blocks():
    # endpoints outside the two frame planes exercise the translation stage
    u = tuple(1 if i == 4 else 0 for i in range(22))
    v = tuple(1 if i == 0 else 0 for i in range(22))
    g = map_isotropic(K3, u, v)
    assert apply(g, u) == v
    w = [0] * 22
    w[6] = 1  # a norm -2 vector deep in the definite part
    target = tuple((1 if i == 0 else 0) + (1 if i == 1 else 0) + w[i] for i in range(22))
    assert is_isotropic(K3, target) and is_primitive(K3, target)
    g = map_isotropic(K3, v, target)
    assert apply(g, v) == target
    assert is_in_so_plus(g)


def test_map_isotropic_errors():
    with pytest.raises(NotIsotropic):
        map_isotropic(UU, (1, 1, 0, 0), (1, 0, 0, 0))
    with pytest.raises(NotPrimitive):
        map_isotropic(UU, (2, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(NoHyperbolicSplit):
        map_isotropic(hyperbolic(), (1, 0), (0, 1))  # only one plane
    single = direct_sum(hyperbolic(), e8_minus())
    u = tuple(1 if i == 0 else 0 for i in range(10))
    v = tuple(1 if i == 1 else 0 for i in range(10))
    with pytest.raises(NoHyperbolicSplit):
        map_isotropic(single, u, v)
    # an odd lattice with two hyperbolic planes fails at the frame's split
    odd = direct_sum(UU, QuadLattice(((1,),)))
    with pytest.raises(NoHyperbolicSplit):
        map_isotropic(odd, (1, 0, 0, 0, 0), (0, 0, 1, 0, 0))


def test_stabilizer_predicates():
    u = X1
    y = (0, 0, 1, 1, 0, 0)  # norm 2, orthogonal to u
    a = (0, 0, -2, 0, 0, 0)
    g = eichler_transvection(T4, u, a)
    assert apply(g, y) == tuple(x + 2 * d for x, d in zip(y, u))  # y + 2u
    assert is_in_gu(g, u)
    assert is_in_ky(g, u, y)
    assert not is_in_hy(g, u, y)
    h = eichler_transvection(T4, u, (0, 0, 0, 0, 1, 0))  # pairs to 0 with y
    assert is_in_hy(h, u, y)
    # y = x2 + sqrt2 * y2, checked per symbol column: g moves the sqrt2
    # column by 2u, h fixes both columns
    ys = from_columns(
        (UNIT, Symbol("sqrt2", math.sqrt(2))),
        [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
    )
    assert is_in_ky(g, u, ys)
    assert not is_in_hy(g, u, ys)
    assert is_in_hy(h, u, ys) and is_in_ky(h, u, ys)
    ident = identity_isometry(T4)
    assert is_in_gu(ident, u) and is_in_hy(ident, u, y) and is_in_ky(ident, u, y)
    # something that moves u is in none of them
    moved = map_isotropic(T4, u, (0, 1, 0, 0, 0, 0))
    assert not is_in_gu(moved, u)


def test_predicate_implication_chain():
    rng = random.Random(24)
    u = X1
    y = (0, 0, 1, 1, 0, 0)
    pool = [random_transvection(rng, T4) for _ in range(12)]
    pool += [eichler_transvection(T4, u, (0, 0, c, d, e, f))
             for c, d, e, f in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1))]
    pool.append(identity_isometry(T4))
    for g in pool:
        if is_in_hy(g, u, y):
            assert is_in_ky(g, u, y)
        if is_in_ky(g, u, y):
            assert is_in_gu(g, u)


def test_gu_lattice_generators():
    gens = gu_lattice_generators(T4, X1)
    assert len(gens) >= 5
    ident = identity_isometry(T4).matrix
    for g in gens:
        assert g.matrix != ident
        assert is_in_gu(g, X1)
    rng = random.Random(25)
    for _ in range(10):
        word = identity_isometry(T4)
        for _ in range(4):
            word = compose(word, rng.choice(gens))
        assert is_in_gu(word, X1)
    with pytest.raises(NotIsotropic):
        gu_lattice_generators(T4, (0, 0, 1, 1, 0, 0))
    with pytest.raises(NotPrimitive):
        gu_lattice_generators(T4, (2, 0, 0, 0, 0, 0))


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "map_isotropic_golden.json").read_text()
)


@pytest.mark.parametrize(
    "model, case",
    [("t4", c) for c in GOLDEN["t4"]] + [("k3", c) for c in GOLDEN["k3"]],
)
def test_map_isotropic_golden_matrices(model, case):
    # the exact words map_isotropic builds are part of its output contract
    L = T4 if model == "t4" else K3
    g = map_isotropic(L, tuple(case["u"]), tuple(case["v"]))
    assert [list(r) for r in g.matrix] == case["matrix"]


def test_map_isotropic_result_outside_so_plus_is_a_tripwire(monkeypatch):
    # a transvection word always lies in SO+; a verdict against that is an
    # internal fault, not a domain error to repair or report
    monkeypatch.setattr(isometries, "is_in_so_plus", lambda g: False)
    with pytest.raises(AssertionError):
        map_isotropic(T4, X1, (0, 1, 0, 0, 0, 0))


def test_map_isotropic_takes_one_determinant_of_its_result(monkeypatch):
    # the det check in map_isotropic and the one in is_in_so_plus share
    # the cached determinant of the result, taken mod 3; no Bareiss
    # determinant of the result is taken
    rng = random.Random(61)
    u = random_primitive_isotropic(rng, K3)
    v = random_primitive_isotropic(rng, K3)
    mod3, bareiss = [], []
    real_mod3, real_bareiss = isometries._det_mod3, intlin.det_bareiss

    def counting_mod3(m):
        mod3.append(m)
        return real_mod3(m)

    def counting_bareiss(m):
        bareiss.append(m)
        return real_bareiss(m)

    monkeypatch.setattr(isometries, "_det_mod3", counting_mod3)
    monkeypatch.setattr(intlin, "det_bareiss", counting_bareiss)
    g = map_isotropic(K3, u, v)
    assert mod3 == [g.matrix]
    assert g.matrix not in bareiss


def test_map_isotropic_makes_no_evenness_check(monkeypatch):
    # the word's steps are built from the frame and need no per-step
    # precondition checks, and the frame's hyperbolic split already
    # rejects every lattice that is not even unimodular, so once the frame
    # is cached a map reads the parity of no lattice
    rng = random.Random(62)
    calls = []
    u, v = (random_primitive_isotropic(rng, K3) for _ in range(2))
    map_isotropic(K3, u, v)  # builds and caches the frame
    for module in (isometries, lattice_core):
        monkeypatch.setattr(module, "is_even", calls.append)
    for _ in range(3):
        u = random_primitive_isotropic(rng, K3)
        v = random_primitive_isotropic(rng, K3)
        assert apply(map_isotropic(K3, u, v), u) == v
    assert calls == []


def test_det_mod_3_matches_bareiss_mod_3():
    rng = random.Random(64)
    for _ in range(400):
        n = rng.randint(0, 7)
        m = [[rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3, 4)) for _ in range(n)]
             for _ in range(n)]
        assert isometries._det_mod3(m) == intlin.det_bareiss(m) % 3


@pytest.mark.parametrize("L", [T4, K3], ids=["t4", "k3"])
def test_isometry_det_matches_bareiss_at_both_signs(L):
    # (u ± z, u ± z) = ±2 for the hyperbolic partner z of u, so the
    # reflections in u + z and v − w are integral and of determinant −1
    rng = random.Random(65)
    seen = set()
    for _ in range(4):
        u = random_primitive_isotropic(rng, L)
        v = random_primitive_isotropic(rng, L)
        z, _ = split_hyperbolic(L, u)
        w, _ = split_hyperbolic(L, v)
        r1 = reflection(L, [a + b for a, b in zip(u, z)])
        r2 = reflection(L, [a - b for a, b in zip(v, w)])
        t = eichler_transvection(L, u, intlin.kernel_basis([gram_column(L, u)])[0])
        for g in (map_isotropic(L, u, v), r1, r2, compose(r1, r2), compose(r1, t)):
            assert g.det == intlin.det_bareiss(g.matrix)
            seen.add(g.det)
    assert seen == {1, -1}


def test_isometry_equality_and_hash_ignore_cached_det():
    g = eichler_transvection(T4, X1, (0, 0, 1, 0, 0, 0))
    h = Isometry(g.matrix, T4)
    assert g.det == 1
    assert "det" in vars(g) and "det" not in vars(h)
    assert g == h and hash(g) == hash(h)
    assert [f.name for f in dataclasses.fields(Isometry)] == ["matrix", "lattice"]
