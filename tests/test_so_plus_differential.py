"""The integer-determinant `is_in_so_plus` against the Fraction projection
it replaced, kept in `tests/helpers.py` as the oracle, on U, T4 and K3."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_primitive_isotropic, reference_is_in_so_plus, reflection
from latorb import intlin
from latorb.isometries import (
    Isometry,
    compose,
    gu_lattice_generators,
    identity_isometry,
    invert,
    is_in_so_plus,
    map_isotropic,
)
from latorb.lattice_core import hyperbolic, k3_model, t4_model

LATTICES = {"u": hyperbolic(), "t4": t4_model(), "k3": k3_model()}


def minus_identity(L):
    return Isometry([[-x for x in row] for row in intlin.identity(L.rank)], L)


def plane_roots(L, i):
    """e + f and e − f of the i-th hyperbolic plane: norms +2 and −2."""
    plus = [0] * L.rank
    minus = [0] * L.rank
    plus[2 * i] = plus[2 * i + 1] = minus[2 * i] = 1
    minus[2 * i + 1] = -1
    return plus, minus


@lru_cache(maxsize=None)
def twists(name):
    """Determinant +1 elements, each with its known orientation verdict:
    −I reverses an odd number of positive directions on all three
    lattices, a reflection in a positive-norm root times one in a
    negative-norm root reverses, and two roots of like sign preserve."""
    L = LATTICES[name]
    out = [(identity_isometry(L), True), (minus_identity(L), False)]
    planes = L.rank // 2 if name != "k3" else 3
    roots = [plane_roots(L, i) for i in range(planes)]
    if name == "k3":
        root = [0] * L.rank
        root[6] = 1  # first basis vector of the first E8(−1) block
        roots.append(([0] * L.rank, root))
    for p, m in roots:
        if any(p):
            out.append((compose(reflection(L, p), reflection(L, m)), False))
    for (p1, m1), (p2, m2) in zip(roots, roots[1:]):
        if any(p1) and any(p2):
            out.append((compose(reflection(L, p1), reflection(L, p2)), True))
        out.append((compose(reflection(L, m1), reflection(L, m2)), True))
    return out


@lru_cache(maxsize=None)
def generators(name):
    L = LATTICES[name]
    if L.rank == 2:
        return []
    gens = gu_lattice_generators(L, random_primitive_isotropic(random.Random(7), L))
    return gens + [invert(g) for g in gens]


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_twists_have_their_known_verdicts(name):
    for g, verdict in twists(name):
        assert g.det == 1
        assert is_in_so_plus(g) == reference_is_in_so_plus(g) == verdict


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), st.data())
def test_words_in_stabilizer_generators_with_twists(name, data):
    L = LATTICES[name]
    gens = generators(name)
    g = identity_isometry(L)
    if gens:
        for i in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
            g = compose(gens[i], g)
    twist, verdict = data.draw(st.sampled_from(twists(name)))
    h = compose(twist, g)
    assert is_in_so_plus(h) == reference_is_in_so_plus(h) == verdict
    assert is_in_so_plus(g) == reference_is_in_so_plus(g) is True


@pytest.mark.parametrize("name", ["t4", "k3"])
def test_map_isotropic_results(name):
    L = LATTICES[name]
    rng = random.Random(11)
    twist = twists(name)[1][0]
    for _ in range(6):
        u = random_primitive_isotropic(rng, L)
        v = random_primitive_isotropic(rng, L)
        g = map_isotropic(L, u, v)
        assert is_in_so_plus(g) == reference_is_in_so_plus(g) is True
        flipped = compose(twist, g)
        assert is_in_so_plus(flipped) == reference_is_in_so_plus(flipped) is False
