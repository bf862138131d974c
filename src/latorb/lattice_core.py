"""Integral quadratic lattices with exact Gram algebra.

A lattice is held as its Gram matrix; vectors are integer coordinate tuples
in the implied basis.  Everything is exact — no floats.  Every integer
pairing goes through `gram_column`, which reads only the cached
`QuadLattice.gram_rows`, the nonzero (j, g_ij) of each Gram row (50 of
484 entries on the rank-22 model), and every table of the pairings among
one list of vectors comes from `sublattice_gram`.  Provides the
standard even unimodular models (hyperbolic plane, negated E8, and the two
rank-6/rank-22 direct sums used throughout), Hermite-based sublattice
calculus, and constructive hyperbolic splitting off an isotropic vector.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple

from . import intlin
from .errors import (
    DegenerateGram,
    DimensionMismatch,
    NoHyperbolicSplit,
    NotIsotropic,
    NotPrimitive,
    NotSaturated,
)


class Signature(NamedTuple):
    p: int
    q: int


@dataclass(frozen=True)
class QuadLattice:
    """Nondegenerate symmetric integer bilinear form on Z^rank."""

    gram: tuple

    def __post_init__(self):
        g = tuple(map(intlin._ints, self.gram))
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if self.det == 0:
            raise DegenerateGram("gram matrix is degenerate")

    @cached_property
    def det(self) -> int:
        return intlin.det_bareiss(self.gram)

    @cached_property
    def gram_rows(self) -> tuple:
        """Nonzero entries of each Gram row, as (j, g_ij) pairs."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.gram)

    @property
    def rank(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class Sublattice:
    """Sublattice given by an independent integral basis (rows)."""

    basis: tuple

    def __post_init__(self):
        b = tuple(map(intlin._ints, self.basis))
        object.__setattr__(self, "basis", b)
        if b:
            if len({len(row) for row in b}) != 1:
                raise ValueError("basis vectors must share a length")
            if len(intlin.hnf_basis(b)) != len(b):
                raise ValueError("basis vectors must be linearly independent")

    @property
    def rank(self) -> int:
        return len(self.basis)


def _check_vec(L: QuadLattice, v) -> tuple:
    v = intlin._ints(v)
    if len(v) != L.rank:
        raise DimensionMismatch(
            f"vector length {len(v)} does not match lattice rank {L.rank}"
        )
    return v


def inner(L: QuadLattice, v, w) -> int:
    """Exact pairing v·gram·w."""
    return _dot(_check_vec(L, v), gram_column(L, w))


def gram_column(L: QuadLattice, v) -> tuple:
    """Pairings of v against the basis vectors, i.e. gram·v."""
    return _gram_column(L, _check_vec(L, v))


def _gram_column(L: QuadLattice, v) -> tuple:
    """gram·v for a checked v: by symmetry, v_j times the nonzero entries
    of row j, summed over the nonzero v_j."""
    out = [0] * L.rank
    for j, vj in enumerate(v):
        if vj:
            for i, x in L.gram_rows[j]:
                out[i] += x * vj
    return tuple(out)


def _dot(v, w) -> int:
    return sum(map(mul, v, w))


def determinant(L: QuadLattice) -> int:
    return L.det


def signature(L: QuadLattice) -> Signature:
    return Signature(*intlin.signature(L.gram))


def is_even(L: QuadLattice) -> bool:
    return all(L.gram[i][i] % 2 == 0 for i in range(L.rank))


def is_unimodular(L: QuadLattice) -> bool:
    return abs(determinant(L)) == 1


def is_primitive(L: QuadLattice, v) -> bool:
    v = _check_vec(L, v)
    if not any(v):
        raise ValueError("zero vector has no primitivity")
    return math.gcd(*v) == 1


def is_isotropic(L: QuadLattice, v) -> bool:
    return inner(L, v, v) == 0


def direct_sum(*lattices: QuadLattice) -> QuadLattice:
    total = sum(L.rank for L in lattices)
    g = [[0] * total for _ in range(total)]
    off = 0
    for L in lattices:
        for i in range(L.rank):
            for j in range(L.rank):
                g[off + i][off + j] = L.gram[i][j]
        off += L.rank
    return QuadLattice(g)


def hyperbolic() -> QuadLattice:
    return QuadLattice(((0, 1), (1, 0)))


# Negated E8 Gram in the usual Cartan numbering: chain 1-3-4-5-6-7-8 with
# node 2 hanging off node 4.  Validated (even, unimodular, definite) in the
# test suite rather than trusted.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8_minus() -> QuadLattice:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = 1
    return QuadLattice(g)


def span4() -> QuadLattice:
    return QuadLattice(((4,),))


def t4_model() -> QuadLattice:
    return direct_sum(hyperbolic(), hyperbolic(), hyperbolic())


def k3_model() -> QuadLattice:
    return direct_sum(
        hyperbolic(), hyperbolic(), hyperbolic(), e8_minus(), e8_minus()
    )


def sublattice_gram(L: QuadLattice, rows) -> tuple:
    """Table of the pairings (rows[i], rows[j]) of a list of vectors, such
    as a sublattice's basis; () for no vectors.  Each pairing of the upper
    triangle is computed once and mirrored."""
    rows = [_check_vec(L, v) for v in rows]
    out = [[0] * len(rows) for _ in rows]
    for i, v in enumerate(rows):
        c = _gram_column(L, v)
        for j in range(i, len(rows)):
            out[i][j] = out[j][i] = _dot(c, rows[j])
    return tuple(map(tuple, out))


def orthogonal_sublattice(L: QuadLattice, vectors: Iterable) -> Sublattice:
    """Saturated sublattice of everything pairing to zero with the inputs."""
    rows = [gram_column(L, v) for v in vectors]
    if not rows:
        return Sublattice(intlin.identity(L.rank))
    return Sublattice(intlin.kernel_basis(rows))


def saturation(L: QuadLattice, S: Sublattice) -> Sublattice:
    """Smallest saturated sublattice containing S (same rational span).

    With u·B = [H; 0] for the basis columns B, B = u⁻¹[H; 0]: the first k
    columns of u⁻¹ span B's rational space and extend to a unimodular
    matrix, so they span its saturation.
    """
    if S.rank == 0:
        return S
    cols = intlin.transpose([_check_vec(L, v) for v in S.basis])
    _, u = intlin.row_hnf(cols)
    uinv = intlin.integer_inverse(u)
    return Sublattice(intlin.hnf_basis(intlin.transpose(uinv)[: S.rank]))


def extend_to_unimodular_basis(S: Sublattice):
    """Completes a saturated basis to a determinant-±1 square matrix.

    Output columns: the input basis first, then a complement; realizes the
    transitivity of the integral linear group on saturated sublattices of a
    fixed rank.  The matrix is u⁻¹ for the Hermite transform u of the
    basis columns, whose Hermite block is the identity exactly when the
    basis is saturated.
    """
    if S.rank == 0:
        raise ValueError("cannot infer ambient rank from an empty basis")
    m = len(S.basis[0])
    k = S.rank
    h, u = intlin.row_hnf(intlin.transpose(S.basis))
    if h[:k] != intlin.identity(k):
        raise NotSaturated("basis does not span a saturated sublattice")
    out = intlin.integer_inverse(u)
    if m > k and intlin.det_bareiss(out) == -1:
        out = tuple(r[:-1] + (-r[-1],) for r in out)
    return out


def _check_split(L: QuadLattice, u) -> tuple:
    """Raises unless a hyperbolic plane splits off at u; returns u."""
    u = _check_vec(L, u)
    if not is_even(L) or not is_unimodular(L):
        raise NoHyperbolicSplit(
            "hyperbolic splitting requires an even unimodular lattice"
        )
    if inner(L, u, u) != 0:
        raise NotIsotropic("u must be isotropic")
    if not is_primitive(L, u):
        raise NotPrimitive("u must be primitive")
    return u


def split_hyperbolic(L: QuadLattice, u):
    """Splits an integral hyperbolic plane off an even unimodular lattice.

    Finds s with (u,s) = 1 by extended gcd over the basis pairings and sets
    z = s − ((s,s)/2)·u, so (z,z) = 0 and (u,z) = 1.  Returns (z, Lprime)
    with Lprime = {u,z}^⊥ — even, unimodular, signature dropped by (1,1);
    the combined basis {u, z} ∪ Lprime.basis generates the whole lattice.
    """
    u = _check_split(L, u)
    # G is unimodular, so gcd(G·u) = gcd(u) = 1
    _, s = intlin.xgcd_vector(gram_column(L, u))
    ss = inner(L, s, s)
    z = tuple([si - (ss // 2) * ui for si, ui in zip(s, u)])
    if inner(L, u, z) != 1 or inner(L, z, z) != 0:
        raise AssertionError("hyperbolic partner construction failed")
    return z, orthogonal_sublattice(L, [u, z])
