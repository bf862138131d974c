"""Integral isometries of quadratic lattices.

Eichler transvections, identity-component membership, stabilizer-shape
predicates, and a constructive reduction mapping any primitive isotropic
vector to any other (two orthogonal hyperbolic planes are required, as in
the rank-6 and rank-22 models).  Everything is exact; the maps built
here are words in transvections.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import intlin
from .errors import (
    DimensionMismatch,
    NoHyperbolicSplit,
    NotIsotropic,
    NotPrimitive,
)
from .lattice_core import (
    QuadLattice,
    _check_vec,
    _dot,
    gram_column,
    is_even,
    is_isotropic,
    is_primitive,
    split_hyperbolic,
    sublattice_gram,
)


@dataclass(frozen=True)
class Isometry:
    """Integral isometry of a quadratic lattice, acting by matrix × column."""

    matrix: tuple
    lattice: QuadLattice

    def __post_init__(self):
        m = tuple(map(intlin._ints, self.matrix))
        object.__setattr__(self, "matrix", m)
        n = self.lattice.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise DimensionMismatch("matrix does not match the lattice rank")
        # MᵀGM, the pairings of M's columns, is G; with det G ≠ 0 that
        # already forces det M = ±1
        if sublattice_gram(self.lattice, zip(*m)) != self.lattice.gram:
            raise ValueError("matrix does not preserve the bilinear form")

    @cached_property
    def det(self):
        """det M, cached.  The form check in `__post_init__` makes it ±1,
        so `_det_mod3` decides it without a Bareiss determinant."""
        return 1 if _det_mod3(self.matrix) == 1 else -1

    @cached_property
    def so_plus(self):
        """`is_in_so_plus`, evaluated once per isometry."""
        if self.det != 1:
            return False
        basis, columns = _positive_frame(self.lattice)
        images = [intlin.mat_vec(self.matrix, p) for p in basis]
        return intlin.det_bareiss([[_dot(gp, c) for c in columns] for gp in images]) > 0


def _det_mod3(m):
    """det m mod 3, by elimination over Z/3.

    For an isometry this decides the determinant exactly: MᵀGM = G with
    det G ≠ 0 forces det M = ±1, and 1 ≢ −1 (mod 3).  Each step moves the
    first row k with a nonzero leading entry p to the top, a cyclic shift
    of k + 1 rows with sign (−1)^k, and clears the first column below it;
    p⁻¹ = p mod 3, so each other row i loses a_i0·p times row k.
    """
    a = [[x % 3 for x in row] for row in m]
    d = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[0]), None)
        if k is None:
            return 0
        p = a.pop(k)
        d *= -p[0] if k % 2 else p[0]
        rest = p[1:]
        a = [
            [(x - f * y) % 3 for x, y in zip(row[1:], rest)]
            if (f := row[0] * p[0])
            else row[1:]
            for row in a
        ]
    return d % 3


def identity_isometry(L: QuadLattice) -> Isometry:
    return Isometry(intlin.identity(L.rank), L)


def apply(g: Isometry, v):
    return intlin.mat_vec(g.matrix, _check_vec(g.lattice, v))


def compose(g: Isometry, h: Isometry) -> Isometry:
    """g ∘ h — h acts first."""
    if g.lattice != h.lattice:
        raise DimensionMismatch("isometries act on different lattices")
    return Isometry(intlin.mat_mul(g.matrix, h.matrix), g.lattice)


def invert(g: Isometry) -> Isometry:
    return Isometry(intlin.integer_inverse(g.matrix), g.lattice)


def _transvect(e, a, ge, ga, xs):
    """Images of the vectors xs under x ↦ x + (x,e)a − (x,a)e − ½(a,a)(x,e)e.

    ge and ga are the Gram columns of e and a.  The caller guarantees
    (e,e) = 0, (e,a) = 0 and an even lattice, so the correction term is
    integral.  Pairings and updates read only the nonzero entries of ge,
    ga, e and a, and a vector with (x,e) = 0 and zero correction comes
    back unchanged.
    """
    half_aa = _dot(ga, a) // 2
    ge, ga, e, a = ([(i, x) for i, x in enumerate(w) if x] for w in (ge, ga, e, a))
    out = []
    for x in xs:
        xe = 0
        for i, g in ge:
            xe += g * x[i]
        c = half_aa * xe
        for i, g in ga:
            c += g * x[i]
        if xe == 0 and c == 0:
            out.append(x)
            continue
        y = list(x)
        for i, ai in a:
            y[i] += xe * ai
        for i, ei in e:
            y[i] -= c * ei
        out.append(tuple(y))
    return out


def eichler_transvection(L: QuadLattice, e, a) -> Isometry:
    """Unipotent isometry x ↦ x + (x,e)a − (x,a)e − ½(a,a)(x,e)e.

    Needs (e,e) = 0, (e,a) = 0 and an even lattice, so the correction term
    is integral.  Fixes e; inverse is the transvection at (e, −a).
    """
    ge, ga = gram_column(L, e), gram_column(L, a)
    if not is_even(L):
        raise ValueError("transvections need an even lattice")
    if _dot(ge, e) != 0:
        raise NotIsotropic("e must be isotropic")
    if _dot(ge, a) != 0:
        raise ValueError("a must pair to zero with e")
    cols = _transvect(e, a, ge, ga, intlin.identity(L.rank))
    return Isometry(intlin.transpose(cols), L)


@lru_cache(maxsize=None)
def _positive_frame(L: QuadLattice):
    """Orthogonal integer basis of a maximal positive subspace, with the
    Gram column of each vector."""
    basis = intlin.positive_basis(L.gram)
    return basis, [gram_column(L, p) for p in basis]


def is_in_so_plus(g: Isometry) -> bool:
    """Whether g preserves the orientation of a maximal positive subspace.

    For an orthogonal positive basis P the sign of det[(g·p_i, p_j)] is the
    sign of the determinant of g's projection onto Span P; P is the
    integer `positive_basis`, so the determinant is an integer one (1 for
    an empty frame, 0 for a degenerate projection).  An isometry of
    determinant −1 is not in SO⁺.  The verdict is kept on g, like its
    determinant.
    """
    return g.so_plus


class _Frame:
    """Two orthogonal hyperbolic planes (e1,f1), (e2,f2) plus the remainder.

    The column matrix [e1 f1 e2 f2 | rest] is a basis of the lattice.  The
    planes are orthogonal to each other and to rest, so the coordinate of
    e1 is the pairing with f1 and so on; partners holds the Gram columns
    of f1, e1, f2, e2 for those pairings, and rest_columns those of rest.
    rest_t holds the rest vectors as columns, so a combination of them is
    one matrix-vector product.
    """

    __slots__ = ("e1", "f1", "e2", "f2", "rest_t", "partners", "rest_columns")

    def __init__(self, L, e1, f1, e2, f2, rest):
        self.e1, self.f1, self.e2, self.f2 = e1, f1, e2, f2
        self.rest_t = intlin.transpose(rest)
        self.partners = [gram_column(L, v) for v in (f1, e1, f2, e2)]
        self.rest_columns = [gram_column(L, r) for r in rest]


@lru_cache(maxsize=None)
def _hyperbolic_frame(L: QuadLattice) -> _Frame:
    n = L.rank
    i = next((i for i in range(n) if L.gram[i][i] == 0), None)
    if i is None:
        raise NoHyperbolicSplit("no isotropic basis vector to split at")
    e1 = intlin.identity(n)[i]
    f1, comp = split_hyperbolic(L, e1)
    if comp.rank < 2:
        raise NoHyperbolicSplit("lattice has no second hyperbolic plane")
    inner_gram = QuadLattice(sublattice_gram(L, comp.basis))
    j = next((k for k in range(comp.rank) if inner_gram.gram[k][k] == 0), None)
    if j is None:
        raise NoHyperbolicSplit("no isotropic vector in the split complement")
    e2c = intlin.identity(comp.rank)[j]
    f2c, comp2 = split_hyperbolic(inner_gram, e2c)
    # complement coordinates c map to the ambient vector c·comp.basis
    to_ambient = intlin.transpose(comp.basis)
    e2 = intlin.mat_vec(to_ambient, e2c)
    f2 = intlin.mat_vec(to_ambient, f2c)
    rest = intlin.mat_mul(comp2.basis, comp.basis)
    return _Frame(L, e1, f1, e2, f2, rest)


class _Reduction:
    """Accumulates a word of transvections driving a vector to frame.e1.

    The word is a list of (e, a, ge, ga) steps, applied first to last, with
    ge and ga the Gram columns of e and a.  Every e is a frame vector and
    every a pairs to zero with it, so a step needs no precondition check.
    """

    def __init__(self, L, frame, t):
        self.L = L
        self.fr = frame
        self.t = tuple(t)
        self.word = []

    def coords(self):
        """Coordinates of t along e1, f1, e2, f2."""
        return tuple(_dot(g, self.t) for g in self.fr.partners)

    def emit(self, e, a):
        step = (e, a, gram_column(self.L, e), gram_column(self.L, a))
        self.t = _transvect(*step, [self.t])[0]
        self.word.append(step)

    # The four elementary moves act on the 2×2 coefficient matrix
    # M = [[α, −γ], [δ, β]] of t over (e1, f1) × (e2, f2):
    def l_up(self, k):  # M ← [[1,k],[0,1]]·M
        self.emit(self.fr.e2, tuple(k * x for x in self.fr.e1))

    def l_low(self, k):  # M ← [[1,0],[k,1]]·M
        self.emit(self.fr.f1, tuple(k * x for x in self.fr.f2))

    def r_up(self, k):  # M ← M·[[1,k],[0,1]]
        self.emit(self.fr.e2, tuple(k * x for x in self.fr.f1))

    def r_low(self, k):  # M ← M·[[1,0],[k,1]]
        self.emit(self.fr.e1, tuple(k * x for x in self.fr.f2))

    def swap_left(self):  # M ← [[0,1],[−1,0]]·M
        self.l_up(1)
        self.l_low(-1)
        self.l_up(1)

    def swap_right(self):  # M ← M·[[0,1],[−1,0]]
        self.r_up(1)
        self.r_low(-1)
        self.r_up(1)

    def rest_pairings(self):
        return [_dot(g, self.t) for g in self.fr.rest_columns]

    def rest_combination(self, coeffs):
        return intlin.mat_vec(self.fr.rest_t, coeffs)

    def run(self):
        al, be, ga, de = self.coords()
        if al == be == ga == de == 0:
            # t lies in the plane-orthogonal remainder; pull it towards e1
            # with a pure translation (the e1-pairing is zero, so no
            # quadratic correction appears)
            d, coeffs = intlin.xgcd_vector(self.rest_pairings())
            if d != 1:  # unimodularity: primitive vectors pair onto 1
                raise AssertionError("remainder pairings are not coprime")
            self.emit(self.fr.e1, self.rest_combination([-c for c in coeffs]))
        self.dance()
        al, be, ga, de = self.coords()
        if al != 1:
            # fold the remainder divisor into the plane coefficients, then
            # rerun the euclidean dance; primitivity forces gcd 1 overall
            d, coeffs = intlin.xgcd_vector(self.rest_pairings())
            if d <= 0:
                raise AssertionError("remainder pairings vanish")
            self.emit(self.fr.e2, self.rest_combination(coeffs))
            self.dance()
            al, be, ga, de = self.coords()
        if not (al == 1 and ga == 0 and de == 0):
            raise AssertionError("euclidean dance left a non-unit corner")
        w = tuple(
            x - al * e - be * f
            for x, e, f in zip(self.t, self.fr.e1, self.fr.f1)
        )
        self.emit(self.fr.f1, tuple(-x for x in w))
        if self.t != self.fr.e1:
            raise AssertionError("reduction did not reach the frame vector")
        return self.word

    def dance(self):
        """Euclidean reduction of M to [[g,0],[0,*]] with g = gcd > 0."""
        while True:
            al, be, ga, de = self.coords()
            if de != 0:
                if al == 0 or abs(de) < abs(al):
                    self.swap_left()
                else:
                    self.l_low(-(de // al))
                continue
            if ga != 0:
                m01 = -ga
                if al == 0 or abs(m01) < abs(al):
                    self.swap_right()
                else:
                    self.r_up(-(m01 // al))
                continue
            if al == 0:
                if be != 0:
                    self.swap_left()  # rotate β into the working corner
                    continue
                # whole plane part vanished mid-dance: cannot happen for a
                # nonzero gcd, which every euclidean move preserves
                raise NotPrimitive("zero vector cannot be reduced")
            if be % al != 0:
                self.r_low(1)  # re-expose β to the euclidean loop
                continue
            if al < 0:
                self.swap_left()
                self.swap_left()  # left −1: negates α and β
                continue
            return


def map_isotropic(L: QuadLattice, u, v) -> Isometry:
    """Integral isometry in the identity component sending u to v.

    Requires two orthogonal hyperbolic-plane summands (as in the rank-6
    and rank-22 models).  Both vectors are reduced to a common frame
    vector by words in Eichler transvections; the result is the second
    word's inverse composed with the first, applied to the identity
    columns and validated once.  The inverse of a word is the reversed
    word with every a negated, and with it the Gram column of a, which is
    linear in a.  Transvections are unipotent, so the word lies in the
    identity component; the check below is a tripwire.
    """
    for t in (u, v):
        if not is_isotropic(L, t):
            raise NotIsotropic("endpoints must be isotropic")
        if not is_primitive(L, t):
            raise NotPrimitive("endpoints must be primitive")
    frame = _hyperbolic_frame(L)
    word_u = _Reduction(L, frame, u).run()
    word_v = _Reduction(L, frame, v).run()
    word = word_u + [
        (e, [-x for x in a], ge, [-x for x in ga])
        for e, a, ge, ga in reversed(word_v)
    ]
    cols = intlin.identity(L.rank)
    for step in word:
        cols = _transvect(*step, cols)
    g = Isometry(intlin.transpose(cols), L)
    if apply(g, u) != tuple(v):
        raise AssertionError("transvection word does not carry u to v")
    if not is_in_so_plus(g):
        raise AssertionError("transvection word left the identity component")
    return g


def _columns(L: QuadLattice, y):
    """Integer columns of y: one per symbol, each a positive multiple of
    the rational one, or y itself if it is a vector."""
    return y.columns if hasattr(y, "columns") else (_check_vec(L, y),)


def _is_multiple(vec, u):
    """Whether vec is a rational multiple of u, by cross-multiplication
    against the first nonzero entry of u."""
    k = next((i for i, b in enumerate(u) if b), None)
    if k is None:
        return not any(vec)
    return all(a * u[k] == vec[k] * b for a, b in zip(vec, u))


def is_in_gu(g: Isometry, u) -> bool:
    """Stabilizer of u inside the identity component."""
    u = _check_vec(g.lattice, u)
    return apply(g, u) == u and is_in_so_plus(g)


def is_in_hy(g: Isometry, u, y) -> bool:
    """Simultaneous stabilizer of u and of y (y may carry symbols)."""
    return is_in_gu(g, u) and all(
        intlin.mat_vec(g.matrix, c) == c for c in _columns(g.lattice, y)
    )


def is_in_ky(g: Isometry, u, y) -> bool:
    """Stabilizer of u moving y only along u.

    Membership forces setwise preservation of y^⊥ ∩ u^⊥: for x there,
    (gx, u) = (x, u) = 0 and (gx, y) = (x, g⁻¹y) = (x, y ∓ cu) = 0.
    """
    return is_in_gu(g, u) and all(
        _is_multiple([a - b for a, b in zip(intlin.mat_vec(g.matrix, c), c)], u)
        for c in _columns(g.lattice, y)
    )


def gu_lattice_generators(L: QuadLattice, u):
    """Finite generating set inside the stabilizer of u.

    Two families: transvections at u itself (one per basis vector of
    u^⊥ ∩ Λ), and transvections supported on the orthogonal complement of
    the hyperbolic plane split off at u, extended by the identity.  The
    list is deliberately rich but makes no claim of generating the full
    stabilizer.
    """
    _, comp = split_hyperbolic(L, u)
    out = []
    seen = set()

    def push(g):
        if g.matrix != intlin.identity(L.rank) and g.matrix not in seen:
            seen.add(g.matrix)
            out.append(g)

    for a in intlin.kernel_basis([gram_column(L, u)]):
        push(eichler_transvection(L, u, a))
    cg = sublattice_gram(L, comp.basis)
    for i, e in enumerate(comp.basis):
        if cg[i][i] != 0:
            continue
        for j, a in enumerate(comp.basis):
            if i != j and cg[i][j] == 0:
                push(eichler_transvection(L, e, a))
    for g in out:
        if not is_in_gu(g, u):
            raise AssertionError("generator does not stabilize u")
    return out
