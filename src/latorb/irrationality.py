"""Symbolic real vectors over a lattice and irrationality certificates.

A symbolic vector is an exact rational combination of a unit symbol and
finitely many irrational symbols (tags with float approximations, assumed
Q-linearly independent together with 1 — a caller contract this module
cannot verify and therefore records in every certificate).  On top of the
formalism sit three decision procedures: exact computation of the rational
orthogonal sublattice of a symbolic vector, a rank test for whether the
vector avoids every real plane spanned by a fixed isotropic direction and
a lattice point, and a three-step certificate combining both with a
bounded isotropic search.  All of it is exact rational and integer
arithmetic; the one step that reads the float approximations, the sign of
(y,y), evaluates y at those floats exactly.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import intlin
from .errors import (
    DimensionMismatch,
    NotOrthogonal,
    NotPositiveNorm,
    PrecisionError,
)
from .lattice_core import (
    QuadLattice,
    Sublattice,
    _check_split,
    _dot,
    gram_column,
    orthogonal_sublattice,
    sublattice_gram,
)

INDEPENDENCE_ASSUMPTION = (
    "assumes the non-unit symbols are Q-linearly independent together with 1"
)

CERTIFIED = "Certified"
REFUTED = "RefutedWithWitness"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Symbol:
    """A real-number tag: the unit symbol 1, or an irrational with a float."""

    tag: str
    approx: float

    def __post_init__(self):
        object.__setattr__(self, "approx", intlin._reals((self.approx,))[0])


UNIT = Symbol("1", 1.0)


@dataclass(frozen=True)
class SymbolicRealVector:
    """Vector Σ_j symbols[j]·columns[j]/dens[j]: per symbol an integer
    column and its least positive denominator.

    The form is canonical (gcd(dens[j], columns[j]) = 1), so equality and
    hashing are those of the rational vector.  `from_columns` reads
    rational columns into this form.
    """

    symbols: tuple
    columns: tuple
    dens: tuple

    def __post_init__(self):
        syms = self.symbols
        if not syms or syms[0] != UNIT:
            raise ValueError("first symbol must be the rational unit")
        tags = [s.tag for s in syms]
        if len(set(tags)) != len(tags):
            raise ValueError("symbol tags must be pairwise distinct")
        if len(self.columns) != len(syms) or len({len(c) for c in self.columns}) > 1:
            raise DimensionMismatch("need one column per symbol, all of one length")
        if any(d < 1 or math.gcd(d, *c) != 1 for d, c in zip(self.dens, self.columns)):
            raise ValueError("each column must be over its least positive denominator")

    @property
    def rank(self):
        return len(self.columns[0])


def from_columns(symbols, columns) -> SymbolicRealVector:
    """Builds a symbolic vector from one rational column per symbol; the
    entries may be ints, Fractions or "p/q" strings."""
    dens, ints = [], []
    for col in columns:
        col = [Fraction(x) for x in col]
        den = math.lcm(*(x.denominator for x in col))
        dens.append(den)
        ints.append(tuple([x.numerator * (den // x.denominator) for x in col]))
    return SymbolicRealVector(tuple(symbols), tuple(ints), tuple(dens))


def rational_vector(v) -> SymbolicRealVector:
    """Wraps an ordinary rational vector as a one-symbol symbolic vector."""
    return from_columns((UNIT,), [v])


def transform(g, y: SymbolicRealVector) -> SymbolicRealVector:
    """Exact action of an isometry on the columns; g is unimodular, so
    each image keeps its denominator."""
    if len(g.matrix) != y.rank:
        raise DimensionMismatch("isometry rank does not match the vector")
    cols = tuple(intlin.mat_vec(g.matrix, c) for c in y.columns)
    return SymbolicRealVector(y.symbols, cols, y.dens)


def symbolic_inner(L: QuadLattice, y: SymbolicRealVector, v):
    """Per-symbol rational coefficients of the pairing (y, v)."""
    if y.rank != L.rank or len(v) != L.rank:
        raise DimensionMismatch("vector lengths must match the lattice")
    gv = gram_column(L, v)
    return [Fraction(_dot(c, gv), d) for c, d in zip(y.columns, y.dens)]


def rational_constraint_lattice(L: QuadLattice, y: SymbolicRealVector) -> Sublattice:
    """Exact sublattice of lattice vectors pairing to zero with every symbol."""
    if y.rank != L.rank:
        raise DimensionMismatch("vector length must match the lattice")
    return orthogonal_sublattice(L, y.columns)


def certified_norm_sign(L: QuadLattice, y: SymbolicRealVector):
    """Exact sign of (y,y) at the symbol approximations.

    Returns +1, −1 or 0 for the norm of y_a, the rational vector with
    each symbol replaced by its float, evaluated exactly: y_a is scaled
    to one integer vector z over a common denominator, and the sign is
    that of zᵀGz.  It is the sign at the given floats, not at the true
    irrationals.  A zero is returned only when every symbol-pair pairing
    vanishes, which proves (y,y) = 0 as a symbolic identity; a norm that
    is exactly 0 at the floats but not identically 0 raises
    PrecisionError rather than silently guessing.
    """
    if y.rank != L.rank:
        raise DimensionMismatch("vector length must match the lattice")
    cols = y.columns
    # symbol j adds (p_j/q_j)·(c_j/d_j) to y_a; z = den·y_a
    ratios = [s.approx.as_integer_ratio() for s in y.symbols]
    dens = [q * d for (_, q), d in zip(ratios, y.dens)]
    den = math.lcm(*dens)
    factors = [p * (den // m) for (p, _), m in zip(ratios, dens)]
    z = intlin.mat_vec(intlin.transpose(cols), factors)
    norm = _dot(gram_column(L, z), z)
    if norm != 0:
        return 1 if norm > 0 else -1
    if any(map(any, sublattice_gram(L, cols))):
        raise PrecisionError(
            "(y,y) is exactly 0 at the approximations but not identically 0"
        )
    return 0


def is_u_orthoirrational(L: QuadLattice, u, y: SymbolicRealVector) -> bool:
    """Does y avoid every real plane through u and a lattice point of u^⊥?

    Every symbol column c_j of y lies in u^⊥, so its projection into
    u^⊥/Span{u} along the hyperbolic partner of u drops only the u part,
    and the Q-rank of the projections is rank_Q{u, c_j} − 1.  That rank is
    ≤ 1 exactly when the projection is a real multiple of one rational
    point, i.e. when y lies in Span_R{u, x} for some lattice x.
    """
    if any(c != 0 for c in symbolic_inner(L, y, u)):
        raise NotOrthogonal("y must pair to zero with u at every symbol")
    if certified_norm_sign(L, y) < 0:
        raise NotPositiveNorm("y must have positive norm")
    return intlin.rational_rank([_check_split(L, u), *y.columns]) >= 3


def _integer_roots(a, b, c):
    """Integers x with a·x² + 2b·x + c = 0, increasing; None when every
    integer is one."""
    if a == 0:
        if b == 0:
            return None if c == 0 else ()
        return [-c // (2 * b)] if c % (2 * b) == 0 else ()
    disc = b * b - a * c
    if disc < 0:
        return ()
    s = math.isqrt(disc)
    if s * s != disc:
        return ()
    return sorted({(t - b) // a for t in (-s, s) if (t - b) % a == 0})


def _isotropic_walk(L: QuadLattice, basis, height):
    """Primitive isotropic v = Σ c_j·basis[j] with |v_i| ≤ height, one per
    ±pair, in lexicographic order.

    basis must be in row echelon form with positive pivots, as an HNF is.
    Level j picks c_j; the coordinates i from pivot p_j up to p_{j+1} then
    depend on c_1..c_j alone, as v_i + c_j·b_i, so c_j runs over the exact
    window of integers keeping every one of them within the height: the
    intersection of the intervals of the nonzero b_i, empty when a zero
    b_i leaves an out-of-range v_i.  v[p_j] increases with c_j, so the
    depth-first order is lexicographic, and the first nonzero c_j positive
    picks the representative whose leading entry is positive.  One vector
    v is updated in place.  The level above the last solves the last one
    inline: the integer roots of Q(v + c·b_k) = a·c² + 2b·c + q, at most
    two, are held to the height (at v = 0 the only root is 0, so no sign
    test is needed), and only a quadratic that vanishes identically takes
    the window.  Each window's vectors come out together.
    """
    n, k = L.rank, len(basis)
    height = math.floor(height)  # integer coordinates: |v_i| ≤ ⌊height⌋
    steps = [[(i, x) for i, x in enumerate(b) if x] for b in basis]
    pivots = [st[0][0] for st in steps]
    # past each pivot, the coordinates its level fixes, with the level's
    # entries; a coordinate no row up to it touches stays 0 in the window
    fixed = [[(i, b[i]) for i in range(p + 1, e)]
             for b, p, e in zip(basis, pivots, pivots[1:] + [n])]
    gram = sublattice_gram(L, basis)
    v = [0] * n

    def window(j, started):
        p = pivots[j]
        lo, hi = -((height + v[p]) // basis[j][p]), (height - v[p]) // basis[j][p]
        if not started:
            lo = max(lo, 0)
        for i, x in fixed[j]:
            if x > 0:
                lo, hi = max(lo, -((height + v[i]) // x)), min(hi, (height - v[i]) // x)
            elif x < 0:
                lo, hi = max(lo, -((v[i] - height) // x)), min(hi, -(height + v[i]) // x)
            elif abs(v[i]) > height:
                return ()
        return range(lo, hi + 1)

    def shift(j, c):
        for i, x in steps[j]:
            v[i] += c * x

    def level(j, pair, q, started):  # pair[i] = (v, b_i), q = (v, v)
        cs, g = window(j, started), gram[j]
        if j < k - 2:
            for c in cs:
                shift(j, c)
                yield from level(j + 1, [x + c * y for x, y in zip(pair, g)],
                                 q + c * (2 * pair[j] + c * g[j]), started or c != 0)
                shift(j, -c)
        elif cs:  # the last level inline; b_j is added once per step of c
            shift(j, cs[0])
            q += cs[0] * (2 * pair[j] + cs[0] * g[j])
            # s = (v, b_j) and b = (v, b_k) step with c as q does
            s, b, out = pair[j] + cs[0] * g[j], pair[-1] + cs[0] * g[-1], []
            for c in cs:
                roots = _integer_roots(gram[-1][-1], b, q)
                for d in window(k - 1, started or c != 0) if roots is None else roots:
                    w = v[:]
                    for i, x in steps[-1]:
                        w[i] += d * x
                    if -height <= min(w) and max(w) <= height and math.gcd(*w) == 1:
                        out.append(tuple(w))  # gcd 1 also drops w = 0
                q, s, b = q + 2 * s + g[j], s + g[j], b + g[-1]
                for i, x in steps[j]:
                    v[i] += x
            shift(j, -cs.stop)
            yield from out

    if k > 1:
        yield from level(0, [0] * k, 0, False)
    elif k and gram[0][0] == 0 and math.gcd(*basis[0]) == 1 and max(map(abs, basis[0])) <= height:
        yield tuple(basis[0])  # the one primitive multiple with a positive pivot


def find_isotropic_orthogonal(L: QuadLattice, y: SymbolicRealVector, height):
    """All primitive isotropic lattice vectors ⊥ y up to the given height.

    Exhaustive within the bound: a depth-first walk over the coefficients
    of the echelon (Hermite) basis of the exact orthogonal sublattice.
    Each level's coefficient runs over the exact window of integers that
    keeps every coordinate the level fixes within the height, so no
    branch is built only to be dropped; the last coefficient is the
    integer root of a quadratic, solved before any window is, so only
    isotropic vectors come out.  One representative per ±pair (leading
    entry positive), in lexicographic order.  height must be a finite real
    number; below 1 the walk yields nothing, but y is still checked.
    """
    intlin._reals((height,))  # a finite real number
    return list(_isotropic_walk(L, rational_constraint_lattice(L, y).basis, height))


@dataclass(frozen=True)
class IrrationalityCertificate:
    verdict: str
    witness_u: tuple | None
    perp_rank: int
    height_bound_used: int
    assumption: str = field(default=INDEPENDENCE_ASSUMPTION)

    def __post_init__(self):
        if self.verdict not in (CERTIFIED, REFUTED, INCONCLUSIVE):
            raise ValueError("unknown verdict")
        if self.verdict in (CERTIFIED, REFUTED) and self.witness_u is None:
            raise ValueError("this verdict must carry a witness")


def certify_orthoisotropic_irrational(
    L: QuadLattice, y: SymbolicRealVector, height
) -> IrrationalityCertificate:
    """Three-step certificate for orthoisotropic irrationality of y.

    Step 1 searches for a primitive isotropic vector orthogonal to y up to
    the height bound; none found means Inconclusive.  Step 2 applies the
    rank certificate: when the exact orthogonal sublattice has rank at
    most rank(L) − 3, no real plane through any isotropic u ⊥ y can catch
    y — a plane witness would force a corank-2 sublattice inside y^⊥ — so
    the verdict is Certified for all u at once.  Step 3 is decided by
    the rank r = rank(L) − rank(y^⊥ ∩ Λ) ≤ 2 of the span V of the symbol
    columns of y: the rank test of `is_u_orthoirrational` fails for every
    u when r ≤ 1, and when r = 2 exactly for u in V, i.e. (as u ⊥ V) for
    u in the radical V ∩ V^⊥.  The search only supplies the witness: the
    first failing u, or Inconclusive when none lies within the height.

    Each search is a lexicographic walk as in `find_isotropic_orthogonal`,
    consumed lazily up to the window that holds its first vector.  The
    radical's walk has the same order and sign convention as the walk over
    y^⊥ ∩ Λ, so its first vector is the first failing u of the full sorted
    list.
    """
    intlin._reals((height,))  # a finite real number
    if certified_norm_sign(L, y) < 0:
        raise NotPositiveNorm("y must have positive norm")
    perp = rational_constraint_lattice(L, y)
    walk = _isotropic_walk(L, perp.basis, height)
    first = next(walk, None)
    if first is None:
        return IrrationalityCertificate(INCONCLUSIVE, None, perp.rank, height)
    if perp.rank <= L.rank - 3:
        return IrrationalityCertificate(CERTIFIED, first, perp.rank, height)
    _check_split(L, first)
    if perp.rank == L.rank - 2:
        radical = intlin.kernel_basis(
            [*(gram_column(L, c) for c in y.columns), *intlin.kernel_basis(y.columns)]
        )
        first = next(_isotropic_walk(L, radical, height), None)
        if first is None:
            return IrrationalityCertificate(INCONCLUSIVE, None, perp.rank, height)
    return IrrationalityCertificate(REFUTED, first, perp.rank, height)
