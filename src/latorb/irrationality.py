"""Symbolic real vectors over a lattice and irrationality certificates.

A symbolic vector is an exact rational combination of a unit symbol and
finitely many irrational symbols (tags with float approximations, assumed
Q-linearly independent together with 1 — a caller contract this module
cannot verify and therefore records in every certificate).  On top of the
formalism sit three decision procedures: exact computation of the rational
orthogonal sublattice of a symbolic vector, a rank test for whether the
vector avoids every real plane spanned by a fixed isotropic direction and
a lattice point, and a three-step certificate combining both with a
bounded isotropic search.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from . import intlin
from .errors import (
    DimensionMismatch,
    NotOrthogonal,
    NotPositiveNorm,
    PrecisionError,
)
from .lattice_core import QuadLattice, Sublattice, _check_split, gram_column

# Interval evaluation runs in a private mpmath context at a fixed working
# precision (bits), so it never reads or changes the global mpmath.iv.
INTERVAL_PRECISION = 128
_IV = mpmath.ctx_iv.MPIntervalContext()
_IV.prec = INTERVAL_PRECISION

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
        if not math.isfinite(self.approx):
            raise ValueError("symbol approximation must be finite")


UNIT = Symbol("1", 1.0)


@dataclass(frozen=True)
class SymbolicRealVector:
    """Vector with coordinates Σ_j coeffs[i][j]·symbol_j, coeffs exact."""

    symbols: tuple
    coeffs: tuple

    def __post_init__(self):
        syms = tuple(self.symbols)
        if not syms or syms[0] != UNIT:
            raise ValueError("first symbol must be the rational unit")
        tags = [s.tag for s in syms]
        if len(set(tags)) != len(tags):
            raise ValueError("symbol tags must be pairwise distinct")
        rows = tuple(
            tuple(Fraction(x) for x in row) for row in self.coeffs
        )
        if any(len(row) != len(syms) for row in rows):
            raise DimensionMismatch("coefficient rows must match the symbols")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "coeffs", rows)

    @property
    def rank(self):
        return len(self.coeffs)

    def column(self, j):
        """Exact rational coordinate vector attached to symbol j."""
        return [row[j] for row in self.coeffs]

    def columns(self):
        return [self.column(j) for j in range(len(self.symbols))]

    def approx_coords(self):
        """Float coordinates obtained by substituting the approximations."""
        vals = [s.approx for s in self.symbols]
        return [
            float(sum(Fraction(v) * c for v, c in zip(vals, row)))
            for row in self.coeffs
        ]


def rational_vector(v) -> SymbolicRealVector:
    """Wraps an ordinary rational vector as a one-symbol symbolic vector."""
    return SymbolicRealVector((UNIT,), tuple((Fraction(x),) for x in v))


def from_columns(symbols, columns) -> SymbolicRealVector:
    """Builds a symbolic vector from one rational column per symbol."""
    rows = tuple(tuple(col[i] for col in columns) for i in range(len(columns[0])))
    return SymbolicRealVector(tuple(symbols), rows)


def transform(g, y: SymbolicRealVector) -> SymbolicRealVector:
    """Exact action of an isometry on the coefficient matrix."""
    if len(g.matrix) != y.rank:
        raise DimensionMismatch("isometry rank does not match the vector")
    new_cols = [intlin.mat_vec(g.matrix, col) for col in y.columns()]
    return from_columns(y.symbols, new_cols)


def scale(y: SymbolicRealVector, factor) -> SymbolicRealVector:
    f = Fraction(factor)
    return SymbolicRealVector(
        y.symbols, tuple(tuple(f * x for x in row) for row in y.coeffs)
    )


def symbolic_inner(L: QuadLattice, y: SymbolicRealVector, v):
    """Per-symbol rational coefficients of the pairing (y, v)."""
    if y.rank != L.rank or len(v) != L.rank:
        raise DimensionMismatch("vector lengths must match the lattice")
    gv = gram_column(L, v)
    return [sum(c * x for c, x in zip(col, gv)) for col in y.columns()]


def _constraint_rows(L, y):
    """One integer row per symbol, cutting out the exact orthogonal lattice."""
    rows = []
    for col in y.columns():
        row = intlin.mat_vec(L.gram, col)  # the gram matrix is symmetric
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        rows.append([int(x * den) for x in row])
    return rows


def rational_constraint_lattice(L: QuadLattice, y: SymbolicRealVector) -> Sublattice:
    """Exact sublattice of lattice vectors pairing to zero with every symbol."""
    if y.rank != L.rank:
        raise DimensionMismatch("vector length must match the lattice")
    rows = [r for r in _constraint_rows(L, y) if any(r)]
    if not rows:
        return Sublattice(intlin.identity(L.rank))
    return Sublattice(intlin.kernel_basis(rows))


def _interval_from_fraction(x: Fraction):
    return _IV.mpf(x.numerator) / _IV.mpf(x.denominator)


def certified_norm_sign(L: QuadLattice, y: SymbolicRealVector):
    """Sign of (y,y) under the symbol approximations, by interval arithmetic.

    Returns +1, −1, or 0.  The zero is exact — it is returned only when
    every rational coefficient of every symbol product vanishes, which
    proves (y,y) = 0 without touching the approximations.  Otherwise the
    sign comes from an interval evaluation, and an interval that straddles
    (or touches) zero raises PrecisionError rather than silently guessing.
    """
    if y.rank != L.rank:
        raise DimensionMismatch("vector length must match the lattice")
    cols = y.columns()
    pair = [
        [
            sum(a * b for a, b in zip(intlin.mat_vec(L.gram, cs), ct))
            for ct in cols
        ]
        for cs in cols
    ]
    if all(q == 0 for row in pair for q in row):
        return 0
    total = _IV.mpf(0)
    vals = [
        _IV.mpf(1) if s == UNIT else _IV.mpf(s.approx)
        for s in y.symbols
    ]
    for s, row in enumerate(pair):
        for t, q in enumerate(row):
            if q != 0:
                total += _interval_from_fraction(q) * vals[s] * vals[t]
    if total.a > 0:
        return 1
    if total.b < 0:
        return -1
    raise PrecisionError(
        "norm interval straddles zero at this working precision"
    )


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
    u = _check_split(L, u)
    return intlin.rational_rank([u, *y.columns()]) >= 3


def find_isotropic_orthogonal(L: QuadLattice, y: SymbolicRealVector, height):
    """All primitive isotropic lattice vectors ⊥ y up to the given height.

    Exhaustive within the bound: enumerates coordinates over the exact
    orthogonal sublattice inside a box large enough to cover every vector
    of the requested height (bounds from an exact pseudo-inverse), then
    filters.  One representative per ±pair, in lexicographic order.
    """
    if height < 1:
        return []
    constraint = rational_constraint_lattice(L, y)
    k = constraint.rank
    if k == 0:
        return []
    basis = constraint.basis
    bt = intlin.transpose(basis)  # columns are the basis vectors
    gramk = intlin.mat_mul(basis, bt)
    ginv = intlin.rational_inverse(gramk)
    pseudo = intlin.mat_mul([[Fraction(x) for x in row] for row in bt], ginv)
    bounds = []
    for j in range(k):
        colsum = sum(abs(pseudo[i][j]) for i in range(L.rank))
        bounds.append(int(height * colsum))
    out = []
    for c in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if all(x == 0 for x in c):
            continue
        v = [sum(ci * bi[i] for ci, bi in zip(c, basis)) for i in range(L.rank)]
        if max(abs(x) for x in v) > height:
            continue
        lead = next(x for x in v if x != 0)
        if lead < 0:
            continue  # keep one representative per ±pair
        if intlin.vector_gcd(v) != 1:
            continue
        gv = intlin.mat_vec(L.gram, v)
        if sum(a * b for a, b in zip(gv, v)) != 0:
            continue
        out.append(tuple(v))
    out.sort()
    return out


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
    the verdict is Certified for all u at once.  Step 3 falls back to
    testing each found u individually: a failure refutes with that
    witness, while universal success stays Inconclusive because only
    finitely many u were examined.
    """
    if certified_norm_sign(L, y) < 0:
        raise NotPositiveNorm("y must have positive norm")
    perp = rational_constraint_lattice(L, y)
    found = find_isotropic_orthogonal(L, y, height)
    if not found:
        return IrrationalityCertificate(INCONCLUSIVE, None, perp.rank, height)
    if perp.rank <= L.rank - 3:
        return IrrationalityCertificate(CERTIFIED, found[0], perp.rank, height)
    for u in found:
        if not is_u_orthoirrational(L, u, y):
            return IrrationalityCertificate(REFUTED, u, perp.rank, height)
    return IrrationalityCertificate(INCONCLUSIVE, None, perp.rank, height)
