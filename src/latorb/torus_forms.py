"""Linear symplectic forms on even-dimensional tori, in adapted blocks.

A form vanishing on a fixed Lagrangian plane l is, in a basis adapted to a
complementary pair (l, l′), the block matrix [[0, −Cᵀ], [C, D]] with C
invertible and D skew.  Integral shears [[I, B], [0, A]] act by congruence;
the solver below drives D towards 0 along that action, which is the
effective content of the density statement for split forms.  A float
matrix is a tuple of rows of Python floats, as an integer matrix is in
`intlin`, and every float pairing is one `intlin._fdot`, so each result
has the same bits on every host.  Four parts are exact integer arithmetic:
determinants, read over one power-of-two denominator and rounded once, the
solver's lift of a reduced basis from one embedding weight to the next,
its bound on each candidate's residual, by which it ranks, stops and
reports, and the exterior-square bridge at the bottom.
"""

import math
import random
import sys
from dataclasses import dataclass

from .errors import (
    DegenerateGram,
    DidNotConverge,
    DimensionMismatch,
    InvalidTolerance,
    NotComplementary,
    NotVanishingOnL,
)
from . import intlin
from .intlin import _fdot, transpose
from .isometries import Isometry
from .lattice_core import QuadLattice, Sublattice

DET_TOL = 1e-10
VANISH_TOL = 1e-12
LLL_DELTA = 0.99
# Bound on the loop steps of one `_lll` call.  The seeded solver targets
# at n = 2 / 3 / 4 take at most 27 / 217 / 980, so reaching it means the
# loop does not terminate, not that the input is large.
LLL_MAX_STEPS = 200_000


def _as_float_matrix(m):
    """m as a square tuple of float rows, each row read by `intlin._reals`;
    rows of unequal length raise ValueError."""
    try:
        rows = [tuple(row) for row in m]
    except TypeError:
        raise TypeError("expected a square matrix given as a list of rows") from None
    a = tuple(map(intlin._reals, rows))
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("matrix rows must have equal length")
    if not a or len(a[0]) != len(a):
        raise DimensionMismatch("expected a square matrix")
    return a


def _mat_mul(a, b):
    """a·b for float or integer matrices, each entry one `_fdot`."""
    bt = transpose(b)
    return tuple(tuple([_fdot(row, col) for col in bt]) for row in a)


def _skew_part(m):
    """½(m − mᵀ), entry by entry."""
    return tuple(tuple((x - y) / 2.0 for x, y in zip(r, c)) for r, c in zip(m, zip(*m)))


def _is_skew(m):
    return all(x == -y for r, c in zip(m, zip(*m)) for x, y in zip(r, c))


def _over_common_denominator(rows):
    """Float rows as integer rows over one power-of-two denominator: every
    float is a dyadic rational, so the largest denominator serves them all."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in rows]
    den = max(q for row in ratios for _, q in row)
    return [[p * (den // q) for p, q in row] for row in ratios], den


def _det(m):
    """The float nearest det m: Bareiss on the integers of m over one
    denominator, then one correctly rounded division, which raises
    OverflowError past the float range."""
    ints, den = _over_common_denominator(m)
    return intlin.det_bareiss(ints) / den ** len(m)


def _check_complementary(l: Sublattice, lprime: Sublattice):
    """The basis rows of l then l′; raises unless the two integral spans
    sum to the full lattice."""
    stacked = l.basis + lprime.basis
    if abs(intlin.det_bareiss(stacked)) != 1:
        raise NotComplementary("integral spans of the planes do not sum to the full lattice")
    return stacked


class LinearSymplecticForm:
    """Nondegenerate skew 2n×2n real matrix; skewness is exact."""

    def __init__(self, matrix):
        a = _as_float_matrix(matrix)
        if len(a) % 2 != 0:
            raise DimensionMismatch("symplectic forms live in even dimension")
        if not _is_skew(a):
            raise ValueError("matrix must be exactly skew-symmetric")
        if _pf(a) == 0.0:
            raise DegenerateGram("form is degenerate (zero Pfaffian)")
        self.matrix = a


class SplitBlockForm:
    """Adapted-block data (C, D): the form [[0, −Cᵀ], [C, D]]."""

    def __init__(self, c, d):
        c = _as_float_matrix(c)
        d = _as_float_matrix(d)
        if len(c) != len(d):
            raise DimensionMismatch("C and D must share a size")
        # det C is exact up to one rounding, but a shear image C′ = AᵀC is
        # rounded entry by entry, so its det may miss 1 by a small multiple
        # of n·eps·∏ᵢ‖cᵢ‖₂, ∏ᵢ‖cᵢ‖₂ being Hadamard's bound (Higham, Accuracy
        # and Stability of Numerical Algorithms, 2002)
        hadamard = math.prod(math.hypot(*row) for row in c)
        rounding = 4 * len(c) * sys.float_info.epsilon * hadamard
        if abs(_det(c) - 1.0) > DET_TOL + rounding:
            raise ValueError("C must have determinant 1")
        if not _is_skew(d):
            raise ValueError("D must be exactly skew-symmetric")
        self.c = c
        self.d = d

    @property
    def n(self):
        return len(self.c)

    def assembled(self):
        zero = (0.0,) * self.n
        return tuple((*zero, *(-x for x in col)) for col in zip(*self.c)) + tuple(
            (*crow, *drow) for crow, drow in zip(self.c, self.d)
        )


class IntegralShear:
    """Block matrix [[I, B], [0, A]] with integer blocks and det A = 1."""

    def __init__(self, b, a=None):
        self.b = tuple(map(intlin._ints, b))
        n = len(self.b)
        if any(len(row) != n for row in self.b):
            raise DimensionMismatch("B must be square")
        self.a = tuple(map(intlin._ints, intlin.identity(n) if a is None else a))
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise DimensionMismatch("A must match B in size")
        if intlin.det_bareiss(self.a) != 1:
            raise ValueError("A must have determinant 1")

    @property
    def n(self):
        return len(self.b)


def pfaffian(m):
    """Pfaffian of a square matrix by recursive first-row expansion."""
    a = _as_float_matrix(m)
    if not _is_skew(a):
        raise ValueError("pfaffian needs an exactly skew matrix")
    return _pf(a)


def _pf(a):
    m = len(a)
    if m % 2 != 0:
        raise DimensionMismatch("odd-size skew matrices have no pfaffian")
    if m == 0:
        return 1.0
    total = 0.0
    rest = range(1, m)
    for pos, j in enumerate(rest):
        keep = [k for k in rest if k != j]
        sign = -1.0 if pos % 2 else 1.0
        total += sign * a[0][j] * _pf([[a[r][s] for s in keep] for r in keep])
    return total


def is_lagrangian_subspace(omega: LinearSymplecticForm, l: Sublattice) -> bool:
    a = omega.matrix
    if 2 * l.rank != len(a):
        raise DimensionMismatch("plane rank must be half the dimension")
    pairings = _mat_mul(_mat_mul(l.basis, a), transpose(l.basis))
    return max(abs(x) for row in pairings for x in row) <= VANISH_TOL


def to_blocks(omega: LinearSymplecticForm, l: Sublattice, lprime: Sublattice) -> SplitBlockForm:
    """Reads off (C, D) in the basis adapted to the pair (l, l′)."""
    n = len(omega.matrix) // 2
    if l.rank != n or lprime.rank != n:
        raise DimensionMismatch("both planes must have half rank")
    s = _check_complementary(l, lprime)
    if not is_lagrangian_subspace(omega, l):
        raise NotVanishingOnL("form does not vanish on the first plane")
    lower = _mat_mul(_mat_mul(s, omega.matrix), transpose(s))[n:]
    return SplitBlockForm([r[:n] for r in lower], _skew_part([r[n:] for r in lower]))


def from_blocks(f: SplitBlockForm, l: Sublattice, lprime: Sublattice) -> LinearSymplecticForm:
    """Reassembles the ambient form with prescribed adapted blocks."""
    sinv = intlin.integer_inverse(_check_complementary(l, lprime))
    m = _mat_mul(_mat_mul(sinv, f.assembled()), transpose(sinv))
    return LinearSymplecticForm(_skew_part(m))


def act(g: IntegralShear, f: SplitBlockForm) -> SplitBlockForm:
    """Congruence action of the shear on the adapted blocks:
    C′ = AᵀC and D′ = ½(AᵀDA − (AᵀDA)ᵀ) + (C′B − (C′B)ᵀ)."""
    if g.n != f.n:
        raise DimensionMismatch("shear size must match the form")
    at = transpose(g.a)
    cprime = _mat_mul(at, f.c)
    cb = _mat_mul(cprime, g.b)
    ada = _skew_part(_mat_mul(_mat_mul(at, f.d), g.a))
    d = tuple(
        tuple(s + (x - y) for s, x, y in zip(*rows)) for rows in zip(ada, cb, zip(*cb))
    )
    return SplitBlockForm(cprime, d)


# ---------------------------------------------------------------------------
# lattice reduction helpers (plain float LLL + Babai nearest plane).  `_lll`
# keeps each row's Gram–Schmidt data as far as its inputs are unchanged and
# computes only the rest, so every float it keeps, and so its output, equals
# that of recomputing all of it after each change to the basis, bit for bit


def _lll(rows):
    """Lenstra–Lenstra–Lovász on float row vectors.

    Returns (reduced_rows, transform, star, norms): reduced = transform ·
    rows with transform integer unimodular, star the Gram–Schmidt vectors
    of the reduced rows and norms[i] = ‖star[i]‖².

    Row i of the Gram–Schmidt data is μ_ij = (b_i·b*_j)/‖b*_j‖² for j < i
    and the chain of partial vectors p_0 = b_i, p_{j+1} = p_j − μ_ij b*_j,
    which ends in b*_i = p_i.  μ_ij and p_{j+1} read only b_i, b*_0..b*_j
    and their norms, and the same float operations on the same inputs give
    the same bits.  So a prefix of the row stays exact while those inputs
    are unchanged: fresh[i] counts the leading μ entries of row i that are
    current, every new b*_j cuts the rows above j to at most j, and
    completing a row starts where its current prefix ends.

    At the top of each loop rows 0..i−1 are current, and row i is
    completed there.  Then:

    - size reduction reads each μ_ij as the value the row would store: the
      kept one until b_i first changes, then one product with the current
      b_i.  Row i is recomputed once after the loop if b_i changed;
    - a swap at i moves b_i down to i−1.  Its μ entries and partial
      vectors against b*_0..b*_{i−2} are current, and its partial vector
      p_{i−1} is the new b*_{i−1}.  The row moving up to i keeps its
      entries against b*_0..b*_{i−2} and is completed at the top of the
      loop the next time the walk is at index i.
    """
    b = [list(map(float, r)) for r in rows]
    k = len(b)
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    star = [None] * k
    norms = [0.0] * k
    mu = [[0.0] * k for _ in range(k)]
    # chain[i][:fresh[i] + 1] and mu[i][:fresh[i]] are current
    chain = [[r] for r in b]
    fresh = [0] * k

    def mu_of(i, j):
        return _fdot(b[i], star[j]) / norms[j] if norms[j] else 0.0

    def set_star(i):
        star[i] = s = chain[i][i]
        norms[i] = _fdot(s, s)
        fresh[i] = i
        for r in range(i + 1, k):
            if fresh[r] > i:
                fresh[r] = i

    def gso_row(i):
        partials = chain[i]
        del partials[fresh[i] + 1 :]
        v = partials[-1]
        for j in range(fresh[i], i):
            mu[i][j] = m = mu_of(i, j)
            v = [x - m * y for x, y in zip(v, star[j])]
            partials.append(v)
        set_star(i)

    if k:
        set_star(0)
    i, steps = 1, 0
    while i < k:
        steps += 1
        if steps > LLL_MAX_STEPS:
            raise DidNotConverge(f"lattice reduction did not finish in {LLL_MAX_STEPS} steps")
        if fresh[i] < i:
            gso_row(i)
        changed = False
        for j in range(i - 1, -1, -1):
            q = round(mu_of(i, j) if changed else mu[i][j])
            if q != 0:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                u[i] = [x - q * y for x, y in zip(u[i], u[j])]
                changed = True
        if changed:
            chain[i] = [b[i]]
            fresh[i] = 0
            gso_row(i)
        if norms[i] >= (LLL_DELTA - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            u[i], u[i - 1] = u[i - 1], u[i]
            mu[i], mu[i - 1] = mu[i - 1], mu[i]
            chain[i], chain[i - 1] = chain[i - 1], chain[i]
            set_star(i - 1)
            i = max(i - 1, 1)
    return b, u, star, norms


def _babai(reduced, transform, star, norms, target):
    """Nearest-plane: integer coefficients (on the original basis) of a
    lattice vector close to target, given the output of `_lll`."""
    t = target
    coeffs = [0] * len(reduced)
    for i in reversed(range(len(reduced))):
        c = round(_fdot(t, star[i]) / norms[i]) if norms[i] else 0
        coeffs[i] = c
        t = [x - c * y for x, y in zip(t, reduced[i])]
    return intlin.mat_vec(intlin.transpose(transform), coeffs)


@dataclass(frozen=True)
class SolveResult:
    cprime: tuple
    b: tuple
    err: float
    rounds: int


def _directions(c):
    """Skew-upper coordinates of C′E_ij − (C′E_ij)ᵀ, one row per entry of B
    in row-major order, from C′ as integer rows c over a denominator they
    share.  Coordinate (a, b) is c_ai if b = j, −c_bi if a = j, and 0
    otherwise, so the rows are exact."""
    n = len(c)
    return tuple(
        tuple(
            (c[a][i] if b == j else 0) - (c[b][i] if a == j else 0)
            for a in range(n)
            for b in range(a + 1, n)
        )
        for i in range(n)
        for j in range(n)
    )


def _lifted_rows(u, dirs, den, mu):
    """Rows of U·[μI | dirs/(den·μ)], each entry rounded once from its exact
    value (an integer quotient, which Python rounds correctly)."""
    p, q = mu.as_integer_ratio()
    return [
        [x * p / q for x in row] + [s * q / (den * p) for s in srow]
        for row, srow in zip(u, intlin.mat_mul(u, dirs))
    ]


_WEIGHTS = tuple(10.0 ** (-e) for e in range(10))


def _ladder(dirs, den, rhs):
    """Flattened candidate B for each embedding weight μ = 10⁰ … 10⁻⁹: the
    closest-vector engine for direction rows dirs over the denominator den
    and the real target rhs.

    At weight μ a lattice point c·[μI | dirs/(den·μ)] is near the target
    [0 | rhs/μ] when c·dirs/den is near rhs; Babai on the reduced basis
    gives c.  From one weight to the next the lattice changes only by
    scaling the dirs block by 100 (up to an overall factor), so each rung
    starts from the previous rung's reduced basis, U·[μI | dirs/(den·μ)]
    with U the integer transform so far, instead of the raw embedding, and
    LLL only repairs what the rescaling disturbed.
    """
    k = len(dirs)
    u = intlin.identity(k)
    for mu in _WEIGHTS:
        reduced, t, star, norms = _lll(_lifted_rows(u, dirs, den, mu))
        u = intlin.mat_mul(t, u)
        target = [0.0] * k + [x / mu for x in rhs]
        yield _babai(reduced, u, star, norms, target)


def _residual_bound(cols, dup, den, coeffs):
    """Smallest float ≥ max|coeffs·dirs − dup| / den, from exact integers:
    cols is the transpose of the direction rows dirs and dup the integers
    of D above the diagonal over den.  Row (i, j) of dirs is the image of
    E_ij, so with coeffs the flattened B this is max|C′B − (C′B)ᵀ − D|."""
    top = max(abs(x - y) for x, y in zip(intlin.mat_vec(cols, coeffs), dup))
    bound = top / den
    p, q = bound.as_integer_ratio()
    return bound if p * den >= top * q else math.nextafter(bound, math.inf)


def approx_by_split_orbit(target: SplitBlockForm, eps, delta, budget=8, seed=0) -> SolveResult:
    """Approximates (C, D) by a shear image of a split form (C′, 0).

    Each round perturbs C within delta (re-normalized to determinant 1)
    and walks a ladder of embedding weights, asking lattice reduction for
    an integer B with C′B − (C′B)ᵀ close to D.  Every candidate is scored
    by the smallest float ≥ its exact residual, evaluated in integers, and
    the least (score, B) is kept and reported.  Terminates after the first
    round in which that score reaches eps; otherwise exhausts the budget
    and raises, carrying the best incumbent found.  With delta = 0 every
    round would repeat the first, so only the first runs.
    """
    if not (0 < eps < math.inf and 0 <= delta < math.inf):
        raise InvalidTolerance("need finite eps > 0 and finite delta >= 0")
    if budget < 1:
        raise InvalidTolerance("budget must be at least one round")
    c, d, n = target.c, target.d, target.n
    if not any(map(any, d)):
        return SolveResult(c, ((0,) * n,) * n, 0.0, 0)
    rng = random.Random(seed)
    best = None  # (score, flattened B, C′, round)
    for round_no in range(1, budget + 1):
        # the first round keeps C; a later one keeps C if no draw fits
        cprime = c
        for _ in range(32 if round_no > 1 else 0):
            cand = [[x + rng.uniform(-delta / 2, delta / 2) for x in row] for row in c]
            det = _det(cand)
            if det <= 0:
                continue
            scale = det ** (-1.0 / n)
            cand = tuple(tuple(x * scale for x in row) for row in cand)
            if max(abs(x - y) for r, s in zip(cand, c) for x, y in zip(r, s)) <= delta:
                cprime = cand
                break
        ints, den = _over_common_denominator([*cprime, *d])
        dirs = _directions(ints[:n])
        dup = [ints[n + i][j] for i in range(n) for j in range(i + 1, n)]
        cols = intlin.transpose(dirs)
        for coeffs in _ladder(dirs, den, [x / den for x in dup]):
            key = (_residual_bound(cols, dup, den, coeffs), coeffs)
            if best is None or key < best[:2]:
                best = (*key, cprime, round_no)
        if best[0] <= eps or delta == 0:
            break
    err, coeffs, cprime, round_no = best
    b = tuple(tuple(coeffs[i * n : (i + 1) * n]) for i in range(n))
    res = SolveResult(cprime, b, err, round_no)
    if err <= eps:
        return res
    raise DidNotConverge(
        "no shear image reached the requested accuracy within budget", incumbent=res
    )


# ---------------------------------------------------------------------------
# exterior-square bridge (exact)

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _perm_sign(p):
    return (-1) ** sum(x > y for i, x in enumerate(p) for y in p[i + 1 :])


def wedge_gram() -> QuadLattice:
    """Rank-6 pairing of coordinate 2-wedges against the 4-volume."""
    return QuadLattice(
        tuple(tuple(0 if set(a) & set(b) else _perm_sign(a + b) for b in _PAIRS) for a in _PAIRS)
    )


def wedge_square_action(g) -> Isometry:
    """Induced action on 2-wedges of a determinant-1 integer 4×4 matrix."""
    m = tuple(map(intlin._ints, g))
    if len(m) != 4 or any(len(row) != 4 for row in m):
        raise DimensionMismatch("expected a 4×4 matrix")
    if intlin.det_bareiss(m) != 1:
        raise ValueError("matrix must have determinant 1")
    minors = tuple(
        tuple(m[k][i] * m[l][j] - m[k][j] * m[l][i] for i, j in _PAIRS) for k, l in _PAIRS
    )
    return Isometry(minors, wedge_gram())
