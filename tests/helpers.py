"""Shared builders for the test suite."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import sympy
from sympy.matrices.normalforms import invariant_factors

import latorb
from latorb import intlin
from latorb.errors import DegenerateGram, NotIsotropic, NotOrthogonal, NotPositiveNorm
from latorb.irrationality import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    UNIT,
    IrrationalityCertificate,
    Symbol,
    SymbolicRealVector,
    certified_norm_sign,
    from_columns,
    is_u_orthoirrational,
    rational_constraint_lattice,
    symbolic_inner,
)
from latorb.isometries import Isometry
from latorb.lattice_core import (
    QuadLattice,
    Sublattice,
    gram_column,
    inner,
    k3_model,
    split_hyperbolic,
)
from latorb.torus_forms import IntegralShear, LinearSymplecticForm


def run_python(*args, **env):
    """A fresh interpreter with the package on its path, so the run sees
    no module state of this one, and an input it cannot finish on fails
    with TimeoutExpired instead of hanging the suite.  Keywords set
    environment variables for that interpreter alone."""
    src = str(Path(latorb.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def random_primitive_isotropic(rng, L, height_cap=5):
    """Small primitive isotropic vector via the leading hyperbolic block.

    With u = x1 + b·y1 + w and w supported past the first plane,
    (u,u) = 2b + (w,w); b = −(w,w)/2 lands on the cone and the leading 1
    keeps u primitive.  Heights stay within the cap by rejection.
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


_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22)


def engineered_k3_vector():
    """Symbolic vector over the rank-22 model whose exact orthogonal
    sublattice is a fixed rank-7 sublattice containing isotropic vectors.

    The sublattice is spanned by the first two hyperbolic planes and three
    root vectors of the definite block; the symbolic coefficients run over
    a basis of its orthogonal complement, weighted so the norm is
    comfortably positive.  The square roots of distinct squarefree
    integers used as symbols genuinely are Q-linearly independent with 1,
    so the caller contract holds, not just formally.
    """
    K3 = k3_model()
    span_rows = []
    for i in (0, 1, 2, 3, 6, 7, 8):
        r = [0] * 22
        r[i] = 1
        span_rows.append(r)
    perp = intlin.kernel_basis([gram_column(K3, v) for v in span_rows])
    assert len(perp) == 15
    x3 = [0] * 22
    x3[4] = 1
    y3 = [0] * 22
    y3[5] = 1
    drop = perp.index(tuple(x3))
    others = [row for i, row in enumerate(perp) if i != drop]
    assert tuple(y3) in others  # the unit column and y3 recover the dropped x3
    unit_col = [10 * (a + b) for a, b in zip(x3, y3)]
    symbols = [UNIT] + [
        Symbol(f"sqrt{t}", math.sqrt(t) / 10) for t in _SQUAREFREE
    ]
    columns = [unit_col] + [[Fraction(x) for x in row] for row in others]
    return K3, from_columns(symbols, columns)


def reference_row_hnf(m):
    """`intlin.row_hnf` as it was before its elimination became one routine
    shared with `hnf_basis`: h and the transform u as two lists of rows,
    every step applied to both.  The oracle that pins u, which is not
    unique on rank-deficient input.

    Returns (h, u) with h = u·m, u unimodular; pivots positive, entries above
    each pivot reduced into [0, pivot), zero rows last.
    """
    if not m:
        return (), ()
    h = [list(row) for row in m]
    nrows, ncols = len(h), len(h[0])
    u = [list(row) for row in intlin.identity(nrows)]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if h[i][c] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, nrows):
            if h[i][c] == 0:
                continue
            g, x, y = intlin.xgcd(h[r][c], h[i][c])
            p, q = h[r][c] // g, h[i][c] // g
            h[r], h[i] = (
                [x * a + y * b for a, b in zip(h[r], h[i])],
                [-q * a + p * b for a, b in zip(h[r], h[i])],
            )
            u[r], u[i] = (
                [x * a + y * b for a, b in zip(u[r], u[i])],
                [-q * a + p * b for a, b in zip(u[r], u[i])],
            )
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            f = h[i][c] // h[r][c]
            if f != 0:
                h[i] = [a - f * b for a, b in zip(h[i], h[r])]
                u[i] = [a - f * b for a, b in zip(u[i], u[r])]
        r += 1
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def reference_lll(rows, delta=0.99):
    """Float LLL that recomputes the whole Gram–Schmidt data after every
    change to the basis: the oracle the row-by-row `_lll` must match bit
    for bit, with every pairing the same float dot `intlin._fdot`.
    Returns (reduced_rows, transform)."""
    dot = intlin._fdot
    b = [list(map(float, r)) for r in rows]
    k = len(b)
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def gso():
        star = []
        mu = [[0.0] * k for _ in range(k)]
        for i in range(k):
            v = b[i]
            for j in range(i):
                denom = dot(star[j], star[j])
                mu[i][j] = dot(b[i], star[j]) / denom if denom else 0.0
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        return star, mu

    i = 1
    star, mu = gso()
    while i < k:
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q != 0:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                u[i] = [x - q * y for x, y in zip(u[i], u[j])]
                star, mu = gso()
        norm_prev = dot(star[i - 1], star[i - 1])
        norm_here = dot(star[i], star[i])
        if norm_here >= (delta - mu[i][i - 1] ** 2) * norm_prev:
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            u[i], u[i - 1] = u[i - 1], u[i]
            star, mu = gso()
            i = max(i - 1, 1)
    return b, u


def reference_gso(rows):
    """From-scratch Gram–Schmidt vectors of rows, as nearest-plane rounding
    computed them before it reused the reduction's, each pairing one
    `intlin._fdot`."""
    star = []
    for r in rows:
        v = r
        for w in star:
            denom = intlin._fdot(w, w)
            if denom:
                m = intlin._fdot(r, w) / denom
                v = [x - m * y for x, y in zip(v, w)]
        star.append(v)
    return star


def reference_lifted_rows(u, cprime, mu):
    """Rows of U·[μI | dirs/μ] for the solver's embedding at weight μ, each
    entry the float nearest its exact value, in Fractions: row i·n + j of
    dirs is the upper triangle of C′E_ij − (C′E_ij)ᵀ, row by row."""
    n = len(cprime)
    c = [[Fraction(x) for x in row] for row in cprime]
    dirs = []
    for i, j in itertools.product(range(n), repeat=2):
        e = [[int((r, s) == (i, j)) for s in range(n)] for r in range(n)]
        cb = [[sum(c[a][t] * e[t][b] for t in range(n)) for b in range(n)] for a in range(n)]
        dirs.append([cb[a][b] - cb[b][a] for a in range(n) for b in range(a + 1, n)])
    m = Fraction(mu)
    return [
        [float(m * x) for x in row]
        + [float(sum(x * w[col] for x, w in zip(row, dirs)) / m) for col in range(len(dirs[0]))]
        for row in u
    ]


def exact_skew_residual(cprime, b, d):
    """max|C′B − (C′B)ᵀ − D| in Fractions, from the given floats and ints."""
    n = len(b)
    c = [[Fraction(x) for x in row] for row in cprime]
    cb = [[sum(c[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return max(abs(cb[i][j] - cb[j][i] - Fraction(d[i][j])) for i in range(n) for j in range(n))


def is_least_float_bound(x, exact):
    """x is the smallest float ≥ the rational exact."""
    return Fraction(x) >= exact and Fraction(math.nextafter(x, -math.inf)) < exact


def reference_positive_basis(gram):
    """Rational basis of a maximal positive subspace by symmetric column
    reduction in Fraction arithmetic, as `positive_basis` computed it
    before it became fraction-free: the columns whose diagonal entry ends
    positive, pairwise orthogonal under the form.

    A zero pivot with a nonzero partner j is fixed first by adding
    column ± j; a zero pivot without one is left as it is.
    """
    n = len(gram)
    s = [[Fraction(x) for x in row] for row in gram]
    b = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def col_add(dst, src, f):  # column dst += f * column src, congruently
        for k in range(n):
            s[k][dst] += f * s[k][src]
        for k in range(n):
            s[dst][k] += f * s[src][k]
        for k in range(n):
            b[k][dst] += f * b[k][src]

    for i in range(n):
        if s[i][i] == 0:
            j = next((j for j in range(i + 1, n) if s[i][j] != 0), None)
            if j is None:
                continue
            sign = 1 if 2 * s[i][j] + s[j][j] != 0 else -1
            col_add(i, j, sign)
        if s[i][i] == 0:
            continue
        for j in range(i + 1, n):
            if s[i][j] != 0:
                col_add(j, i, -s[i][j] / s[i][i])
    return [[b[k][i] for k in range(n)] for i in range(n) if s[i][i] > 0]


def reference_is_in_so_plus(g):
    """Orientation test by projection in Fraction arithmetic: the image of
    an orthogonal rational positive basis P is projected back onto P and
    the sign of that determinant is read off by Gauss elimination over Q.
    The oracle for the integer-determinant `is_in_so_plus`."""
    if intlin.det_bareiss(g.matrix) != 1:
        raise ValueError("orientation test requires determinant +1")
    gram = g.lattice.gram
    basis = reference_positive_basis(gram)
    if not basis:
        return True
    norms = [sum(a * b for a, b in zip(intlin.mat_vec(gram, v), v)) for v in basis]
    proj = []
    for v in basis:
        ggv = intlin.mat_vec(gram, intlin.mat_vec(g.matrix, v))
        proj.append([sum(a * b for a, b in zip(ggv, p)) / nrm
                     for p, nrm in zip(basis, norms)])
    mat = [list(r) for r in intlin.transpose(proj)]
    n = len(mat)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if piv is None:
            return False  # degenerate projection: cannot preserve orientation
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            d = -d
        d *= mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c] != 0:
                f = mat[r][c] / mat[c][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return d > 0


def reference_signature(gram):
    """Exact inertia (p, q) by rational symmetric reduction, as `signature`
    computed it before it read the signs off `positive_basis`'s reduction.

    A zero diagonal pivot with a nonzero off-diagonal partner is processed
    as a 2x2 hyperbolic-like block contributing (1,1); its Schur complement
    is taken exactly.  Raises DegenerateGram when the form is singular.
    """
    n = len(gram)
    s = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    p = q = 0
    while active:
        i = active[0]
        if s[i][i] != 0:
            if s[i][i] > 0:
                p += 1
            else:
                q += 1
            rest = active[1:]
            piv = s[i][i]
            for k in rest:
                if s[k][i] == 0:
                    continue
                f = s[k][i] / piv
                for l in rest:
                    s[k][l] -= f * s[i][l]
            for k in rest:
                s[k][i] = s[i][k] = Fraction(0)
            active = rest
            continue
        j = next((j for j in active[1:] if s[i][j] != 0), None)
        if j is None:
            raise DegenerateGram("gram matrix is degenerate")
        p += 1
        q += 1
        b = s[i][j]
        djj = s[j][j]
        det = -b * b
        rest = [k for k in active if k != i and k != j]
        # inverse of [[0, b], [b, djj]] is (1/det)·[[djj, -b], [-b, 0]]
        for k in rest:
            ki, kj = s[k][i], s[k][j]
            ci = (djj * ki - b * kj) / det
            cj = (-b * ki) / det
            for l in rest:
                s[k][l] -= ci * s[i][l] + cj * s[j][l]
        for k in rest:
            s[k][i] = s[i][k] = s[k][j] = s[j][k] = Fraction(0)
        active = rest
    return p, q


def reference_is_u_orthoirrational(L, u, y):
    """`is_u_orthoirrational` by explicit projection, as it was before it
    became one rank test: each symbol column is written in the Z-basis
    [u, z, *complement] of the hyperbolic split at u, and the coordinates
    past u and z are the projection into u^⊥/Span{u}.  The oracle for the
    rank test."""
    if any(c != 0 for c in symbolic_inner(L, y, u)):
        raise NotOrthogonal("y must pair to zero with u at every symbol")
    if certified_norm_sign(L, y) < 0:
        raise NotPositiveNorm("y must have positive norm")
    z, comp = split_hyperbolic(L, u)
    n = L.rank
    cols = [u, z, *comp.basis]
    t = [[cols[j][i] for j in range(n)] for i in range(n)]
    tinv = intlin.integer_inverse(t)  # [u, z, *comp] is a Z-basis
    projected = []
    for col in rational_columns(y):
        coords = intlin.mat_vec(tinv, col)
        if coords[1] != 0:  # the z-coordinate is the pairing with u
            raise AssertionError("projection left a component along z")
        rest = coords[2:]  # cleared of denominators: rational_rank takes integers
        den = math.lcm(*(Fraction(x).denominator for x in rest))
        projected.append([int(x * den) for x in rest])
    return intlin.rational_rank(projected) >= 2


def _rational_inverse(a):
    """Inverse over Q of a square integer matrix, by sympy."""
    inv = sympy.Matrix(a).inv()
    return [[Fraction(int(x.p), int(x.q)) for x in inv.row(i)] for i in range(inv.rows)]


def reference_find_isotropic_orthogonal(L, y, height):
    """`find_isotropic_orthogonal` as a walk over a full coordinate box, as
    it was before it became a pruned echelon walk: every coefficient vector
    inside bounds from an exact pseudo-inverse of the constraint basis is
    expanded and filtered, then the survivors are sorted.  The oracle for
    the pruned walk."""
    if height < 1:
        return []
    constraint = rational_constraint_lattice(L, y)
    k = constraint.rank
    if k == 0:
        return []
    basis = constraint.basis
    bt = intlin.transpose(basis)  # columns are the basis vectors
    gramk = intlin.mat_mul(basis, bt)
    ginv = _rational_inverse(gramk)
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
        if math.gcd(*v) != 1:
            continue
        gv = intlin.mat_vec(L.gram, v)
        if sum(a * b for a, b in zip(gv, v)) != 0:
            continue
        out.append(tuple(v))
    out.sort()
    return out


def box_isotropic_walk(L, basis, height):
    """`_isotropic_walk` by brute force over the whole coordinate box: each
    integer v with |v_i| ≤ height is kept when peeling the echelon basis
    rows off at their pivots leaves zero, (v, v) = 0, gcd(v) = 1 and its
    leading entry is positive.  The box is built in lexicographic order,
    so the survivors come out sorted.  The oracle for the windowed walk on
    any echelon basis, not only a constraint lattice's Hermite basis."""
    h = math.floor(height)
    axis = np.arange(-h, h + 1)
    v = np.stack(np.meshgrid(*[axis] * L.rank, indexing="ij"), -1).reshape(-1, L.rank)
    rest = v.copy()
    keep = np.ones(len(v), dtype=bool)
    for b in basis:
        p = next(i for i, x in enumerate(b) if x)
        c, r = np.divmod(rest[:, p], b[p])
        keep &= r == 0
        rest -= c[:, None] * np.array(b)
    keep &= ~rest.any(axis=1)
    keep &= ((v @ np.array(L.gram)) * v).sum(axis=1) == 0
    keep &= np.gcd.reduce(v, axis=1) == 1
    keep &= v[np.arange(len(v)), (v != 0).argmax(axis=1)] > 0
    return [tuple(int(x) for x in row) for row in v[keep]]


def reference_certify(L, y, height):
    """`certify_orthoisotropic_irrational` as it was before it consumed the
    walk lazily: the whole search first, then the public per-u test on
    each found vector."""
    if certified_norm_sign(L, y) < 0:
        raise NotPositiveNorm("y must have positive norm")
    perp = rational_constraint_lattice(L, y)
    found = reference_find_isotropic_orthogonal(L, y, height)
    if not found:
        return IrrationalityCertificate(INCONCLUSIVE, None, perp.rank, height)
    if perp.rank <= L.rank - 3:
        return IrrationalityCertificate(CERTIFIED, found[0], perp.rank, height)
    for u in found:
        if not is_u_orthoirrational(L, u, y):
            return IrrationalityCertificate(REFUTED, u, perp.rank, height)
    return IrrationalityCertificate(INCONCLUSIVE, None, perp.rank, height)


def spans_saturated(rows):
    """Whether integer rows span a saturated sublattice: every nonzero
    invariant factor of the row matrix, by sympy's Smith form, is 1."""
    factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    return all(d == 1 for d in factors if d != 0)


def assembled_shear(g: IntegralShear):
    """The dense integer matrix [[I, B], [0, A]] of a shear: the oracle the
    block formula of `act` is checked against."""
    n = g.n
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        out[i][i] = 1
        for j in range(n):
            out[i][n + j] = g.b[i][j]
            out[n + i][n + j] = g.a[i][j]
    return out


def compose_shears(g: IntegralShear, h: IntegralShear) -> IntegralShear:
    prod = intlin.mat_mul(assembled_shear(g), assembled_shear(h))
    n = g.n
    b = [row[n:] for row in prod[:n]]
    a = [row[n:] for row in prod[n:]]
    return IntegralShear(b, a)


def pure_shear_act(b, c, d):
    """(C, D + (CB − (CB)ᵀ)): the block formula of a shear with A = I, as
    `act` computed it before it took any A, each entry of CB one float
    dot."""
    cb = [[intlin._fdot(row, col) for col in zip(*b)] for row in c]
    return c, [[x + (cb[i][j] - cb[j][i]) for j, x in enumerate(row)] for i, row in enumerate(d)]


def reference_pfaffian(a):
    """First-row expansion with closed forms at sizes 2 and 4, the
    Pfaffian recursion `torus_forms` used before its base case became
    size 0."""
    m = a.shape[0]
    if m == 0:
        return 1.0
    if m == 2:
        return float(a[0, 1])
    if m == 4:
        return float(a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2])
    total = 0.0
    rest = list(range(1, m))
    for pos, j in enumerate(rest):
        keep = [k for k in rest if k != j]
        sign = -1.0 if pos % 2 else 1.0
        total += sign * a[0, j] * reference_pfaffian(a[np.ix_(keep, keep)])
    return total


def darboux(n) -> LinearSymplecticForm:
    """Block-diagonal sum of n standard 2×2 pairs; Pfaffian +1."""
    m = np.zeros((2 * n, 2 * n))
    for k in range(n):
        m[2 * k, 2 * k + 1] = 1.0
        m[2 * k + 1, 2 * k] = -1.0
    return LinearSymplecticForm(m)


def standard_lagrangian(n) -> Sublattice:
    """The plane spanned by the second vector of each Darboux pair."""
    rows = []
    for k in range(n):
        r = [0] * (2 * n)
        r[2 * k + 1] = 1
        rows.append(tuple(r))
    return Sublattice(tuple(rows))


def standard_complement(n) -> Sublattice:
    rows = []
    for k in range(n):
        r = [0] * (2 * n)
        r[2 * k] = 1
        rows.append(tuple(r))
    return Sublattice(tuple(rows))


def mat_eq(a, b):
    return len(a) == len(b) and all(list(ra) == list(rb) for ra, rb in zip(a, b))


def reflection(L: QuadLattice, a) -> Isometry:
    """x ↦ x − 2(x,a)/(a,a) · a; integral whenever (a,a) divides 2(x,a)."""
    a = list(a)
    aa = inner(L, a, a)
    if aa == 0:
        raise NotIsotropic("cannot reflect in an isotropic vector")
    ga = gram_column(L, a)
    n = L.rank
    cols = []
    for j in range(n):
        col = [0] * n
        col[j] = 1
        for i in range(n):
            num = 2 * ga[j] * a[i]
            if num % aa != 0:
                raise ValueError("reflection is not integral at this vector")
            col[i] -= num // aa
        cols.append(col)
    return Isometry(tuple(zip(*cols)), L)


def approx_coords(y: SymbolicRealVector):
    """Float coordinates of y with each symbol replaced by its float: each
    coordinate the float nearest its exact rational value."""
    terms = [(Fraction(s.approx) / d, c) for s, d, c in zip(y.symbols, y.dens, y.columns)]
    return [float(sum(f * c[i] for f, c in terms)) for i in range(y.rank)]


def rational_columns(y: SymbolicRealVector):
    """The rational column of each symbol: its integer column over its
    denominator."""
    return tuple(tuple(Fraction(x, d) for x in c) for c, d in zip(y.columns, y.dens))


def scale(y: SymbolicRealVector, factor) -> SymbolicRealVector:
    f = Fraction(factor)
    return from_columns(
        y.symbols, [[f * x for x in col] for col in rational_columns(y)]
    )
