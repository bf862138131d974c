"""Exact integer linear algebra on plain nested lists.

Everything here but the real-number reader and the float pairing is
arbitrary-precision Python ints; no fractions.  Inputs are integer
matrices given as any sequence of rows (lists or tuples); every matrix
result is a tuple of int tuples and every vector result an int tuple, so
results can be shared and cached (`identity` is).  Lists are scratch
inside a function only.  These are the primitives behind the lattice
layer: canonical Hermite forms, integer kernels, ranks and exact
inertia.

Elimination over Z is one Hermite routine, `_hermite`.  `row_hnf` runs
it on the rows [m | I] and so carries the unimodular transform (kernel,
unimodular inverse, saturation); `hnf_basis` runs it on m alone (rank,
canonical bases, independence).  Beside it sit the fraction-free
`det_bareiss` and one fraction-free symmetric congruence reduction
`_congruence_reduction`, read by `signature` (the signs of its diagonal)
and `positive_basis` (its positive columns).

The package's two input readers sit here too: `_ints` reads integer
input and `_reals` real-number input, the one place that decides what
each kind accepts.  So does its one float pairing `_fdot`, behind every
float matrix product and norm.
"""

from functools import cache
from math import fsum, gcd, isfinite
from numbers import Real
from operator import index, mul

from .errors import DegenerateGram


def _ints(v):
    """v as a tuple of Python ints.  Built on `operator.index`, so numpy
    integers pass and floats, strings and other non-integers raise
    TypeError, where `int` would truncate or parse them."""
    return tuple(map(index, v))


def _reals(v):
    """v as a tuple of finite Python floats.  Every `numbers.Real` but
    bool passes, numpy ints and floats included; bools, numpy bools,
    strings and other non-reals raise TypeError, and NaN, infinities and
    ints beyond the float range raise ValueError."""
    v = tuple(v)
    if not all(isinstance(x, Real) and not isinstance(x, bool) for x in v):
        raise TypeError("expected real numbers")
    try:
        out = tuple(map(float, v))
    except OverflowError:
        raise ValueError("number out of float range") from None
    if not all(map(isfinite, out)):
        raise ValueError("real numbers must be finite")
    return out


def _fdot(x, y):
    """Σ x_i·y_i, the exact sum of the rounded products rounded once: the
    same bits on every IEEE host and Python, unlike BLAS or `sum`."""
    return fsum(map(mul, x, y))


@cache
def identity(n):
    return tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_vec(m, v):
    return tuple([sum(map(mul, row, v)) for row in m])


def det_bareiss(m):
    """Determinant of a square integer matrix, fraction-free."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def integer_inverse(a):
    """Inverse of a unimodular integer matrix, returned over the integers.

    The Hermite form of a unimodular matrix is I, so the transform that
    row_hnf returns is the inverse.
    """
    h, u = row_hnf(a)
    if h != identity(len(a)):
        raise ValueError("matrix is not square and unimodular")
    return u


def rational_rank(m):
    """Rank over Q of integer rows: the nonzero rows of their Hermite form."""
    return len(hnf_basis(m))


def xgcd(a, b):
    """Returns (g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def xgcd_vector(vals):
    """Greedy left-to-right extended gcd: (g, coeffs) with sum(c*v) = g >= 0.

    Keeps earlier coefficients untouched whenever the running gcd already
    divides the next entry, so the combination stays as short as possible.
    """
    g = 0
    coeffs = []
    for v in vals:
        if g != 0 and v % g == 0:
            coeffs.append(0)
            continue
        g2, x, y = xgcd(g, v)
        coeffs = [c * x for c in coeffs] + [y]
        g = g2
    return g, tuple(coeffs)


def _hermite(rows, ncols):
    """Row-style Hermite elimination of the scratch rows in place,
    pivoting in their first ncols columns; returns the rank.

    Any columns past ncols ride along with every row step, so rows
    augmented by the identity carry the unimodular transform.
    """
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c] == 0:
                continue
            g, x, y = xgcd(rows[r][c], rows[i][c])
            p, q = rows[r][c] // g, rows[i][c] // g
            rows[r], rows[i] = (
                [x * a + y * b for a, b in zip(rows[r], rows[i])],
                [-q * a + p * b for a, b in zip(rows[r], rows[i])],
            )
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            f = rows[i][c] // rows[r][c]
            if f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def row_hnf(m):
    """Canonical row-style Hermite normal form.

    Returns (h, u) with h = u·m, u unimodular; pivots positive, entries above
    each pivot reduced into [0, pivot), zero rows last.  The rows [m | I]
    are eliminated in m's columns and split into h and u.
    """
    if not m:
        return (), ()
    ncols = len(m[0])
    rows = [[*row, *e] for row, e in zip(m, identity(len(m)))]
    _hermite(rows, ncols)
    return (
        tuple(tuple(row[:ncols]) for row in rows),
        tuple(tuple(row[ncols:]) for row in rows),
    )


def hnf_basis(rows):
    """Canonical basis (HNF rows) of the lattice spanned by integer rows:
    the nonzero rows of `row_hnf`, eliminated without the transform."""
    if not rows:
        return ()
    h = [list(row) for row in rows]
    return tuple(map(tuple, h[: _hermite(h, len(h[0]))]))


def kernel_basis(a):
    """Canonical basis of the integer kernel {x : a·x = 0}; saturated."""
    if not a or not a[0]:
        n = len(a[0]) if a else 0
        return identity(n)
    at = transpose(a)
    h, u = row_hnf(at)
    ker = [u[i] for i in range(len(h)) if not any(h[i])]
    return hnf_basis(ker)


def _congruence_reduction(gram):
    """Fraction-free symmetric column reduction: (d, b) with
    bᵀ·gram·b = diag(d), b an integer matrix.

    A zero pivot with a nonzero partner j is fixed first by adding
    column ± j; a zero pivot without one is a zero row, so the form is
    singular.  A nonzero pivot p clears column j as
    |p|·col_j − sgn(p)·s_ij·col_i, a positive multiple of the rational
    step.  Each updated column is divided by the content of its b
    entries; s = bᵀ·gram·b stays integral with b, so the division is
    exact.  The columns of b are returned as rows.
    """
    n = len(gram)
    s = [list(row) for row in gram]
    b = [list(row) for row in identity(n)]  # b[k] is column k

    def col_update(dst, f, src, g):  # column dst = f·dst + g·src, congruently
        for row in s:
            row[dst] = f * row[dst] + g * row[src]
        s[dst] = [f * x + g * y for x, y in zip(s[dst], s[src])]
        b[dst] = [f * x + g * y for x, y in zip(b[dst], b[src])]
        c = gcd(*b[dst])
        if c > 1:
            for row in s:
                row[dst] //= c
            s[dst] = [x // c for x in s[dst]]
            b[dst] = [x // c for x in b[dst]]

    for i in range(n):
        if s[i][i] == 0:
            j = next((j for j in range(i + 1, n) if s[i][j] != 0), None)
            if j is None:
                continue
            col_update(i, 1, j, 1 if 2 * s[i][j] + s[j][j] != 0 else -1)
        p = s[i][i]
        for j in range(i + 1, n):
            if s[i][j] != 0:
                col_update(j, abs(p), i, -s[i][j] if p > 0 else s[i][j])
    return tuple(s[i][i] for i in range(n)), tuple(map(tuple, b))


def signature(gram):
    """Exact inertia (p, q): the signs of the congruence diagonal.

    Raises DegenerateGram when the form is singular (a zero on the
    diagonal).
    """
    d, _ = _congruence_reduction(gram)
    if 0 in d:
        raise DegenerateGram("gram matrix is degenerate")
    return sum(x > 0 for x in d), sum(x < 0 for x in d)


def positive_basis(gram):
    """Integer basis vectors of a maximal positive-definite subspace.

    Returned vectors are primitive and pairwise orthogonal under the form
    with positive self-pairing: the columns of the congruence reduction
    whose diagonal entry is positive.
    """
    d, cols = _congruence_reduction(gram)
    return tuple(v for x, v in zip(d, cols) if x > 0)
