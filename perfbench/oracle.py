"""Independent arithmetic for input generation and output checks.

Nothing here imports latorb: the lattice models, determinants, isometry
checks, the isotropic-vector table and the solver residual are recomputed
from their definitions, so a check never trusts the function it checks.
"""

from fractions import Fraction
from itertools import product
from math import gcd

# Negated E8 in the Cartan numbering latorb documents: chain 1-3-4-5-6-7-8
# with node 2 hanging off node 4.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _e8_minus():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = 1
    return g


def _direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(r) for r in g)


_U = ((0, 1), (1, 0))
T4_GRAM = _direct_sum(_U, _U, _U)
K3_GRAM = _direct_sum(_U, _U, _U, _e8_minus(), _e8_minus())


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def pair(gram, v, w):
    return sum(a * b for a, b in zip(v, mat_vec(gram, w)))


def det(m):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def height(v):
    return max(abs(x) for x in v)


def is_primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def is_isometry(gram, m):
    """MᵀGM = G for an integer matrix M (rows of m)."""
    mt = [list(r) for r in zip(*m)]
    return mat_mul(mat_mul(mt, gram), m) == [list(r) for r in gram]


def inverse_isometry(gram, m):
    """G⁻¹MᵀG for a unimodular G with G² = I (hyperbolic-plane sums)."""
    mt = [list(r) for r in zip(*m)]
    return mat_mul(mat_mul(gram, mt), gram)


def check_split(gram, u, z, basis):
    """(u,z) = 1, (z,z) = 0, basis ⊥ {u, z}, and {u, z} ∪ basis is a Z-basis."""
    if pair(gram, u, z) != 1 or pair(gram, z, z) != 0:
        return False
    if len(basis) != len(gram) - 2:
        return False
    if any(pair(gram, b, u) or pair(gram, b, z) for b in basis):
        return False
    return abs(det([list(u), list(z), *map(list, basis)])) == 1


def check_map(gram, m, u, v):
    """M is an isometry of determinant +1 carrying u to v."""
    return (
        tuple(mat_vec(m, u)) == tuple(v)
        and is_isometry(gram, m)
        and det(m) == 1
    )


# Random isotropic vectors have height at most ISOTROPIC_HEIGHT and are
# solved on one of the LEADING_PLANES hyperbolic planes both models open with.
ISOTROPIC_HEIGHT = 3
LEADING_PLANES = 3


def random_isotropic(rng, gram):
    """Seeded primitive isotropic vector of height ≤ ISOTROPIC_HEIGHT.

    Puts 1 on x of one of the leading hyperbolic planes, sparse ±1 entries
    off that plane, and solves the plane's y entry so the norm vanishes;
    the leading 1 keeps the vector primitive.
    """
    n = len(gram)
    while True:
        k = rng.randrange(LEADING_PLANES)
        w = [0 if i // 2 == k and i < 2 * LEADING_PLANES
             else rng.choice((-1, 0, 0, 1)) for i in range(n)]
        half = pair(gram, w, w) // 2
        if abs(half) <= ISOTROPIC_HEIGHT:
            w[2 * k] = 1
            w[2 * k + 1] = -half
            sign = rng.choice((1, -1))
            return tuple(sign * x for x in w)


def isotropic_table(gram, max_height):
    """Every primitive isotropic vector of height ≤ max_height, one per ±
    pair (first nonzero entry positive), in lexicographic order."""
    out = []
    r = range(-max_height, max_height + 1)
    for v in product(r, repeat=len(gram)):
        lead = next((x for x in v if x), 0)
        if lead > 0 and is_primitive(v) and pair(gram, v, v) == 0:
            out.append(v)
    return out


def box_points(basis, height):
    """Points of the coefficient box an exhaustive search over the lattice
    spanned by `basis` (rows) must visit to cover every vector of the given
    height: coefficient j ranges over |c_j| ≤ ⌊height · Σ_i |P_ij|⌋, where
    P = Bᵀ(BBᵀ)⁻¹ recovers coefficients from a vector.  Exact, in Fractions.
    """
    if not basis:
        return 0
    b = [[Fraction(x) for x in row] for row in basis]
    bt = [list(col) for col in zip(*b)]
    pseudo = mat_mul(bt, _inverse(mat_mul(b, bt)))
    points = 1
    for col in zip(*pseudo):
        points *= 2 * int(height * sum(abs(x) for x in col)) + 1
    return points


def _inverse(m):
    """Inverse of an invertible rational matrix by Gauss–Jordan."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def orthogonal_to_all(gram_columns, v):
    """v pairs to zero with every column, given as its Gram image G·c."""
    return all(sum(a * b for a, b in zip(v, w)) == 0 for w in gram_columns)


def skew_residual(cprime, b, d):
    """max |C′B − (C′B)ᵀ − D| evaluated exactly from the given floats."""
    c = [[Fraction(x) for x in row] for row in cprime]
    cb = mat_mul(c, [[Fraction(x) for x in row] for row in b])
    n = len(c)
    return max(
        abs(cb[i][j] - cb[j][i] - Fraction(d[i][j]))
        for i in range(n)
        for j in range(n)
    )


def max_deviation(a, b):
    return max(
        abs(Fraction(x) - Fraction(y))
        for ra, rb in zip(a, b)
        for x, y in zip(ra, rb)
    )


def random_split_target(rng, n):
    """C near the identity with det 1, D skew with entries in (−1, 1)."""
    while True:
        c = [[(1.0 if i == j else 0.0) + rng.uniform(-0.3, 0.3)
              for j in range(n)] for i in range(n)]
        dc = float(det(c))
        if dc > 0.2:
            break
    scale = dc ** (-1.0 / n)
    c = [[x * scale for x in row] for row in c]
    a = [[rng.uniform(-0.5, 0.5) for _ in range(n)] for _ in range(n)]
    d = [[a[i][j] - a[j][i] for j in range(n)] for i in range(n)]
    return c, d
