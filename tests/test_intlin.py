import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from helpers import mat_eq, spans_saturated
from latorb import intlin
from latorb.cli import MODELS
from latorb.errors import DegenerateGram


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_unimodular(rng, n, steps=12):
    """Product of elementary shears and swaps; det is +/-1 by construction."""
    m = [list(r) for r in intlin.identity(n)]
    if n < 2:
        return m
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
        else:
            f = rng.randint(-3, 3)
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


def random_symmetric_nondegenerate(rng, n, hi=6):
    while True:
        a = random_matrix(rng, n, n, -hi, hi)
        s = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        if intlin.det_bareiss(s) != 0:
            return s


def test_det_bareiss():
    assert intlin.det_bareiss([]) == 1
    assert intlin.det_bareiss([[7]]) == 7
    assert intlin.det_bareiss([[0, 1], [1, 0]]) == -1
    assert intlin.det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert intlin.det_bareiss([[1, 2], [2, 4]]) == 0
    # row swap bookkeeping: leading zero pivot
    assert intlin.det_bareiss([[0, 2], [3, 0]]) == -6


def test_det_bareiss_matches_numpy():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n)
        d = intlin.det_bareiss(m)
        assert d == round(np.linalg.det(np.array(m, dtype=float)))


def test_xgcd():
    for a, b in [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (7, -3), (-4, -6)]:
        g, x, y = intlin.xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_xgcd_vector():
    g, c = intlin.xgcd_vector([0, 1, 1, 0])
    assert g == 1
    assert c == (0, 1, 0, 0)  # keeps the first usable coefficient
    rng = random.Random(2)
    for _ in range(100):
        vals = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))]
        g, c = intlin.xgcd_vector(vals)
        assert sum(x * v for x, v in zip(c, vals)) == g
        assert g == math.gcd(*vals)


def test_row_hnf_canonical_shape():
    h, u = intlin.row_hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert mat_eq(intlin.mat_mul(u, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]), h)
    assert abs(intlin.det_bareiss(u)) == 1
    # cross-checked against an independent normal-form implementation
    assert h == ((2, 0, 120), (0, 2, 20), (0, 0, 156))


def test_row_hnf_properties():
    rng = random.Random(3)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        h, u = intlin.row_hnf(m)
        assert mat_eq(intlin.mat_mul(u, m), h)
        assert abs(intlin.det_bareiss(u)) == 1
        # zero rows trail, pivots positive, entries above pivots reduced
        nonzero = [r for r in h if any(r)]
        assert list(h) == nonzero + [r for r in h if not any(r)]
        prev_pivot = -1
        for r in nonzero:
            c = next(j for j, x in enumerate(r) if x != 0)
            assert r[c] > 0
            assert c > prev_pivot
            prev_pivot = c
            for above in nonzero[: nonzero.index(r)]:
                assert 0 <= above[c] < r[c]


def test_hnf_basis_is_basis_invariant():
    # mixing the generating rows by a unimodular matrix leaves the HNF alone
    rng = random.Random(4)
    for _ in range(40):
        rows = rng.randint(1, 4)
        m = random_matrix(rng, rows, rows + 1)
        w = random_unimodular(rng, rows)
        assert intlin.hnf_basis(m) == intlin.hnf_basis(intlin.mat_mul(w, m))


def test_kernel_basis_known():
    assert intlin.kernel_basis([[1, 1, 1]]) == ((1, 0, -1), (0, 1, -1))
    assert intlin.kernel_basis([[0, 1, 1, 0], [1, 0, 0, 0]]) == ((0, 1, -1, 0), (0, 0, 0, 1))
    assert intlin.kernel_basis([]) == ()
    assert intlin.kernel_basis([[0, 0]]) == ((1, 0), (0, 1))


def test_kernel_basis_properties():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        ker = intlin.kernel_basis(a)
        for v in ker:
            assert all(x == 0 for x in intlin.mat_vec(a, v))
        assert len(ker) == cols - intlin.rational_rank(a)
        if ker:
            # saturated: invariant factors of the basis matrix are all 1
            assert spans_saturated(ker)


def test_rational_solve_and_inverse():
    with pytest.raises(ValueError):
        intlin.integer_inverse([[2, 0], [0, 1]])
    # non-square input is rejected, not truncated
    with pytest.raises(ValueError):
        intlin.integer_inverse([[1, 2, 3]])
    assert intlin.integer_inverse([]) == ()
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        w = random_unimodular(rng, n)
        winv = intlin.integer_inverse(w)
        assert mat_eq(intlin.mat_mul(w, winv), intlin.identity(n))


def test_rational_rank():
    assert intlin.rational_rank([]) == 0
    assert intlin.rational_rank([[0, 0]]) == 0
    assert intlin.rational_rank([[1, 2], [2, 4]]) == 1
    assert intlin.rational_rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_signature_known():
    assert intlin.signature([[0, 1], [1, 0]]) == (1, 1)
    assert intlin.signature([[4]]) == (1, 0)
    assert intlin.signature([[-2, 1], [1, -2]]) == (0, 2)
    assert intlin.signature([[2, 0, 0], [0, -3, 0], [0, 0, 5]]) == (2, 1)
    with pytest.raises(DegenerateGram):
        intlin.signature([[1, 1], [1, 1]])


def test_signature_matches_eigenvalue_signs():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 6)
        s = random_symmetric_nondegenerate(rng, n)
        p, q = intlin.signature(s)
        eig = np.linalg.eigvalsh(np.array(s, dtype=float))
        assert p == int(np.sum(eig > 0))
        assert q == int(np.sum(eig < 0))
        assert p + q == n


def test_signature_invariant_under_congruence():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 5)
        s = random_symmetric_nondegenerate(rng, n)
        w = random_unimodular(rng, n)
        cong = intlin.mat_mul(intlin.mat_mul(intlin.transpose(w), s), w)
        assert intlin.signature(cong) == intlin.signature(s)


def test_positive_basis():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(1, 6)
        s = random_symmetric_nondegenerate(rng, n)
        p, _ = intlin.signature(s)
        basis = intlin.positive_basis(s)
        assert len(basis) == p

        def pair(v, w):
            return sum(a * c for a, c in zip(intlin.mat_vec(s, w), v))

        for i, v in enumerate(basis):
            assert pair(v, v) > 0
            for w in basis[i + 1:]:
                assert pair(v, w) == 0


POSITIVE_BASIS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "positive_basis_golden.json").read_text()
)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_positive_basis_golden_on_models(model):
    # is_in_so_plus orients by this exact basis, so its vectors are pinned
    basis = intlin.positive_basis(MODELS[model]().gram)
    assert [[str(x) for x in v] for v in basis] == POSITIVE_BASIS_GOLDEN[model]
