"""Acceptance suite: one test per numbered product claim.

Each test enforces its stated tolerances and wall-clock budget, so
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Random draws are seeded; every expected value is either an
exact integer identity or checked against an independent oracle built
inside this file (exhaustive grid search, breadth-first word search,
dense matrix arithmetic).
"""

import math
import random
import statistics
import time

import numpy as np

from helpers import (
    approx_coords,
    assembled_shear,
    engineered_k3_vector,
    mat_eq,
    random_primitive_isotropic,
)
from latorb import intlin
import latorb.orbit_explorer as oe
import latorb.torus_forms as tf
from latorb.irrationality import (
    CERTIFIED,
    REFUTED,
    Symbol,
    UNIT,
    certify_orthoisotropic_irrational,
    from_columns,
    is_u_orthoirrational,
    rational_constraint_lattice,
    rational_vector,
    symbolic_inner,
    transform,
)
from latorb.isometries import (
    apply,
    compose,
    eichler_transvection,
    gu_lattice_generators,
    identity_isometry,
    invert,
    is_in_so_plus,
    map_isotropic,
)
from latorb.lattice_core import (
    QuadLattice,
    inner,
    is_even,
    is_unimodular,
    k3_model,
    signature,
    split_hyperbolic,
    sublattice_gram,
    t4_model,
    orthogonal_sublattice,
)

T4 = t4_model()
K3 = k3_model()
X1 = (1, 0, 0, 0, 0, 0)
SQRT2 = Symbol("sqrt2", math.sqrt(2))


# --- criterion 1: model invariants ---------------------------------------


def test_criterion_01_model_invariants():
    t0 = time.monotonic()
    for model, rank, sig in ((T4, 6, (3, 3)), (K3, 22, (3, 19))):
        assert model.rank == rank
        assert is_even(model)
        assert is_unimodular(model)
        assert tuple(signature(model)) == sig
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1 ok in {elapsed:.3f}s")


# --- criterion 2: hyperbolic splitting suite ------------------------------


def test_criterion_02_hyperbolic_splitting():
    rng = random.Random(2)
    t0 = time.monotonic()
    for L in (T4, K3):
        p, q = signature(L)
        for _ in range(200):
            u = random_primitive_isotropic(rng, L, 5)
            z, lprime = split_hyperbolic(L, u)
            assert inner(L, u, u) == 0
            assert inner(L, z, z) == 0
            assert inner(L, u, z) == 1
            sub = QuadLattice(sublattice_gram(L, lprime.basis))
            assert is_even(sub)
            assert is_unimodular(sub)
            assert tuple(signature(sub)) == (p - 1, q - 1)
            combined = [list(u), list(z)] + [list(b) for b in lprime.basis]
            assert intlin.det_bareiss(combined) in (1, -1)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 2 ok in {elapsed:.2f}s")


# --- criterion 3: rank drop of two-vector orthogonals ---------------------


def test_criterion_03_rank_drop():
    rng = random.Random(3)
    t0 = time.monotonic()
    for L in (T4, K3):
        n = L.rank
        for _ in range(100):
            u = random_primitive_isotropic(rng, L, 3)
            while True:
                x = tuple(rng.randint(-3, 3) for _ in range(n))
                if intlin.rational_rank([list(u), list(x)]) == 2:
                    break
            assert orthogonal_sublattice(L, (u, x)).rank == n - 2
    lattice, y = engineered_k3_vector()
    assert rational_constraint_lattice(lattice, y).rank == 7
    cert = certify_orthoisotropic_irrational(lattice, y, 1)
    assert cert.verdict == CERTIFIED
    assert cert.perp_rank == 7
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 3 ok in {elapsed:.2f}s")


# --- criterion 4: transvection suite --------------------------------------

# caps every intermediate product in the int64 checks below well under
# 2**63: |(M^T G M)_{ij}| <= 22 * (2 * cap) * cap and
# |((M-I)^3)_{ij}| <= 22^2 * (22 * cap^2) * cap for rank-22 models
_ENTRY_CAP = 10**4


def _random_transvection(rng, L):
    n = L.rank
    while True:
        e = random_primitive_isotropic(rng, L, 2)
        w = [rng.randint(-1, 1) for _ in range(n)]
        s = [rng.randint(-1, 1) for _ in range(n)]
        we, se = inner(L, w, e), inner(L, s, e)
        a = tuple(we * si - se * wi for si, wi in zip(s, w))
        if not any(a):
            continue
        iso = eichler_transvection(L, e, a)
        if max(abs(x) for row in iso.matrix for x in row) <= _ENTRY_CAP:
            return e, iso


def test_criterion_04_transvections():
    rng = random.Random(41)
    t0 = time.monotonic()
    for L in (T4, K3):
        gram64 = np.array([list(r) for r in L.gram], dtype=np.int64)
        eye = np.eye(L.rank, dtype=np.int64)
        for _ in range(500):
            e, iso = _random_transvection(rng, L)
            m = np.array([list(r) for r in iso.matrix], dtype=np.int64)
            assert np.array_equal(m.T @ gram64 @ m, gram64)
            nil = m - eye
            assert not np.any(nil @ nil @ nil)
            ev = np.array(e, dtype=np.int64)
            assert np.array_equal(m @ ev, ev)
            assert intlin.det_bareiss([list(r) for r in iso.matrix]) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 4 ok in {elapsed:.2f}s")


# --- criterion 5: isotropic transitivity ----------------------------------


def _word_generators(L):
    """Transvections seeded by every standard isotropic basis vector."""
    mats = []
    n = L.rank
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        partner = i ^ 1
        for j in range(n):
            if j in (i, partner):
                continue
            for s in (1, -1):
                a = tuple(s if k == j else 0 for k in range(n))
                mats.append(eichler_transvection(L, e, a).matrix)
    out, seen = [], set()
    for m in mats:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def _bfs_word_depth(u, v, mats, max_depth=6, coord_cap=10, frontier_cap=60000):
    """Word length reaching v from u under the generator set, else None."""
    if u == v:
        return 0
    k = len(u)
    visited = {u}
    frontier = [u]
    for depth in range(1, max_depth + 1):
        nxt = []
        for x in frontier:
            for m in mats:
                y = tuple(
                    sum(m[i][j] * x[j] for j in range(k)) for i in range(k)
                )
                if y == v:
                    return depth
                if y in visited or max(abs(c) for c in y) > coord_cap:
                    continue
                visited.add(y)
                nxt.append(y)
        frontier = nxt[:frontier_cap]
        if not frontier:
            return None
    return None


def test_criterion_05_isotropic_transitivity():
    rng = random.Random(5)
    t0 = time.monotonic()
    for L, pairs in ((T4, 50), (K3, 20)):
        for _ in range(pairs):
            u = random_primitive_isotropic(rng, L, 3)
            v = random_primitive_isotropic(rng, L, 3)
            g = map_isotropic(L, u, v)
            assert apply(g, u) == v
            assert is_in_so_plus(g)
    # independent reachability oracle: breadth-first search over words in
    # a fixed transvection alphabet must connect the same pairs
    mats = _word_generators(T4)
    word_rng = random.Random(7)
    for _ in range(10):
        u = random_primitive_isotropic(word_rng, T4, 2)
        v = random_primitive_isotropic(word_rng, T4, 2)
        g = map_isotropic(T4, u, v)
        assert apply(g, u) == v
        assert _bfs_word_depth(u, v, mats) is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 5 ok in {elapsed:.2f}s")


# --- criterion 6: solver vs exhaustive oracle ------------------------------


def _random_target(rng, dcap=1.0):
    while True:
        c = np.array([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
        det = np.linalg.det(c)
        if det > 0.3:
            c = c * det**-0.5
            break
    d = rng.uniform(-dcap, dcap)
    return tf.SplitBlockForm(c, np.array([[0.0, -d], [d, 0.0]]))


def _oracle_best(f, delta=0.1, box=6):
    """Exhaustive minimum over a 5-point per-entry grid of admissible
    C-perturbations and every integer B in [-box, box]^4."""
    c, d = np.array(f.c), f.d[1][0]
    grid = np.linspace(-delta, delta, 5)
    bvals = np.arange(-box, box + 1, dtype=float)
    best = np.inf
    for p00 in grid:
        for p01 in grid:
            for p10 in grid:
                for p11 in grid:
                    cand = c + np.array([[p00, p01], [p10, p11]])
                    det = np.linalg.det(cand)
                    if det <= 0:
                        continue
                    cand = cand * det**-0.5
                    if np.max(np.abs(cand - c)) > delta:
                        continue
                    w = (cand[1, 0], -cand[0, 0], cand[1, 1], -cand[0, 1])
                    vals = (
                        w[0] * bvals[:, None, None, None]
                        + w[1] * bvals[None, :, None, None]
                        + w[2] * bvals[None, None, :, None]
                        + w[3] * bvals[None, None, None, :]
                    )
                    best = min(best, float(np.min(np.abs(vals - d))))
    return best


def test_criterion_06_solver_matches_oracle():
    rng = random.Random(20)
    t0 = time.monotonic()
    for k in range(25):
        f = _random_target(rng)
        res = tf.approx_by_split_orbit(f, eps=1e-2, delta=0.1, seed=k)
        assert res.err <= 1e-2
        assert res.err <= 2.0 * _oracle_best(f)
    flat = _random_target(rng)
    zero = tf.SplitBlockForm(flat.c, np.zeros((2, 2)))
    res = tf.approx_by_split_orbit(zero, eps=1e-2, delta=0.1)
    assert res.err == 0.0
    assert all(all(x == 0 for x in row) for row in res.b)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 6 ok in {elapsed:.2f}s")


# --- criterion 7: block action equals dense congruence ---------------------


def _random_det_one(rng, n):
    while True:
        c = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
        det = np.linalg.det(c)
        if abs(det) < 0.2:
            continue
        if det < 0:
            c = c[[1, 0] + list(range(2, n))]
            det = -det
        return c * det ** (-1.0 / n)


def test_criterion_07_action_consistency():
    rng = random.Random(43)
    t0 = time.monotonic()
    for k in range(1000):
        n = 2 if k % 2 == 0 else 3
        c = _random_det_one(rng, n)
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = rng.uniform(-2, 2)
                d[j, i] = -d[i, j]
        f = tf.SplitBlockForm(c, d)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if k % 3 == 0:
            a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(4):
                i, j = rng.sample(range(n), 2)
                step = rng.randint(-2, 2)
                for col in range(n):
                    a[i][col] += step * a[j][col]
        else:
            a = None
        g = tf.IntegralShear(b, a)
        out = tf.act(g, f)
        gm = np.array(assembled_shear(g), dtype=float)
        dense = gm.T @ f.assembled() @ gm
        assert np.max(np.abs(out.assembled() - dense)) <= 1e-12
        assert abs(tf.pfaffian(out.assembled()) - tf.pfaffian(f.assembled())) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 7 ok in {elapsed:.2f}s")


# --- criterion 8: exterior-square bridge -----------------------------------


def _random_sl4(rng):
    while True:
        m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        if intlin.det_bareiss([row[:] for row in m]) == 1:
            return m


def test_criterion_08_exterior_square_bridge():
    rng = random.Random(8)
    t0 = time.monotonic()
    wedge = tf.wedge_gram()
    gram = [list(r) for r in wedge.gram]
    for _ in range(200):
        g1 = _random_sl4(rng)
        g2 = _random_sl4(rng)
        w1 = tf.wedge_square_action(g1)
        w2 = tf.wedge_square_action(g2)
        w12 = tf.wedge_square_action(intlin.mat_mul(g1, g2))
        lhs = [list(r) for r in w12.matrix]
        rhs = intlin.mat_mul([list(r) for r in w1.matrix], [list(r) for r in w2.matrix])
        assert mat_eq(lhs, rhs)
        m = [list(r) for r in w1.matrix]
        assert mat_eq(
            intlin.mat_mul(intlin.mat_mul(intlin.transpose(m), gram), m), gram
        )
    # reordering the wedge coordinates as three two-dimensional pairings
    # (e12,e34), (e13,-e24), (e14,e23) exhibits three hyperbolic planes
    base_change = [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ]
    changed = intlin.mat_mul(
        intlin.mat_mul(base_change, gram), intlin.transpose(base_change)
    )
    assert mat_eq(changed, [list(r) for r in T4.gram])
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 8 ok in {elapsed:.2f}s")


# --- criterion 9: irrationality decisions ----------------------------------


def test_criterion_09_irrationality_decisions():
    t0 = time.monotonic()
    y_true = from_columns(
        (UNIT, SQRT2), [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    )
    y_false = from_columns(
        (UNIT, SQRT2), [[0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    )
    assert is_u_orthoirrational(T4, X1, y_true) is True
    assert is_u_orthoirrational(T4, X1, y_false) is False
    rational = rational_vector((0, 0, 1, 1, 0, 0))
    cert = certify_orthoisotropic_irrational(T4, rational, 2)
    assert cert.verdict == REFUTED
    witness = cert.witness_u
    assert witness is not None
    assert inner(T4, witness, witness) == 0
    assert all(c == 0 for c in symbolic_inner(T4, rational, witness))
    assert is_u_orthoirrational(T4, witness, rational) is False
    # both verdicts must be invariant under the stabilizer of u
    gens = list(gu_lattice_generators(T4, X1))
    rng = random.Random(11)
    for _ in range(20):
        g = identity_isometry(T4)
        for _ in range(4):
            h = gens[rng.randrange(len(gens))]
            if rng.random() < 0.5:
                h = invert(h)
            g = compose(g, h)
        assert apply(g, X1) == X1
        assert is_u_orthoirrational(T4, X1, transform(g, y_true)) is True
        assert is_u_orthoirrational(T4, X1, transform(g, y_false)) is False
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 9 ok in {elapsed:.2f}s")


# --- criterion 10: explorer properties -------------------------------------


def test_criterion_10_explorer_properties():
    t0 = time.monotonic()
    y_sym = from_columns(
        (UNIT, SQRT2), [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    )
    y0 = oe.project_to_hyperboloid(T4, approx_coords(y_sym), X1)
    rng = random.Random(10)
    targets = []
    while len(targets) < 10:
        try:
            targets.append(
                oe.project_to_hyperboloid(
                    T4, tuple(rng.uniform(-1, 1) for _ in range(6)), X1
                )
            )
        except oe.NotPositiveNorm:
            continue
    sink = []
    records = oe.explore(T4, X1, y0, targets, depth=8, seed=0, point_sink=sink)
    by_target = {}
    for r in records:
        by_target.setdefault(r.target_id, []).append(r)
    for rows in by_target.values():
        rows.sort(key=lambda r: r.depth)
        for prev, nxt in zip(rows, rows[1:]):
            assert nxt.min_dist <= prev.min_dist
    assert sink
    for coords in sink:
        norm_defect, orth_defect = oe.HyperboloidPoint(coords).defects(T4, X1)
        assert norm_defect <= 1e-8
        assert orth_defect <= 1e-8
    rerun = oe.explore(T4, X1, y0, targets, depth=8, seed=0)
    assert oe.records_to_csv(records).encode() == oe.records_to_csv(rerun).encode()
    depth2 = [rows[2].min_dist for rows in by_target.values()]
    depth8 = [rows[8].min_dist for rows in by_target.values()]
    assert statistics.median(depth8) < statistics.median(depth2)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 10 ok in {elapsed:.2f}s")
