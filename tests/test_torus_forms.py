import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assembled_shear,
    compose_shears,
    darboux,
    exact_skew_residual,
    is_least_float_bound,
    pure_shear_act,
    reference_pfaffian,
    standard_complement,
    standard_lagrangian,
)
from latorb import intlin, torus_forms as tf
from latorb.errors import (
    DegenerateGram,
    DidNotConverge,
    DimensionMismatch,
    InvalidTolerance,
    NotComplementary,
    NotVanishingOnL,
)
from latorb.isometries import apply, compose, is_in_so_plus
from latorb.lattice_core import Sublattice, hyperbolic, inner


def random_unimodular(rng, n, steps=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def random_sl(rng, n, steps=8):
    # row operations preserve determinant +1
    return random_unimodular(rng, n, steps)


def random_split_form(rng, n=2):
    c = random_sl(rng, n)
    cm = np.array(c, dtype=float)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = rng.uniform(-2, 2)
            d[j, i] = -d[i, j]
    return tf.SplitBlockForm(cm, d)


def random_shear(rng, n=2, with_a=True):
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a = random_sl(rng, n) if with_a else None
    return tf.IntegralShear(b, a)


# --- pfaffian ---------------------------------------------------------------


def test_darboux_pfaffian_is_one():
    for n in (1, 2, 3, 4):
        assert tf.pfaffian(darboux(n).matrix) == 1.0


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(11)
    for m in (2, 4, 6, 8):
        for _ in range(5):
            x = rng.integers(-5, 6, size=(m, m)).astype(float)
            sk = x - x.T
            pf = tf.pfaffian(sk)
            det = np.linalg.det(sk)
            assert abs(pf * pf - det) <= 1e-7 * max(1.0, abs(det))


def test_pfaffian_congruence_sign():
    rng = random.Random(5)
    base = darboux(2).matrix
    for _ in range(20):
        g = np.array(random_unimodular(rng, 4), dtype=float)
        sign = round(np.linalg.det(g))
        assert sign in (-1, 1)
        assert tf.pfaffian(g.T @ base @ g) == pytest.approx(sign, abs=1e-9)


def test_pfaffian_matches_the_closed_forms():
    # bit for bit, up to the sign of a zero Pfaffian: the size-0 base case
    # adds to +0.0, so where the closed forms gave −0.0 it gives +0.0
    rng = random.Random(7)
    nprng = np.random.default_rng(7)
    mats = []
    for n in (2, 3, 4):
        for _ in range(100):
            f = random_split_form(rng, n)
            mats += [f.assembled(), tf.act(random_shear(rng, n), f).assembled()]
            x = nprng.integers(-2, 3, size=(2 * n, 2 * n)).astype(float)
            mats.append(x - x.T)
    for m in mats:
        got, want = tf.pfaffian(m), reference_pfaffian(np.array(m))
        assert np.float64(got).tobytes() == np.float64(want).tobytes() or got == want == 0.0


def test_pfaffian_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        tf.pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tf.pfaffian(np.ones((2, 2)))


def test_a_matrix_that_is_not_a_list_of_rows_names_the_shape():
    for flat in ([1.0, 2.0], 1.0):
        with pytest.raises(TypeError, match="square matrix given as a list of rows"):
            tf.pfaffian(flat)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_are_rejected(bad):
    eye, zero = np.eye(2), np.zeros((2, 2))
    skew = np.array([[0.0, bad], [-bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        tf.SplitBlockForm(np.array([[bad, 0.0], [0.0, 1.0]]), zero)
    with pytest.raises(ValueError, match="finite"):
        tf.SplitBlockForm(eye, skew)
    with pytest.raises(ValueError, match="finite"):
        tf.LinearSymplecticForm(skew)
    with pytest.raises(ValueError, match="finite"):
        tf.pfaffian(skew)


def test_degenerate_form_is_rejected_at_construction():
    with pytest.raises(DegenerateGram):
        tf.LinearSymplecticForm(np.zeros((2, 2)))


# --- Lagrangian planes and blocks -------------------------------------------


def test_standard_planes_are_lagrangian():
    omega = darboux(2)
    assert tf.is_lagrangian_subspace(omega, standard_lagrangian(2))
    assert tf.is_lagrangian_subspace(omega, standard_complement(2))
    mixed = Sublattice(((1, 0, 0, 0), (0, 1, 0, 0)))  # one full pair
    assert not tf.is_lagrangian_subspace(omega, mixed)
    with pytest.raises(DimensionMismatch):
        tf.is_lagrangian_subspace(omega, Sublattice(((1, 0, 0, 0),)))


def test_to_blocks_standard_is_identity():
    f = tf.to_blocks(darboux(2), standard_lagrangian(2), standard_complement(2))
    assert np.array_equal(f.c, np.eye(2))
    assert np.array_equal(f.d, np.zeros((2, 2)))


def test_to_blocks_rejects_non_complementary_pair():
    omega = darboux(2)
    l = standard_lagrangian(2)
    doubled = Sublattice(((2, 0, 0, 0), (0, 0, 2, 0)))  # index-4 sublattice
    with pytest.raises(NotComplementary):
        tf.to_blocks(omega, l, doubled)


def test_to_blocks_rejects_non_vanishing_plane():
    omega = darboux(2)
    bad = Sublattice(((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(NotVanishingOnL):
        tf.to_blocks(omega, bad, Sublattice(((0, 0, 1, 0), (0, 0, 0, 1))))


def test_to_blocks_vanishing_verdict_is_is_lagrangian_subspace():
    # to_blocks reads the vanishing of the form on l from the top-left
    # block of S·Ω·Sᵀ; it must agree with is_lagrangian_subspace, also on
    # forms whose pairings on l sit near VANISH_TOL
    rng = random.Random(29)
    verdicts = set()
    for _ in range(40):
        s = random_unimodular(rng, 4)
        l = Sublattice(tuple(tuple(r) for r in s[:2]))
        lp = Sublattice(tuple(tuple(r) for r in s[2:]))
        f = random_split_form(rng)
        m = [list(r) for r in tf.from_blocks(f, l, lp).matrix]
        tweak = rng.choice((0.0, 1e-13, 5e-13, 3e-12, 1e-6))
        m[0][1] += tweak
        m[1][0] -= tweak
        omega = tf.LinearSymplecticForm(m)
        lagrangian = tf.is_lagrangian_subspace(omega, l)
        verdicts.add(lagrangian)
        if lagrangian:
            tf.to_blocks(omega, l, lp)
        else:
            with pytest.raises(NotVanishingOnL):
                tf.to_blocks(omega, l, lp)
    assert verdicts == {True, False}


def test_blocks_round_trip_exactly_on_standard_planes():
    l, lp = standard_lagrangian(2), standard_complement(2)
    f = tf.SplitBlockForm(np.eye(2), np.array([[0.0, 0.5], [-0.5, 0.0]]))
    back = tf.to_blocks(tf.from_blocks(f, l, lp), l, lp)
    assert np.array_equal(back.c, f.c)
    assert np.array_equal(back.d, f.d)


def test_blocks_round_trip_through_random_bases():
    rng = random.Random(23)
    for _ in range(10):
        s = random_unimodular(rng, 4)
        l = Sublattice(tuple(tuple(r) for r in s[:2]))
        lp = Sublattice(tuple(tuple(r) for r in s[2:]))
        f = random_split_form(rng)
        omega = tf.from_blocks(f, l, lp)
        back = tf.to_blocks(omega, l, lp)
        assert np.max(np.abs(np.subtract(back.c, f.c))) <= 1e-12
        assert np.max(np.abs(np.subtract(back.d, f.d))) <= 1e-12


# --- the shear action --------------------------------------------------------


def test_act_block_formula_example():
    f = tf.SplitBlockForm(np.eye(2), np.zeros((2, 2)))
    out = tf.act(tf.IntegralShear(((0, 1), (0, 0))), f)
    assert np.array_equal(out.c, np.eye(2))
    assert np.array_equal(out.d, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_act_identity_is_exact():
    rng = random.Random(31)
    f = random_split_form(rng)
    out = tf.act(tf.IntegralShear(((0, 0), (0, 0))), f)
    assert np.array_equal(out.c, f.c)
    assert np.array_equal(out.d, f.d)


def test_act_at_a_identity_is_the_pure_shear_formula():
    rng = random.Random(47)
    for n in (2, 3, 4):
        for _ in range(100):
            f = random_split_form(rng, n)
            g = random_shear(rng, n, with_a=False)
            out = tf.act(g, f)
            c, d = pure_shear_act(g.b, f.c, f.d)
            assert _hex(out.c) == _hex(c)
            assert _hex(out.d) == _hex(d)


def test_act_matches_dense_congruence():
    rng = random.Random(37)
    for _ in range(50):
        f = random_split_form(rng)
        g = random_shear(rng, with_a=rng.random() < 0.5)
        out = tf.act(g, f)
        asm = np.array(assembled_shear(g), dtype=float)
        dense = asm.T @ f.assembled() @ asm
        assert np.max(np.abs(out.assembled() - dense)) <= 1e-12


def test_act_preserves_pfaffian():
    rng = random.Random(41)
    for _ in range(20):
        f = random_split_form(rng)
        g = random_shear(rng)
        before = tf.pfaffian(f.assembled())
        after = tf.pfaffian(tf.act(g, f).assembled())
        assert abs(before - after) <= 1e-10 * max(1.0, abs(before))


def test_act_composes_as_congruence():
    # congruence is a right action: acting by g then h equals acting by g.h
    rng = random.Random(43)
    for _ in range(20):
        f = random_split_form(rng)
        g = random_shear(rng)
        h = random_shear(rng)
        chained = tf.act(h, tf.act(g, f))
        combined = tf.act(compose_shears(g, h), f)
        assert np.max(np.abs(np.subtract(chained.assembled(), combined.assembled()))) <= 1e-10


def test_split_form_accepts_the_image_of_a_nontrivial_a():
    # AᵀC below is an integer matrix of determinant 1 whose float
    # determinant misses 1 by 1.7e-10, beyond DET_TOL; Hadamard's bound
    # scales the check
    f = tf.SplitBlockForm(
        np.array([[-9.0, -16.0], [-14.0, -25.0]]),
        np.array([[0.0, 0.49244133244068333], [-0.49244133244068333, 0.0]]),
    )
    a = ((31, 136), (-75, -329))
    out = tf.act(tf.IntegralShear(((2, -3), (0, 2)), a), f)
    assert out.c == ((771.0, 1379.0), (3382.0, 6049.0))
    with pytest.raises(ValueError):  # det 772
        tf.SplitBlockForm(np.add(out.c, [[0.0, 0.0], [0.0, 1.0]]), out.d)


def test_split_form_rejects_a_determinant_off_by_5e_4():
    # the C′ above with one entry moved so that det C = 1.0005: the float
    # determinant's rounding at these entries is below 1e-8, far from 5e-4
    c = np.array([[771.0, 1379.0], [3382.0, 6049.0 + 0.0005 / 771]])
    assert abs(np.linalg.det(c) - 1.0005) <= 1e-8
    d = np.array([[0.0, 0.49244133244068333], [-0.49244133244068333, 0.0]])
    with pytest.raises(ValueError, match="determinant 1"):
        tf.SplitBlockForm(c, d)


def test_shear_requires_unit_determinant_a():
    with pytest.raises(ValueError):
        tf.IntegralShear(((0, 0), (0, 0)), ((2, 0), (0, 1)))


# --- approximation solver ----------------------------------------------------


def exhaustive_best_error(c, d, box=3):
    """Brute-force the best integer B with entries in [-box, box]."""
    best = None
    n = c.shape[0]
    cells = list(itertools.product(range(-box, box + 1), repeat=n * n))
    for flat in cells:
        b = np.array(flat, dtype=float).reshape((n, n))
        cb = c @ b
        err = float(np.max(np.abs((cb - cb.T) - d)))
        if best is None or err < best:
            best = err
    return best


def test_solver_zero_d_short_circuits():
    f = tf.SplitBlockForm(np.eye(2), np.zeros((2, 2)))
    res = tf.approx_by_split_orbit(f, 1e-3, 0.5)
    assert res.err == 0.0
    assert res.b == ((0, 0), (0, 0))
    assert res.rounds == 0


def test_solver_hits_integer_targets_exactly():
    rng = random.Random(47)
    for _ in range(5):
        c = np.array(random_sl(rng, 2), dtype=float)
        b = np.array([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)], dtype=float)
        cb = c @ b
        d = cb - cb.T
        f = tf.SplitBlockForm(c, d)
        res = tf.approx_by_split_orbit(f, 1e-9, 0.0, budget=1)
        assert res.err <= 1e-9
        # err is the least float bound on the exact residual of the output
        assert is_least_float_bound(res.err, exact_skew_residual(res.cprime, res.b, d))


def test_solver_refuses_unreachable_discrete_target():
    f = tf.SplitBlockForm(np.eye(2), np.array([[0.0, 0.5], [-0.5, 0.0]]))
    with pytest.raises(DidNotConverge) as exc:
        tf.approx_by_split_orbit(f, 1e-9, 0.0, budget=1)
    assert exc.value.incumbent.err == pytest.approx(0.5)


def test_solver_runs_one_round_when_delta_is_zero(monkeypatch):
    # with delta = 0 every round has C′ = C, and the ladder is
    # deterministic, so a second round could only repeat the first
    f = near_identity_targets(2, 1, seed=5)[0]
    with pytest.raises(DidNotConverge) as one_round:
        tf.approx_by_split_orbit(f, 1e-30, 0.0, budget=1)
    calls = []
    ladder = tf._ladder
    monkeypatch.setattr(tf, "_ladder", lambda *args: calls.append(1) or ladder(*args))
    with pytest.raises(DidNotConverge) as exc:
        tf.approx_by_split_orbit(f, 1e-30, 0.0, budget=8)
    assert len(calls) == 1
    assert exc.value.incumbent == one_round.value.incumbent
    assert exc.value.incumbent.rounds == 1


def test_solver_validates_tolerances():
    f = tf.SplitBlockForm(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(InvalidTolerance):
        tf.approx_by_split_orbit(f, 0.0, 0.1)
    with pytest.raises(InvalidTolerance):
        tf.approx_by_split_orbit(f, 1e-2, -0.1)
    with pytest.raises(InvalidTolerance):
        tf.approx_by_split_orbit(f, 1e-2, 0.1, budget=0)
    # NaN and infinity are rejected too, even for a zero target that needs
    # no round
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidTolerance):
            tf.approx_by_split_orbit(f, bad, 0.1)
        with pytest.raises(InvalidTolerance):
            tf.approx_by_split_orbit(f, 1e-2, bad)


def test_solver_raises_when_lattice_reduction_does_not_finish(monkeypatch):
    # with the step bound lowered below what one reduction needs, the
    # solver stops with DidNotConverge instead of looping
    f = tf.SplitBlockForm(
        np.eye(2), np.array([[0.0, 0.7613], [-0.7613, 0.0]])
    )
    monkeypatch.setattr(tf, "LLL_MAX_STEPS", 2)
    with pytest.raises(DidNotConverge, match="lattice reduction"):
        tf.approx_by_split_orbit(f, 1e-2, 0.1)


def test_solver_output_is_self_consistent():
    f = tf.SplitBlockForm(
        np.eye(2), np.array([[0.0, 0.7613], [-0.7613, 0.0]])
    )
    res = tf.approx_by_split_orbit(f, 1e-2, 0.1, budget=12, seed=3)
    cp = np.array(res.cprime)
    assert res.err <= 1e-2
    assert np.max(np.abs(cp - f.c)) <= 0.1
    assert abs(np.linalg.det(cp) - 1.0) <= 1e-9
    assert is_least_float_bound(res.err, exact_skew_residual(res.cprime, res.b, f.d))


def test_solver_is_deterministic():
    f = tf.SplitBlockForm(
        np.eye(2), np.array([[0.0, 0.7613], [-0.7613, 0.0]])
    )
    a = tf.approx_by_split_orbit(f, 1e-2, 0.1, budget=12, seed=3)
    b = tf.approx_by_split_orbit(f, 1e-2, 0.1, budget=12, seed=3)
    assert a == b


def test_solver_not_worse_than_small_exhaustive_search():
    rng = random.Random(53)
    for _ in range(5):
        c = np.array(random_sl(rng, 2, steps=4), dtype=float)
        d = np.zeros((2, 2))
        d[0, 1] = rng.uniform(-1, 1)
        d[1, 0] = -d[0, 1]
        f = tf.SplitBlockForm(c, d)
        oracle = exhaustive_best_error(c, d, box=3)
        try:
            res = tf.approx_by_split_orbit(f, 1e-2, 0.0, budget=1)
            err = res.err
        except DidNotConverge as exc:
            err = exc.incumbent.err
        assert err <= 2 * oracle + 1e-12


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "split_orbit_golden.json").read_text()
)


def _unhex(m):
    return np.array([[float.fromhex(x) for x in row] for row in m])


def _hex(m):
    return [[float(x).hex() for x in row] for row in m]


# sha256 of the recorded inputs, [[C, D], ...] in hex as first recorded:
# a re-record of the outputs must leave the inputs byte for byte alone
GOLDEN_INPUTS_SHA256 = "bb90518ac592b5547c40e2380f637e8b31da1d2efaeb56de10fa9c72818baeff"
# the same for the n = 4 and incumbent cases, [[C, D, eps, budget], ...]
INCUMBENT_INPUTS_SHA256 = "f99292631f353da2fe4a0d0ac18ba4d22735eee804a15633b804925b9254a143"


def _check_golden_case(case, eps, budget=8):
    # every recorded answer is a true one: err bounds its exact residual
    # tightly, converged answers meet eps, C′ is within δ
    c, d = _unhex(case["C"]), _unhex(case["D"])
    exact = exact_skew_residual(_unhex(case["cprime"]), case["b"], d)
    assert is_least_float_bound(float.fromhex(case["err"]), exact)
    assert exact <= eps or not case["converged"]
    assert max(
        abs(Fraction(x) - Fraction(y))
        for x, y in zip(_unhex(case["cprime"]).flat, c.flat)
    ) <= 0.1
    f = tf.SplitBlockForm(c, d)
    try:
        res = tf.approx_by_split_orbit(f, eps, 0.1, budget=budget)
        converged = True
    except DidNotConverge as exc:
        res, converged = exc.incumbent, False
    assert converged == case["converged"]
    assert _hex(res.cprime) == case["cprime"]
    assert [list(r) for r in res.b] == case["b"]
    assert res.err.hex() == case["err"]
    assert res.rounds == case["rounds"]


def test_solver_golden_outputs():
    # exact floats and integers of the solver at eps 1e-6, δ 0.1
    inputs = json.dumps([[case["C"], case["D"]] for case in GOLDEN["solves"]])
    assert hashlib.sha256(inputs.encode()).hexdigest() == GOLDEN_INPUTS_SHA256
    for case in GOLDEN["solves"]:
        _check_golden_case(case, 1e-6)


def test_solver_golden_n4_and_incumbents():
    # n = 4 answers at eps 1e-6, and DidNotConverge incumbents at eps
    # 1e-30 with a budget of two rounds, at n = 2, 3 and 4, at δ 0.1
    cases = GOLDEN["n4_and_incumbents"]
    inputs = json.dumps([[c["C"], c["D"], c["eps"], c["budget"]] for c in cases])
    assert hashlib.sha256(inputs.encode()).hexdigest() == INCUMBENT_INPUTS_SHA256
    assert {len(c["C"]) for c in cases} == {2, 3, 4}
    assert {c["rounds"] for c in cases if not c["converged"]} == {1, 2}
    for case in cases:
        _check_golden_case(case, float.fromhex(case["eps"]), case["budget"])


def near_identity_targets(n, count, seed):
    """Seeded (C, D): C near I rescaled to det 1, D skew with entries in
    (−1, 1)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        c = np.eye(n) + rng.uniform(-0.3, 0.3, size=(n, n))
        det = np.linalg.det(c)
        if det > 0.2:
            a = rng.uniform(-0.5, 0.5, size=(n, n))
            out.append(tf.SplitBlockForm(c * det ** (-1.0 / n), a - a.T))
    return out


def test_solver_answer_is_the_exact_minimizer_of_its_round():
    # the returned B is, among the candidates of the round that produced
    # it, the least by its exact residual, ties broken by flattened B
    forms = [tf.SplitBlockForm(_unhex(case["C"]), _unhex(case["D"])) for case in GOLDEN["solves"]]
    forms += near_identity_targets(2, 6, seed=81) + near_identity_targets(3, 4, seed=83)
    checked = 0
    for f in forms:
        try:
            res = tf.approx_by_split_orbit(f, 1e-6, 0.1)
        except DidNotConverge:
            continue
        n = f.n
        ints, den = tf._over_common_denominator([*res.cprime, *f.d])
        rhs = [ints[n + i][j] / den for i in range(n) for j in range(i + 1, n)]
        reshape = lambda coeffs: tuple(tuple(coeffs[i * n : (i + 1) * n]) for i in range(n))
        best = min(
            map(reshape, tf._ladder(tf._directions(ints[:n]), den, rhs)),
            key=lambda b: (
                exact_skew_residual(res.cprime, b, f.d),
                [x for row in b for x in row],
            ),
        )
        assert res.b == best
        checked += 1
    assert checked >= 15


# --- exterior-square bridge --------------------------------------------------


def test_wedge_gram_frozen():
    gram = tf.wedge_gram().gram
    assert gram == (
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, -1, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
    )


def test_wedge_base_change_to_three_hyperbolic_planes():
    # pairs (e12, e34), (e13, -e24), (e14, e23) give three orthogonal
    # hyperbolic planes, matching the rank-6 model lattice
    b = [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ]
    g = [list(r) for r in tf.wedge_gram().gram]
    changed = intlin.mat_mul(intlin.mat_mul(b, g), intlin.transpose(b))
    u = [list(r) for r in hyperbolic().gram]
    expect = [[0] * 6 for _ in range(6)]
    for k in range(3):
        for i in range(2):
            for j in range(2):
                expect[2 * k + i][2 * k + j] = u[i][j]
    assert changed == tuple(map(tuple, expect))


def test_wedge_action_is_a_homomorphism():
    rng = random.Random(61)
    for _ in range(30):
        g1 = random_sl(rng, 4)
        g2 = random_sl(rng, 4)
        w1 = tf.wedge_square_action(g1)
        w2 = tf.wedge_square_action(g2)
        w12 = tf.wedge_square_action(intlin.mat_mul(g1, g2))
        assert w12.matrix == compose(w1, w2).matrix


def test_wedge_action_lands_in_identity_component():
    rng = random.Random(67)
    for _ in range(10):
        w = tf.wedge_square_action(random_sl(rng, 4))
        assert w.det == 1
        assert is_in_so_plus(w)


def test_wedge_action_on_decomposables():
    # the image of a coordinate wedge is the wedge of the image columns
    rng = random.Random(71)
    g = random_sl(rng, 4)
    w = tf.wedge_square_action(g)
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for idx, (i, j) in enumerate(pairs):
        e = tuple(1 if k == idx else 0 for k in range(6))
        image = apply(w, e)
        for out_idx, (k, l) in enumerate(pairs):
            minor = g[k][i] * g[l][j] - g[k][j] * g[l][i]
            assert image[out_idx] == minor


def _row_ops(n, most):
    """Determinant-1 integer n×n matrices: products of up to `most` row
    additions with small multipliers."""
    step = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))

    def build(steps):
        m = [list(r) for r in intlin.identity(n)]
        for i, j, c in steps:
            if i != j:
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        return m

    return st.lists(step, max_size=most).map(build)


def _wedge_vector(w):
    """Coordinates W_ij of a skew 4×4 matrix, in the pair order of the
    wedge lattice."""
    return tuple(w[i][j] for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


SKEW4 = st.lists(st.integers(-3, 3), min_size=6, max_size=6).map(
    lambda x: [[0, x[0], x[1], x[2]], [-x[0], 0, x[3], x[4]],
               [-x[1], -x[3], 0, x[5]], [-x[2], -x[4], -x[5], 0]]
)
U_WEDGE = (0, 0, 0, 0, 0, 1)  # e2∧e3
Z_WEDGE = (1, 0, 0, 0, 0, 0)  # e0∧e1


@settings(max_examples=200, deadline=None)
@given(SKEW4, _row_ops(4, 6), st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       _row_ops(2, 4))
def test_klein_correspondence_on_t4(wm, m, b, a):
    # SL(4) acts on skew forms by W ↦ MᵀWM and on their wedge vectors by
    # the integer isometry wedge_square_action(Mᵀ); a shear fixes
    # u = e2∧e3, a pure shear translates {u, z}^⊥ along u, and B = 0
    # fixes u and z = e0∧e1
    G = tf.wedge_gram()
    w = _wedge_vector(wm)
    mt = intlin.transpose(m)
    moved = intlin.mat_mul(intlin.mat_mul(mt, wm), m)
    assert apply(tf.wedge_square_action(mt), w) == _wedge_vector(moved)
    assert inner(G, w, w) == 2 * tf.pfaffian(wm)
    assert inner(G, w, U_WEDGE) == wm[0][1]  # so W vanishes on span(e0, e1) iff w ⊥ u

    def shear_wedge(bb, aa):  # the wedge action of [[I, B], [0, A]]ᵀ
        shear = [[1, 0, *bb[:2]], [0, 1, *bb[2:]], [0, 0, *aa[0]], [0, 0, *aa[1]]]
        return tf.wedge_square_action(intlin.transpose(shear))

    assert apply(shear_wedge(b, a), U_WEDGE) == U_WEDGE
    g = shear_wedge(b, intlin.identity(2))
    assert apply(g, U_WEDGE) == U_WEDGE
    for e in intlin.identity(6)[1:5]:  # a basis of {u, z}^⊥
        assert [x - y for x, y in zip(apply(g, e), e)][:5] == [0] * 5
    g = shear_wedge((0, 0, 0, 0), a)
    assert (apply(g, U_WEDGE), apply(g, Z_WEDGE)) == (U_WEDGE, Z_WEDGE)


def test_wedge_rejects_other_determinants():
    flip = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        tf.wedge_square_action(flip)
    with pytest.raises(DimensionMismatch):
        tf.wedge_square_action([[1, 0], [0, 1]])
