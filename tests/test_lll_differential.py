"""The row-by-row Gram–Schmidt bookkeeping in `_lll` against the
recompute-everything reduction it replaced, which stays here as the oracle."""

import inspect
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import reference_gso, reference_lifted_rows, reference_lll
from latorb import intlin, torus_forms as tf


def bits(rows):
    return [list(map(float.hex, r)) for r in rows]


def assert_matches_reference(rows, out, exact=False):
    reduced, transform, star, norms = out
    ref_reduced, ref_transform = reference_lll(rows)
    assert bits(reduced) == bits(ref_reduced)
    assert transform == ref_transform
    # what nearest-plane rounding reads is the from-scratch orthogonalisation
    ref_star = reference_gso(reduced)
    assert bits(star) == bits(ref_star)
    assert norms == [intlin._fdot(s, s) for s in ref_star]
    assert intlin.det_bareiss(transform) in (1, -1)
    u = np.array(transform, dtype=float)
    r = np.array(rows, dtype=float)
    # integer-valued rows reduce without rounding; other rows accumulate
    # float error, bounded here normwise against max|U|·max|rows|
    tol = 0.0 if exact else 1e-12 * np.abs(u).max() * np.abs(r).max()
    assert np.abs(u @ r - np.array(reduced)).max() <= tol


@st.composite
def full_rank_bases(draw, entry):
    k = draw(st.integers(1, 6))
    dim = draw(st.integers(k, k + 3))
    rows = draw(
        st.lists(
            st.lists(entry, min_size=dim, max_size=dim), min_size=k, max_size=k
        )
    )
    a = np.array(rows)
    assume(np.linalg.matrix_rank(a) == k and np.linalg.cond(a) < 1e6)
    return [np.array(r) for r in rows]


DRAWN = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@DRAWN
@given(full_rank_bases(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)))
def test_lll_matches_reference_on_drawn_float_bases(rows):
    assert_matches_reference(rows, tf._lll(rows))


@DRAWN
@given(full_rank_bases(st.integers(-50, 50).map(float)))
def test_lll_matches_reference_on_drawn_integer_bases(rows):
    assert_matches_reference(rows, tf._lll(rows), exact=True)


def _random_target(rng, n):
    c = np.eye(n) + np.array(
        [[rng.uniform(-0.3, 0.3) for _ in range(n)] for _ in range(n)]
    )
    c = c / np.linalg.det(c) ** (1.0 / n)
    a = np.array([[rng.uniform(-0.5, 0.5) for _ in range(n)] for _ in range(n)])
    return c, a - a.T


@pytest.fixture
def checked_lll(monkeypatch):
    """Routes every `_lll` call through the reference comparison."""
    calls = []
    real = tf._lll

    def checked(rows):
        out = real(rows)
        assert_matches_reference(rows, out)
        calls.append(len(rows))
        return out

    monkeypatch.setattr(tf, "_lll", checked)
    return calls


@pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (3, 0)])
def test_lll_matches_reference_on_solver_embeddings(checked_lll, n, seed):
    # a whole solve: the raw embedding at μ = 1, then each rung's lifted
    # reduced basis
    c, d = _random_target(random.Random(f"lll-{n}-{seed}"), n)
    res = tf.approx_by_split_orbit(tf.SplitBlockForm(c, d), 1e-6, 0.1)
    assert checked_lll == [n * n] * (len(tf._WEIGHTS) * res.rounds)


@st.composite
def lift_inputs(draw):
    """C′ with entries over many binades, and an integer unimodular U of
    the embedding's size with entries up to about 1e6."""
    n = draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cprime = [
        [rng.choice((-1, 1)) * rng.uniform(0.5, 2) * 2.0 ** rng.randint(-30, 4)
         for _ in range(n)]
        for _ in range(n)
    ]
    k = n * n
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 60))):
        i, j = rng.sample(range(k), 2)
        q = rng.randint(-3, 3)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        if max(map(abs, u[i])) > 10**6:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]
    if draw(st.booleans()):
        u.reverse()
    return cprime, u


@DRAWN
@given(lift_inputs())
def test_lifted_rows_are_exactly_rounded(inputs):
    # each rung starts from U·[μI | dirs/μ], every entry the float nearest
    # its exact value; at U = I, μ = 1 that is the raw embedding
    cprime, u = inputs
    c, den = tf._over_common_denominator(cprime)
    dirs = tf._directions(c)
    for mu in tf._WEIGHTS:
        rows = tf._lifted_rows(u, dirs, den, mu)
        assert [list(r) for r in rows] == reference_lifted_rows(u, cprime, mu)


@DRAWN
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n),
             min_size=n, max_size=n),
)))
def test_direction_rows_map_b_to_the_skew_part_of_cb(inputs):
    # row (i, j) of the directions is the image of E_ij, so the flattened B
    # times the directions is the upper triangle of C′B − (C′B)ᵀ
    c, b = inputs
    n = len(c)
    cb = intlin.mat_mul(c, b)
    flat_b = [x for row in b for x in row]
    image = intlin.mat_vec(intlin.transpose(tf._directions(c)), flat_b)
    assert list(image) == [cb[i][j] - cb[j][i] for i in range(n) for j in range(i + 1, n)]


def _relation_embedding(c):
    """Integer-relation embedding of the entries of C⁻¹: identity rows, each
    with its entry scaled by 1e12 appended as a last column."""
    entries = np.linalg.inv(c).flatten()
    k = len(entries)
    return [np.concatenate([np.eye(k)[i], [1e12 * entries[i]]]) for i in range(k)]


def test_lll_matches_reference_on_genericity_embedding():
    c, _ = _random_target(random.Random("lll-genericity"), 3)
    for m in (c, np.eye(2)):
        rows = _relation_embedding(m)
        assert_matches_reference(rows, tf._lll(rows))


# --- the lazy paths: each row's Gram–Schmidt data kept as far as it is
# current, swaps that carry a row's prefix with it, recomputes skipped ---


@st.composite
def solver_shaped_bases(draw):
    """k ≤ 9 rows in dimension ≤ 12, the shape of the n = 3 embedding,
    with row scales spread over six decades."""
    k = draw(st.integers(1, 9))
    dim = draw(st.integers(k, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-3, 3, size=(k, 1))
    a = rng.standard_normal((k, dim)) * scales
    assume(np.linalg.matrix_rank(a) == k and np.linalg.cond(a) < 1e6)
    return list(a)


@DRAWN
@given(solver_shaped_bases())
def test_lll_matches_reference_on_drawn_solver_shaped_bases(rows):
    assert_matches_reference(rows, tf._lll(rows))


def _traced_lll(rows):
    """Runs `_lll` and returns its output with the index i of every swap,
    read from its frame at the line that exchanges b[i − 1] and b[i]."""
    lines, first = inspect.getsourcelines(tf._lll)
    swap_line = first + next(
        n for n, line in enumerate(lines) if "b[i], b[i - 1] = b[i - 1], b[i]" in line
    )
    code, swaps = tf._lll.__code__, []

    def in_lll(frame, event, arg):
        if event == "line" and frame.f_lineno == swap_line:
            swaps.append(frame.f_locals["i"])
        return in_lll

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_lll if frame.f_code is code else None)
    try:
        out = tf._lll(rows)
    finally:
        sys.settrace(previous)
    return out, swaps


def _longest_chain(swaps):
    """Most swaps in a row at i, i − 1, i − 2, …: one row walking down."""
    best = run = 0
    for at, i in enumerate(swaps):
        run = run + 1 if at and i == swaps[at - 1] - 1 else 1
        best = max(best, run)
    return best


def test_lll_matches_reference_on_nearly_parallel_rows():
    # integer multiples of one direction plus small noise: the reduction is
    # a Euclid-like descent of swaps at i = 1 and of rows walking down
    rng = np.random.default_rng(2024)
    chains = []
    for _ in range(40):
        k = int(rng.integers(3, 10))
        dim = int(rng.integers(k, 13))
        v = rng.standard_normal(dim)
        rows = [
            c * v + rng.standard_normal(dim) * 10.0 ** rng.uniform(-6, -2)
            for c in rng.integers(1, 1000, size=k)
        ]
        out, swaps = _traced_lll(rows)
        assert_matches_reference(rows, out)
        assert 1 in swaps
        chains.append(_longest_chain(swaps))
    assert max(chains) >= 7
