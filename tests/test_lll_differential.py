"""The row-by-row Gram–Schmidt bookkeeping in `_lll` against the
recompute-everything reduction it replaced, which stays here as the oracle."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import reference_gso, reference_lll
from latorb import intlin, torus_forms as tf


def assert_matches_reference(rows, out, exact=False):
    reduced, transform, star, norms = out
    ref_reduced, ref_transform = reference_lll(rows)
    assert [r.tobytes() for r in reduced] == [r.tobytes() for r in ref_reduced]
    assert transform == ref_transform
    # what nearest-plane rounding reads is the from-scratch orthogonalisation
    ref_star = reference_gso(reduced)
    assert [s.tobytes() for s in star] == [s.tobytes() for s in ref_star]
    assert norms == [float(s @ s) for s in ref_star]
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
    c, d = _random_target(random.Random(f"lll-{n}-{seed}"), n)
    for e in range(10):
        tf._solve_b(c, d, 10.0 ** (-e))
    assert checked_lll == [n * n] * 10


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
