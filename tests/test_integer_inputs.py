"""Every reader of integer input takes integers only: a float or a string
raises TypeError instead of being truncated or parsed, and a numpy integer
is read as the Python int of the same value.  Every reader of float input
refuses bools and strings the same way, and reads numpy floats; all of
them go through `intlin._reals`, tested here on its own too."""

import numpy as np
import pytest

from latorb import intlin, jsonio, orbit_explorer as oe, torus_forms as tf
from latorb.irrationality import Symbol
from latorb.isometries import Isometry, apply, identity_isometry, is_in_gu, is_in_hy, is_in_ky
from latorb.lattice_core import QuadLattice, Sublattice, hyperbolic, inner, t4_model

Y0 = oe.HyperboloidPoint((0.0, 0.0, 0.594603557501361, 0.8408964152537145, 0.0, 0.0))


def _wedge(x):
    return tf.wedge_square_action(((x, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def _t4_identity():
    return identity_isometry(t4_model())


# each builds valid input around the one entry x, which is 1 when valid
READERS = {
    "QuadLattice": lambda x: QuadLattice(((0, x), (x, 0))).gram,
    "Sublattice": lambda x: Sublattice(((x, 2),)).basis,
    "inner": lambda x: inner(hyperbolic(), (x, 1), (1, 0)),
    "Isometry": lambda x: Isometry(((x, 0), (0, 1)), hyperbolic()).matrix,
    "IntegralShear.b": lambda x: tf.IntegralShear(((x,),)).b,
    "IntegralShear.a": lambda x: tf.IntegralShear(((0,),), ((x,),)).a,
    "wedge_square_action": lambda x: _wedge(x).matrix,
    "explore": lambda x: oe.explore(t4_model(), (x, 0, 0, 0, 0, 0), Y0, [Y0], 0),
    "apply": lambda x: apply(_t4_identity(), (x, 0, 0, 0, 0, 0)),
    "is_in_gu": lambda x: is_in_gu(_t4_identity(), (x, 0, 0, 0, 0, 0)),
    "is_in_hy": lambda x: is_in_hy(_t4_identity(), (1, 0, 0, 0, 0, 0), (0, 0, x, 0, 0, 0)),
    "is_in_ky": lambda x: is_in_ky(_t4_identity(), (1, 0, 0, 0, 0, 0), (0, 0, x, 0, 0, 0)),
    "encode_int": jsonio.encode_int,
}


def _leaves(data):
    if isinstance(data, (tuple, list)):
        return [x for item in data for x in _leaves(item)]
    return [data]


@pytest.mark.parametrize("bad", [0.5, "3"], ids=["float", "string"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_non_integer_entries_are_rejected(name, bad):
    with pytest.raises(TypeError):
        READERS[name](bad)


@pytest.mark.parametrize("name", sorted(READERS))
def test_numpy_integers_are_read_as_ints(name):
    out = READERS[name](np.int64(1))
    assert out == READERS[name](1)
    assert all(type(x) is not np.int64 for x in _leaves(out))


# each builds valid float input around the one entry x, which is 1.0 when valid
FLOAT_READERS = {
    "SplitBlockForm.c": lambda x: tf.SplitBlockForm([[x, 0.0], [0.0, 1.0]], [[0.0] * 2] * 2).c,
    "SplitBlockForm.d": lambda x: tf.SplitBlockForm(np.eye(2), [[0.0, x], [-1.0, 0.0]]).d,
    "LinearSymplecticForm": lambda x: tf.LinearSymplecticForm([[0.0, x], [-1.0, 0.0]]).matrix,
    "pfaffian": lambda x: tf.pfaffian([[0.0, x], [-1.0, 0.0]]),
    "HyperboloidPoint": lambda x: oe.HyperboloidPoint((x, 0.0, 0.0, 0.0, 0.0, 0.0)).coords,
    "Symbol.approx": lambda x: Symbol("s", x).approx,
}


@pytest.mark.parametrize("bad", ["1", b"1", True, np.True_], ids=["str", "bytes", "bool", "np.bool_"])
@pytest.mark.parametrize("name", sorted(FLOAT_READERS))
def test_bool_and_string_float_entries_are_rejected(name, bad):
    with pytest.raises(TypeError):
        FLOAT_READERS[name](bad)


@pytest.mark.parametrize("name", sorted(FLOAT_READERS))
def test_numpy_floats_are_read(name):
    assert np.array_equal(FLOAT_READERS[name](np.float64(1.0)), FLOAT_READERS[name](1.0))
    assert np.array_equal(FLOAT_READERS[name](np.float32(1.0)), FLOAT_READERS[name](1))


def test_real_reader_returns_finite_python_floats():
    out = intlin._reals((3, -0.25, np.float32(0.5), np.int64(2)))
    assert out == (3.0, -0.25, 0.5, 2.0) and all(type(x) is float for x in out)
    for bad in (True, False, np.False_, "1.5", b"1", None, [1.0]):
        with pytest.raises(TypeError):
            intlin._reals((bad,))
    for bad in (10 ** 400, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            intlin._reals((bad,))
