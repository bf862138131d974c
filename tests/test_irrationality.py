import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    box_isotropic_walk,
    engineered_k3_vector,
    rational_columns,
    reference_certify,
    reference_find_isotropic_orthogonal,
    reference_is_u_orthoirrational,
    scale,
)
from latorb import intlin, irrationality, jsonio
from latorb.errors import (
    DimensionMismatch,
    DomainError,
    NoHyperbolicSplit,
    NotIsotropic,
    NotOrthogonal,
    NotPositiveNorm,
    NotPrimitive,
    PrecisionError,
)
from latorb.irrationality import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    UNIT,
    IrrationalityCertificate,
    Symbol,
    SymbolicRealVector,
    certified_norm_sign,
    certify_orthoisotropic_irrational,
    find_isotropic_orthogonal,
    from_columns,
    is_u_orthoirrational,
    rational_constraint_lattice,
    rational_vector,
    symbolic_inner,
    transform,
)
from latorb.isometries import compose, gu_lattice_generators, identity_isometry, invert
from latorb.lattice_core import (
    QuadLattice,
    direct_sum,
    gram_column,
    hyperbolic,
    inner,
    is_isotropic,
    orthogonal_sublattice,
    t4_model,
)

T4 = t4_model()
SQRT2 = Symbol("sqrt2", math.sqrt(2))
SQRT3 = Symbol("sqrt3", math.sqrt(3))
X1 = (1, 0, 0, 0, 0, 0)

# y = x2 + sqrt2 * y2, the running two-symbol example
Y_IRR = from_columns((UNIT, SQRT2), [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])


def brute_force_isotropic_orthogonal(L, y, height):
    """Independent oracle: scan the full coordinate box."""
    import itertools

    out = []
    for v in itertools.product(range(-height, height + 1), repeat=L.rank):
        if not any(v):
            continue
        if next(x for x in v if x != 0) < 0:
            continue
        if math.gcd(*v) != 1:
            continue
        if any(c != 0 for c in symbolic_inner(L, y, v)):
            continue
        if inner(L, v, v) != 0:
            continue
        out.append(tuple(v))
    return sorted(out)


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol("bad", float("inf"))
    with pytest.raises(ValueError):
        SymbolicRealVector((SQRT2,), ((1,),), (1,))  # unit symbol must lead
    with pytest.raises(ValueError):
        SymbolicRealVector((UNIT, Symbol("1", 2.0)), ((1,), (1,)), (1, 1))
    with pytest.raises(Exception):
        SymbolicRealVector((UNIT, SQRT2), ((1,),), (1,))  # a symbol without a column
    with pytest.raises(ValueError):
        SymbolicRealVector((UNIT,), ((2, 4),), (2,))  # 2/2, 4/2 not in lowest terms


def test_symbolic_inner_examples():
    assert symbolic_inner(T4, Y_IRR, (0, 0, 0, 1, 0, 0)) == [1, 0]
    assert symbolic_inner(T4, Y_IRR, (1, 0, 0, 0, 0, 0)) == [0, 0]
    assert symbolic_inner(T4, Y_IRR, (0, 0, 1, 0, 0, 0)) == [0, 1]
    yr = rational_vector((0, 1, 0, 0, 0, 0))
    v = (1, 2, 0, 0, 0, 0)
    assert symbolic_inner(T4, yr, v) == [inner(T4, (0, 1, 0, 0, 0, 0), v)]


def test_rational_constraint_lattice():
    K = rational_constraint_lattice(T4, Y_IRR)
    assert K.rank == 4
    assert K.basis == (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    )
    K1 = rational_constraint_lattice(T4, rational_vector(X1))
    assert K1.rank == 5
    zero = SymbolicRealVector((UNIT,), ((0,) * 6,), (1,))
    assert rational_constraint_lattice(T4, zero).rank == 6


def test_certified_norm_sign():
    assert certified_norm_sign(T4, Y_IRR) == 1  # (y,y) = 2*sqrt2
    neg = rational_vector((1, -1, 0, 0, 0, 0))
    assert certified_norm_sign(T4, neg) == -1
    # all pairing coefficients vanish: a certified zero, not a PrecisionError
    assert certified_norm_sign(T4, rational_vector(X1)) == 0
    # y = -x2 + s·(x2 + y2) with s ≈ 1 + 1e-10 has norm 2s(s − 1) ≈ 2e-10
    s = Symbol("s", 1.0000000001)
    y = from_columns((UNIT, s), [[0, 0, -1, 0, 0, 0], [0, 0, 1, 1, 0, 0]])
    assert certified_norm_sign(T4, y) == 1
    # nonzero coefficients that cancel exactly at the floats: (y,y) is 0
    # at the approximations but not identically
    col = [0, 0, 1, 1, 0, 0]
    cancel = from_columns((UNIT, Symbol("one", 1.0)), [col, [-x for x in col]])
    with pytest.raises(PrecisionError):
        certified_norm_sign(T4, cancel)


def sympy_norm_sign(L, y):
    """The contract of `certified_norm_sign` evaluated by sympy: the sign
    of (y_a, y_a), where y_a is y with every symbol replaced by the exact
    rational value of its float; at zero, 0 when every symbol-pair pairing
    vanishes and PrecisionError otherwise."""
    gram = sympy.Matrix(L.gram)
    cols = [sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in c])
            for c in rational_columns(y)]
    ya = sympy.zeros(L.rank, 1)
    for s, c in zip(y.symbols, cols):
        ya += sympy.Rational(s.approx) * c
    norm = (ya.T * gram * ya)[0]
    if norm != 0:
        return 1 if norm > 0 else -1
    if any((a.T * gram * b)[0] != 0 for a in cols for b in cols):
        return PrecisionError
    return 0


@st.composite
def float_classes(draw):
    """A T4 class with 1-4 symbols whose floats are square roots, small
    exact values or arbitrary floats, over sparse rational columns.  Half
    the multi-symbol classes repeat a symbol's column negated, with its
    float or the next float up, so norms that are exactly 0 at the floats,
    identically or not, and norms a few ulps from 0 are common."""
    k = draw(st.integers(1, 4))
    approx = st.sampled_from((math.sqrt(2), math.sqrt(3), 1.0, 0.5)) | st.floats(
        -4, 4, allow_nan=False
    )
    floats = [1.0] + [draw(approx) for _ in range(1, k)]
    columns = [
        [Fraction(a, b) for a, b in draw(st.lists(
            st.tuples(st.just(0) | st.integers(-3, 3), st.integers(1, 3)),
            min_size=6, max_size=6,
        ))]
        for _ in range(k)
    ]
    if k >= 2 and draw(st.booleans()):
        j = draw(st.integers(1, k - 1))
        i = draw(st.integers(0, j - 1))
        up = math.nextafter(floats[i], math.inf)
        floats[j] = draw(st.sampled_from((floats[i], up)))
        columns[j] = [-x for x in columns[i]]
    symbols = [UNIT] + [Symbol(f"s{j}", floats[j]) for j in range(1, k)]
    return from_columns(symbols, columns)


@settings(max_examples=300, deadline=None)
@given(float_classes())
def test_certified_norm_sign_matches_sympy(y):
    try:
        sign = certified_norm_sign(T4, y)
    except PrecisionError:
        sign = PrecisionError
    assert sign == sympy_norm_sign(T4, y)


def test_is_u_orthoirrational_examples():
    assert is_u_orthoirrational(T4, X1, Y_IRR) is True
    # (1 + sqrt2)(x2 + y2): positive norm but rank-1 symbol matrix
    col = [0, 0, 1, 1, 0, 0]
    y = from_columns((UNIT, SQRT2), [col, col])
    assert is_u_orthoirrational(T4, X1, y) is False
    # (1 + sqrt2)*x2 is null, but the decision is still rank-1 → false:
    # the vector lies on the plane through u and x2
    isotropic_y = from_columns((UNIT, SQRT2),
                               [[0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    assert is_u_orthoirrational(T4, X1, isotropic_y) is False
    # any rational vector is caught by the plane through itself
    yr = rational_vector((0, 0, 1, 1, 0, 0))
    assert is_u_orthoirrational(T4, X1, yr) is False
    with pytest.raises(NotOrthogonal):
        is_u_orthoirrational(T4, (0, 0, 1, 0, 0, 0), Y_IRR)


@pytest.mark.parametrize(
    "L, u, y, error",
    [
        (T4, (1, 0, 0, 0, 0), Y_IRR, DimensionMismatch),
        (T4, (0, 0, 2, 0, 0, 0), Y_IRR, NotOrthogonal),
        # each later case also breaks every precondition checked after it
        (T4, (2, 0, 0, 0, 0, 0), rational_vector((0, 0, 1, -1, 0, 0)), NotPositiveNorm),
        (QuadLattice(((0, 2), (2, 0))), (2, 0), rational_vector((1, 0)), NoHyperbolicSplit),
        (T4, (2, 2, 0, 0, 0, 0), rational_vector((0, 0, 1, 1, 0, 0)), NotIsotropic),
        (T4, (2, 0, 0, 0, 0, 0), Y_IRR, NotPrimitive),
        (T4, (0, 0, 0, 0, 0, 0), Y_IRR, ValueError),
    ],
)
def test_is_u_orthoirrational_preconditions_in_order(L, u, y, error):
    for decide in (is_u_orthoirrational, reference_is_u_orthoirrational):
        with pytest.raises(error) as info:
            decide(L, u, y)
        assert info.type is error


def _outcome(decide, u, y):
    try:
        return decide(T4, u, y)
    except DomainError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([-2, -1, 1, 2]),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.integers(0, 2),
    st.booleans(),
    st.integers(1, 3),
    st.lists(st.integers(-2, 2), min_size=15, max_size=15),
)
def test_is_u_orthoirrational_matches_projection(p, w, plane, swap, symbols, coeffs):
    # u has w on two hyperbolic planes and (p, q) on the third, with q
    # solving p·q + w0·w1 + w2·w3 = 0
    q, rem = divmod(-(w[0] * w[1] + w[2] * w[3]), p)
    assume(rem == 0 and math.gcd(p, q, *w) == 1)
    u = w[:2 * plane] + ([q, p] if swap else [p, q]) + w[2 * plane:]
    # symbol columns drawn from u^⊥, which contains u itself
    perp = orthogonal_sublattice(T4, [u]).basis
    columns = [
        [sum(c * b[i] for c, b in zip(coeffs[5 * j:5 * j + 5], perp)) for i in range(6)]
        for j in range(symbols)
    ]
    y = from_columns((UNIT, SQRT2, SQRT3)[:symbols], columns)
    assert _outcome(is_u_orthoirrational, u, y) == _outcome(
        reference_is_u_orthoirrational, u, y
    )


def test_find_isotropic_orthogonal():
    found = find_isotropic_orthogonal(T4, Y_IRR, 1)
    assert (1, 0, 0, 0, 0, 0) in found
    assert (0, 1, 0, 0, 0, 0) in found
    assert found == brute_force_isotropic_orthogonal(T4, Y_IRR, 1)
    assert find_isotropic_orthogonal(T4, Y_IRR, 0) == []
    # y is checked against the lattice even where no vector can come out
    for height in (0, 0.5, 1):
        with pytest.raises(DimensionMismatch):
            find_isotropic_orthogonal(T4, rational_vector((1, 0, 0, 0, 0)), height)
    # a definite constraint lattice has no isotropic vectors at all
    y = from_columns(
        (UNIT, SQRT2, SQRT3),
        [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
    )
    assert find_isotropic_orthogonal(T4, y, 3) == []


def test_find_isotropic_orthogonal_vs_brute_force():
    rng = random.Random(30)
    for _ in range(10):
        cols = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
        if not any(cols[0]) or not any(cols[1]):
            continue
        y = from_columns((UNIT, SQRT2), cols)
        for h in (1, 2):
            assert find_isotropic_orthogonal(T4, y, h) == \
                brute_force_isotropic_orthogonal(T4, y, h)


@st.composite
def lattice_classes(draw):
    """A nondegenerate lattice of rank 2-6 and a class with 1-3 symbols.

    Half are U^k in a random basis (even unimodular, so the per-u rank
    test runs); half are random symmetric Grams, mostly not unimodular.
    Sparse rational symbol columns leave isotropic vectors in y^⊥ and make
    constraint rows whose kernel's Hermite basis has pivots above 1.
    """
    if draw(st.booleans()):
        planes = draw(st.integers(1, 3))
        n = 2 * planes
        w = [list(r) for r in intlin.identity(n)]
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-2, 2))
            w[i] = [a + c * b for a, b in zip(w[i], w[j])]
        g = direct_sum(*[hyperbolic()] * planes).gram
        gram = intlin.mat_mul(intlin.mat_mul(intlin.transpose(w), g), w)
    else:
        n = draw(st.integers(2, 6))
        size = n * (n + 1) // 2
        vals = iter(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                gram[i][j] = gram[j][i] = next(vals)
        assume(intlin.det_bareiss(gram) != 0)
    symbols = draw(st.integers(1, 3))
    columns = [
        [Fraction(a, b) for a, b in draw(st.lists(
            st.tuples(st.just(0) | st.integers(-3, 3), st.integers(1, 3)),
            min_size=n, max_size=n,
        ))]
        for _ in range(symbols)
    ]
    return QuadLattice(gram), from_columns((UNIT, SQRT2, SQRT3)[:symbols], columns)


def _certify_outcome(certify, L, y, height):
    try:
        return certify(L, y, height)
    except DomainError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(lattice_classes(), st.integers(0, 3))
def test_walk_and_certificate_match_the_box_walk(case, height):
    L, y = case
    assert find_isotropic_orthogonal(L, y, height) == \
        reference_find_isotropic_orthogonal(L, y, height)
    assert _certify_outcome(certify_orthoisotropic_irrational, L, y, height) == \
        _certify_outcome(reference_certify, L, y, height)


@st.composite
def echelon_walks(draw):
    """A nondegenerate lattice of rank 1-6 and a row echelon basis of rank
    1-6 in it that no Hermite reduction made: pivots 1-3 and entries past
    each pivot in -3..3, zero half the time, so a level's fixed
    coordinates can be negative or zero, and entries above later pivots
    are not reduced.  Half the Grams have a zero diagonal, which puts
    isotropic vectors in the box."""
    n = draw(st.integers(1, 6))
    size = n * (n + 1) // 2
    vals = iter(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
    hollow = draw(st.booleans())
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = next(vals) if i != j or not hollow else 0
    assume(intlin.det_bareiss(gram) != 0)
    pivots = sorted(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    basis = []
    for p in pivots:
        row = [0] * n
        row[p] = draw(st.integers(1, 3))
        for i in range(p + 1, n):
            row[i] = draw(st.just(0) | st.integers(-3, 3))
        basis.append(row)
    return QuadLattice(gram), basis


@settings(max_examples=300, deadline=None)
@given(echelon_walks(), st.sampled_from((0, 1, 2, 2.5, 3, 4)))
def test_walk_matches_the_box_on_any_echelon_basis(case, height):
    L, basis = case
    assert list(irrationality._isotropic_walk(L, basis, height)) == \
        box_isotropic_walk(L, basis, height)


U2 = direct_sum(hyperbolic(), hyperbolic())  # e1·e2 = e3·e4 = 1


def _walk_and_box(L, basis, height):
    walk = list(irrationality._isotropic_walk(L, basis, height))
    assert walk == box_isotropic_walk(L, basis, height)
    return walk


def test_last_level_takes_the_window_when_its_quadratic_vanishes():
    # e1 and e3 span a totally isotropic plane: at every c1 the last
    # quadratic is 0 = 0, and the whole window of c2 comes out
    walk = _walk_and_box(U2, [[1, 0, 0, 0], [0, 0, 1, 0]], 2)
    assert [u for u in walk if u[0] == 1] == [(1, 0, c, 0) for c in range(-2, 3)]


def test_last_level_drops_a_root_that_is_not_an_integer():
    # (b1, b1) = 2 and (b1, e3) = 2: at c1 = 1 the last level is linear,
    # 4c + 2 = 0, with the root −1/2
    assert _walk_and_box(U2, [[1, 1, 0, 2], [0, 0, 1, 0]], 2) == [(0, 0, 1, 0)]


def test_last_level_keeps_only_positive_multiples_after_a_zero_prefix():
    # with every earlier coefficient 0, v = 0 and the last quadratic is
    # a·c²: for a ≠ 0 its one root 0 gives the zero vector, and for a = 0
    # the window starts at 0, so −b_k never comes out although it is a root
    walk = _walk_and_box(U2, [[1, 0, 0, 0], [0, 0, 1, 0]], 2)
    assert (0, 0, 1, 0) in walk and (0, 0, -1, 0) not in walk
    assert _walk_and_box(U2, [[1, 0, 0, 0], [0, 0, 1, 1]], 2) == [(1, 0, 0, 0)]


def test_last_level_holds_its_roots_to_the_height():
    # b1 = e1 + 3e4 puts 3 on e4, past the last pivot, where b2 = e3 has 0:
    # at c1 = 1 the root c2 = 0 gives the isotropic primitive (1, 0, 0, 3),
    # one entry over the height
    assert _walk_and_box(U2, [[1, 0, 0, 3], [0, 0, 1, 0]], 2) == [(0, 0, 1, 0)]


def test_walk_matches_the_box_on_moved_t4_classes():
    # the inputs the benchmark times: its two T4 classes moved by words of
    # length 1-3 in the stabilizer generators of x1, so walks over
    # constraint lattices of rank 5 and 4 at heights 2 and 3
    gens = gu_lattice_generators(T4, X1)
    rng = random.Random(24)
    ranks = set()
    for y0 in (rational_vector((0, 0, 1, 1, 0, 0)), Y_IRR):
        for length in (1, 2, 3, 1, 2, 3):
            g = identity_isometry(T4)
            for _ in range(length):
                h = rng.choice(gens)
                g = compose(g, invert(h) if rng.random() < 0.5 else h)
            y = transform(g, y0)
            basis = rational_constraint_lattice(T4, y).basis
            ranks.add(len(basis))
            for height in (2, 3):
                assert find_isotropic_orthogonal(T4, y, height) == \
                    box_isotropic_walk(T4, basis, height)
                assert certify_orthoisotropic_irrational(T4, y, height) == \
                    reference_certify(T4, y, height)
    assert ranks == {4, 5}


@pytest.mark.parametrize(
    "height, error",
    [(True, TypeError), ("2", TypeError), (math.nan, ValueError),
     (math.inf, ValueError), (-math.inf, ValueError)],
)
def test_height_is_checked_up_front(height, error):
    # before y is read: a class of the wrong length still fails on height
    bad_y = rational_vector((1, 0, 0, 0, 0))
    for search in (find_isotropic_orthogonal, certify_orthoisotropic_irrational):
        with pytest.raises(error):
            search(T4, Y_IRR, height)
        with pytest.raises(error):
            search(T4, bad_y, height)
    assert find_isotropic_orthogonal(T4, Y_IRR, 2.5) == find_isotropic_orthogonal(T4, Y_IRR, 2)


def test_find_isotropic_orthogonal_pinned_on_k3():
    K3, y = engineered_k3_vector()
    e3 = tuple(int(i == 3) for i in range(22))
    for height, count in ((2, 1432), (3, 6320)):
        found = find_isotropic_orthogonal(K3, y, height)
        assert len(found) == count
        assert found[0] == e3
        assert all(a < b for a, b in zip(found, found[1:]))


# y = (x2 + y2) + sqrt2 * x1: norm 2, symbol columns of rank 2, radical span(x1)
Y_RADICAL = from_columns((UNIT, SQRT2), [[0, 0, 1, 1, 0, 0], X1])


def test_certify_stops_at_its_first_answer(monkeypatch):
    # step 3 is decided by algebra: no per-u rank test runs, and each walk
    # is drawn from once.  The rational class (rank 1) is refuted by the
    # first vector of the walk over y^⊥; the rank-2 class takes one vector
    # from that walk and its witness from the radical's walk.
    classes = ((rational_vector((0, 0, 1, 1, 0, 0)), 1), (Y_RADICAL, 2))
    expected = [reference_certify(T4, y, 3) for y, _ in classes]
    drawn = []
    walk = irrationality._isotropic_walk

    def counted_walk(*args):
        drawn.append([])
        for u in walk(*args):
            drawn[-1].append(u)
            yield u

    def no_rank_test(m):
        raise AssertionError("certify ran a rational rank test")

    monkeypatch.setattr(irrationality, "_isotropic_walk", counted_walk)
    monkeypatch.setattr(intlin, "rational_rank", no_rank_test)
    for (y, walks), want in zip(classes, expected):
        drawn.clear()
        cert = certify_orthoisotropic_irrational(T4, y, 3)
        assert cert == want
        assert cert.verdict == REFUTED
        assert [len(d) for d in drawn] == [1] * walks
        assert drawn[-1] == [cert.witness_u]


def test_certify_witness_is_the_first_failing_vector_not_the_first_found():
    for height, position in ((1, 9), (2, 13)):
        found = find_isotropic_orthogonal(T4, Y_RADICAL, height)
        assert found.index(X1) == position - 1
        cert = certify_orthoisotropic_irrational(T4, Y_RADICAL, height)
        assert cert == reference_certify(T4, Y_RADICAL, height)
        assert cert.verdict == REFUTED
        assert cert.witness_u == X1
        assert cert.perp_rank == 4


def test_membership_in_constraint_lattice():
    K = rational_constraint_lattice(T4, Y_IRR)
    rows = [list(b) for b in K.basis]
    for u in find_isotropic_orthogonal(T4, Y_IRR, 2):
        stacked = rows + [list(u)]
        assert intlin.rational_rank(stacked) == K.rank
        # integral membership, not merely rational span
        assert intlin.hnf_basis(stacked) == intlin.hnf_basis(rows)


def test_certificate_validation():
    with pytest.raises(ValueError):
        IrrationalityCertificate("Wrong", None, 4, 1)
    with pytest.raises(ValueError):
        IrrationalityCertificate(CERTIFIED, None, 4, 1)
    cert = IrrationalityCertificate(INCONCLUSIVE, None, 4, 1)
    assert "Q-linearly independent" in cert.assumption


def test_certify_inconclusive_two_symbol():
    cert = certify_orthoisotropic_irrational(T4, Y_IRR, 1)
    assert cert.verdict == INCONCLUSIVE
    assert cert.perp_rank == 4  # rank(L) - 2: the rank certificate is mute
    assert cert.height_bound_used == 1


def test_certify_refuted_rational():
    y = rational_vector((0, 0, 1, 1, 0, 0))
    cert = certify_orthoisotropic_irrational(T4, y, 1)
    assert cert.verdict == REFUTED
    u = cert.witness_u
    assert is_isotropic(T4, u)
    assert symbolic_inner(T4, y, u) == [0]
    assert is_u_orthoirrational(T4, u, y) is False  # witness re-checks


def test_certify_inconclusive_no_isotropic():
    y = from_columns(
        (UNIT, SQRT2, SQRT3),
        [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
    )
    cert = certify_orthoisotropic_irrational(T4, y, 2)
    assert cert.verdict == INCONCLUSIVE
    assert cert.witness_u is None
    assert cert.perp_rank == 3


def test_certify_k3_rank_certificate():
    K3, y = engineered_k3_vector()
    assert certified_norm_sign(K3, y) == 1
    cert = certify_orthoisotropic_irrational(K3, y, 1)
    assert cert.verdict == CERTIFIED
    assert cert.perp_rank == 7
    assert cert.perp_rank <= K3.rank - 3
    assert cert.witness_u is not None
    assert is_isotropic(K3, cert.witness_u)
    assert all(c == 0 for c in symbolic_inner(K3, y, cert.witness_u))


def test_verdict_invariant_under_stabilizer():
    gens = gu_lattice_generators(T4, X1)
    rng = random.Random(31)
    base = is_u_orthoirrational(T4, X1, Y_IRR)
    for _ in range(10):
        g = identity_isometry(T4)
        for _ in range(rng.randint(1, 3)):
            g = compose(g, rng.choice(gens))
        moved = transform(g, Y_IRR)
        assert is_u_orthoirrational(T4, X1, moved) == base


def test_scaling_invariance():
    for factor in (2, Fraction(3, 2), Fraction(1, 7)):
        y = scale(Y_IRR, factor)
        assert is_u_orthoirrational(T4, X1, y) is True
        cert = certify_orthoisotropic_irrational(T4, y, 1)
        assert cert.verdict == INCONCLUSIVE
    yr = scale(rational_vector((0, 0, 1, 1, 0, 0)), Fraction(5, 3))
    assert certify_orthoisotropic_irrational(T4, yr, 1).verdict == REFUTED


def test_transform_matches_matrix_action():
    gens = gu_lattice_generators(T4, X1)
    g = gens[0]
    moved = transform(g, Y_IRR)
    m = [list(r) for r in g.matrix]
    for j in range(2):
        assert rational_columns(moved)[j] == intlin.mat_vec(m, rational_columns(Y_IRR)[j])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.fractions(max_denominator=12), min_size=6, max_size=6),
            min_size=k,
            max_size=k,
        )
    ),
    st.integers(1, 4),
)
def test_from_columns_is_canonical_in_its_rational_input(columns, factor):
    # the same rational columns as Fractions, as ints where integral, and
    # as unreduced "p/q" strings give one vector with one hash, and the
    # JSON codec reads the strings to that vector
    symbols = (UNIT, SQRT2, SQRT3)[: len(columns)]
    unreduced = [
        [f"{x.numerator * factor}/{x.denominator * factor}" for x in c] for c in columns
    ]
    forms = [
        columns,
        [[int(x) if x.denominator == 1 else x for x in c] for c in columns],
        unreduced,
    ]
    vectors = [from_columns(symbols, cols) for cols in forms]
    payload = {
        "symbols": [{"tag": s.tag, "approx": s.approx} for s in symbols[1:]],
        "coeffs": [list(row) for row in zip(*unreduced)],
    }
    vectors.append(jsonio.symbolic_from_json(payload))
    assert all(v == vectors[0] for v in vectors)
    assert len({hash(v) for v in vectors}) == 1
