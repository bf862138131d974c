import hashlib
import json
import random
import statistics
from pathlib import Path

import numpy as np
import pytest

from helpers import reflection
from latorb import orbit_explorer as oe
from latorb.errors import NotIsotropic, NotPositiveNorm, NotPrimitive
from latorb.isometries import Isometry, compose, gu_lattice_generators, invert
from latorb.lattice_core import t4_model

L = t4_model()
U_VEC = (1, 0, 0, 0, 0, 0)


def sample_point(rng):
    while True:
        try:
            return oe.project_to_hyperboloid(
                L, tuple(rng.uniform(-1, 1) for _ in range(6)), U_VEC
            )
        except NotPositiveNorm:
            continue


def test_projection_fixes_unit_vectors():
    rng = random.Random(3)
    y = sample_point(rng)
    again = oe.project_to_hyperboloid(L, y.coords, U_VEC)
    assert again.coords == y.coords
    halved = oe.project_to_hyperboloid(L, tuple(2 * c for c in y.coords), U_VEC)
    assert max(abs(a - b) for a, b in zip(halved.coords, y.coords)) == 0.0


def test_projection_removes_u_pairing():
    v = (0.3, 0.9, 1.0, 0.7, 0.25, 0.1)  # (v, u) = 0.9 != 0
    y = oe.project_to_hyperboloid(L, v, U_VEC)
    norm_defect, pairing_defect = y.defects(L, U_VEC)
    assert norm_defect <= 1e-12
    assert pairing_defect <= 1e-12


def test_projection_without_u_only_rescales():
    v = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)  # norm 2
    y = oe.project_to_hyperboloid(L, v)
    assert y.defects(L)[0] <= 1e-12
    assert y.coords[0] == y.coords[1]


def test_projection_rejects_nonpositive_norm():
    with pytest.raises(NotPositiveNorm):
        oe.project_to_hyperboloid(L, (0.0, 0.0, 1.0, -1.0, 0.0, 0.0), U_VEC)


def test_walk_stays_on_hyperboloid():
    # integral generators preserve the form exactly; float drift stays tiny
    rng = random.Random(13)
    y0 = sample_point(rng)
    mats = [
        np.array([list(r) for r in h.matrix], dtype=float)
        for h in gu_lattice_generators(L, U_VEC)
    ]
    for _ in range(50):
        v = np.array(y0.coords)
        for _ in range(rng.randint(1, 5)):
            v = rng.choice(mats) @ v
        norm_defect, pairing_defect = oe.HyperboloidPoint(tuple(v)).defects(L, U_VEC)
        assert norm_defect <= 1e-8
        assert pairing_defect <= 1e-8


def test_explore_depth_zero_statistics():
    rng = random.Random(17)
    y0 = sample_point(rng)
    target = sample_point(rng)
    recs = oe.explore(L, U_VEC, y0, [target, y0], depth=0, seed=0)
    assert len(recs) == 2
    expected = float(
        np.linalg.norm(np.array(target.coords) - np.array(y0.coords))
    )
    assert recs[0] == oe.DensityRecord(0, 0, expected, 1)
    assert recs[1].min_dist == 0.0  # the start itself is a target


def test_explore_monotone_reproducible_and_improving():
    rng = random.Random(19)
    y0 = sample_point(rng)
    targets = [sample_point(rng) for _ in range(5)]
    recs = oe.explore(L, U_VEC, y0, targets, depth=6, seed=0)
    again = oe.explore(L, U_VEC, y0, targets, depth=6, seed=0)
    assert recs == again
    per_target = {}
    for r in recs:
        per_target.setdefault(r.target_id, []).append(r.min_dist)
    for seq in per_target.values():
        assert all(a >= b for a, b in zip(seq, seq[1:]))
    deep = statistics.median(seq[6] for seq in per_target.values())
    shallow = statistics.median(seq[2] for seq in per_target.values())
    assert deep < shallow


def test_explore_rejects_bad_u_and_empty_generators():
    rng = random.Random(23)
    y0 = sample_point(rng)
    with pytest.raises(NotIsotropic):
        oe.explore(L, (1, 1, 0, 0, 0, 0), y0, [y0], depth=1)
    with pytest.raises(NotPrimitive):
        oe.explore(L, (2, 0, 0, 0, 0, 0), y0, [y0], depth=1)
    with pytest.raises(ValueError):
        oe.explore(L, U_VEC, y0, [y0], depth=1, generators=[])
    # u is checked when the generators are given too, and cannot be left out
    gens = gu_lattice_generators(L, U_VEC)[:1]
    with pytest.raises(NotIsotropic):
        oe.explore(L, (1, 1, 0, 0, 0, 0), y0, [y0], depth=1, generators=gens)
    with pytest.raises(TypeError):
        oe.explore(L, None, y0, [y0], depth=1, generators=gens)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_hyperboloid_points_are_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        oe.HyperboloidPoint((0.0, 0.0, bad, 0.5, 0.0, 0.0))


def test_explorer_tolerances_are_read_at_call_time(monkeypatch):
    # POINT_TOL and DEDUP_TOL are module constants, not per-call settings
    y0 = sample_point(random.Random(29))
    off = oe.HyperboloidPoint(tuple(c * (1 + 1e-7) for c in y0.coords))
    assert oe.check_point(L, off, U_VEC)  # norm defect 2e-7
    assert oe.explore(L, U_VEC, y0, [y0], depth=1)[-1].orbit_size > 1
    monkeypatch.setattr(oe, "POINT_TOL", 1e-9)
    assert not oe.check_point(L, off, U_VEC)
    monkeypatch.setattr(oe, "DEDUP_TOL", 1e3)  # one grid cell holds every image
    assert oe.explore(L, U_VEC, y0, [y0], depth=1)[-1].orbit_size == 1


def test_explore_walks_on_past_an_empty_frontier():
    # a reflection fixing u is an involution, so its frontier is empty from
    # depth 2 on and every later level repeats the statistics
    flip = reflection(L, (0, 0, 1, 1, 0, 0))
    y0 = sample_point(random.Random(37))
    recs = oe.explore(L, U_VEC, y0, [y0], depth=4, generators=[flip])
    assert [(r.depth, r.min_dist, r.orbit_size) for r in recs] == [
        (0, 0.0, 1), (1, 0.0, 2), (2, 0.0, 2), (3, 0.0, 2), (4, 0.0, 2)
    ]


def test_explore_equivariant_under_coordinate_isometry():
    # swapping the last two hyperbolic planes is an integral isometry
    # fixing u that happens to be Euclidean-orthogonal, so conjugating
    # the generator set and moving start plus targets reproduces the
    # statistics
    perm = [[0] * 6 for _ in range(6)]
    for src, dst in ((0, 0), (1, 1), (2, 4), (3, 5), (4, 2), (5, 3)):
        perm[dst][src] = 1
    p = Isometry(tuple(tuple(r) for r in perm), L)
    rng = random.Random(29)
    y0 = sample_point(rng)
    targets = [sample_point(rng) for _ in range(3)]
    base_gens = gu_lattice_generators(L, U_VEC)
    conj = [compose(compose(p, h), invert(p)) for h in base_gens]
    pm = np.array(perm, dtype=float)
    moved_y0 = oe.HyperboloidPoint(tuple(pm @ np.array(y0.coords)))
    moved_targets = [
        oe.HyperboloidPoint(tuple(pm @ np.array(t.coords))) for t in targets
    ]
    recs = oe.explore(L, U_VEC, y0, targets, depth=4, seed=0)
    moved = oe.explore(
        L, U_VEC, moved_y0, moved_targets, depth=4, seed=0, generators=conj
    )
    for a, b in zip(recs, moved):
        assert (a.depth, a.target_id) == (b.depth, b.target_id)
        assert abs(a.min_dist - b.min_dist) <= 1e-6


def test_csv_output_shape():
    rng = random.Random(31)
    y0 = sample_point(rng)
    recs = oe.explore(L, U_VEC, y0, [sample_point(rng)], depth=2, seed=0)
    text = oe.records_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert "proper subgroup" in lines[0]
    assert lines[1] == "depth,target_id,min_dist,orbit_size"
    for line, rec in zip(lines[2:], recs):
        d, t, m, o = line.split(",")
        assert (int(d), int(t), int(o)) == (rec.depth, rec.target_id, rec.orbit_size)
        assert float(m) == rec.min_dist  # 17 significant digits round-trip


EXPLORE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "explore_golden.json").read_text()
)


def _points_digest(points):
    h = hashlib.sha256()
    for p in points:
        h.update((",".join(float(x).hex() for x in p) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
def test_explore_golden_walk(seed):
    # the README example, recorded bit for bit; from depth 5 on the frontier
    # exceeds FRONTIER_CAP, so the seeded subsample is covered too
    g = EXPLORE_GOLDEN
    y0 = oe.HyperboloidPoint(tuple(g["y0"]))
    for case in g["cases"]:
        if case["seed"] != seed:
            continue
        sink = []
        recs = oe.explore(
            L, tuple(g["u"]), y0, g["targets"], case["depth"], seed=seed,
            point_sink=sink,
        )
        got = [[r.depth, r.target_id, r.min_dist.hex(), r.orbit_size] for r in recs]
        assert got == case["records"]
        assert len(sink) == case["points"]
        assert _points_digest(sink) == case["points_sha256"]
