"""Empirical probe of orbit density on the unit hyperboloid in u^⊥.

Walks the orbit of a starting point under the integral stabilizer
generators, recording nearest-approach statistics to a fixed target set.
Distances are coordinate-Euclidean, not form-invariant: on the relevant
topology that detects the same dense subsets, and it is cheap.  The
generator set is only known to generate a subgroup of the full integral
stabilizer, so stagnating statistics never refute anything — the CSV
header repeats that caveat.
"""

import io
import random
from dataclasses import dataclass

import numpy as np

from . import intlin
from .errors import NotPositiveNorm
from .isometries import gu_lattice_generators, invert
from .lattice_core import QuadLattice, _check_split, split_hyperbolic

POINT_TOL = 1e-6
DEDUP_TOL = 1e-7
NORM_CAP = 1e6
FRONTIER_CAP = 4096

CSV_CAVEAT = (
    "# caveat: the walk uses a fixed finite generator set which may "
    "generate a proper subgroup of the full integral stabilizer; "
    "stagnating min_dist is NOT evidence against density"
)


@dataclass(frozen=True)
class HyperboloidPoint:
    """Float coordinate vector intended to satisfy (v,v)=1 and (v,u)=0."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", intlin._reals(self.coords))

    def defects(self, L: QuadLattice, u=None):
        """Returns (|(v,v) - 1|, |(v,u)|) under the lattice form."""
        v = self.coords
        return abs(_pairing(L, v, v) - 1.0), 0.0 if u is None else abs(_pairing(L, v, u))


def _pairing(L: QuadLattice, v, w):
    """(v, w) under the lattice form in floats: each entry of G·w, then
    their pairing with v, one `intlin._fdot`."""
    return intlin._fdot(v, [intlin._fdot(row, w) for row in L.gram])


def check_point(L: QuadLattice, point: HyperboloidPoint, u=None):
    norm_defect, pairing_defect = point.defects(L, u)
    return norm_defect <= POINT_TOL and pairing_defect <= POINT_TOL


def project_to_hyperboloid(L: QuadLattice, v, u=None) -> HyperboloidPoint:
    """Removes the u-pairing defect, then rescales to unit norm.

    The correction direction is the z-vector of the hyperbolic splitting
    at u, so the moved point stays in the real span of u^⊥ plus the
    defect direction; a nonpositive-norm result cannot be rescaled.
    """
    w = [float(x) for x in v]
    if u is not None:
        defect = _pairing(L, w, u)
        if defect != 0.0:
            z = split_hyperbolic(L, tuple(u))[0]
            w = [x - defect * y for x, y in zip(w, z)]
    norm = _pairing(L, w, w)
    if norm <= 0:
        raise NotPositiveNorm("component has nonpositive norm")
    scale = norm ** 0.5
    return HyperboloidPoint(tuple(x / scale for x in w))


@dataclass(frozen=True)
class DensityRecord:
    depth: int
    target_id: int
    min_dist: float
    orbit_size: int


def explore(
    L: QuadLattice,
    u,
    y0: HyperboloidPoint,
    targets,
    depth,
    seed=0,
    generators=None,
    point_sink=None,
):
    """Breadth-first orbit walk recording nearest approaches per depth.

    u is checked as `split_hyperbolic` checks it: a primitive isotropic
    vector of an even unimodular lattice.
    One DensityRecord per (depth, target): the running minimum Euclidean
    coordinate distance over every orbit point seen so far, plus the
    number of distinct points visited.  Deterministic for a fixed seed;
    the seed only drives the subsample used when a frontier exceeds
    FRONTIER_CAP.  Images with a coordinate above NORM_CAP are dropped,
    and images are told apart on a grid of step DEDUP_TOL.
    A list passed as point_sink receives the coordinates of every visited
    point, for callers auditing the walk itself.
    """
    u = _check_split(L, u)
    if generators is None:
        generators = gu_lattice_generators(L, u)
    gens = list(generators)
    if not gens:
        raise ValueError("empty generator set")
    mats = []
    seen_mats = set()
    for h in gens:
        for m in (h.matrix, invert(h).matrix):
            if m not in seen_mats:
                seen_mats.add(m)
                mats.append(np.array(m, dtype=float))
    if not check_point(L, y0, u):
        raise ValueError("y0 is not on the hyperboloid")
    target_pts = [
        t.coords if isinstance(t, HyperboloidPoint) else tuple(t)
        for t in targets
    ]
    target_arr = np.array(target_pts, dtype=float)
    rng = random.Random(seed)

    def keys_of(arr):
        # one key per row: the row's slice of the grid's byte buffer
        buf = np.round(arr / DEDUP_TOL).astype(np.int64).tobytes()
        width = 8 * arr.shape[1]  # int64 coordinates
        return [buf[at : at + width] for at in range(0, len(buf), width)]

    visited = set()
    frontier = np.array([y0.coords], dtype=float)
    for key in keys_of(frontier):
        visited.add(key)
    if point_sink is not None:
        point_sink.append(tuple(y0.coords))
    best = None  # per-target running minima
    records = []
    orbit_size = 1
    for d in range(depth + 1):
        if frontier.size:
            dists = np.sqrt(
                ((frontier[:, None, :] - target_arr[None, :, :]) ** 2).sum(
                    axis=2
                )
            )
            level_min = dists.min(axis=0)
            best = level_min if best is None else np.minimum(best, level_min)
        for tid in range(len(target_pts)):
            records.append(
                DensityRecord(d, tid, float(best[tid]), orbit_size)
            )
        if d == depth:
            break
        images = [frontier @ m.T for m in mats]
        stacked = np.concatenate(images, axis=0)
        keep = np.max(np.abs(stacked), axis=1) <= NORM_CAP
        stacked = stacked[keep]
        first = {}  # unvisited key -> index of its first image, in order
        for idx, key in enumerate(keys_of(stacked)):
            if key not in visited and key not in first:
                first[key] = idx
        fresh = list(first.items())
        if len(fresh) > FRONTIER_CAP:
            picked = sorted(rng.sample(range(len(fresh)), FRONTIER_CAP))
            fresh = [fresh[i] for i in picked]
        visited.update(key for key, _ in fresh)
        frontier = stacked[[idx for _, idx in fresh]]
        if point_sink is not None:
            point_sink.extend(tuple(row) for row in frontier)
        orbit_size += len(fresh)
    return records


def records_to_csv(records):
    """CSV dump: caveat header, column names, 17-significant-digit floats."""
    out = io.StringIO()
    out.write(CSV_CAVEAT + "\n")
    out.write("depth,target_id,min_dist,orbit_size\n")
    for r in records:
        out.write(
            "%d,%d,%.17g,%d\n" % (r.depth, r.target_id, r.min_dist, r.orbit_size)
        )
    return out.getvalue()
