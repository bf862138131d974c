"""The four workloads: seeded inputs, the latorb call each op makes, and
the independent check of its output.

A workload yields its ops in cycles, and a run is a whole number of
cycles.  A workload with a fixed input pool runs every pooled input once
per cycle in a seeded order, so every run weighs each input alike
whatever its seed or length, and the spread between seeds is the
machine's, not the inputs'.  Nothing here imports latorb at module level:
`setup` does, so a fresh interpreter can time it.
"""

import json
import math
import os
import random
import selectors
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"

Op = namedtuple("Op", "kind args expect")

X1 = (1, 0, 0, 0, 0, 0)
SQRT2 = math.sqrt(2)


class Workload:
    name = ""
    # Cycles per second of --seconds in each pass of a traced run: its op
    # count depends on --seconds only, so its counts repeat exactly.  Set
    # so both passes take about --seconds at the seed commit on a 2-vCPU
    # 2.0 GHz x86 host.
    trace_cycles_per_s = 0.0
    measures_children = False  # peak RSS is the largest child's, not ours

    def setup(self):
        """Import latorb, build models and fill lazy caches (timed)."""

    def prepare(self):
        """Build the benchmark's own reference data (not timed)."""

    def start_tracing(self, tracer):
        """Trace the ops from now on; returns a function that stops it."""
        import tracing

        return tracing.install(tracer)


class IsomK3(Workload):
    """split_hyperbolic then map_isotropic on random K3 vector pairs."""

    name = "isom_k3"
    trace_cycles_per_s = 1.6

    def setup(self):
        from latorb import isometries, lattice_core

        self.iso, self.lc = isometries, lattice_core
        self.L = lattice_core.k3_model()
        # one fixed map fills the per-lattice frame caches map_isotropic keeps
        e = [[1 if i == j else 0 for i in range(22)] for j in (0, 2)]
        isometries.map_isotropic(self.L, e[0], e[1])

    def cycle(self, rng):
        u = oracle.random_isotropic(rng, oracle.K3_GRAM)
        v = oracle.random_isotropic(rng, oracle.K3_GRAM)
        return [Op("split_map", (u, v), None)]

    def run(self, op):
        u, v = op.args
        z, lprime = self.lc.split_hyperbolic(self.L, u)
        g = self.iso.map_isotropic(self.L, u, v)
        return z, lprime.basis, g.matrix

    def check(self, op, out):
        u, v = op.args
        z, basis, m = out
        gram = oracle.K3_GRAM
        return oracle.check_split(gram, u, z, basis) and oracle.check_map(
            gram, m, u, v
        )


# T4 classes with verdicts known by construction.  y_rat is rational, so
# every isotropic u ⊥ y_rat refutes; y_sqrt2 = x2 + √2·y2 has a rank-2
# symbol matrix after projection along any isotropic u ⊥ y, so no u
# refutes and perp rank 4 > 6 − 3 keeps the rank test from certifying.
# Both stay ⊥ x1, which every stabilizer word fixes, so the search at any
# height ≥ 1 finds at least one vector.
_T4_CLASSES = {
    "rat": ((("1", 1.0),), [[0, 0, 1, 1, 0, 0]], 5, "RefutedWithWitness"),
    "sqrt2": (
        (("1", 1.0), ("sqrt2", SQRT2)),
        [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
        4,
        "Inconclusive",
    ),
}


def _engineered_k3_columns():
    """Rank-22 class whose exact orthogonal sublattice is
    S = span{e0, e1, e2, e3, e6, e7, e8} (rank 7, contains e0 isotropic).

    Columns: 10·(x3 + y3) for the unit, then a basis of S^⊥ without x3 for
    √t/10 over 14 squarefree t.  In the first −E8 block the roots 1, 2, 3
    cut S^⊥ down to (2,3,4,6,0,0,0,0) and nodes 5–8.
    """
    def e(i):
        v = [0] * 22
        v[i] = 1
        return v

    e8_kernel = [0] * 22
    e8_kernel[6:10] = [2, 3, 4, 6]
    cols = [e(5), e8_kernel] + [e(i) for i in range(10, 22)]
    unit = [0] * 22
    unit[4] = unit[5] = 10
    tags = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22)
    symbols = [("1", 1.0)] + [(f"sqrt{t}", math.sqrt(t) / 10) for t in tags]
    return symbols, [unit] + cols


class IrrCertify(Workload):
    """Certificates and isotropic searches with verdicts known in advance."""

    name = "irr_certify"
    trace_cycles_per_s = 0.05
    # (kind, class, height) of the T4 ops; a cycle runs each of them under
    # each of the six stabilizer words, plus one rank-22 certificate, in a
    # seeded order.  Sorted by time a cycle's 43 ops fall into 18 cheap
    # ones (< 0.1 s), six inconclusive certificates at height 2 (~0.13 s)
    # and 19 at height 3 or rank 22 (0.2-0.6 s), so the band of op_p50_ms
    # (p40-p60) covers the middle group and the edges of the groups beside
    # it, and that of op_tail_ms (p65-p85) lies inside the slow one.
    KEYS = (
        ("find", "sqrt2", 3), ("find", "rat", 2), ("certify", "rat", 2),
        ("certify", "sqrt2", 2),
        ("certify", "rat", 3), ("find", "rat", 3), ("certify", "sqrt2", 3),
    )

    def prepare(self):
        self.table = oracle.isotropic_table(oracle.T4_GRAM, 3)
        # two words of each length
        self.words = [self._word(random.Random(k), 1 + k // 2) for k in range(6)]

    def setup(self):
        from latorb import irrationality, isometries, lattice_core

        self.irr = irrationality
        self.T4 = lattice_core.t4_model()
        self.K3 = lattice_core.k3_model()
        self.gens = [
            [list(r) for r in g.matrix]
            for g in isometries.gu_lattice_generators(self.T4, X1)
        ]
        symbols, cols = _T4_CLASSES["sqrt2"][:2]
        y = self._symbolic(symbols, cols)
        # fills mpmath's interval context and the frame caches
        irrationality.is_u_orthoirrational(self.T4, X1, y)
        self.k3_symbols, self.k3_columns = _engineered_k3_columns()
        self.k3_class = self._symbolic(self.k3_symbols, self.k3_columns)

    def _symbolic(self, symbols, columns):
        syms = [
            self.irr.UNIT if tag == "1" else self.irr.Symbol(tag, approx)
            for tag, approx in symbols
        ]
        return self.irr.from_columns(
            syms, [[Fraction(x) for x in c] for c in columns]
        )

    def _word(self, rng, length):
        """Product of `length` stabilizer generators of x1, each maybe
        inverted."""
        gram = oracle.T4_GRAM
        m = [[int(i == j) for j in range(6)] for i in range(6)]
        for _ in range(length):
            h = self.gens[rng.randrange(len(self.gens))]
            if rng.random() < 0.5:
                h = oracle.inverse_isometry(gram, h)
            m = oracle.mat_mul(m, h)
        return m

    def cycle(self, rng):
        k3 = Op("certify_k3_h1", (self.K3, self.k3_class, 1),
                (oracle.K3_GRAM, self.k3_columns, 7, "Certified"))
        ops = [k3]
        for kind, cls, h in self.KEYS:
            symbols, cols, perp_rank, verdict = _T4_CLASSES[cls]
            for g in self.words:
                moved = [oracle.mat_vec(g, c) for c in cols]
                y = self._symbolic(symbols, moved)
                ops.append(Op(f"{kind}_{cls}_h{h}", (self.T4, y, h),
                              (oracle.T4_GRAM, moved, perp_rank, verdict)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        L, y, h = op.args
        if op.kind.startswith("certify"):
            return self.irr.certify_orthoisotropic_irrational(L, y, h)
        return self.irr.find_isotropic_orthogonal(L, y, h)

    def _witness_ok(self, gram, columns, h, u):
        return (
            u is not None
            and len(u) == len(gram)
            and oracle.height(u) <= h
            and oracle.is_primitive(u)
            and oracle.pair(gram, u, u) == 0
            and oracle.orthogonal_to_all([oracle.mat_vec(gram, c) for c in columns], u)
        )

    def check(self, op, out):
        gram, columns, perp_rank, verdict = op.expect
        h = op.args[2]
        if op.kind.startswith("certify"):
            if out.verdict != verdict or out.perp_rank != perp_rank:
                return False
            if verdict == "Inconclusive":
                return out.witness_u is None
            return self._witness_ok(gram, columns, h, out.witness_u)
        ws = [oracle.mat_vec(gram, c) for c in columns]
        expected = [
            v for v in self.table
            if oracle.height(v) <= h and oracle.orthogonal_to_all(ws, v)
        ]
        return [tuple(v) for v in out] == expected


class TorusSolve(Workload):
    """approx_by_split_orbit at eps 1e-6, δ 0.1 on seeded (C, D)."""

    name = "torus_solve"
    trace_cycles_per_s = 0.05
    EPS = 1e-6
    DELTA = 0.1
    # targets per n, each solved once per cycle in a seeded order.  With 14
    # at n = 2 and 8 at n = 3 the band of op_p50_ms (p40-p60) lies inside
    # the n = 2 group and that of op_tail_ms (p65-p85) inside the n = 3
    # group, away from their edges, for a run of two or three cycles.
    POOL = {2: 14, 3: 8}

    def prepare(self):
        self.targets = {
            n: [oracle.random_split_target(random.Random(f"{n}-{k}"), n)
                for k in range(size)]
            for n, size in self.POOL.items()
        }

    def setup(self):
        import numpy as np

        from latorb import torus_forms

        self.np, self.tf = np, torus_forms
        target = torus_forms.SplitBlockForm(
            np.eye(2), np.array([[0.0, -0.3], [0.3, 0.0]])
        )
        torus_forms.approx_by_split_orbit(target, self.EPS, self.DELTA)

    def cycle(self, rng):
        ops = [Op(f"n{n}", t, None) for n, pool in self.targets.items() for t in pool]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        c, d = op.args
        form = self.tf.SplitBlockForm(self.np.array(c), self.np.array(d))
        return self.tf.approx_by_split_orbit(form, self.EPS, self.DELTA)

    def check(self, op, res):
        c, d = op.args
        return _solution_ok(c, d, res.cprime, res.b, res.rounds, self.EPS, self.DELTA)


def _solution_ok(c, d, cprime, b, rounds, eps, delta):
    """Integer B, C′ within δ of C, and the exact residual of the returned
    (C′, B) against D at most eps."""
    return (
        all(isinstance(x, int) for row in b for x in row)
        and rounds >= 1
        and oracle.max_deviation(cprime, c) <= delta
        and oracle.skew_residual(cprime, b, d) <= eps
    )


CliOutcome = namedtuple("CliOutcome", "code stdout stderr maxrss_kb")

_EXPLORE_DEPTH = 6
_EXPLORE_Y0 = [0.0, 0.0, 0.594603557501361, 0.8408964152537145, 0.0, 0.0]
_INFO = {
    "t4": {"rank": 6, "signature": [3, 3], "even": True, "unimodular": True},
    "k3": {"rank": 22, "signature": [3, 19], "even": True, "unimodular": True},
}


def _run_process(cmd):
    """Run cmd to completion; returns its outcome with its own peak RSS."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutcome(
        proc.returncode,
        b"".join(chunks[proc.stdout]).decode(),
        b"".join(chunks[proc.stderr]).decode(),
        usage.ru_maxrss,
    )


class CliVerbs(Workload):
    """One `python -m latorb.cli` process per op, the README's six examples
    in round-robin order with seeded arguments."""

    name = "cli_verbs"
    trace_cycles_per_s = 0.15
    measures_children = True
    tracer = None

    def start_tracing(self, tracer):
        self.tracer = tracer
        return lambda: setattr(self, "tracer", None)

    def setup(self):
        from latorb import cli, lattice_core

        cli.build_parser()
        lattice_core.t4_model()
        lattice_core.k3_model()

    def cycle(self, rng):
        t4 = oracle.T4_GRAM
        model = rng.choice(("t4", "k3"))
        su = oracle.random_isotropic(rng, t4)
        mu = oracle.random_isotropic(rng, t4)
        mv = oracle.random_isotropic(rng, t4)
        # y = a·x2 + c·x1 + √2·(b·y2 + d·x1): ⊥ x1 at both symbols, norm 2ab√2
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        c, d = rng.randint(-3, 3), rng.randint(-3, 3)
        coeffs = [[c, d], [0, 0], [a, 0], [0, b], [0, 0], [0, 0]]
        y = {
            "symbols": [{"tag": "sqrt2", "approx": SQRT2}],
            "coeffs": [[str(x) for x in row] for row in coeffs],
        }
        tc, td = oracle.random_split_target(rng, 2)
        # a target on the hyperboloid (v,v) = 1, (v,x1) = 0: v1 = 0 and
        # 2(v2·v3 + v4·v5) = 1
        v2 = rng.uniform(0.5, 1.5)
        v0, v4, v5 = (rng.uniform(-1, 1) for _ in range(3))
        target = [v0, 0.0, v2, (0.5 - v4 * v5) / v2, v4, v5]
        vec = json.dumps
        return [
            Op("lattice_info", ["lattice", "info", "--model", model], model),
            Op("lattice_split",
               ["lattice", "split", "--model", "t4", "--u", vec(su)], su),
            Op("isom_map",
               ["isom", "map-isotropic", "--model", "t4", "--u", vec(mu),
                "--v", vec(mv)], (mu, mv)),
            Op("irr_check_u",
               ["irr", "check-u", "--model", "t4", "--u", vec(X1),
                "--y", vec(y)], None),
            Op("torus_approx",
               ["torus", "approx", "--target", vec({"C": tc, "D": td}),
                "--eps", "1e-2"], (tc, td)),
            Op("explore",
               ["explore", "--model", "t4", "--u", vec(X1), "--y0",
                vec(_EXPLORE_Y0), "--targets", vec([target]),
                "--depth", str(_EXPLORE_DEPTH),
                "--format", "csv"], target),
        ]

    def run(self, op):
        if self.tracer is None:
            return _run_process([sys.executable, "-m", "latorb.cli", *op.args])
        # the child wraps latorb itself and hands its spans back in a file
        spans = ROOT / ".perfbench_out" / "cli-spans.json"
        out = _run_process([sys.executable, str(CHILD), "cli", str(spans), *op.args])
        self.tracer.extend(json.loads(spans.read_text(encoding="utf-8")), self.tracer.op)
        spans.unlink()
        return out

    def check(self, op, out):
        if out.code != 0:
            return False
        if op.kind == "explore":
            return _check_explore_csv(out.stdout, op.expect)
        data = json.loads(out.stdout)
        t4 = oracle.T4_GRAM
        if op.kind == "lattice_info":
            return data == _INFO[op.expect]
        if op.kind == "lattice_split":
            return oracle.check_split(t4, op.expect, data["z"],
                                      data["lprime"]["basis"])
        if op.kind == "isom_map":
            return oracle.check_map(t4, data["matrix"], *op.expect)
        if op.kind == "irr_check_u":
            return data["u_orthoirrational"] is True and bool(data["assumption"])
        c, d = op.expect
        return _solution_ok(c, d, data["Cprime"], data["B"], data["rounds"],
                            eps=1e-2, delta=0.1)


def _check_explore_csv(text, target):
    """Caveat and header lines, one row per depth, orbit sizes growing from
    1, nearest distances never rising from |y0 − target|."""
    depth, y0 = _EXPLORE_DEPTH, _EXPLORE_Y0
    lines = text.splitlines()
    if len(lines) != depth + 3 or not lines[0].startswith("# caveat"):
        return False
    if lines[1] != "depth,target_id,min_dist,orbit_size":
        return False
    rows = [line.split(",") for line in lines[2:]]
    if [(int(r[0]), int(r[1])) for r in rows] != [(d, 0) for d in range(depth + 1)]:
        return False
    dists = [float(r[2]) for r in rows]
    sizes = [int(r[3]) for r in rows]
    start = math.dist(y0, target)
    return (
        sizes[0] == 1
        and abs(dists[0] - start) <= 1e-12 * max(1.0, start)
        and all(a <= b for a, b in zip(sizes, sizes[1:]))
        and all(b <= a for a, b in zip(dists, dists[1:]))
    )


WORKLOADS = {w.name: w for w in (IsomK3, IrrCertify, TorusSolve, CliVerbs)}
