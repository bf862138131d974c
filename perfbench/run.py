"""latorb benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload isom_k3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; latorb is imported from src/.  Inputs
come from --seed alone.  Each op is sent after the previous one returns,
as a CLI pipeline stage or a notebook call would, and its output is
checked by perfbench/oracle.py, never by latorb itself.

--trace 0 runs whole cycles of the workload's op mix until --seconds have
passed and prints the end-to-end metrics.  --trace 1 runs a fixed number
of cycles, so its counts repeat exactly, each one untraced and then with
every public latorb function wrapped (perfbench/tracing.py), and prints
the per-layer metrics; the spans go to .perfbench_out/.  The last line of
stdout is the JSON result.
"""

import os

# Held to one thread before anything can load numpy, here or in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import itertools
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One set-up sample can read 1.7x another taken seconds apart.
SETUP_REPEATS = 11
STARTUP_REPEATS = 5
MAX_REPORTED_FAILURES = 3
# At --seconds 25 every workload runs at least 40 ops at the seed commit,
# so p75 is the highest of p99/p95/p90/p75 that leaves TAIL_OPS ops beyond
# on every workload.  It stays fixed so runs of different op counts, and
# of different commits, compare like with like.
TAIL_PCT = 75
TAIL_OPS = 10
# op_p50_ms and op_tail_ms are the mean of the order statistics whose
# mid-ranks lie within BAND_PCT percentile points of p50 and p75.  One
# order statistic of the ~16 n = 3 solves a torus_solve run holds moves
# with the noise of single ops; the band averages eight or more of them.
BAND_PCT = 10
# A busy process stays on one CPU for a whole run, and on a shared host a
# CPU's speed can change by 1.4x for minutes.  Ops and set-up samples
# therefore rotate over the usable CPUs, so a run is not tied to one.
CPUS = sorted(os.sched_getaffinity(0))


def use_cpu(i):
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("isom_k3", "irr_certify", "torus_solve", "cli_verbs"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _child(args):
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    # numpy's BLAS is read in a child, so numpy never counts in the peak
    # RSS of a workload that does not load it
    blas = _child(["versions"])
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": blas["blas"],
        "openblas": blas["blas_version"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS),
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted(SRC.rglob("*.py"))
        ),
    }


class Pass:
    """Outcome of running a sequence of ops closed-loop."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.failed = 0
        self.child_rss_kb = 0
        self.wall = 0.0
        self.cycles = 0


def _report_failure(op, detail):
    sys.stderr.write(f"perfbench: {op.kind} op failed: {detail}\n")


def run_ops(wl, cycles, tracer=None, res=None):
    """Runs the ops of every cycle closed-loop, checking each output; adds
    the outcome to `res` if given."""
    res = res or Pass()
    start = time.perf_counter()
    for cycle in cycles:
        for op in cycle:
            use_cpu(len(res.latencies))
            if tracer is not None:
                tracer.op = len(res.latencies)
            error = None
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:  # an op failure is a measured outcome
                error = traceback.format_exc()
            res.latencies.append(time.perf_counter() - t0)
            res.kinds.append(op.kind)
            if error is None:
                res.child_rss_kb = max(res.child_rss_kb, getattr(out, "maxrss_kb", 0))
                try:
                    ok = wl.check(op, out)
                except Exception:  # malformed output fails its check
                    ok, error = False, traceback.format_exc()
                if not ok and error is None:
                    error = f"output failed its check: {out!r}"[:2000]
            if error is not None:
                res.failed += 1
                if res.failed <= MAX_REPORTED_FAILURES:
                    _report_failure(op, error)
        res.cycles += 1
    res.wall += time.perf_counter() - start
    return res


def band_percentile(latencies, pct):
    """Mean of the order statistics whose mid-rank lies within BAND_PCT
    percentile points of `pct`."""
    s = sorted(latencies)
    n = len(s)
    band = [x for i, x in enumerate(s) if abs(100 * (i + 0.5) / n - pct) <= BAND_PCT]
    return statistics.mean(band)


def setup_sample(workload, i):
    """Seconds one fresh interpreter takes to set the workload up."""
    use_cpu(i)
    return _child(["setup", workload])["setup_s"]


def timed_cycles(wl, rng, seconds, setup_samples):
    """Cycles of wl until another would end more than half a cycle past
    `seconds`, so a run of long cycles stays near `seconds`, and at least
    TAIL_OPS ops lie beyond the tail percentile.  Between cycles it takes
    the set-up samples that are due, one every seconds / SETUP_REPEATS, so
    they span the same stretch of the host's speed as the ops do."""
    start = time.perf_counter()
    aside = 0.0  # time spent on set-up samples
    ops = 0
    for done in itertools.count():
        elapsed = time.perf_counter() - start - aside
        beyond = ops - math.ceil(TAIL_PCT / 100 * ops)
        if done and elapsed * (1 + 0.5 / done) >= seconds and beyond >= TAIL_OPS:
            return
        while (len(setup_samples) < SETUP_REPEATS
                and elapsed >= len(setup_samples) * seconds / SETUP_REPEATS):
            t0 = time.perf_counter()
            setup_samples.append(setup_sample(wl.name, len(setup_samples)))
            aside += time.perf_counter() - t0
        cycle = wl.cycle(rng)
        ops += len(cycle)
        yield cycle


def end_to_end(wl, rng, seconds):
    wl.setup()
    wl.prepare()
    setup_samples = []
    res = run_ops(wl, timed_cycles(wl, rng, seconds, setup_samples))
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(setup_sample(wl.name, len(setup_samples)))
    lat = res.latencies
    if wl.measures_children:
        rss_kb = res.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": ((len(lat) - res.failed) / sum(lat), "ops/s"),
        "op_p50_ms": (band_percentile(lat, 50) * 1e3, "ms"),
        "op_tail_ms": (band_percentile(lat, TAIL_PCT) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    by_kind = {}
    for kind, t in zip(res.kinds, lat):
        by_kind.setdefault(kind, []).append(t)
    detail = {
        "op_tail_percentile": TAIL_PCT,
        "op_tail_ops_beyond": len(lat) - math.ceil(TAIL_PCT / 100 * len(lat)),
        "percentile_band_pct": BAND_PCT,
        "ops": len(lat),
        "cycles": res.cycles,
        "ops_s": sum(lat),
        "per_kind_p50_ms": {
            k: [len(v), statistics.median(v) * 1e3] for k, v in sorted(by_kind.items())
        },
        "setup_samples_s": setup_samples,
    }
    return [res], metrics, detail


def _importtime(stderr):
    """Cumulative import seconds per module from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                out[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue  # the column header
    return out


def startup_probe():
    """The cli layer's start-up, observed from outside in fresh processes."""
    bare, imports = [], []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        bare.append(time.perf_counter() - t0)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import latorb.cli"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        imports.append(_importtime(done.stderr))
    med = lambda mod: statistics.median(t.get(mod, 0.0) for t in imports)
    return {
        "cli.interp_start_s": statistics.median(bare),
        "cli.import_s": med("latorb.cli"),
        "cli.import.numpy_s": med("numpy"),
        "cli.import.mpmath_s": med("mpmath"),
    }


def unit_of(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "_per_" in name:
        return "count/call"
    return "count"


def traced(wl, rng, seconds, seed):
    import tracing

    wl.setup()
    wl.prepare()
    n_cycles = max(1, round(seconds * wl.trace_cycles_per_s))
    tracer = tracing.Tracer()
    base, res = Pass(), Pass()
    # each cycle runs untraced and then traced, so a change in the host's
    # speed falls on both sides of trace.overhead_ratio alike
    for _ in range(n_cycles):
        cycle = wl.cycle(rng)
        run_ops(wl, [cycle], res=base)
        stop = wl.start_tracing(tracer)
        run_ops(wl, [cycle], tracer=tracer, res=res)
        stop()
    layer = startup_probe()
    layer["trace.overhead_ratio"] = res.wall / base.wall
    names = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    layer.update(tracing.layer_metrics(tracer.spans, [
        m for row in names["layers"] for m in row["metrics"] if m not in layer
    ]))
    spans_file = OUT / f"trace-{wl.name}-seed{seed}.jsonl.gz"
    tracer.dump(spans_file)
    metrics = {k: (v, unit_of(k)) for k, v in sorted(layer.items())}
    detail = {
        "cycles": n_cycles,
        "ops": len(res.latencies),
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "untraced_wall_s": base.wall,
        "traced_wall_s": res.wall,
    }
    return [base, res], metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "latorb" / "__init__.py").is_file():
        sys.stderr.write(
            "perfbench: no src/latorb here; run from the root of a latorb checkout\n"
        )
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    prov = provenance(args.seed)
    rng = random.Random(args.seed)
    if args.trace:
        passes, metrics, detail = traced(wl, rng, args.seconds, args.seed)
    else:
        passes, metrics, detail = end_to_end(wl, rng, args.seconds)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ratio")
    detail.update(workload=args.workload, provenance=prov)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
