"""Span tracing of latorb from outside the package.

`install` replaces every public function of every latorb module at every
place it is bound — the defining module, each module that imported the
name directly, and module-level dicts such as the CLI's model table — plus
`Isometry.__post_init__`, with a wrapper that records a span.  A span is
[name, op, parent, start, duration, child_time, probe]; self time is
duration minus child_time.  Spans stay in memory until the run ends.
"""

import functools
import gzip
import importlib
import json
import pkgutil
import time

import oracle


PACKAGE = "latorb"


def _explore_probe(args, kwargs, records):
    """(points visited, levels cut to FRONTIER_CAP) from the orbit sizes."""
    from latorb.orbit_explorer import FRONTIER_CAP

    sizes = [r.orbit_size for r in records if r.target_id == 0]
    growth = [b - a for a, b in zip(sizes, sizes[1:])]
    return [sizes[-1] if sizes else 0, sum(1 for g in growth if g == FRONTIER_CAP)]


# Spans of these functions also keep a summary of the call, from its
# arguments and returned value.
PROBES = {
    "irrationality.rational_constraint_lattice": lambda a, k, r: r.basis,
    "irrationality.find_isotropic_orthogonal": lambda a, k, r: [
        a[2] if len(a) > 2 else k["height"], len(r)
    ],
    "torus_forms.approx_by_split_orbit": lambda a, k, r: [
        r.rounds, max(abs(x) for row in r.b for x in row)
    ],
    "orbit_explorer.explore": _explore_probe,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, self.op, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                span[3] = start
                span[4] = dur
                if parent >= 0:
                    spans[parent][5] += dur
            if probe is not None:
                span[6] = probe(args, kwargs, result)
            return result

        return traced

    def extend(self, spans, op):
        """Adopt spans recorded by a child process as operation `op`."""
        base = len(self.spans)
        for name, _, parent, start, dur, child, extra in spans:
            self.spans.append(
                [name, op, parent + base if parent >= 0 else -1,
                 start, dur, child, extra]
            )

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _is_public_function(obj):
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith(PACKAGE + ".")
        and getattr(obj, "__name__", "_").isidentifier()
        and not obj.__name__.startswith("_")
    )


def install(tracer):
    """Wrap every public latorb function wherever it is bound; returns a
    function that puts the originals back."""
    pkg = importlib.import_module(PACKAGE)
    modules = [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
    wrappers = {}
    originals = []  # (module or dict, name, original)

    def wrapped(fn):
        if id(fn) not in wrappers:
            layer = fn.__module__.split(".", 1)[1]
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{fn.__name__}", fn))
        return wrappers[id(fn)][1]

    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if _is_public_function(val):
                setattr(mod, attr, wrapped(val))
                originals.append((mod, attr, val))
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if _is_public_function(item):
                        val[key] = wrapped(item)
                        originals.append((val, key, item))
    iso = importlib.import_module(f"{PACKAGE}.isometries")
    post_init = getattr(iso.Isometry, "__post_init__", None)
    if post_init is not None:
        iso.Isometry.__post_init__ = tracer.wrap(
            "isometries.Isometry.init", post_init
        )
        originals.append((iso.Isometry, "__post_init__", post_init))

    def uninstall():
        for where, name, original in originals:
            if isinstance(where, dict):
                where[name] = original
            else:
                setattr(where, name, original)

    return uninstall


def layer_metrics(spans, names):
    """The named per-layer metrics, computed from a list of spans.

    `<layer>.calls` and `<layer>.self_s` sum over the layer's functions,
    `<layer>.<function>.calls` and `.self_s` cover one function, and the
    remaining names are exact counts derived from spans and probes.
    """
    calls, self_s = {}, {}
    n = len(spans)
    in_map = [False] * n
    in_certify = [False] * n
    for i, (name, _, parent, _, dur, child, _) in enumerate(spans):
        for key in (name, name.split(".", 1)[0]):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + dur - child
        up = parent >= 0
        in_map[i] = name == "isometries.map_isotropic" or (up and in_map[parent])
        in_certify[i] = (
            name == "irrationality.certify_orthoisotropic_irrational"
            or (up and in_certify[parent])
        )

    def ratio(a, b):
        return a / b if b else 0.0

    def under_map(name):
        return sum(1 for i, s in enumerate(spans) if s[0] == name and in_map[i])

    maps = calls.get("isometries.map_isotropic", 0)
    # a search's work is the box it enumerates, recomputed from the
    # constraint lattice it asked for and its height
    constraint = {
        s[2]: s[6] for s in spans
        if s[0] == "irrationality.rational_constraint_lattice"
    }
    finds = [
        (oracle.box_points(constraint.get(i, []), s[6][0]), s[6][1], in_certify[i])
        for i, s in enumerate(spans)
        if s[0] == "irrationality.find_isotropic_orthogonal"
    ]
    solves = [s[6] for s in spans if s[0] == "torus_forms.approx_by_split_orbit"]
    explores = [s for s in spans if s[0] == "orbit_explorer.explore"]
    points = sum(s[6][0] for s in explores)
    derived = {
        "isometries.transvections_per_map": lambda: ratio(
            under_map("isometries.eichler_transvection"), maps
        ),
        "isometries.validations_per_map": lambda: ratio(
            under_map("isometries.Isometry.init"), maps
        ),
        "irrationality.vectors_enumerated": lambda: sum(v for v, _, _ in finds),
        "irrationality.isotropic_found": lambda: sum(f for _, f, _ in finds),
        "irrationality.vectors_per_decision": lambda: ratio(
            sum(v for v, _, under in finds if under),
            calls.get("irrationality.certify_orthoisotropic_irrational", 0),
        ),
        "torus_forms.rounds_per_solve": lambda: ratio(
            sum(r for r, _ in solves), len(solves)
        ),
        "torus_forms.max_abs_b": lambda: max((b for _, b in solves), default=0),
        "orbit_explorer.points_visited": lambda: points,
        "orbit_explorer.points_per_s": lambda: ratio(
            points, sum(s[4] for s in explores)
        ),
        "orbit_explorer.truncated_levels": lambda: max(
            (s[6][1] for s in explores), default=0
        ),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]()
            continue
        target, kind = name.rsplit(".", 1)
        table = {"calls": calls, "self_s": self_s}[kind]
        out[name] = table.get(target, 0)
    return out
