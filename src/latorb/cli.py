"""Command-line front end with stable JSON/CSV output.

Exit codes: 0 on success, 2 on domain errors (machine-readable JSON on
stderr), 1 on I/O or parse problems.  Every verb is a pure pipeline —
identical inputs and seed give byte-identical stdout.
"""

import argparse
import dataclasses
import json
import re
import sys

# Only their own verbs import torus_forms and orbit_explorer, the one
# module that loads numpy.
from . import irrationality, jsonio
from .errors import DomainError
from .isometries import (
    eichler_transvection,
    gu_lattice_generators,
    is_in_gu,
    is_in_hy,
    is_in_ky,
    is_in_so_plus,
    map_isotropic,
)
from .lattice_core import (
    e8_minus,
    extend_to_unimodular_basis,
    hyperbolic,
    inner,
    is_even,
    is_unimodular,
    k3_model,
    orthogonal_sublattice,
    saturation,
    signature,
    span4,
    split_hyperbolic,
    t4_model,
)

MODELS = {
    "t4": t4_model,
    "k3": k3_model,
    "u": hyperbolic,
    "e8": e8_minus,
    "span4": span4,
}


class CliParseError(Exception):
    pass


# argparse takes only "-1" and "-.5" for negative numbers and reads "-1e-2"
# or "-inf" as an option flag; no latorb option looks like a number, so
# every negative float literal is a value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.I)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise CliParseError(message)


def _load_json(text):
    """Inline JSON if the argument looks like JSON, else a file path."""
    s = text.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(text, encoding="utf-8") as fh:
        return json.load(fh)


def _lattice_of(args):
    if getattr(args, "lattice", None):
        return jsonio.lattice_from_json(_load_json(args.lattice))
    if getattr(args, "model", None):
        return MODELS[args.model]()
    raise CliParseError("need --model or --lattice")


def _vector(text):
    return jsonio.decode_vector(_load_json(text))


def _symbolic(text):
    data = _load_json(text)
    if isinstance(data, list):
        return irrationality.rational_vector(jsonio.decode_vector(data))
    return jsonio.symbolic_from_json(data)


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


# --- verb handlers -----------------------------------------------------------


def _cmd_lattice_info(args):
    L = _lattice_of(args)
    sig = signature(L)
    _emit(
        {
            "rank": L.rank,
            "signature": [sig.p, sig.q],
            "even": is_even(L),
            "unimodular": is_unimodular(L),
        }
    )


def _cmd_lattice_inner(args):
    L = _lattice_of(args)
    _emit({"value": jsonio.encode_int(inner(L, _vector(args.v), _vector(args.w)))})


def _cmd_lattice_split(args):
    L = _lattice_of(args)
    z, lprime = split_hyperbolic(L, _vector(args.u))
    _emit({"z": jsonio.encode_vector(z), "lprime": jsonio.sublattice_to_json(lprime)})


def _cmd_lattice_ortho(args):
    L = _lattice_of(args)
    vectors = [jsonio.decode_vector(v) for v in _load_json(args.vectors)]
    _emit(jsonio.sublattice_to_json(orthogonal_sublattice(L, vectors)))


def _cmd_lattice_saturate(args):
    L = _lattice_of(args)
    s = jsonio.sublattice_from_json(_load_json(args.basis))
    _emit(jsonio.sublattice_to_json(saturation(L, s)))


def _cmd_lattice_extend(args):
    s = jsonio.sublattice_from_json(_load_json(args.basis))
    _emit({"matrix": jsonio.encode_matrix(extend_to_unimodular_basis(s))})


def _cmd_isom_transvect(args):
    L = _lattice_of(args)
    g = eichler_transvection(L, _vector(args.e), _vector(args.a))
    _emit(jsonio.isometry_to_json(g))


def _cmd_isom_map_isotropic(args):
    L = _lattice_of(args)
    g = map_isotropic(L, _vector(args.u), _vector(args.v))
    _emit(jsonio.isometry_to_json(g))


def _cmd_isom_check(args):
    L = _lattice_of(args)
    g = jsonio.isometry_from_json(_load_json(args.g), L)
    out = {"det": g.det, "so_plus": is_in_so_plus(g)}
    if args.u:
        u = _vector(args.u)
        out["in_gu"] = is_in_gu(g, u)
        if args.y:
            y = _symbolic(args.y)
            out["in_hy"] = is_in_hy(g, u, y)
            out["in_ky"] = is_in_ky(g, u, y)
    _emit(out)


def _cmd_isom_generators(args):
    L = _lattice_of(args)
    gens = gu_lattice_generators(L, _vector(args.u))
    _emit({"generators": [jsonio.isometry_to_json(g) for g in gens]})


def _cmd_irr_check_u(args):
    L = _lattice_of(args)
    flag = irrationality.is_u_orthoirrational(L, _vector(args.u), _symbolic(args.y))
    _emit(
        {
            "u_orthoirrational": flag,
            "assumption": irrationality.INDEPENDENCE_ASSUMPTION,
        }
    )


def _cmd_irr_certify(args):
    L = _lattice_of(args)
    cert = irrationality.certify_orthoisotropic_irrational(
        L, _symbolic(args.y), args.height
    )
    _emit(jsonio.certificate_to_json(cert))


def _cmd_irr_find_isotropic(args):
    L = _lattice_of(args)
    found = irrationality.find_isotropic_orthogonal(L, _symbolic(args.y), args.height)
    _emit({"vectors": [jsonio.encode_vector(v) for v in found]})


def _split_form_from_json(data):
    from . import torus_forms
    return torus_forms.SplitBlockForm(data["C"], data["D"])


def _cmd_torus_blocks(args):
    from . import torus_forms
    omega = torus_forms.LinearSymplecticForm(_load_json(args.omega))
    l = jsonio.sublattice_from_json(_load_json(args.l))
    lprime = jsonio.sublattice_from_json(_load_json(args.lprime))
    f = torus_forms.to_blocks(omega, l, lprime)
    _emit({"C": f.c, "D": f.d})


def _cmd_torus_act(args):
    from . import torus_forms
    f = _split_form_from_json(_load_json(args.form))
    data = _load_json(args.shear)
    shear = torus_forms.IntegralShear(
        jsonio.decode_matrix(data["B"]),
        jsonio.decode_matrix(data["A"]) if "A" in data else None,
    )
    f = torus_forms.act(shear, f)
    _emit({"C": f.c, "D": f.d})


def _cmd_torus_approx(args):
    from . import torus_forms
    f = _split_form_from_json(_load_json(args.target))
    res = torus_forms.approx_by_split_orbit(
        f, args.eps, args.delta, budget=args.budget, seed=args.seed
    )
    _emit(
        {
            "Cprime": res.cprime,
            "B": jsonio.encode_matrix(res.b),
            "err": res.err,
            "rounds": res.rounds,
        }
    )


def _cmd_torus_wedge(args):
    from . import torus_forms
    g = jsonio.decode_matrix(_load_json(args.g))
    _emit(jsonio.isometry_to_json(torus_forms.wedge_square_action(g)))


def _cmd_explore(args):
    from . import orbit_explorer
    L = _lattice_of(args)
    u = _vector(args.u)
    y0 = orbit_explorer.HyperboloidPoint(_load_json(args.y0))
    targets = [orbit_explorer.HyperboloidPoint(t) for t in _load_json(args.targets)]
    records = orbit_explorer.explore(L, u, y0, targets, args.depth, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write(orbit_explorer.records_to_csv(records))
        return
    _emit(
        {
            "caveat": orbit_explorer.CSV_CAVEAT.lstrip("# "),
            "records": [dataclasses.asdict(r) for r in records],
        }
    )


# --- wiring ------------------------------------------------------------------


def _required(*flags, **described):
    """Required options: each bare flag, then each keyword as a flag with
    its help text."""
    return tuple((f"--{f}", {"required": True}) for f in flags) + tuple(
        (f"--{f}", {"required": True, "help": text}) for f, text in described.items()
    )


_SOURCE = (
    ("--model", {"choices": sorted(MODELS)}),
    ("--lattice", {"help": "lattice JSON (inline or file path)"}),
)
_HEIGHT = (("--height", {"type": int, "default": 3}),)
_SEED = ("--seed", {"type": int, "default": 0})

_GROUPS = {
    "lattice": "quadratic-lattice queries",
    "isom": "integral isometries",
    "irr": "irrationality certificates",
    "torus": "symplectic block forms",
    "explore": "orbit walk statistics",
}

# Every verb, in help order: (group, verb, handler, options), each option
# a flag and its add_argument keywords.  A group with verb None is itself
# the verb.
_VERBS = (
    ("lattice", "info", _cmd_lattice_info, _SOURCE),
    ("lattice", "inner", _cmd_lattice_inner, _SOURCE + _required("v", "w")),
    ("lattice", "split", _cmd_lattice_split, _SOURCE + _required("u")),
    ("lattice", "ortho", _cmd_lattice_ortho,
     _SOURCE + _required(vectors="JSON list of vectors")),
    ("lattice", "saturate", _cmd_lattice_saturate, _SOURCE + _required("basis")),
    ("lattice", "extend", _cmd_lattice_extend, _required("basis")),
    ("isom", "transvect", _cmd_isom_transvect, _SOURCE + _required("e", "a")),
    ("isom", "map-isotropic", _cmd_isom_map_isotropic, _SOURCE + _required("u", "v")),
    ("isom", "check", _cmd_isom_check,
     _SOURCE + _required("g") + (("--u", {}), ("--y", {}))),
    ("isom", "generators", _cmd_isom_generators, _SOURCE + _required("u")),
    ("irr", "check-u", _cmd_irr_check_u,
     _SOURCE + _required("u", y="symbolic-vector JSON or plain vector")),
    ("irr", "certify", _cmd_irr_certify, _SOURCE + _required("y") + _HEIGHT),
    ("irr", "find-isotropic", _cmd_irr_find_isotropic,
     _SOURCE + _required("y") + _HEIGHT),
    ("torus", "blocks", _cmd_torus_blocks,
     _required(omega="dense 2n×2n matrix JSON") + _required("l", "lprime")),
    ("torus", "act", _cmd_torus_act,
     _required(form='{"C": ..., "D": ...}', shear='{"B": ..., "A": ...}')),
    ("torus", "approx", _cmd_torus_approx, _required("target") + (
        ("--eps", {"type": float, "required": True}),
        ("--delta", {"type": float, "default": 0.1}),
        ("--budget", {"type": int, "default": 8}),
        _SEED,
    )),
    ("torus", "wedge", _cmd_torus_wedge, _required(g="4×4 integer matrix JSON")),
    ("explore", None, _cmd_explore, _SOURCE + _required(
        "u", y0="float vector JSON", targets="JSON list of float vectors"
    ) + (
        ("--depth", {"type": int, "required": True}),
        _SEED,
        ("--format", {"choices": ["json", "csv"], "default": "json"}),
    )),
)


def build_parser():
    root = _Parser(prog="latorb", description=__doc__)
    groups = root.add_subparsers(dest="verb", required=True)
    verbs = {}  # group -> its verbs' subparsers, None for a one-verb group
    for group, verb, func, options in _VERBS:
        if group not in verbs:
            p = groups.add_parser(group, help=_GROUPS[group])
            verbs[group] = verb and p.add_subparsers(dest="sub", required=True)
        if verb:
            p = verbs[group].add_parser(verb)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return root


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except CliParseError as exc:
        sys.stderr.write("argument error: %s\n" % exc)
        return 1
    try:
        args.func(args)
    except DomainError as exc:
        sys.stderr.write(json.dumps(exc.payload()) + "\n")
        return 2
    except CliParseError as exc:
        sys.stderr.write("argument error: %s\n" % exc)
        return 1
    except (OSError, KeyError, OverflowError, TypeError, ValueError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
