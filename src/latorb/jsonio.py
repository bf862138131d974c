"""JSON wire codecs for the CLI.

Integers are emitted natively while they fit in 64 bits and as decimal
strings beyond that; both shapes are accepted on input.  Exact rationals
travel as "p/q" strings.  Symbolic vectors carry their non-unit symbols
explicitly; the rational unit is implicit in the first coefficient column.
Floats go to the library types as parsed, whose one reader
`intlin._reals` refuses anything but finite real numbers, and come back
as its tuples of Python floats.
"""

from fractions import Fraction
from operator import index

from .errors import DimensionMismatch
from .irrationality import (
    UNIT,
    IrrationalityCertificate,
    Symbol,
    SymbolicRealVector,
    from_columns,
)
from .isometries import Isometry
from .lattice_core import QuadLattice, Sublattice

INT64_MAX = 2 ** 63 - 1


def encode_int(x):
    x = index(x)
    return x if abs(x) <= INT64_MAX else str(x)


def decode_int(v):
    if isinstance(v, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return int(v, 10)
    raise ValueError("expected an integer or a decimal string")


def encode_vector(v):
    return [encode_int(x) for x in v]


def decode_vector(data):
    if not isinstance(data, list):
        raise ValueError("vector JSON must be a list")
    return tuple(decode_int(x) for x in data)


def encode_matrix(m):
    return [[encode_int(x) for x in row] for row in m]


def decode_matrix(data):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be a list of lists")
    return tuple(tuple(decode_int(x) for x in row) for row in data)


def lattice_from_json(data):
    gram = decode_matrix(data["gram"])
    L = QuadLattice(gram)
    if "rank" in data and decode_int(data["rank"]) != L.rank:
        raise ValueError("declared rank does not match the Gram matrix")
    return L


def sublattice_to_json(s: Sublattice):
    return {"basis": encode_matrix(s.basis)}


def sublattice_from_json(data):
    if isinstance(data, dict):
        data = data["basis"]
    return Sublattice(decode_matrix(data))


def isometry_to_json(g: Isometry):
    return {"matrix": encode_matrix(g.matrix)}


def isometry_from_json(data, L: QuadLattice) -> Isometry:
    if isinstance(data, dict):
        data = data["matrix"]
    return Isometry(decode_matrix(data), L)


def symbolic_from_json(data) -> SymbolicRealVector:
    symbols = (UNIT,) + tuple(
        Symbol(d["tag"], d["approx"]) for d in data.get("symbols", [])
    )
    rows = [[Fraction(str(c)) for c in row] for row in data["coeffs"]]
    if any(len(row) != len(symbols) for row in rows):
        raise DimensionMismatch("coefficient rows must match the symbols")
    return from_columns(symbols, zip(*rows))


def certificate_to_json(cert: IrrationalityCertificate):
    return {
        "verdict": cert.verdict,
        "witness_u": None
        if cert.witness_u is None
        else encode_vector(cert.witness_u),
        "perp_rank": cert.perp_rank,
        "height_bound_used": cert.height_bound_used,
        "assumption": cert.assumption,
    }
