"""JSON encoding and decoding for every value the CLI exchanges.

Integer matrices are written with entries as decimal strings so that
arbitrary precision survives the trip; rationals are "p/q" strings.
Decoders accept plain JSON integers too, encoders are canonical, and
every emitted document re-parses to an equal value. A rational is a JSON
integer or a string "p" or "p/q" of decimal digits (p may carry a minus
sign, q is positive); decimal points and exponents are refused, since
"1e100000000" would ask for a 3.3e8-bit integer.

Python's int/str digit limit (``sys.get_int_max_str_digits()``, 4300
by default) bounds every integer read, so longer input is refused.
Output is written whole: an answer computed from such integers can be
longer than the limit (see whole_integers).
"""

import math
import re
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .exact_linalg import IntegerMatrix, whole_integers
from .field_calculus import FieldStrengthSample, PointFrame
from .local_systems import ChargeClass, TwistedComplex
from .polarization import (
    FundamentalFormSample,
    SiegelPoint,
    Taming,
    DEFAULT_TOL,
)
from .siegel_group import AffineSymplectomorphism, TorusPoint
from .symplectic_lattices import IntegralSymplecticSpace, LatticeType
from .uduality import FiniteScalarModel, HolonomySubgroup, UDualityElement


def _need(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r} in {where}")
    return obj[key]


def _need_list(obj, key, where):
    value = _need(obj, key, where)
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list in {where}")
    return value


def _decimal(x) -> str:
    """str(x) of an int or Fraction, also past the digit limit."""
    try:
        return str(x)
    except ValueError:
        with whole_integers():
            return str(x)


def encode_integer_matrix(m: IntegerMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[_decimal(x) for x in m.row(i)] for i in range(m.rows)],
    }


def decode_integer(x, where="integer"):
    try:
        if isinstance(x, str):
            return int(x, 10)
        if isinstance(x, bool):
            raise ValueError
        if isinstance(x, int):
            return x
        raise ValueError
    except ValueError:
        raise ParseError(f"bad integer {x!r} in {where}") from None


def decode_integer_matrix(obj, where="matrix") -> IntegerMatrix:
    entries = _need(obj, "entries", where)
    try:
        m = IntegerMatrix(
            [[decode_integer(x, where) for x in row] for row in entries]
        )
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad matrix in {where}: {exc}") from None
    if "rows" in obj and decode_integer(obj["rows"], where) != m.rows:
        raise ParseError(f"row count mismatch in {where}")
    if "cols" in obj and decode_integer(obj["cols"], where) != m.cols:
        raise ParseError(f"column count mismatch in {where}")
    return m


def decode_float(x, where="number") -> float:
    """A finite JSON number, or a decimal string, as a float."""
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            value = float(x)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(value):
                return value
    raise ParseError(f"bad number {x!r} in {where}")


def decode_float_vector(obj, where="vector"):
    if not isinstance(obj, list):
        raise ParseError(f"expected a list in {where}")
    return tuple(decode_float(x, where) for x in obj)


def decode_tol(x, where="tolerance") -> float:
    """A ``"tol"`` field: finite and >= 0 (0 is exact mode)."""
    tol = decode_float(x, where)
    if tol < 0:
        raise ParseError(f"tolerance must be >= 0, got {x!r} in {where}")
    return tol


def encode_rational(x: Fraction) -> str:
    """"p/q", or "p" when q = 1."""
    return _decimal(Fraction(x))


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def decode_rational(x, where="rational") -> Fraction:
    try:
        if isinstance(x, str) and _RATIONAL.fullmatch(x):
            return Fraction(x)
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {x!r} in {where}") from None


def encode_rational_vector(v) -> list:
    return [encode_rational(x) for x in v]


def decode_rational_vector(obj, where="vector"):
    if not isinstance(obj, list):
        raise ParseError(f"expected a list in {where}")
    return tuple(decode_rational(x, where) for x in obj)


def encode_float_matrix(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def decode_float_matrix(obj, where="float matrix"):
    """Nested lists of ``decode_float`` entries, as a float array."""
    pending = [obj]
    while pending:
        x = pending.pop()
        if isinstance(x, list):
            pending.extend(reversed(x))
        else:
            decode_float(x, where)
    try:
        return np.array(obj, dtype=float)
    except ValueError:
        raise ParseError(f"bad float matrix in {where}") from None


def encode_lattice_type(t: LatticeType) -> list:
    return list(t.entries)


def decode_lattice_type(obj, where="type") -> LatticeType:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"type must be a nonempty list in {where}")
    try:
        return LatticeType([decode_integer(x, where) for x in obj])
    except ValueError as exc:
        raise ParseError(f"bad lattice type in {where}: {exc}") from None


def decode_space(obj, where="space") -> IntegralSymplecticSpace:
    gram = decode_integer_matrix(_need(obj, "gram", where), where)
    try:
        space = IntegralSymplecticSpace(gram)
    except Exception as exc:
        raise ParseError(f"bad symplectic space in {where}: {exc}") from None
    if "n" in obj and decode_integer(obj["n"], where) != space.n:
        raise ParseError(f"rank mismatch in {where}")
    return space


def encode_aff(x: AffineSymplectomorphism) -> dict:
    return {
        "translation": encode_rational_vector(x.translation),
        "rotation": encode_integer_matrix(x.rotation),
        "t": encode_lattice_type(x.type),
    }


def decode_aff(obj, where="affine element") -> AffineSymplectomorphism:
    t = decode_lattice_type(_need(obj, "t", where), where)
    translation = decode_rational_vector(_need(obj, "translation", where), where)
    rotation = decode_integer_matrix(_need(obj, "rotation", where), where)
    try:
        return AffineSymplectomorphism(translation, rotation, t)
    except Exception as exc:
        raise ParseError(f"bad affine element in {where}: {exc}") from None


def encode_torus_point(p: TorusPoint) -> dict:
    return {
        "coords": encode_rational_vector(p.coords),
        "t": encode_lattice_type(p.type),
    }


def decode_torus_point(obj, where="torus point") -> TorusPoint:
    t = decode_lattice_type(_need(obj, "t", where), where)
    coords = decode_rational_vector(_need(obj, "coords", where), where)
    return TorusPoint(coords, t)


def encode_taming(tm: Taming) -> dict:
    return {
        "J": encode_float_matrix(tm.J),
        "omega": encode_integer_matrix(tm.omega),
        "tol": tm.tol,
    }


def decode_taming(obj, where="taming") -> Taming:
    J = decode_float_matrix(_need(obj, "J", where), where)
    omega = decode_integer_matrix(_need(obj, "omega", where), where)
    return Taming(J, omega, decode_tol(obj.get("tol", DEFAULT_TOL), where))


def decode_siegel_point(obj, where="siegel point") -> SiegelPoint:
    X = decode_float_matrix(_need(obj, "X", where), where)
    Y = decode_float_matrix(_need(obj, "Y", where), where)
    return SiegelPoint(X, Y)


def decode_frame(obj, where="frame") -> PointFrame:
    g = decode_float_matrix(_need(obj, "g", where), where)
    orientation = decode_integer(obj.get("orientation", 1), where)
    if orientation not in (1, -1):
        raise ParseError(f"orientation must be 1 or -1 in {where}")
    return PointFrame(g, orientation)


def decode_field_sample(obj, where="field sample") -> FieldStrengthSample:
    return FieldStrengthSample(decode_float_matrix(_need(obj, "F", where), where))


def encode_field_sample(sample: FieldStrengthSample) -> dict:
    return {"F": encode_float_matrix(sample.F)}


def decode_fundamental_form(obj, where="fundamental form") -> FundamentalFormSample:
    comps = _need_list(obj, "components", where)
    return FundamentalFormSample([decode_float_matrix(c, where) for c in comps])


def encode_complex(c: TwistedComplex) -> dict:
    out = {
        "cells": list(c.cells),
        "boundaries": [encode_integer_matrix(b) for b in c.boundaries],
        "transports": [
            {"cell": e, "gamma": encode_integer_matrix(g)}
            for e, g in enumerate(c.transports)
        ],
        "t": encode_lattice_type(c.type),
    }
    if c.words is not None:
        out["words"] = [
            None if w is None else {"cell": f, "word": [[e, s] for e, s in w]}
            for f, w in enumerate(c.words)
        ]
        out["words"] = [w for w in out["words"] if w is not None]
    return out


def decode_complex(obj, where="complex") -> TwistedComplex:
    cells = [decode_integer(x, where) for x in _need_list(obj, "cells", where)]
    boundaries = [
        decode_integer_matrix(b, where) for b in _need_list(obj, "boundaries", where)
    ]
    t = decode_lattice_type(_need(obj, "t", where), where)
    n_edges = cells[1] if len(cells) > 1 else 0
    by_edge = {}
    items = _need_list(obj, "transports", where) if "transports" in obj else []
    for item in items:
        e = decode_integer(_need(item, "cell", where), where)
        if not 0 <= e < n_edges:
            raise ParseError(f"transport for unknown 1-cell {e} in {where}")
        by_edge[e] = decode_integer_matrix(_need(item, "gamma", where), where)
    # Generators: TwistedComplex lists them only after checking the cell
    # counts against the boundary shapes, so no count outgrows the input.
    transports = (by_edge.get(e) for e in range(n_edges))
    words = None
    if "words" in obj:
        n_faces = cells[2] if len(cells) > 2 else 0
        by_face = {}
        for item in _need_list(obj, "words", where):
            f = decode_integer(_need(item, "cell", where), where)
            if not 0 <= f < n_faces:
                raise ParseError(f"word for unknown 2-cell {f} in {where}")
            raw = _need(item, "word", where)
            try:
                by_face[f] = tuple(
                    (decode_integer(e, where), decode_integer(s, where))
                    for e, s in raw
                )
            except (TypeError, ValueError):
                raise ParseError(f"bad attaching word in {where}") from None
        words = (by_face.get(f) for f in range(n_faces))
    try:
        return TwistedComplex(cells, boundaries, transports, t, words)
    except Exception as exc:
        raise ParseError(f"bad twisted complex in {where}: {exc}") from None


def decode_charge_class(obj, where="charge class") -> ChargeClass:
    coeffs = decode_rational_vector(_need(obj, "coefficients", where), where)
    return ChargeClass(coeffs)


def decode_holonomy(obj, where="holonomy") -> HolonomySubgroup:
    t = decode_lattice_type(_need(obj, "t", where), where)
    gens = [
        decode_integer_matrix(g, where) for g in _need_list(obj, "generators", where)
    ]
    try:
        return HolonomySubgroup(gens, t)
    except Exception as exc:
        raise ParseError(f"bad holonomy subgroup in {where}: {exc}") from None


def decode_scalar_model(obj, where="scalar model") -> FiniteScalarModel:
    points = decode_integer(_need(obj, "points", where), where)
    isometries = _need_list(obj, "isometries", where)
    if not all(isinstance(p, list) for p in isometries):
        raise ParseError(f"each isometry must be a list in {where}")
    isometries = [[decode_integer(x, where) for x in p] for p in isometries]
    omega = decode_integer_matrix(_need(obj, "omega", where), where)
    tol = decode_tol(obj.get("tol", DEFAULT_TOL), where)
    tamings = [
        Taming(decode_float_matrix(J, where), omega, tol)
        for J in _need_list(obj, "tamings", where)
    ]
    try:
        return FiniteScalarModel(points, isometries, tamings)
    except Exception as exc:
        raise ParseError(f"bad scalar model in {where}: {exc}") from None


def encode_uduality_element(e: UDualityElement) -> dict:
    out = {
        "isometry": e.isometry,
        "rotation": encode_integer_matrix(e.rotation),
    }
    if e.torus is not None:
        out["torus"] = encode_rational_vector(e.torus)
    return out


def decode_uduality_element(obj, where="uduality element") -> UDualityElement:
    iso = decode_integer(_need(obj, "isometry", where), where)
    rotation = decode_integer_matrix(_need(obj, "rotation", where), where)
    torus = obj.get("torus")
    if torus is not None:
        torus = decode_rational_vector(torus, where)
    return UDualityElement(iso, rotation, torus)
