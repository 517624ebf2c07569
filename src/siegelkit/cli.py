"""Command line front end: JSON in, JSON (or text) out, deterministic.

Exit status: 0 success, 1 malformed input, 2 validation failure
(a report is still emitted), 3 enumeration budget exceeded.

``COMMANDS`` maps command -> action -> ``handler(data, args)``: ``data`` is
the parsed JSON input, ``args`` the command line, and the handler returns
the payload to emit, or ``(payload, passed)`` for the verdict actions
(``taming validate``, ``cohomology validate``, ``cohomology dsz``), which
exit 2 when ``passed`` is false. Handlers call the library through module
globals, never through the table, so ``bench/tracing.py`` can rebind them.
"""

import argparse
import functools
import json
import sys

from . import jsonio
from .errors import (
    BoundTooLargeForBudget,
    DimensionMismatch,
    InvalidFundamentalForm,
    ParseError,
    SiegelKitError,
)
from .field_calculus import (
    hodge_star_matrix,
    inner_contraction,
    maxwell_residual,
    project_selfdual,
    duality_transform_sample,
    scalar_rhs,
)
from .local_systems import (
    charge_lattice_basis,
    dsz_check,
    twisted_cohomology,
    validate_local_system,
)
from .polarization import (
    DEFAULT_TOL,
    push_forward_taming,
    taming_from_siegel_point,
    validate_fundamental_form,
    validate_taming,
)
from .selftest import run_selftest
from .siegel_group import aff_act, aff_compose, aff_inverse, lattice_rep
from .symplectic_lattices import (
    frobenius_basis,
    lattice_isomorphism,
    sp_type_membership,
    type_of,
)
from .uduality import (
    DEFAULT_BUDGET,
    adjoint_map,
    centralizer_enumerate,
    closure_within_box,
    commutant_lattice,
    uduality_fiber_product,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _read_input(args):
    if args.json is not None:
        text = args.json
    elif args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read input: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Malformed or too deeply nested JSON, or an integer past the digit limit.
        raise ParseError(f"input is not valid JSON: {exc}") from None


def _emit(args, payload):
    with jsonio.whole_integers():
        if args.output == "text":
            text = _as_text(payload)
        else:
            text = json.dumps(payload, sort_keys=True)
    sys.stdout.write(text + "\n")


def _as_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_as_text(v, indent) for v in payload) or f"{pad}[]"
    return f"{pad}{payload}"


def _lattice_type(data, args):
    return {"t": jsonio.encode_lattice_type(type_of(jsonio.decode_space(data)))}


def _lattice_frobenius(data, args):
    fb = frobenius_basis(jsonio.decode_space(data))
    return {
        "change_of_basis": jsonio.encode_integer_matrix(fb.change_of_basis),
        "t": jsonio.encode_lattice_type(fb.type),
    }


def _lattice_member(data, args):
    gamma = jsonio.decode_integer_matrix(jsonio._need(data, "gamma", "member request"))
    t = jsonio.decode_lattice_type(jsonio._need(data, "t", "member request"))
    return {"member": sp_type_membership(gamma, t)}


def _lattice_isom(data, args):
    a = jsonio.decode_space(jsonio._need(data, "a", "isomorphism request"))
    b = jsonio.decode_space(jsonio._need(data, "b", "isomorphism request"))
    P = lattice_isomorphism(a, b)
    return {"isomorphism": None if P is None else jsonio.encode_integer_matrix(P)}


def _aff_compose(data, args):
    x = jsonio.decode_aff(jsonio._need(data, "x", "compose request"))
    y = jsonio.decode_aff(jsonio._need(data, "y", "compose request"))
    return jsonio.encode_aff(aff_compose(x, y))


def _aff_inverse(data, args):
    return jsonio.encode_aff(aff_inverse(jsonio.decode_aff(data)))


def _aff_act(data, args):
    x = jsonio.decode_aff(jsonio._need(data, "x", "act request"))
    p = jsonio.decode_torus_point(jsonio._need(data, "p", "act request"))
    return jsonio.encode_torus_point(aff_act(x, p))


def _aff_rep(data, args):
    rotation = lattice_rep(jsonio.decode_aff(data))
    return {"rotation": jsonio.encode_integer_matrix(rotation)}


def _taming_validate(data, args):
    J = jsonio.decode_float_matrix(jsonio._need(data, "J", "taming"), "taming")
    omega = jsonio.decode_integer_matrix(jsonio._need(data, "omega", "taming"))
    tol = jsonio.decode_tol(data.get("tol", DEFAULT_TOL), "taming")
    report = validate_taming(J, omega, tol)
    return report.as_dict(), report.passed


def _taming_from_siegel(data, args):
    Z = jsonio.decode_siegel_point(jsonio._need(data, "Z", "from-siegel request"))
    omega = jsonio._need(data, "omega", "from-siegel request")
    omega = jsonio.decode_integer_matrix(omega)
    tm = taming_from_siegel_point(Z, omega)
    out = jsonio.encode_taming(tm)
    out["Q"] = jsonio.encode_float_matrix(tm.Q)
    return out


def _taming_push(data, args):
    tm = jsonio.decode_taming(jsonio._need(data, "taming", "push request"))
    gamma = jsonio.decode_integer_matrix(jsonio._need(data, "gamma", "push request"))
    return jsonio.encode_taming(push_forward_taming(gamma, tm))


def _field_inputs(data, where="field request"):
    """The frame, taming and field sample of a field request, in that order."""
    frame = jsonio.decode_frame(jsonio._need(data, "frame", "field request"))
    taming = jsonio.decode_taming(jsonio._need(data, "taming", where))
    sample = jsonio.decode_field_sample(jsonio._need(data, "F_sample", where))
    return frame, taming, sample


def _field_star(data, args):
    frame = jsonio.decode_frame(jsonio._need(data, "frame", "star request"))
    return {"star": jsonio.encode_float_matrix(hodge_star_matrix(frame))}


def _field_project(data, args):
    frame, taming, sample = _field_inputs(data)
    return jsonio.encode_field_sample(project_selfdual(sample, frame, taming))


def _field_residual(data, args):
    frame, taming, sample = _field_inputs(data)
    return {"residual": maxwell_residual(sample, frame, taming)}


def _field_stress(data, args):
    frame, taming, sample = _field_inputs(data, "stress request")
    stress = inner_contraction(sample, sample, frame, taming)
    return {"stress": jsonio.encode_float_matrix(stress)}


def _field_scalar_rhs(data, args):
    frame, taming, sample = _field_inputs(data, "scalar-rhs request")
    psi = jsonio._need(data, "psi", "scalar-rhs request")
    psi = jsonio.decode_fundamental_form(psi)
    report = validate_fundamental_form(psi, taming)
    if not report.passed:
        message = "fundamental form fails: " + report.describe_failures()
        raise InvalidFundamentalForm(message, report.as_dict())
    lhs = data.get("scalar_lhs")
    if lhs is not None:
        lhs = jsonio.decode_float_vector(lhs, "scalar-rhs request")
    values, residuals = scalar_rhs(sample, frame, taming, psi, lhs)
    payload = {"values": [float(v) for v in values]}
    if residuals is not None:
        payload["residuals"] = [float(r) for r in residuals]
    return payload


def _field_transform(data, args):
    _, taming, sample = _field_inputs(data)
    gamma = jsonio._need(data, "gamma", "transform request")
    gamma = jsonio.decode_integer_matrix(gamma)
    new_sample, new_taming = duality_transform_sample(gamma, sample, taming)
    return {
        "F_sample": jsonio.encode_field_sample(new_sample),
        "taming": jsonio.encode_taming(new_taming),
    }


def _complex(data):
    """A cohomology request's "complex" field, or the request itself."""
    if not isinstance(data, dict):
        raise ParseError("cohomology request must be a JSON object")
    return jsonio.decode_complex(data.get("complex", data))


def _cohomology_validate(data, args):
    report = validate_local_system(_complex(data))
    return report.as_dict(), report.valid


def _cohomology_compute(data, args):
    c = _complex(data)
    degrees = range(c.dimension + 1) if args.degree is None else [args.degree]
    out = []
    for k in degrees:
        res = twisted_cohomology(c, k)
        out.append(
            {
                "degree": k,
                "free_rank": res.free_rank,
                "torsion": list(res.torsion),
                "group": res.group_description(),
            }
        )
    return {"cohomology": out}


def _cohomology_charge_lattice(data, args):
    basis = charge_lattice_basis(_complex(data))
    basis = [jsonio.encode_rational_vector(b) for b in basis]
    return {"rank": len(basis), "basis": basis}


def _cohomology_dsz(data, args):
    c = _complex(data)
    cls = jsonio.decode_charge_class(jsonio._need(data, "class", "dsz request"))
    verdict = dsz_check(cls, c)
    return verdict.as_dict(), verdict.integral


def _check_search_args(args):
    """Refuse a --bound below 1 or a --budget below 1, as malformed input."""
    if args.bound < 1:
        raise ParseError("bound must be at least 1")
    if args.budget < 1:
        raise ParseError(f"budget must be positive, got {args.budget}")


def _uduality_commutant(data, args):
    basis = commutant_lattice(jsonio.decode_holonomy(data))
    basis = [jsonio.encode_integer_matrix(b) for b in basis]
    return {"rank": len(basis), "basis": basis}


def _uduality_centralizer(data, args):
    h = jsonio.decode_holonomy(data)
    found = centralizer_enumerate(h, bound=args.bound, budget=args.budget)
    return {
        "bound": args.bound,
        "count": len(found),
        "elements": [jsonio.encode_integer_matrix(m) for m in found],
    }


def _uduality_fiber_product(data, args):
    model = jsonio.decode_scalar_model(data)
    elements = uduality_fiber_product(model, bound=args.bound, budget=args.budget)
    return {
        "bound": args.bound,
        "count": len(elements),
        "elements": [jsonio.encode_uduality_element(e) for e in elements],
        "closure": closure_within_box(elements, model, args.bound).as_dict(),
    }


def _uduality_ad(data, args):
    iso, rot = adjoint_map(jsonio.decode_uduality_element(data))
    return {"isometry": iso, "rotation": jsonio.encode_integer_matrix(rot)}


COMMANDS = {
    "lattice": {
        "type": _lattice_type,
        "frobenius": _lattice_frobenius,
        "member": _lattice_member,
        "isom": _lattice_isom,
    },
    "aff": {
        "compose": _aff_compose,
        "inverse": _aff_inverse,
        "act": _aff_act,
        "rep": _aff_rep,
    },
    "taming": {
        "validate": _taming_validate,
        "from-siegel": _taming_from_siegel,
        "push": _taming_push,
    },
    "field": {
        "star": _field_star,
        "project": _field_project,
        "residual": _field_residual,
        "stress": _field_stress,
        "scalar-rhs": _field_scalar_rhs,
        "transform": _field_transform,
    },
    "cohomology": {
        "validate": _cohomology_validate,
        "compute": _cohomology_compute,
        "charge-lattice": _cohomology_charge_lattice,
        "dsz": _cohomology_dsz,
    },
    "uduality": {
        "commutant": _uduality_commutant,
        "centralizer": _uduality_centralizer,
        "fiber-product": _uduality_fiber_product,
        "ad": _uduality_ad,
    },
}


def _run(args):
    data = _read_input(args)
    if args.command == "uduality":
        # Every action takes --bound and --budget: checked before decoding.
        _check_search_args(args)
    result = COMMANDS[args.command][args.action](data, args)
    payload, passed = result if isinstance(result, tuple) else (result, True)
    _emit(args, payload)
    return EXIT_OK if passed else EXIT_VALIDATION


def _selftest(args):
    lines = []
    ok = run_selftest(args.seed, write=lines.append)
    for line in lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK if ok else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as malformed input (exit 1, one JSON line)."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser():
    """The command line parser, built once per process and reused by ``main``."""
    parser = _Parser(
        prog="siegel-kit",
        description="Exact computations for integral symplectic lattices, "
        "Siegel groups, tamings, twisted cohomology and U-duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", help="input JSON file, or - for stdin")
        p.add_argument("--json", help="inline JSON input")
        p.add_argument(
            "--output", choices=("json", "text"), default="json", help="output format"
        )

    for name, actions in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("action", choices=tuple(actions))
        add_io(p)
        if name == "cohomology":
            p.add_argument("--degree", type=int, default=None)
        if name == "uduality":
            p.add_argument("--bound", type=int, default=2)
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.set_defaults(func=_run)

    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_PARSE
    except BoundTooLargeForBudget as exc:
        payload = {"error": str(exc), "kind": type(exc).__name__, **exc.details}
        # The counts can be longer than the int/str digit limit.
        with jsonio.whole_integers():
            text = json.dumps(payload, sort_keys=True)
        sys.stdout.write(text + "\n")
        return EXIT_BUDGET
    except SiegelKitError as exc:
        payload = {"error": str(exc), "kind": type(exc).__name__}
        report = getattr(exc, "report", None)
        if report is not None:
            payload["report"] = report
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        # A shape error is malformed input, not a failed validation.
        if isinstance(exc, DimensionMismatch):
            return EXIT_PARSE
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
