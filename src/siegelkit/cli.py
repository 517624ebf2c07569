"""Command line front end: JSON in, JSON (or text) out, deterministic.

Exit status: 0 success, 1 malformed input, 2 validation failure
(a report is still emitted), 3 enumeration budget exceeded.
"""

import argparse
import json
import sys

from . import jsonio
from .errors import (
    BoundTooLargeForBudget,
    DimensionMismatch,
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
    q_metric,
    taming_from_siegel_point,
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
    except ValueError as exc:
        # Malformed JSON, or an integer literal past Python's digit limit.
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


def _cmd_lattice(args):
    data = _read_input(args)
    if args.action == "type":
        space = jsonio.decode_space(data)
        _emit(args, {"t": jsonio.encode_lattice_type(type_of(space))})
        return EXIT_OK
    if args.action == "frobenius":
        space = jsonio.decode_space(data)
        fb = frobenius_basis(space)
        _emit(
            args,
            {
                "change_of_basis": jsonio.encode_integer_matrix(fb.change_of_basis),
                "t": jsonio.encode_lattice_type(fb.type),
            },
        )
        return EXIT_OK
    if args.action == "member":
        gamma = jsonio.decode_integer_matrix(
            jsonio._need(data, "gamma", "member request")
        )
        t = jsonio.decode_lattice_type(jsonio._need(data, "t", "member request"))
        _emit(args, {"member": sp_type_membership(gamma, t)})
        return EXIT_OK
    if args.action == "isom":
        a = jsonio.decode_space(jsonio._need(data, "a", "isomorphism request"))
        b = jsonio.decode_space(jsonio._need(data, "b", "isomorphism request"))
        P = lattice_isomorphism(a, b)
        _emit(
            args,
            {
                "isomorphism": None
                if P is None
                else jsonio.encode_integer_matrix(P)
            },
        )
        return EXIT_OK
    raise ParseError(f"unknown lattice action {args.action!r}")


def _cmd_aff(args):
    data = _read_input(args)
    if args.action == "compose":
        x = jsonio.decode_aff(jsonio._need(data, "x", "compose request"))
        y = jsonio.decode_aff(jsonio._need(data, "y", "compose request"))
        _emit(args, jsonio.encode_aff(aff_compose(x, y)))
        return EXIT_OK
    if args.action == "inverse":
        x = jsonio.decode_aff(data)
        _emit(args, jsonio.encode_aff(aff_inverse(x)))
        return EXIT_OK
    if args.action == "act":
        x = jsonio.decode_aff(jsonio._need(data, "x", "act request"))
        p = jsonio.decode_torus_point(jsonio._need(data, "p", "act request"))
        _emit(args, jsonio.encode_torus_point(aff_act(x, p)))
        return EXIT_OK
    if args.action == "rep":
        x = jsonio.decode_aff(data)
        _emit(args, {"rotation": jsonio.encode_integer_matrix(lattice_rep(x))})
        return EXIT_OK
    raise ParseError(f"unknown aff action {args.action!r}")


def _cmd_taming(args):
    data = _read_input(args)
    tol = args.tol
    if args.action == "validate":
        J = jsonio.decode_float_matrix(jsonio._need(data, "J", "taming"), "taming")
        omega = jsonio.decode_integer_matrix(jsonio._need(data, "omega", "taming"))
        if tol is None:
            tol = jsonio.decode_tol(data.get("tol", DEFAULT_TOL), "taming")
        report = validate_taming(J, omega, tol)
        _emit(args, report.as_dict())
        return EXIT_OK if report.passed else EXIT_VALIDATION
    if args.action == "from-siegel":
        Z = jsonio.decode_siegel_point(jsonio._need(data, "Z", "from-siegel request"))
        omega = jsonio.decode_integer_matrix(
            jsonio._need(data, "omega", "from-siegel request")
        )
        tm = taming_from_siegel_point(Z, omega)
        out = jsonio.encode_taming(tm)
        out["Q"] = jsonio.encode_float_matrix(q_metric(tm))
        _emit(args, out)
        return EXIT_OK
    if args.action == "push":
        tm = jsonio.decode_taming(
            jsonio._need(data, "taming", "push request"), tol_override=tol
        )
        gamma = jsonio.decode_integer_matrix(
            jsonio._need(data, "gamma", "push request")
        )
        _emit(args, jsonio.encode_taming(push_forward_taming(gamma, tm)))
        return EXIT_OK
    raise ParseError(f"unknown taming action {args.action!r}")


def _cmd_field(args):
    data = _read_input(args)
    tol = args.tol
    if args.action == "star":
        frame = jsonio.decode_frame(jsonio._need(data, "frame", "star request"))
        _emit(args, {"star": jsonio.encode_float_matrix(hodge_star_matrix(frame))})
        return EXIT_OK
    frame = jsonio.decode_frame(jsonio._need(data, "frame", "field request"))
    if args.action in ("project", "residual", "transform"):
        taming = jsonio.decode_taming(
            jsonio._need(data, "taming", "field request"), tol_override=tol
        )
        sample = jsonio.decode_field_sample(jsonio._need(data, "F_sample", "field request"))
        if args.action == "project":
            out = project_selfdual(sample, frame, taming)
            _emit(args, jsonio.encode_field_sample(out))
            return EXIT_OK
        if args.action == "residual":
            _emit(args, {"residual": maxwell_residual(sample, frame, taming)})
            return EXIT_OK
        gamma = jsonio.decode_integer_matrix(
            jsonio._need(data, "gamma", "transform request")
        )
        new_sample, new_taming = duality_transform_sample(gamma, sample, taming)
        _emit(
            args,
            {
                "F_sample": jsonio.encode_field_sample(new_sample),
                "taming": jsonio.encode_taming(new_taming),
            },
        )
        return EXIT_OK
    if args.action == "stress":
        taming = jsonio.decode_taming(
            jsonio._need(data, "taming", "stress request"), tol_override=tol
        )
        sample = jsonio.decode_field_sample(jsonio._need(data, "F_sample", "stress request"))
        Q = q_metric(taming)
        stress = inner_contraction(sample, sample, frame, Q)
        _emit(args, {"stress": jsonio.encode_float_matrix(stress)})
        return EXIT_OK
    if args.action == "scalar-rhs":
        taming = jsonio.decode_taming(
            jsonio._need(data, "taming", "scalar-rhs request"), tol_override=tol
        )
        sample = jsonio.decode_field_sample(
            jsonio._need(data, "F_sample", "scalar-rhs request")
        )
        psi = jsonio.decode_fundamental_form(
            jsonio._need(data, "psi", "scalar-rhs request")
        )
        lhs = data.get("scalar_lhs")
        if lhs is not None:
            lhs = jsonio.decode_float_vector(lhs, "scalar-rhs request")
        values, residuals = scalar_rhs(sample, frame, q_metric(taming), psi, lhs)
        payload = {"values": [float(v) for v in values]}
        if residuals is not None:
            payload["residuals"] = [float(r) for r in residuals]
        _emit(args, payload)
        return EXIT_OK
    raise ParseError(f"unknown field action {args.action!r}")


def _cmd_cohomology(args):
    data = _read_input(args)
    if not isinstance(data, dict):
        raise ParseError("cohomology request must be a JSON object")
    c = jsonio.decode_complex(data.get("complex", data))
    if args.action == "validate":
        report = validate_local_system(c)
        _emit(args, report.as_dict())
        return EXIT_OK if report.valid else EXIT_VALIDATION
    if args.action == "compute":
        degrees = [args.degree] if args.degree is not None else list(
            range(c.dimension + 1)
        )
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
        _emit(args, {"cohomology": out})
        return EXIT_OK
    if args.action == "charge-lattice":
        basis = [jsonio.encode_rational_vector(b) for b in charge_lattice_basis(c)]
        _emit(args, {"rank": len(basis), "basis": basis})
        return EXIT_OK
    if args.action == "dsz":
        cls = jsonio.decode_charge_class(
            jsonio._need(data, "class", "dsz request")
        )
        verdict = dsz_check(cls, c)
        _emit(args, verdict.as_dict())
        return EXIT_OK if verdict.integral else EXIT_VALIDATION
    raise ParseError(f"unknown cohomology action {args.action!r}")


def _cmd_uduality(args):
    data = _read_input(args)
    if args.action == "commutant":
        h = jsonio.decode_holonomy(data)
        basis = commutant_lattice(h)
        _emit(
            args,
            {
                "rank": len(basis),
                "basis": [jsonio.encode_integer_matrix(b) for b in basis],
            },
        )
        return EXIT_OK
    if args.action in ("centralizer", "fiber-product") and args.bound < 1:
        raise ParseError("bound must be at least 1")
    if args.action == "centralizer":
        h = jsonio.decode_holonomy(data)
        found = centralizer_enumerate(h, bound=args.bound, budget=args.budget)
        _emit(
            args,
            {
                "bound": args.bound,
                "count": len(found),
                "elements": [jsonio.encode_integer_matrix(m) for m in found],
            },
        )
        return EXIT_OK
    if args.action == "fiber-product":
        model = jsonio.decode_scalar_model(data)
        elements = uduality_fiber_product(
            model, bound=args.bound, tol=args.tol, budget=args.budget
        )
        closure = closure_within_box(elements, model, args.bound)
        _emit(
            args,
            {
                "bound": args.bound,
                "count": len(elements),
                "elements": [jsonio.encode_uduality_element(e) for e in elements],
                "closure": closure.as_dict(),
            },
        )
        return EXIT_OK
    if args.action == "ad":
        e = jsonio.decode_uduality_element(data)
        iso, rot = adjoint_map(e)
        _emit(
            args,
            {"isometry": iso, "rotation": jsonio.encode_integer_matrix(rot)},
        )
        return EXIT_OK
    raise ParseError(f"unknown uduality action {args.action!r}")


def _cmd_selftest(args):
    lines = []
    ok = run_selftest(args.seed, write=lines.append)
    for line in lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK if ok else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as malformed input (exit 1, one JSON line)."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
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
        p.add_argument(
            "--tol", type=lambda x: jsonio.decode_tol(x, "--tol"), help="tolerance override"
        )

    for name, actions, func in (
        ("lattice", ("type", "frobenius", "member", "isom"), _cmd_lattice),
        ("aff", ("compose", "inverse", "act", "rep"), _cmd_aff),
        ("taming", ("validate", "from-siegel", "push"), _cmd_taming),
        (
            "field",
            ("star", "project", "residual", "stress", "scalar-rhs", "transform"),
            _cmd_field,
        ),
        (
            "cohomology",
            ("validate", "compute", "charge-lattice", "dsz"),
            _cmd_cohomology,
        ),
        (
            "uduality",
            ("commutant", "centralizer", "fiber-product", "ad"),
            _cmd_uduality,
        ),
    ):
        p = sub.add_parser(name)
        p.add_argument("action", choices=actions)
        add_io(p)
        if name == "cohomology":
            p.add_argument("--degree", type=int, default=None)
        if name == "uduality":
            p.add_argument("--bound", type=int, default=2)
            p.add_argument("--budget", type=int, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)
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
