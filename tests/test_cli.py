import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from siegelkit import cli, jsonio, selftest
from siegelkit.exact_linalg import IntegerMatrix
from siegelkit.local_systems import charge_lattice_basis, two_sphere_complex, two_torus_complex
from siegelkit.polarization import Taming, push_forward_taming, standard_taming_matrix
from siegelkit.sampling import random_field_sample, random_sp_t_element, random_taming
from siegelkit.siegel_group import AffineSymplectomorphism, aff_compose
from siegelkit.symplectic_lattices import LatticeType, sp_type_membership, standard_gram
from siegelkit.uduality import (
    HolonomySubgroup,
    UDualityElement,
    centralizer_enumerate,
    uduality_fiber_product,
)


def run_cli(args, payload=None):
    cmd = [sys.executable, "-m", "siegelkit.cli", *args]
    proc = subprocess.run(
        cmd,
        input=None if payload is None else json.dumps(payload),
        capture_output=True,
        text=True,
    )
    return proc


def test_lattice_type_subcommand():
    gram = standard_gram(LatticeType((1, 2)))
    proc = run_cli(["lattice", "type"], {"gram": jsonio.encode_integer_matrix(gram)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"t": [1, 2]}


def test_lattice_member_roundtrip():
    payload = {
        "gamma": jsonio.encode_integer_matrix(IntegerMatrix([[1, 1], [0, 1]])),
        "t": [1],
    }
    proc = run_cli(["lattice", "member"], payload)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"member": True}


def test_malformed_input_exit_one():
    proc = subprocess.run(
        [sys.executable, "-m", "siegelkit.cli", "lattice", "type"],
        input="{not json",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error" in json.loads(proc.stdout)


def test_dsz_half_integral_exit_two():
    c = two_sphere_complex(LatticeType((1,)))
    basis = charge_lattice_basis(c)
    half = [Fraction(x, 2) for x in basis[0]]
    payload = {
        "complex": jsonio.encode_complex(c),
        "class": {"coefficients": jsonio.encode_rational_vector(half)},
    }
    proc = run_cli(["cohomology", "dsz"], payload)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["integral"] is False


def test_dsz_integral_exit_zero():
    c = two_sphere_complex(LatticeType((1,)))
    basis = charge_lattice_basis(c)
    vec = [Fraction(3 * x) for x in basis[0]]
    payload = {
        "complex": jsonio.encode_complex(c),
        "class": {"coefficients": jsonio.encode_rational_vector(vec)},
    }
    proc = run_cli(["cohomology", "dsz"], payload)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"coordinates": [3, 0], "integral": True}


def test_taming_validate_exit_codes():
    om = jsonio.encode_integer_matrix(standard_gram(LatticeType((1,))))
    ok = run_cli(["taming", "validate"], {"J": [[0.0, -1.0], [1.0, 0.0]], "omega": om})
    assert ok.returncode == 0
    bad = run_cli(["taming", "validate"], {"J": [[0.0, 1.0], [-1.0, 0.0]], "omega": om})
    assert bad.returncode == 2
    assert json.loads(bad.stdout)["passed"] is False


def test_budget_exit_three():
    payload = {
        "generators": [jsonio.encode_integer_matrix(IntegerMatrix.identity(2))],
        "t": [1],
    }
    proc = run_cli(
        ["uduality", "centralizer", "--bound", "40", "--budget", "10"], payload
    )
    assert proc.returncode == 3


def test_centralizer_bound_zero_exit_one():
    payload = {
        "generators": [jsonio.encode_integer_matrix(IntegerMatrix([[1, 1], [0, 1]]))],
        "t": [1],
    }
    proc = run_cli(["uduality", "centralizer", "--bound", "0"], payload)
    assert proc.returncode == 1
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": "bound must be at least 1"}
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_fiber_product_bound_below_one_exit_one(bound):
    payload = {
        "points": 1,
        "isometries": [[0]],
        "omega": jsonio.encode_integer_matrix(standard_gram(LatticeType((1,)))),
        "tamings": [jsonio.encode_float_matrix(standard_taming_matrix(1))],
    }
    proc = run_cli(["uduality", "fiber-product", "--bound", bound], payload)
    assert proc.returncode == 1
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": "bound must be at least 1"}
    assert "Traceback" not in proc.stderr


def test_invalid_complex_error_carries_report():
    shear, rot = IntegerMatrix([[1, 1], [0, 1]]), IntegerMatrix([[0, -1], [1, 0]])
    c = two_torus_complex(shear, rot, LatticeType((1,)))
    proc = run_cli(["cohomology", "compute"], {"complex": jsonio.encode_complex(c)})
    assert proc.returncode == 2
    out = json.loads(proc.stdout)
    assert out["kind"] == "InvalidComplex"
    assert out["report"]["valid"] is False
    assert out["report"]["flatness_failures"] == [{"face": 0}]


def test_selftest_deterministic():
    a = run_cli(["selftest", "--seed", "7"])
    b = run_cli(["selftest", "--seed", "7"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.count("PASS") == 13


def test_selftest_failure_exit_two(monkeypatch, capsys):
    name, _, size = selftest.SUITES[0]
    failing = (name, lambda rng, size: (False, "forced failure"), size)
    monkeypatch.setattr(selftest, "SUITES", (failing,) + selftest.SUITES[1:])
    assert cli.main(["selftest", "--seed", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"FAIL {name}: forced failure"
    assert sum(line.startswith("PASS ") for line in lines) == len(selftest.SUITES) - 1
    assert lines[-1] == "selftest FAILED (seed 3)"


@pytest.mark.parametrize("action", ["validate", "compute", "charge-lattice", "dsz"])
@pytest.mark.parametrize("text", ["[1]", '"x"', "null"])
def test_cohomology_non_object_input_exit_one(action, text, capsys):
    assert cli.main(["cohomology", action, "--json", text]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": "cohomology request must be a JSON object"}


def test_shape_mismatch_exit_one(capsys):
    payload = {
        "J": [[0.0, -1.0], [1.0, 0.0]],
        "omega": {"entries": [["0", "1"], ["-1", "0"], ["1", "1"]]},
    }
    assert cli.main(["taming", "validate", "--json", json.dumps(payload)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["kind"] == "DimensionMismatch"


def test_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["lattice", "type", "--json", '{"gram": {"entries": [["0", "2"], ["-2", "0"]]}}']
    assert cli.main(argv) == cli.main(argv) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second == '{"t": [2]}'


@pytest.mark.parametrize("size", [6, 12])
def test_flat_field_sample_exit_one(size, capsys):
    payload = {**_FIELD, "F_sample": {"F": [0.5] * size}}
    assert cli.main(["field", "project", "--json", json.dumps(payload)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "error": f"field sample must be 6 x 2n, got ({size},)",
        "kind": "DimensionMismatch",
    }


def test_wrong_length_torus_point_exit_one(capsys):
    x = {"translation": ["0", "0"], "rotation": {"entries": [["1", "0"], ["0", "1"]]}, "t": [1]}
    payload = {"x": x, "p": {"t": [1], "coords": ["1/2", "0", "0"]}}
    code, out = _run_main(["aff", "act", "--json", json.dumps(payload)], capsys)
    assert code == 1
    assert out == {"error": "expected 2 coordinates, got 3", "kind": "DimensionMismatch"}


def test_cohomology_compute_subcommand():
    c = two_sphere_complex(LatticeType((1,)))
    proc = run_cli(["cohomology", "compute"], {"complex": jsonio.encode_complex(c)})
    assert proc.returncode == 0
    out = json.loads(proc.stdout)["cohomology"]
    assert [e["free_rank"] for e in out] == [2, 0, 2]


def test_fiber_product_subcommand():
    tm = standard_taming_matrix(1)
    payload = {
        "points": 1,
        "isometries": [[0]],
        "omega": jsonio.encode_integer_matrix(standard_gram(LatticeType((1,)))),
        "tamings": [jsonio.encode_float_matrix(tm)],
    }
    proc = run_cli(["uduality", "fiber-product", "--bound", "1"], payload)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["count"] == 4
    assert out["closure"]["closed"] is True


def test_output_text_mode():
    gram = {"gram": jsonio.encode_integer_matrix(standard_gram(LatticeType((1,))))}
    proc = run_cli(["lattice", "type", "--output", "text"], gram)
    assert proc.returncode == 0
    assert "t:" in proc.stdout


# codec round trips


def test_integer_matrix_roundtrip():
    m = IntegerMatrix([[10**30, -2], [0, 7]])
    enc = jsonio.encode_integer_matrix(m)
    assert json.loads(json.dumps(enc)) == enc
    assert jsonio.decode_integer_matrix(enc) == m


def test_aff_roundtrip():
    x = AffineSymplectomorphism(
        [Fraction(1, 3), Fraction(5, 7)], IntegerMatrix([[1, 1], [0, 1]]), LatticeType((1,))
    )
    enc = jsonio.encode_aff(x)
    assert jsonio.decode_aff(json.loads(json.dumps(enc))) == x


def test_taming_roundtrip():
    tm = Taming(standard_taming_matrix(2), standard_gram(LatticeType((1, 2))), 0.0)
    enc = jsonio.encode_taming(tm)
    back = jsonio.decode_taming(json.loads(json.dumps(enc)))
    assert np.array_equal(back.J, tm.J)
    assert back.omega == tm.omega


def test_complex_roundtrip():
    c = two_sphere_complex(LatticeType((1,)))
    enc = jsonio.encode_complex(c)
    back = jsonio.decode_complex(json.loads(json.dumps(enc)))
    assert back.cells == c.cells
    assert back.boundaries == c.boundaries
    assert back.transports == c.transports
    assert back.words == c.words


def test_uduality_element_roundtrip():
    e = UDualityElement(1, IntegerMatrix([[0, -1], [1, 0]]), (Fraction(1, 2), Fraction(0)))
    enc = jsonio.encode_uduality_element(e)
    assert jsonio.decode_uduality_element(json.loads(json.dumps(enc))) == e


def test_parse_error_on_bad_rational():
    with pytest.raises(Exception):
        jsonio.decode_rational("1/0")


def _run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    return code, json.loads(out)


def test_centralizer_budget_refusal_is_structured(capsys):
    payload = {"generators": [jsonio.encode_integer_matrix(IntegerMatrix.identity(2))], "t": [1]}
    argv = ["uduality", "centralizer", "--bound", "40", "--budget", "10", "--json", json.dumps(payload)]
    code, out = _run_main(argv, capsys)
    assert code == 3
    assert out["kind"] == "BoundTooLargeForBudget"
    assert out["budget"] == 10
    assert len(out["limits"]) == 4
    volume = 1
    for lim in out["limits"]:
        volume *= 2 * lim + 1
    assert out["volume"] == volume > 10
    assert set(out) == {"error", "kind", "budget", "volume", "limits"}


def _two_point_payload(n, gamma):
    t = LatticeType((1,) * n)
    tm = Taming(standard_taming_matrix(n), standard_gram(t), 0.0)
    return {
        "points": 2,
        "isometries": [[0, 1], [1, 0]],
        "omega": jsonio.encode_integer_matrix(standard_gram(t)),
        "tamings": [
            jsonio.encode_float_matrix(tm.J),
            jsonio.encode_float_matrix(push_forward_taming(gamma, tm).J),
        ],
    }


@pytest.mark.parametrize(
    "n,bound,budget",
    [(1, 4, 9**4 - 1), (2, 1, 40_000)],
    ids=["first-level", "during-search"],
)
def test_fiber_product_budget_refusal_is_structured(n, bound, budget, capsys):
    payload = _two_point_payload(n, IntegerMatrix.identity(2 * n))
    argv = ["uduality", "fiber-product", "--bound", str(bound), "--budget", str(budget)]
    # tol 10 admits every box column, so the search is the whole box's.
    loose = {**payload, "tol": 10}
    code, out = _run_main(argv + ["--json", json.dumps(loose)], capsys)
    assert code == 3
    assert set(out) == {"error", "kind", "budget", "tested"}
    assert out["kind"] == "BoundTooLargeForBudget"
    assert out["budget"] == budget
    first_level = (2 * bound + 1) ** (4 * n) * (2 * n - 1)
    if first_level > budget:
        assert out["tested"] == 0
    else:
        assert out["tested"] > budget
    # At the default tol the norm filter shortens the search: the
    # up-front refusal stays, the search fits and finds, for both
    # isometries, the stabilizer of the integer taming J: its centralizer.
    code, out = _run_main(argv + ["--json", json.dumps(payload)], capsys)
    if first_level > budget:
        assert (code, out["tested"]) == (3, 0)
        return
    assert code == 0
    t = LatticeType((1,) * n)
    J = IntegerMatrix(standard_taming_matrix(n).astype(int).tolist())
    stabilizer = centralizer_enumerate(HolonomySubgroup([J], t), bound)
    assert len(stabilizer) == 32
    for f in (0, 1):
        rotations = [
            jsonio.decode_integer_matrix(e["rotation"])
            for e in out["elements"]
            if e["isometry"] == f
        ]
        assert len(rotations) == 32 and set(rotations) == set(stabilizer)


@pytest.mark.parametrize(
    "argv,payload",
    [
        (
            ["uduality", "centralizer", "--bound", "9" * 300],
            {"generators": [jsonio.encode_integer_matrix(IntegerMatrix.identity(4))], "t": [1, 1]},
        ),
        (["uduality", "fiber-product", "--bound", "9" * 1100], _two_point_payload(1, IntegerMatrix.identity(2))),
    ],
    ids=["centralizer-volume", "fiber-product-first-level"],
)
def test_budget_refusal_counts_past_digit_limit(argv, payload, capsys):
    """A refusal count longer than the int/str digit limit is printed whole."""
    code = cli.main(argv + ["--json", json.dumps(payload)])
    text = capsys.readouterr().out
    assert code == 3
    assert text.count("\n") == 1
    b = int(argv[-1])
    with jsonio.whole_integers():
        out = json.loads(text)
        if "volume" in out:
            volume = 1
            for lim in out["limits"]:
                volume *= 2 * lim + 1
            assert out["limits"] == [b] * 16
            assert out["volume"] == volume == (2 * b + 1) ** 16
            count = volume
            assert out["error"] == f"coefficient box has {volume} points, budget is 5000000"
        else:
            assert out["tested"] == 0
            count = (2 * b + 1) ** 4
            assert out["error"] == f"first column level takes up to {count} tests, budget is 5000000"
        assert len(str(count)) > 4300


def test_fiber_product_n2_bound1_gate_cli(capsys):
    """The n = 2, bound 1 fiber product through the CLI, default budget."""
    t = LatticeType((1, 1))
    g = random_sp_t_element(random.Random(2024), t, steps=4, entry_bound=2)
    payload = _two_point_payload(2, g)
    start = time.perf_counter()
    code, out = _run_main(["uduality", "fiber-product", "--bound", "1", "--json", json.dumps(payload)], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    assert out["closure"] == {"closed": True, "missing": []}
    model = jsonio.decode_scalar_model(payload)
    expected = uduality_fiber_product(model, bound=1)
    assert out["count"] == len(expected) > 0
    assert out["elements"] == [jsonio.encode_uduality_element(e) for e in expected]


_TAMING = {"J": [[0.0, -1.0], [1.0, 0.0]], "omega": {"entries": [["0", "1"], ["-1", "0"]]}}
_FIELD = {
    "frame": {"g": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist(), "orientation": 1},
    "taming": _TAMING,
    "F_sample": {"F": np.zeros((6, 2)).tolist()},
    "psi": {"components": [np.diag([1.0, -1.0]).tolist()]},
}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["taming", "validate"], {**_TAMING, "tol": "abc"}),
        (["taming", "validate"], {**_TAMING, "tol": [1]}),
        (["taming", "validate"], {**_TAMING, "tol": "nan"}),
        (["taming", "validate"], {**_TAMING, "tol": float("inf")}),
        (["taming", "push"], {"taming": {**_TAMING, "tol": "abc"}, "gamma": _TAMING["omega"]}),
        (["taming", "push"], {"taming": {**_TAMING, "tol": [1]}, "gamma": _TAMING["omega"]}),
        (["field", "scalar-rhs"], {**_FIELD, "scalar_lhs": "abc"}),
        (["field", "scalar-rhs"], {**_FIELD, "scalar_lhs": ["abc"]}),
        (["field", "scalar-rhs"], {**_FIELD, "taming": {**_TAMING, "tol": None}}),
        (["uduality", "fiber-product"], {**_two_point_payload(1, IntegerMatrix.identity(2)), "tol": {}}),
    ],
)
def test_malformed_numbers_exit_one(argv, payload, capsys):
    code, out = _run_main(argv + ["--json", json.dumps(payload)], capsys)
    assert code == 1
    assert set(out) == {"error"}
    assert out["error"].startswith(("bad number", "expected a list"))


def test_scalar_rhs_refuses_a_fundamental_form_that_commutes_with_j(capsys):
    """psi = I is not J-antilinear: exit 2 with the failing report."""
    payload = {**_FIELD, "psi": {"components": [np.eye(2).tolist()]}}
    code, out = _run_main(["field", "scalar-rhs", "--json", json.dumps(payload)], capsys)
    assert code == 2
    assert out == {
        "error": "fundamental form fails: antilinear[0] (residual 2.000e+00)",
        "kind": "InvalidFundamentalForm",
        "report": {
            "passed": False,
            "unitary": False,
            "checks": [
                {"name": "antilinear[0]", "passed": False, "residual": 2.0},
                {"name": "q_symmetric[0]", "passed": True, "residual": 0.0},
            ],
        },
    }


def test_scalar_rhs_component_of_another_shape_exits_one(capsys):
    payload = {**_FIELD, "psi": {"components": [np.eye(4).tolist()]}}
    code, out = _run_main(["field", "scalar-rhs", "--json", json.dumps(payload)], capsys)
    assert code == 1
    assert out == {
        "error": "component 0 has shape (4, 4), taming has (2, 2)",
        "kind": "DimensionMismatch",
    }


_ONE_POINT = {"points": 1, "isometries": [[0]], "omega": _TAMING["omega"], "tamings": [_TAMING["J"]]}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["uduality", "fiber-product", "--bound", "1"], {**_ONE_POINT, "tol": "nan"}),
        (["uduality", "fiber-product", "--bound", "1"], {**_ONE_POINT, "tol": "-1"}),
        (["uduality", "fiber-product", "--bound", "1"], {**_ONE_POINT, "tol": "abc"}),
        (["uduality", "fiber-product", "--bound", "1", "--budget", "abc"], _ONE_POINT),
        (["uduality", "fiber-product", "--bound", "x"], _ONE_POINT),
        (["uduality", "fiber-product", "--bound", "1"], {**_ONE_POINT, "tol": -1}),
        (["taming", "validate"], {**_TAMING, "tol": -1}),
        (["taming", "validate", "--tol=-1e-9"], _TAMING),
        (["taming", "push", "--tol", "1"], {"taming": _TAMING, "gamma": _TAMING["omega"]}),
        (["field", "scalar-rhs", "--tol", "1"], _FIELD),
        (["uduality", "fiber-product", "--bound", "1", "--tol", "0"], _ONE_POINT),
    ],
    ids=["tol-nan", "tol-negative", "tol-text", "budget-text", "bound-text",
         "model-tol-negative", "json-tol-negative", "option-tol-negative",
         "option-tol-push", "option-tol-field", "option-tol-fiber-product"],
)
def test_bad_option_and_tol_values_exit_one(argv, payload, capsys):
    """Option values and JSON tolerances: one JSON error line, exit 1.

    The JSON "tol" field is the one way to pass a tolerance: a --tol
    option is an unknown argument.
    """
    code = cli.main(argv + ["--json", json.dumps(payload)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    assert set(json.loads(captured.out)) == {"error"}


_HUGE = "9" * 400
_HUGE_OMEGA = {"entries": [["0", _HUGE], ["-" + _HUGE, "0"]]}
_HUGE_GAMMA = {"entries": [["1", _HUGE], ["0", "1"]]}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["taming", "validate"], {**_TAMING, "omega": _HUGE_OMEGA}),
        (["taming", "push"], {"taming": _TAMING, "gamma": _HUGE_GAMMA}),
        (["field", "transform"], {**_FIELD, "gamma": _HUGE_GAMMA}),
        (["uduality", "fiber-product", "--bound", "1"], {**_ONE_POINT, "omega": _HUGE_OMEGA}),
        (["taming", "from-siegel"], {"Z": {"X": [[0.0]], "Y": [[2.0]]}, "omega": _HUGE_OMEGA}),
    ],
    ids=["taming-validate", "taming-push", "field-transform", "fiber-product", "from-siegel"],
)
def test_integers_past_the_float_range_exit_one(argv, payload, capsys):
    code, out = _run_main(argv + ["--json", json.dumps(payload)], capsys)
    assert code == 1
    assert out == {"error": "matrix entry is too large for a float"}


@pytest.mark.parametrize("entry", [0.9, False, 0.0, "0.5", None])
def test_isometry_entries_are_integers(entry, capsys):
    payload = {**_ONE_POINT, "isometries": [[entry]]}
    code, out = _run_main(["uduality", "fiber-product", "--bound", "1", "--json", json.dumps(payload)], capsys)
    assert code == 1
    assert out == {"error": f"bad integer {entry!r} in scalar model"}


def test_isometry_entry_digit_string_is_an_integer(capsys):
    payload = {**_ONE_POINT, "isometries": [["0"]]}
    code, out = _run_main(["uduality", "fiber-product", "--bound", "1", "--json", json.dumps(payload)], capsys)
    assert code == 0 and out["count"] == 4


def _type_12_model(omega=standard_gram(LatticeType((1, 2)))):
    return {
        "points": 1,
        "isometries": [[0]],
        "omega": jsonio.encode_integer_matrix(omega),
        "tamings": [standard_taming_matrix(2).tolist()],
    }


def test_fiber_product_reads_the_type_of_omega(capsys):
    """Omega_(1,2): 16 elements of Sp_(1,2), not 32 of Sp(4, Z)."""
    argv = ["uduality", "fiber-product", "--bound", "1", "--json", json.dumps(_type_12_model())]
    code, out = _run_main(argv, capsys)
    assert code == 0
    assert out["count"] == 16 and out["closure"]["closed"]
    t = LatticeType((1, 2))
    rotations = [jsonio.decode_integer_matrix(e["rotation"]) for e in out["elements"]]
    assert all(sp_type_membership(U, t) for U in rotations)


def test_fiber_product_refuses_omega_of_no_type(capsys):
    """diag(2, 1) is no divisor chain: one JSON line, exit 2."""
    omega = IntegerMatrix([[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]])
    argv = ["uduality", "fiber-product", "--bound", "1", "--json", json.dumps(_type_12_model(omega))]
    code, out = _run_main(argv, capsys)
    assert code == 2
    assert out == {"error": "omega is not Omega_t for a divisor chain t", "kind": "NotSymplectic"}


_SIEGEL_T12 = {"X": [[0.0, 0.0], [0.0, 0.0]], "Y": [[1.0, 0.0], [0.0, 2.0]]}


def _from_siegel(Z, entries, capsys):
    payload = {"Z": Z, "omega": {"entries": entries}}
    return _run_main(["taming", "from-siegel", "--json", json.dumps(payload)], capsys)


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 1], [-1, 0], [0, 0], [0, 0]],
        [[0, 1, 0, 0], [-1, 0, 0, 0]],
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    ],
    ids=["tall", "wide", "odd"],
)
def test_from_siegel_refuses_omega_of_bad_shape(entries, capsys):
    code, out = _from_siegel({"X": [[0.0]], "Y": [[2.0]]}, entries, capsys)
    assert code == 1
    assert out["kind"] == "DimensionMismatch"


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 0, 1, 1], [0, 0, 1, 3], [-1, -1, 0, 0], [-1, -3, 0, 0]],
        [[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]],
    ],
    ids=["T-not-diagonal", "T-diag-2-1"],
)
def test_from_siegel_refuses_omega_outside_frobenius_form(entries, capsys):
    """The fiber product's rule: omega must be Omega_t for a divisor chain t."""
    code, out = _from_siegel(_SIEGEL_T12, entries, capsys)
    assert code == 2
    assert out == {"error": "omega is not Omega_t for a divisor chain t", "kind": "NotSymplectic"}


def test_from_siegel_answers_omega_of_type_12(capsys):
    """Z = i diag(1, 2) over Omega_(1,2) gives the standard taming, Q = diag(1, 2, 1, 2)."""
    omega = jsonio.encode_integer_matrix(standard_gram(LatticeType((1, 2))))
    code, out = _from_siegel(_SIEGEL_T12, omega["entries"], capsys)
    assert code == 0
    assert out["J"] == standard_taming_matrix(2).tolist()
    assert out["Q"] == np.diag([1.0, 2.0, 1.0, 2.0]).tolist()


@pytest.mark.parametrize("orientation", [True, 1.0, -1.0])
def test_orientation_is_an_integer(orientation, capsys):
    frame = {**_FIELD["frame"], "orientation": orientation}
    code, out = _run_main(["field", "star", "--json", json.dumps({"frame": frame})], capsys)
    assert code == 1
    assert out == {"error": f"bad integer {orientation!r} in frame"}


@pytest.mark.parametrize("orientation", [1, -1])
def test_orientation_digit_string_is_an_integer(orientation, capsys):
    answers = []
    for value in (orientation, str(orientation)):
        frame = {**_FIELD["frame"], "orientation": value}
        answers.append(_run_main(["field", "star", "--json", json.dumps({"frame": frame})], capsys))
    assert answers[0] == answers[1] and answers[0][0] == 0


def test_tol_zero_is_exact_mode(capsys):
    argv = ["uduality", "fiber-product", "--bound", "1", "--json", json.dumps({**_ONE_POINT, "tol": 0})]
    code, out = _run_main(argv, capsys)
    assert code == 0
    assert out["count"] == 4 and out["closure"]["closed"]


def test_field_calls_accept_every_constructed_taming(capsys):
    """A taming that passes its constructor is not refused again downstream."""
    tm = random_taming(random.Random(1037), LatticeType((2, 6)), eps=1e-5)
    sample = random_field_sample(random.Random(1), 2)
    payload = {
        "frame": _FIELD["frame"],
        "taming": jsonio.encode_taming(tm),
        "F_sample": jsonio.encode_field_sample(sample),
    }
    for action in ("project", "residual", "stress"):
        code, out = _run_main(["field", action, "--json", json.dumps(payload)], capsys)
        assert code == 0, out


_S_GEN = {"generators": [{"entries": [["0", "-1"], ["1", "0"]]}], "t": [1]}


@pytest.mark.parametrize("budget", ["-1", "0"], ids=["option-negative", "option-zero"])
def test_bad_budget_exit_one(budget, capsys):
    argv = ["uduality", "centralizer", "--bound", "3", "--budget", budget, "--json", json.dumps(_S_GEN)]
    code, out = _run_main(argv, capsys)
    assert code == 1
    assert out == {"error": f"budget must be positive, got {budget}"}


@pytest.mark.parametrize("action", ["centralizer", "fiber-product"])
def test_budget_is_checked_before_the_request(action, capsys):
    code, out = _run_main(["uduality", action, "--budget", "0", "--json", "[]"], capsys)
    assert code == 1
    assert out == {"error": "budget must be positive, got 0"}


_UDUALITY_REQUESTS = {
    "commutant": _S_GEN,
    "centralizer": _S_GEN,
    "fiber-product": _ONE_POINT,
    "ad": {"isometry": 0, "rotation": _S_GEN["generators"][0], "torus": ["1/2", "0"]},
}


@pytest.mark.parametrize("action", sorted(_UDUALITY_REQUESTS))
@pytest.mark.parametrize(
    "option,message",
    [
        (["--bound", "0"], "bound must be at least 1"),
        (["--budget", "0"], "budget must be positive, got 0"),
        (["--budget", "-4"], "budget must be positive, got -4"),
    ],
    ids=["bound-zero", "budget-zero", "budget-negative"],
)
def test_every_uduality_action_checks_bound_and_budget(action, option, message, capsys):
    request = json.dumps(_UDUALITY_REQUESTS[action])
    assert _run_main(["uduality", action, "--json", request], capsys)[0] == 0
    code, out = _run_main(["uduality", action, *option, "--json", request], capsys)
    assert (code, out) == (1, {"error": message})


def test_budget_environment_variable_is_ignored(monkeypatch, capsys):
    """--budget is the one budget knob; SIEGELKIT_BUDGET is not read."""
    monkeypatch.setenv("SIEGELKIT_BUDGET", "10")
    argv = ["uduality", "centralizer", "--bound", "40", "--json", json.dumps(_S_GEN)]
    code, out = _run_main(argv, capsys)
    assert code == 0
    assert out["count"] == 4


def _dsz_payload(coefficients):
    c = two_torus_complex(None, None, LatticeType((1,)))
    return {"complex": jsonio.encode_complex(c), "class": {"coefficients": coefficients}}


@pytest.mark.parametrize("bad", ["1e5000", "0.5", "1e-5", "1/0", "1/-2", " 1", "+1", 1.0, True])
def test_dsz_refuses_non_rational_strings(bad, capsys):
    argv = ["cohomology", "dsz", "--json", json.dumps(_dsz_payload([bad, "1"]))]
    code, out = _run_main(argv, capsys)
    assert code == 1
    assert out == {"error": f"bad rational {bad!r} in charge class"}


def test_dsz_accepts_documented_rationals(capsys):
    argv = ["cohomology", "dsz", "--json", json.dumps(_dsz_payload(["-3", 4]))]
    assert _run_main(argv, capsys) == (0, {"coordinates": [-3, 4], "integral": True})
    argv = ["cohomology", "dsz", "--json", json.dumps(_dsz_payload(["-6/2", "1/2"]))]
    assert _run_main(argv, capsys) == (2, {"coordinates": None, "integral": False})


def test_integer_literal_past_digit_limit_exit_one(capsys):
    text = json.dumps(_dsz_payload(["0", "1"])).replace('"0"', "1" * 5000)
    code, out = _run_main(["cohomology", "dsz", "--json", text], capsys)
    assert code == 1
    assert out["error"].startswith("input is not valid JSON")
    # A digit string past the limit is refused as well.
    argv = ["cohomology", "dsz", "--json", json.dumps(_dsz_payload(["9" * 4301, "1"]))]
    code, out = _run_main(argv, capsys)
    assert code == 1
    assert out["error"].startswith("bad rational")


@pytest.mark.parametrize("output", ["json", "text"])
def test_output_integers_past_digit_limit(output, capsys):
    """Inputs at the digit limit give a longer answer, printed whole."""
    c = two_sphere_complex(LatticeType((1,)))
    request = {"complex": jsonio.encode_complex(c), "class": {"coefficients": ["9" * 4300] * 4}}
    argv = ["cohomology", "dsz", "--output", output, "--json", json.dumps(request)]
    assert cli.main(argv) == 0
    twice = "1" + "9" * 4299 + "8"  # 2 (10^4300 - 1), 4301 digits
    expected = {
        "json": f'{{"coordinates": [{twice}, {twice}], "integral": true}}\n',
        "text": f"coordinates:\n  {twice}\n  {twice}\nintegral: True\n",
    }
    assert capsys.readouterr().out == expected[output]
    # The limit is back for the next input.
    with pytest.raises(ValueError):
        int(twice)


def test_encoded_matrices_and_rationals_past_digit_limit(capsys):
    """Matrix entries and rationals of an answer are encoded whole too."""
    nines, sevens = "9" * 4300, "7" * 4300
    x = {
        "translation": [f"1/{nines}", f"1/{sevens}"],
        "rotation": {"entries": [["1", nines], ["0", "1"]]},
        "t": [1],
    }
    argv = ["aff", "compose", "--json", json.dumps({"x": x, "y": x})]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    with jsonio.whole_integers():
        got = jsonio.decode_aff(json.loads(out))
        want = aff_compose(jsonio.decode_aff(x), jsonio.decode_aff(x))
    assert got == want
    # 2 (10^4300 - 1) has 4301 digits; the translation's denominator more.
    assert got.rotation[0, 1] == 2 * (10**4300 - 1)
    assert got.translation[0].denominator > 10**4300
