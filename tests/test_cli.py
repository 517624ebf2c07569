import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from siegelkit import jsonio
from siegelkit.exact_linalg import IntegerMatrix
from siegelkit.local_systems import charge_lattice_basis, two_sphere_complex
from siegelkit.polarization import Taming, standard_taming_matrix
from siegelkit.siegel_group import AffineSymplectomorphism
from siegelkit.symplectic_lattices import LatticeType, standard_gram, standard_space
from siegelkit.uduality import UDualityElement


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
    space = standard_space(LatticeType((1, 2)))
    proc = run_cli(["lattice", "type"], jsonio.encode_space(space))
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


def test_selftest_deterministic():
    a = run_cli(["selftest", "--seed", "7"])
    b = run_cli(["selftest", "--seed", "7"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.count("PASS") == 13


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
    space = standard_space(LatticeType((1,)))
    proc = run_cli(["lattice", "type", "--output", "text"], jsonio.encode_space(space))
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
