"""Property tests: every request to every action gets one JSON line."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

from siegelkit import cli, jsonio
from siegelkit.exact_linalg import IntegerMatrix
from siegelkit.local_systems import two_sphere_complex, two_torus_complex
from siegelkit.symplectic_lattices import LatticeType, standard_gram

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

T1 = LatticeType((1,))
COMPLEXES = [
    jsonio.encode_complex(two_sphere_complex(T1)),
    jsonio.encode_complex(two_torus_complex(None, None, T1)),
]

RATIONALS = st.integers(min_value=-(10**40), max_value=10**40) | st.from_regex(
    r"-?[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True
)
LEAVES = st.none() | st.booleans() | st.floats() | st.text(max_size=8) | RATIONALS
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=12), inner, max_size=3),
    max_leaves=12,
)
CLASSES = JSON_VALUES | st.builds(
    lambda coeffs: {"coefficients": coeffs},
    # Lists of well-formed rationals of both lengths reach a verdict.
    JSON_VALUES
    | st.lists(LEAVES, min_size=2, max_size=4)
    | st.lists(RATIONALS, min_size=2, max_size=4),
)


def _answer(argv):
    """(exit code, stdout) of ``siegel-kit argv``, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _one_json_line(text):
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(complex_index=st.sampled_from(range(len(COMPLEXES))), cls=CLASSES)
def test_dsz_answers_with_one_json_line(complex_index, cls):
    request = json.dumps({"complex": COMPLEXES[complex_index], "class": cls})
    code, text = _answer(["cohomology", "dsz", "--json", request])
    assert code in (0, 1, 2)
    _one_json_line(text)


OMEGA = {"entries": [["0", "1"], ["-1", "0"]]}
J0 = [[0.0, -1.0], [1.0, 0.0]]
TAMING = {"J": J0, "omega": OMEGA}
SHEAR = {"entries": [["1", "1"], ["0", "1"]]}
GRAM = {"entries": [[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -2, 0, 0]]}
AFF = {"translation": ["1/2", "0"], "rotation": SHEAR, "t": [1]}
FRAME = {"g": [[-1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]}
FIELD = {
    "frame": FRAME,
    "taming": TAMING,
    "F_sample": {"F": [[0.1 * (i + j) for j in range(2)] for i in range(6)]},
}
TORUS = jsonio.encode_complex(two_torus_complex(IntegerMatrix([[1, 2], [0, 1]]), None, T1))
FIELD_GAMMA = {**FIELD, "gamma": SHEAR}
HOLONOMY = {"generators": [{"entries": [["0", "-1"], ["1", "0"]]}], "t": [1]}
MODEL = {"points": 1, "isometries": [[0]], "omega": OMEGA, "tamings": [J0]}

# One valid request per action: the seeds the fuzz test mutates.
VALID = {
    ("lattice", "type"): {"gram": GRAM},
    ("lattice", "frobenius"): {"gram": GRAM},
    ("lattice", "member"): {"gamma": SHEAR, "t": [1]},
    ("lattice", "isom"): {"a": {"gram": GRAM}, "b": {"gram": GRAM}},
    ("aff", "compose"): {"x": AFF, "y": AFF},
    ("aff", "inverse"): AFF,
    ("aff", "act"): {"x": AFF, "p": {"coords": ["1/3", "0"], "t": [1]}},
    ("aff", "rep"): AFF,
    ("taming", "validate"): TAMING,
    ("taming", "from-siegel"): {"Z": {"X": [[0.0]], "Y": [[2.0]]}, "omega": OMEGA},
    ("taming", "push"): {"taming": TAMING, "gamma": SHEAR},
    ("field", "star"): {"frame": FRAME},
    ("field", "project"): FIELD,
    ("field", "residual"): FIELD,
    ("field", "stress"): FIELD,
    ("field", "scalar-rhs"): {**FIELD, "psi": {"components": [[[1.0, 0.0], [0.0, -1.0]]]}},
    ("field", "transform"): FIELD_GAMMA,
    ("cohomology", "validate"): TORUS,
    ("cohomology", "compute"): TORUS,
    ("cohomology", "charge-lattice"): TORUS,
    ("cohomology", "dsz"): {"complex": TORUS, "class": {"coefficients": [1, 2]}},
    ("uduality", "commutant"): HOLONOMY,
    ("uduality", "centralizer"): HOLONOMY,
    ("uduality", "fiber-product"): MODEL,
    ("uduality", "ad"): {"isometry": 0, "rotation": SHEAR, "torus": ["1/2", "0"]},
}
ACTIONS = [(c, a) for c, actions in cli.COMMANDS.items() for a in actions]


def _paths(value, path=()):
    """Every position in a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _holds(container, step):
    if isinstance(container, dict):
        return step in container
    return isinstance(container, list) and isinstance(step, int) and step < len(container)


PATHS = {action: list(_paths(request)) for action, request in VALID.items()}
DELETE = object()
NUMBER_TEXT = st.sampled_from(
    ["nan", "-inf", "Infinity", "1e400", "1e308", "-0", "1/0", ""]
)
REPLACEMENTS = st.just(DELETE) | NUMBER_TEXT | JSON_VALUES


def test_every_action_has_a_valid_request():
    assert sorted(VALID) == sorted(ACTIONS)
    for command, action in ACTIONS:
        request = json.dumps(VALID[command, action])
        code, text = _answer([command, action, "--json", request])
        assert code == 0, (command, action, text)
        assert "error" not in _one_json_line(text)


@hypothesis.settings(max_examples=600, deadline=None)
@hypothesis.given(data=st.data())
def test_every_action_answers_mutated_requests_with_one_json_line(data):
    """A valid request with up to three positions replaced by arbitrary JSON."""
    command, action = data.draw(st.sampled_from(ACTIONS), label="action")
    request = copy.deepcopy(VALID[command, action])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(PATHS[command, action]), label="path")
        value = data.draw(REPLACEMENTS, label="value")
        if not path:
            request = None if value is DELETE else value
            continue
        parent = request
        for step in path[:-1]:
            parent = parent[step] if _holds(parent, step) else None
        if not _holds(parent, path[-1]):
            continue  # an earlier mutation removed this position
        if value is DELETE and isinstance(parent, dict):
            del parent[path[-1]]
        elif value is not DELETE:
            parent[path[-1]] = value
    code, text = _answer([command, action, "--json", json.dumps(request)])
    assert code in (0, 1, 2, 3)
    _one_json_line(text)


SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (4, 2), (2, 4), (4, 4), (6, 6), (6, 2), (2, 6)]


def _filling(kind, rows, cols):
    """A rows x cols integer matrix: zeros, an identity, an Omega pattern or ones."""
    h = max(rows, cols) // 2
    entry = {
        "zeros": lambda i, j: 0,
        "identity": lambda i, j: int(i == j),
        "omega": lambda i, j: (j == i + h) - (i == j + h),
        "ones": lambda i, j: 1,
    }[kind]
    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def _is_number(x):
    return isinstance(x, (int, float, str)) and not isinstance(x, bool)


def _matrix_paths(value, path=()):
    """The positions of the integer matrices ("entries") and float matrices in a request."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "entries":
                yield path + (key,)
            else:
                yield from _matrix_paths(item, path + (key,))
    elif isinstance(value, list):
        if value and all(
            isinstance(row, list) and row and all(map(_is_number, row)) for row in value
        ):
            yield path
        else:
            for i, item in enumerate(value):
                yield from _matrix_paths(item, path + (i,))


@pytest.mark.parametrize("command,action", ACTIONS, ids=[f"{c}-{a}" for c, a in ACTIONS])
def test_every_matrix_of_every_shape_answers_with_one_json_line(command, action):
    """Each matrix of a valid request in turn, replaced by every shape and filling."""
    request = VALID[command, action]
    paths = list(_matrix_paths(request))
    assert paths
    for path in paths:
        for rows, cols in SHAPES:
            for kind in ("zeros", "identity", "omega", "ones"):
                mutated = _with(request, path, _filling(kind, rows, cols))
                code, text = _answer([command, action, "--json", json.dumps(mutated)])
                assert code in (0, 1, 2, 3), (path, rows, cols, kind)
                _one_json_line(text)


def _with(request, path, value):
    request = copy.deepcopy(request)
    parent = request
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return request


# Inputs that once ended in a traceback or in a silent NaN or truncation,
# each with the kind of its validation refusal (exit 2), or None for
# malformed input (exit 1). A test id keeps the input's index here.
FIXED = [
    ("field", "star", ("frame", "g", 0, 3), "-inf", None),
    ("taming", "validate", ("J",), [["nan", "0"], ["0", "nan"]], None),
    ("taming", "validate", ("J",), [[True, -1], [1, False]], None),
    ("taming", "validate", ("J",), [[None, -1], [1, 0]], None),
    ("taming", "validate", ("J",), [["1e400", -1], [1, 0]], None),
    ("taming", "validate", ("tol",), 10**400, None),
    ("uduality", "commutant", ("generators",), 3, None),
    ("uduality", "centralizer", ("generators",), 3, None),
    ("uduality", "fiber-product", ("tamings",), 3, None),
    ("uduality", "fiber-product", ("points",), 10**9, "InvalidModel"),
    ("cohomology", "compute", ("boundaries",), 3, None),
    ("cohomology", "validate", ("transports",), 3, None),
    ("cohomology", "charge-lattice", ("transports",), None, None),
    ("cohomology", "validate", ("words",), 3, None),
    ("cohomology", "compute", ("cells",), [1, 10**21], None),
    ("cohomology", "compute", ("cells",), [1, 10**9, 1], "InvalidComplex"),
    ("cohomology", "dsz", ("complex", "cells"), [1, 2, 10**21], "InvalidComplex"),
]


def _fixed(exit_two):
    cases = [(i, *case) for i, case in enumerate(FIXED) if (case[-1] is not None) == exit_two]
    ids = [f"{c}-{a}-{'.'.join(map(str, p))}-{i}" for i, c, a, p, *_ in cases]
    return pytest.mark.parametrize(
        "command,action,path,value,kind", [case[1:] for case in cases], ids=ids
    )


@_fixed(exit_two=False)
def test_fixed_inputs_exit_one_with_one_json_line(command, action, path, value, kind):
    request = _with(VALID[command, action], path, value)
    code, text = _answer([command, action, "--json", json.dumps(request)])
    assert code == 1
    assert set(_one_json_line(text)) == {"error"}


@_fixed(exit_two=True)
def test_fixed_inputs_exit_two_with_their_kind(command, action, path, value, kind):
    request = _with(VALID[command, action], path, value)
    code, text = _answer([command, action, "--json", json.dumps(request)])
    assert code == 2
    payload = _one_json_line(text)
    assert payload.keys() == {"error", "kind"} and payload["kind"] == kind


def test_deeply_nested_input_exits_one():
    code, text = _answer(["lattice", "type", "--json", "[" * 100000 + "]" * 100000])
    assert code == 1
    assert set(_one_json_line(text)) == {"error"}


def test_taming_past_the_float_square_exits_two_with_report():
    """A finite entry whose square overflows fails validation; it does not raise."""
    request = _with(TAMING, ("J", 0, 0), 1e308)
    code, text = _answer(["taming", "validate", "--json", json.dumps(request)])
    assert code == 2
    report = _one_json_line(text)
    assert report["passed"] is False and len(report["checks"]) == 4


BIG = 1.7e308  # finite, but twice it is not
OMEGA_4 = jsonio.encode_integer_matrix(standard_gram(LatticeType((1, 2))))
OMEGA_8 = jsonio.encode_integer_matrix(standard_gram(LatticeType((1, 1, 1, 1))))
OVERFLOWING = [
    ("field", "star", _with(VALID["field", "star"], ("frame", "g", 1, 1), BIG)),
    ("field", "project", _with(FIELD, ("F_sample", "F"), [[BIG, BIG]] * 6)),
    ("field", "transform", _with(FIELD_GAMMA, ("F_sample", "F"), [[BIG, BIG]] * 6)),
    # Q = Omega J itself overflows.
    (
        "taming",
        "validate",
        {
            "J": [[0, 0, -1, 0], [BIG, 0, 0, -0.5], [1, 0, 0, 0], [0, 2, 0, 0]],
            "omega": OMEGA_4,
        },
    ),
    (
        "taming",
        "from-siegel",
        {
            "Z": {"X": [[0] * 4] * 4, "Y": np.diag([1, 1, BIG, 1]).tolist()},
            "omega": OMEGA_8,
        },
    ),
]


@pytest.mark.parametrize(
    "command,action,request_",
    OVERFLOWING,
    ids=[f"{c}-{a}-{i}" for i, (c, a, _) in enumerate(OVERFLOWING)],
)
def test_overflowing_finite_inputs_answer_with_one_json_line(command, action, request_):
    """Finite entries whose sums or products overflow are answered, never raised."""
    code, text = _answer([command, action, "--json", json.dumps(request_)])
    assert code in (0, 1, 2, 3)
    _one_json_line(text)


def test_positivity_of_a_finite_q_whose_sum_overflows():
    """Q = Omega J = diag(1, 1, BIG, 2) is finite and positive, though Q + Q^T is not."""
    J = [[0, 0, -BIG, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    request = {"J": J, "omega": OMEGA_4}
    code, text = _answer(["taming", "validate", "--json", json.dumps(request)])
    checks = {c["name"]: c for c in _one_json_line(text)["checks"]}
    assert code in (0, 2)
    assert checks["q_positive"] == {"name": "q_positive", "passed": True, "residual": 1.0}
