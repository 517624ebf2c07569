"""Property test: every ``cohomology dsz`` request gets one JSON line."""

import contextlib
import io
import json

import pytest

from siegelkit import cli, jsonio
from siegelkit.local_systems import two_sphere_complex, two_torus_complex
from siegelkit.symplectic_lattices import LatticeType

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


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(complex_index=st.sampled_from(range(len(COMPLEXES))), cls=CLASSES)
def test_dsz_answers_with_one_json_line(complex_index, cls):
    request = json.dumps({"complex": COMPLEXES[complex_index], "class": cls})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["cohomology", "dsz", "--json", request])
    assert code in (0, 1, 2)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    json.loads(text)
