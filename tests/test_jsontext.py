"""The artifact JSON writer against the stdlib's indent=2 encoding, and the
CSV writer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from summand_lab.jsontext import Verbatim, csv_text, json_text


def reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 1e-7, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_strings = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé €\U0001f600 ab'),
)
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _floats, _strings)
_keys = st.one_of(_strings, st.integers(), _floats, st.booleans(), st.none())
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(_floats, max_size=8),
        st.dictionaries(_keys, inner, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_values)
def test_matches_stdlib_indent_2(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}]},
        [1.5, -0.0, 5e-324, 1e300, np.float64(0.1)],
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
        "é \x00\"\\",
    ],
)
def test_edge_cases_match_stdlib(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [0.5, x], lambda x: {"k": [x]}, lambda x: {x: 1}])
def test_non_finite_floats_raise(bad, wrap):
    with pytest.raises(ValueError, match="Out of range float values"):
        reference(wrap(bad))
    with pytest.raises(ValueError, match="Out of range float values"):
        json_text(wrap(bad))


@pytest.mark.parametrize("bad", [{1, 2}, {"k": object()}, {(1, 2): 3}])
def test_unencodable_values_raise_type_error(bad):
    with pytest.raises(TypeError):
        json_text(bad)


def test_verbatim_text_goes_in_as_it_stands():
    raw = '{"b": [1.0e0,\n    2], "a":"\\u00e9"}'
    obj = {"x": Verbatim(raw), "y": [Verbatim(raw), "plain", Verbatim("3")]}
    assert json_text(obj) == (
        '{\n  "x": ' + raw + ',\n  "y": [\n    ' + raw + ',\n    "plain",\n    3\n  ]\n}'
    )
    # a Verbatim is still a str to everything else
    assert json.loads(json_text(obj)) == {"x": json.loads(raw), "y": [json.loads(raw), "plain", 3]}
    assert json_text(Verbatim(raw)) == raw


def test_csv_text_writes_floats_by_repr():
    rows = [(0.1, None, 3), (-5e-324, "a,b", True), (1e16, 2.0, -0.0)]
    assert csv_text(("x", "y", "z"), iter(rows)) == (
        'x,y,z\n0.1,,3\n-5e-324,"a,b",True\n1e+16,2.0,-0.0\n')
