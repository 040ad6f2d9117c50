"""problem_io writes documents with its own writer, in json.dumps(indent=2)'s
layout byte for byte: the stdlib's indenting encoder is pure Python, and
the writer spends its time on the float reprs alone."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from io_recover import cli, problem_io

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _standard(value):
    """value as the stdlib can write it: numpy values as Python values, tuples
    as lists and every non-finite float as None."""
    if isinstance(value, dict):
        return {key: _standard(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_standard(item) for item in value]
    if isinstance(value, np.ndarray):
        return _standard(value.tolist())
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


_EDGES = st.sampled_from([5e-324, -5e-324, -0.0, 0.0, 1e308, -1e308, 1e16, 1e-7, math.inf, -math.inf, math.nan])
_FLOATS = st.floats() | _EDGES
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**63, 2**200)
    | _FLOATS
    | st.text()
    | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀 a'))
    | _FLOATS.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
_ARRAYS = (
    st.lists(_FLOATS, max_size=6).map(lambda v: np.array(v, dtype=float))
    | st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=3).map(lambda v: np.array(v, dtype=float).reshape(-1, 2))
    | st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(lambda v: np.array(v, dtype=np.int64))
    | st.lists(st.booleans(), max_size=4).map(np.array)
)
_VALUES = st.recursive(
    _SCALARS | _ARRAYS | st.lists(_FLOATS, max_size=8),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=30,
)


@given(_VALUES)
@settings(derandomize=True, max_examples=400, deadline=None)
def test_writer_matches_the_stdlib(value):
    assert problem_io._text(value) == json.dumps(_standard(value), indent=2, allow_nan=False)


@pytest.mark.parametrize("value, text", [
    ([1.0, math.inf, -math.inf, math.nan], "[\n  1.0,\n  null,\n  null,\n  null\n]"),
    (np.array([[0.5], [np.nan]]), "[\n  [\n    0.5\n  ],\n  [\n    null\n  ]\n]"),
    ({"a": [], "b": {}, "c": ()}, '{\n  "a": [],\n  "b": {},\n  "c": []\n}'),
    (np.float64(-np.inf), "null"),
])
def test_non_finite_numbers_are_null(value, text):
    assert problem_io._text(value) == text


def test_unwritable_value_raises_type_error():
    with pytest.raises(TypeError):
        problem_io._text({"a": {1, 2}})


def _stdlib_layout(path):
    text = path.read_text(encoding="utf-8")
    return text, json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("number", range(1, 9))
def test_cli_documents_keep_the_stdlib_layout(tmp_path, capsys, number):
    problem = str(FIXTURES / f"example{number}.json")
    solved, regions = tmp_path / "solution.json", tmp_path / "regions.json"
    assert cli.main(["solve", "--input", problem, "--output", str(solved)]) in (0, 3)
    written, expected = _stdlib_layout(solved)
    assert written == expected
    for extra in ([], ["--solution", str(solved)]):
        argv = ["regions", "--input", problem, "--bbox=-8,-8,8,8", "--output", str(regions)] + extra
        assert cli.main(argv) == 0
        written, expected = _stdlib_layout(regions)
        assert written == expected
