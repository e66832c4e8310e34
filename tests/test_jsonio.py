import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freeholo
from freeholo import cli
from freeholo.errors import SchemaError
from freeholo.freepoly import FreePoly, GradedPoint, PolyMatrix
from freeholo.jsonio import SCHEMA_VERSION, decode, dumps, load, load_json, load_list
from freeholo.mat import matrix_to_json


def test_schema_version_string():
    assert SCHEMA_VERSION == "freeholo/1"


def test_schema_version_defined_once():
    assert freeholo.SCHEMA_VERSION is SCHEMA_VERSION


def test_load_roundtrip(tmp_path):
    p = tmp_path / "pt.json"
    x = GradedPoint([np.array([[0.5, 1.0j], [0.0, -0.25]])])
    p.write_text(json.dumps(x.to_json()))
    again = load("gradedpoint", str(p))
    np.testing.assert_array_equal(again.mats[0], x.mats[0])


def test_load_list(tmp_path):
    p = tmp_path / "pts.json"
    pts = [GradedPoint.scalars([v]) for v in (0.1, 0.2)]
    p.write_text(json.dumps([q.to_json() for q in pts]))
    again = load_list("gradedpoint", str(p))
    assert len(again) == 2
    assert again[1].mats[0][0, 0] == pytest.approx(0.2)


def test_load_list_rejects_nonarray(tmp_path):
    p = tmp_path / "notalist.json"
    p.write_text(json.dumps({"a": 1}))
    with pytest.raises(SchemaError):
        load_list("gradedpoint", str(p))


def test_missing_file_is_schema_error():
    with pytest.raises(SchemaError):
        load_json("/nonexistent/nothing.json")


def test_malformed_payloads():
    with pytest.raises(SchemaError):
        decode("cmatrix", {"rows": 1})
    with pytest.raises(SchemaError):
        decode("nosuchkind", {})
    with pytest.raises(SchemaError):
        decode("freepoly", {"d": 1, "terms": "oops"})
    term = {"coeff": matrix_to_json(np.eye(1)), "word": [1]}
    mp = {"d": 1, "out_dim": 1, "in_dim": 1, "terms": [term]}
    decode("matrixpoly", mp)
    for key, bad in [("d", 1.0), ("out_dim", True), ("in_dim", "1")]:
        with pytest.raises(SchemaError, match="must be an integer"):
            decode("matrixpoly", {**mp, key: bad})
    with pytest.raises(SchemaError, match="word letter must be an integer"):
        decode("matrixpoly", {**mp, "terms": [{**term, "word": [1.0]}]})
    # a word listed twice gets the sum of its coefficients, as in a freepoly
    twice = [term, {**term, "coeff": matrix_to_json(2 * np.eye(1))}]
    assert decode("matrixpoly", {**mp, "terms": twice}).terms[(1,)] == 3.0
    fp = {"d": 1, "terms": [{"word": [1], "coeff": [1.0, 0.0]}, {"word": [1], "coeff": [2.0, 0.0]}]}
    assert decode("freepoly", fp).terms == {(1,): 3.0}


def test_non_finite_polynomial_coefficients_are_schema_errors():
    # as a freepoly and as an entry of a polymatrix
    for bad in (float("nan"), float("inf")):
        fp = {"d": 1, "terms": [{"word": [1], "coeff": [bad, 0.0]}]}
        with pytest.raises(SchemaError, match="finite"):
            decode("freepoly", json.loads(json.dumps(fp)))
        pm = {"rows": 1, "cols": 2, "d": 1, "entries": [[FreePoly.letter(1, 1).to_json(), fp]]}
        with pytest.raises(SchemaError, match="finite"):
            decode("polymatrix", pm)


def test_all_registered_kinds_roundtrip():
    cm = np.array([[1.0, 2.0j]])
    np.testing.assert_array_equal(decode("cmatrix", matrix_to_json(cm)), cm)
    fp = 2 * FreePoly.letter(2, 1) - 0.5j
    assert decode("freepoly", fp.to_json()) == fp
    pm = PolyMatrix.from_poly(fp)
    assert decode("polymatrix", pm.to_json()) == pm


def stdlib_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1.7e308, 0.1, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
KEYS = st.one_of(st.sampled_from(["", "a", 'q"uote', "back\\slash", "tab\tnew\nline", "\x00", "é", "€😀"]), st.text())


def documents(floats):
    """Nested JSON values whose floats come from ``floats``: dicts with str
    keys, lists, tuples, big integers, and lists of [re, im] pairs."""
    pairs = st.lists(st.lists(floats, min_size=2, max_size=2), max_size=5)
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=10**40),
        floats, st.text(),
    )
    return st.recursive(
        scalars | pairs,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(KEYS, children, max_size=4),
        ),
        max_leaves=24,
    )


@given(documents(FINITE))
@example({"a": {"data": [[1.0, -0.0], [5e-324, 1e308]], "rows": 1}, "b": [[[0.5, 0.25]]], "c": {}})
@example([[[1.0, 2.0]], [[1.0, 2]], [(1.0, 2.0)], [[True, 1.0]], [], ()])
@settings(max_examples=300, deadline=None)
def test_dumps_is_the_indented_stdlib_text(value):
    assert dumps(value) == stdlib_text(value)


@given(documents(FINITE | NON_FINITE), NON_FINITE)
@example({"pairs": [[1.0, math.nan]]}, math.inf)
@settings(max_examples=150, deadline=None)
def test_non_finite_floats_take_the_nulled_path(value, bad):
    report = {"value": value, "pairs": [[0.5, bad], [1.0, 2.0]]}
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps(report)
    assert cli._render(report) == stdlib_text(cli._nulled(report)) + "\n"


@pytest.mark.parametrize(
    "value",
    [{"a": object()}, [1, {2, 3}], {"n": np.int64(3)}, {(1,): 2}, {"c": 1j}],
    ids=["object", "set", "numpy-int", "tuple-key", "complex"],
)
def test_unsupported_types_raise_type_error(value):
    with pytest.raises(TypeError):
        stdlib_text(value)
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("key", [1, 0.5, None, True])
def test_keys_that_are_not_strings_raise_type_error(key):
    # json.dumps would write them as strings; no report has such a key
    with pytest.raises(TypeError):
        dumps({"a": {key: 1}})
