import json

import numpy as np
import pytest

import freeholo
from freeholo.errors import SchemaError
from freeholo.freepoly import FreePoly, GradedPoint, PolyMatrix
from freeholo.jsonio import SCHEMA_VERSION, decode, load, load_json, load_list
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
