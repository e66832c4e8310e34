"""End to end tests for the command line front end.

Each test builds its JSON inputs with the library's own serializers, invokes
``cli.main`` in process, and parses the report from stdout. Exit codes follow
the contract: 0 success, 1 mathematical rejection, 2 input problems.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freeholo
from conftest import count_grid_evaluations
from freeholo import cli, sampling
from freeholo.freepoly import (
    FreePoly,
    GradedPoint,
    MatrixPoly,
    PolyMatrix,
    commutator_delta,
)
from freeholo.jsonio import SCHEMA_VERSION, TENSOR_CONVENTION
from freeholo.mat import matrix_to_json
from freeholo.model import model_from_realization
from freeholo.realize import Realization, stack_column
from freeholo.sampling import random_realization, rng_from_seed

UNIT_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1))
FLAGSHIP = "2 + x1 - x1*x2*x1 + 3*x1*x1*x2"


def mobius(a):
    s = np.sqrt(1.0 - abs(a) ** 2)
    return Realization(
        UNIT_DISK, 1, 1, 1, np.array([[a, s], [s, -np.conj(a)]], dtype=complex)
    )


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None), out


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def matrices_json(mats):
    return [matrix_to_json(m) for m in mats]


def test_eval_flagship_value(tmp_path, capsys):
    point = write(tmp_path, "p.json", GradedPoint.scalars([1.0, 1.0]).to_json())
    code, rep, _ = run(
        ["eval", "--expr", FLAGSHIP, "--vars", "2", "--point", point], capsys
    )
    assert code == 0
    assert rep["value"]["rows"] == 1 and rep["value"]["cols"] == 1
    assert rep["value"]["data"] == [[5.0, 0.0]]
    assert rep["schema"] == SCHEMA_VERSION
    assert rep["convention"] == TENSOR_CONVENTION
    assert rep["tol"] == 1e-8 and rep["seed"] == 0
    assert rep["level"] == 1


def test_eval_out_flag_writes_file(tmp_path, capsys):
    point = write(tmp_path, "p.json", GradedPoint.scalars([1.0, 1.0]).to_json())
    out = tmp_path / "report.json"
    code, rep, raw = run(
        ["eval", "--expr", FLAGSHIP, "--vars", "2", "--point", point,
         "--out", str(out)],
        capsys,
    )
    assert code == 0 and raw == ""
    text = out.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["value"]["data"] == [[5.0, 0.0]]


def test_member_boundary_and_inside(tmp_path, capsys):
    delta = write(tmp_path, "delta.json", commutator_delta().to_json())
    scalars = write(tmp_path, "s.json", GradedPoint.scalars([1.0, 1.0]).to_json())
    code, rep, _ = run(["member", "--delta", delta, "--point", scalars], capsys)
    assert code == 0
    assert rep["status"] == "boundary"

    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    nil = write(tmp_path, "n.json", GradedPoint([e12, e12.T.copy()]).to_json())
    code, rep, _ = run(["member", "--delta", delta, "--point", nil], capsys)
    assert code == 0
    assert rep["status"] == "inside"
    assert rep["distance"] == pytest.approx(1.0)


def test_check_nc_expr(tmp_path, capsys):
    rng = np.random.default_rng(5)
    pts = [
        GradedPoint.scalars([0.3, 0.2]).to_json(),
        GradedPoint([0.3 * rng.standard_normal((2, 2)) for _ in range(2)]).to_json(),
    ]
    samples = write(tmp_path, "samples.json", pts)
    code, rep, _ = run(
        ["check-nc", "--expr", FLAGSHIP, "--vars", "2", "--samples", samples],
        capsys,
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["evaluator"] == "expr"
    assert rep["checks"] > 0
    assert rep["direct_sum_dev"] < 1e-10


def test_check_nc_realization_and_determinism(tmp_path, capsys):
    r = write(tmp_path, "r.json", mobius(0.5).to_json())
    pts = [
        GradedPoint.scalars([0.3]).to_json(),
        GradedPoint([np.diag([0.2, -0.4]).astype(complex)]).to_json(),
    ]
    samples = write(tmp_path, "samples.json", pts)
    argv = ["check-nc", "--realization", r, "--samples", samples]
    code, rep, raw1 = run(argv, capsys)
    assert code == 0
    assert rep["passed"] is True
    assert rep["evaluator"] == "realization"
    code, _, raw2 = run(argv, capsys)
    assert code == 0
    assert raw1 == raw2


def fit_samples(tmp_path, n_points=8):
    r = mobius(0.5)
    rng = np.random.default_rng(21)
    pts = []
    for i in range(n_points):
        n = 1 + (i % 2)
        while True:
            m = 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            if np.linalg.norm(m, 2) < 0.8:
                break
        pts.append(GradedPoint([m]))
    s = model_from_realization(r, pts)
    return write(tmp_path, "modelsamples.json", s.to_json())


def test_model_residual_cmd(tmp_path, capsys):
    samples = fit_samples(tmp_path)
    code, rep, _ = run(["model-residual", "--samples", samples], capsys)
    assert code == 0
    assert rep["residual"] < 1e-10
    assert rep["points"] == 8


def test_fit_cmd_and_determinism(tmp_path, capsys):
    samples = fit_samples(tmp_path)
    argv = ["fit", "--samples", samples]
    code, rep, raw1 = run(argv, capsys)
    assert code == 0
    assert rep["holdout_indices"] == [4]
    assert rep["gram_deviation"] < 1e-8
    assert rep["train_residual"] < 1e-8
    assert rep["holdout_deviation"] < 1e-8
    fitted = Realization.from_json(rep["realization"])
    assert fitted.delta.d == 1
    code, _, raw2 = run(argv, capsys)
    assert code == 0 and raw1 == raw2


def test_fit_gram_mismatch_exits_1(tmp_path, capsys):
    samples = fit_samples(tmp_path)
    payload = json.loads(pathlib.Path(samples).read_text())
    # corrupt one psi value so the positivity bookkeeping cannot hold
    payload["psi"][0]["data"][0][0] += 0.37
    bad = write(tmp_path, "bad.json", payload)
    code, rep, _ = run(["fit", "--samples", bad], capsys)
    assert code == 1
    assert rep["error"]["type"] == "GramMismatch"
    assert rep["error"]["deviation"] > 1e-3


def corona_payload():
    lam = 1.0
    c = lam * lam / (1.0 + lam * lam)
    eps = lam / np.sqrt(1.0 + lam * lam)
    mult = 16
    rng = np.random.default_rng(12)
    pts = []
    for n in [1, 1, 1, 2, 2, 1, 2, 3]:
        m = 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nrm = np.linalg.norm(m, 2)
        if nrm > 0.45:
            m *= 0.95 * 0.45 / nrm
        pts.append(GradedPoint([m]))
    psis = [
        [p.mats[0] for p in pts],
        [lam * (np.eye(p.n) - p.mats[0]) for p in pts],
    ]
    scale = np.sqrt(1.0 + lam * lam)
    us = []
    for p in pts:
        m = p.mats[0]
        blocks = [
            scale * np.linalg.matrix_power(m, i) @ (c * np.eye(p.n) - m)
            for i in range(mult)
        ]
        us.append(stack_column(blocks))
    return {
        "delta": UNIT_DISK.to_json(),
        "epsilon": eps,
        "mult": mult,
        "points": [p.to_json() for p in pts],
        "psis": [matrices_json(row) for row in psis],
        "u": matrices_json(us),
    }


def test_corona_cmd(tmp_path, capsys):
    payload = corona_payload()
    inp = write(tmp_path, "corona.json", payload)
    code, rep, _ = run(["corona", "--input", inp], capsys)
    assert code == 0
    assert rep["norm_bound"] == pytest.approx(1.0 / payload["epsilon"], rel=1e-12)
    assert rep["identity_residual"] < 1e-6
    assert rep["functions"] == 2


@pytest.mark.parametrize("cut", ["u", "psi", "mult0", "mult-1", "mult15", "no-psis", "no-points"])
def test_corona_length_mismatch_exits_2(tmp_path, capsys, cut):
    # input problems, not ShapeMismatch (exit 1) from the sample set or the solve
    payload = corona_payload()
    if cut == "u":
        payload["u"] = payload["u"][:-1]
    elif cut == "psi":
        payload["psis"][1] = payload["psis"][1][:-1]
    elif cut.startswith("mult"):
        payload["mult"] = int(cut[4:])  # u is made for mult 16
    elif cut == "no-psis":
        payload["psis"] = []
    else:
        payload.update(points=[], psis=[[], []], u=[])
    inp = write(tmp_path, "corona.json", payload)
    code, _, raw = run(["corona", "--input", inp], capsys)
    assert code == 2
    assert strict_loads(raw)["error"]["type"] == "SchemaError"


# (input file, path to an integer field in it, a non-integer value)
INTEGER_FIELDS = [
    ("delta", ("entries", 0, 0, "terms", 0, "word", 0), 1.9),
    ("delta", ("entries", 0, 0, "d"), 1.0),
    ("delta", ("rows",), True),
    ("delta", ("d",), "1"),
    ("point", ("n",), 1.0),
    ("point", ("d",), True),
    ("point", ("mats", 0, "cols"), "1"),
    ("realization", ("dimK1",), 1.0),
    ("realization", ("dimK2",), True),
    ("realization", ("mult",), 1.0),
    ("samples", ("h_dim",), 1.0),
    ("samples", ("k1_dim",), True),
    ("samples", ("k2_dim",), "1"),
    ("samples", ("mult",), 1.0),
    ("corona", ("mult",), 16.0),
]


@pytest.mark.parametrize("name, path, bad", INTEGER_FIELDS)
def test_integer_fields_must_be_json_integers(tmp_path, capsys, name, path, bad):
    # int() would read each of these as an integer and exit 0
    payloads = {
        "delta": UNIT_DISK.to_json(),
        "point": GradedPoint.scalars([0.5]).to_json(),
        "realization": mobius(0.5).to_json(),
        "samples": json.loads(pathlib.Path(fit_samples(tmp_path)).read_text()),
        "corona": corona_payload(),
    }
    node = payloads[name]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    f = {key: write(tmp_path, key + ".json", payload) for key, payload in payloads.items()}
    member = ["member", "--delta", f["delta"], "--point", f["point"]]
    argv = {
        "delta": member,
        "point": member,
        "realization": ["derive", "--realization", f["realization"],
                        "--point", f["point"], "--direction", f["point"]],
        "samples": ["model-residual", "--samples", f["samples"]],
        "corona": ["corona", "--input", f["corona"]],
    }[name]
    code = cli.main(argv)
    error = strict_loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "SchemaError"
    assert f"must be an integer, got {bad!r}" in error["message"]


def test_approx_cmd(tmp_path, capsys):
    r = write(tmp_path, "r.json", mobius(0.5).to_json())
    cover = write(
        tmp_path,
        "cover.json",
        [PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(2.0)).to_json()],
    )
    samples = write(tmp_path, "pts.json", [GradedPoint.scalars([0.25]).to_json()])
    code, rep, _ = run(
        ["approx", "--realization", r, "--cover", cover, "--samples", samples],
        capsys,
    )
    assert code == 0
    assert rep["cover_index"] == 0
    assert rep["radius"] == pytest.approx(0.5)
    assert rep["t"] == pytest.approx(1.5)
    assert rep["k"] == 47
    assert rep["bound"] <= rep["tol"]
    assert rep["term_count"] == 49


def test_approx_no_cover_exits_1(tmp_path, capsys):
    r = write(tmp_path, "r.json", mobius(0.5).to_json())
    cover = write(tmp_path, "cover.json", [UNIT_DISK.to_json()])
    samples = write(tmp_path, "pts.json", [GradedPoint.scalars([1.5]).to_json()])
    code, rep, _ = run(
        ["approx", "--realization", r, "--cover", cover, "--samples", samples],
        capsys,
    )
    assert code == 1
    assert rep["error"]["type"] == "NoCover"


GRID = PolyMatrix([
    [FreePoly.letter(2, 1).scale(0.5), FreePoly.letter(2, 2).scale(0.5)],
    [FreePoly.letter(2, 2).scale(0.3), (FreePoly.letter(2, 1) * FreePoly.letter(2, 2)).scale(0.3)],
])


def test_approx_cover_under_the_realization_grid_exits_1(tmp_path, capsys):
    # 0.3 GRID reaches only 0.3 of GRID's norm, so its shrink factor says
    # nothing about the realization's series in GRID: the bound it gave was
    # broken by the polynomial at the samples themselves
    rng = rng_from_seed(0)
    r = write(tmp_path, "r.json", random_realization(rng, GRID, 1, 1, 1).to_json())
    small = PolyMatrix([[e.scale(0.3) for e in row] for row in GRID.entries])
    pts = [sampling.point_inside_gdelta(rng, GRID, n).to_json() for n in (1, 2, 2, 3)]
    samples = write(tmp_path, "pts.json", pts)
    cover = write(tmp_path, "small.json", [small.to_json()])
    code, rep, _ = run(
        ["approx", "--realization", r, "--cover", cover, "--samples", samples, "--tol", "1e-3"],
        capsys,
    )
    assert code == 1
    assert rep["error"]["type"] == "NoCover"
    assert "as c times a submatrix" in rep["error"]["message"]


def test_approx_counts_skipped_covers_in_cover_index(tmp_path, capsys):
    # 0.3 GRID is skipped, so GRID is chosen, and named, at its place in --cover
    r = write(tmp_path, "r.json", random_realization(rng_from_seed(0), GRID, 1, 1, 1).to_json())
    small = PolyMatrix([[e.scale(0.3) for e in row] for row in GRID.entries])
    cover = write(tmp_path, "covers.json", [small.to_json(), GRID.to_json()])
    inside, huge = ([GradedPoint.scalars([v, v]).to_json()] for v in (0.1, 1e200))
    args = ["approx", "--realization", r, "--cover", cover, "--tol", "1e-3", "--samples"]
    code, rep, _ = run(args + [write(tmp_path, "in.json", inside)], capsys)
    assert code == 0
    assert rep["cover_index"] == 1
    code, rep, _ = run(args + [write(tmp_path, "huge.json", inside + huge)], capsys)
    assert code == 1
    assert rep["error"] == {
        "type": "NonFiniteValue",
        "message": "candidate grid 1 is not finite on the samples",
    }


def test_approx_non_finite_cover_fails_in_either_order(tmp_path, capsys):
    # GRID overflows at (1e200, 1e200); a NaN radius must not be folded
    # away in one order (a certificate that misses a sample point) and
    # read as NoCover in the other
    real = random_realization(rng_from_seed(0), GRID, 1, 1, 1).to_json()
    r = write(tmp_path, "r.json", real)
    cover = write(tmp_path, "cover.json", [GRID.to_json()])
    good, huge = (GradedPoint.scalars([v, v]).to_json() for v in (0.1, 1e200))
    reports = []
    for name, pts in (("gh.json", [good, huge]), ("hg.json", [huge, good])):
        samples = write(tmp_path, name, pts)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["approx", "--realization", r, "--cover", cover, "--samples", samples,
                 "--tol", "1e-3"]
            )
        raw, err = capsys.readouterr()
        assert err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        reports.append((code, raw))
    assert reports[0] == reports[1]
    code, raw = reports[0]
    assert code == 1
    error = strict_loads(raw)["error"]
    assert error == {
        "type": "NonFiniteValue",
        "message": "candidate grid 0 is not finite on the samples",
    }


def test_derive_cmd(tmp_path, capsys):
    point = write(
        tmp_path, "m.json", GradedPoint([np.diag([1.0, 2.0]).astype(complex)]).to_json()
    )
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    direction = write(tmp_path, "e.json", GradedPoint([e12]).to_json())
    code, rep, _ = run(
        ["derive", "--expr", "x1*x1", "--vars", "1", "--point", point,
         "--direction", direction],
        capsys,
    )
    assert code == 0
    # D(x^2)[M, E] = ME + EM = [[0, 3], [0, 0]] for M = diag(1, 2), E = E12
    assert rep["derivative"]["data"] == [[0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_mero_certify_asserted(tmp_path, capsys):
    delta = write(
        tmp_path, "half.json",
        PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5)).to_json(),
    )
    point = write(tmp_path, "one.json", GradedPoint.scalars([1.0]).to_json())
    code, rep, _ = run(
        ["mero", "certify", "--expr", "x1", "--vars", "1", "--delta", delta,
         "--point", point, "--bound", "2.0"],
        capsys,
    )
    assert code == 0
    assert rep["bound_source"] == "asserted"
    assert rep["bound_inv"] == pytest.approx(2.0)
    assert rep["c"] == [1.0, 0.0]
    assert rep["roots"] == []
    assert rep["p_residual"] == 0.0


def test_mero_certify_sampled(tmp_path, capsys):
    delta = write(
        tmp_path, "half.json",
        PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5)).to_json(),
    )
    point = write(tmp_path, "one.json", GradedPoint.scalars([1.0]).to_json())
    code, rep, _ = run(
        ["mero", "certify", "--expr", "x1", "--vars", "1", "--delta", delta,
         "--point", point],
        capsys,
    )
    assert code == 0
    assert rep["bound_source"] == "sampled"
    assert 0.0 < rep["bound_sup"] < 2.0
    assert rep["bound_inv"] >= 1.0


def test_mero_scan_cmd(tmp_path, capsys):
    pts = [
        GradedPoint.scalars([0.5]).to_json(),
        GradedPoint.scalars([0.0]).to_json(),
    ]
    samples = write(tmp_path, "pts.json", pts)
    code, rep, _ = run(
        ["mero", "scan", "--expr", "inv(x1)", "--vars", "1",
         "--samples", samples],
        capsys,
    )
    assert code == 0
    assert rep["checked"] == 2
    assert rep["singular_count"] == 1
    assert len(rep["singular_paths"]) == 1
    assert rep["entries"][0]["singular"] is False
    assert rep["entries"][1]["singular"] is True
    assert rep["entries"][0]["value_norm"] == pytest.approx(2.0)


def test_mero_scan_overflowing_value_exits_1(tmp_path, capsys):
    # x1*x1 - 0.25 overflows at x1 = 1e200 and its inverse is NaN: the scan
    # decided nothing there, so it must not report the sample as regular
    pts = [GradedPoint.scalars([0.5]).to_json(), GradedPoint.scalars([1e200]).to_json()]
    samples = write(tmp_path, "pts.json", pts)
    code, _, raw = run(
        ["mero", "scan", "--expr", "inv(x1*x1 - 0.25)", "--vars", "1", "--samples", samples],
        capsys,
    )
    assert code == 1
    assert strict_loads(raw)["error"] == {
        "type": "NonFiniteValue", "message": "the value is not finite at sample 1 (level 1)"
    }


def test_singularity_exits_1(tmp_path, capsys):
    point = write(tmp_path, "zero.json", GradedPoint.scalars([0.0]).to_json())
    code, rep, _ = run(
        ["eval", "--expr", "inv(x1)", "--vars", "1", "--point", point], capsys
    )
    assert code == 1
    assert rep["error"]["type"] == "SingularityHit"
    assert isinstance(rep["error"]["path"], list)


def test_syntax_error_exits_2(tmp_path, capsys):
    point = write(tmp_path, "p.json", GradedPoint.scalars([1.0]).to_json())
    code, rep, _ = run(
        ["eval", "--expr", "x1 + * 2", "--vars", "1", "--point", point], capsys
    )
    assert code == 2
    assert rep["error"]["type"] == "ExprSyntaxError"
    assert rep["error"]["offset"] == 5


@pytest.mark.parametrize("expr", ["x²", "1e999"])
def test_unlexable_literal_exits_2(tmp_path, capsys, expr):
    # a non-ASCII digit and an overflowing literal are syntax errors
    point = write(tmp_path, "p.json", GradedPoint.scalars([1.0]).to_json())
    code = cli.main(["eval", "--expr", expr, "--vars", "1", "--point", point])
    error = strict_loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["type"] == "ExprSyntaxError"
    assert error["offset"] == 0


def test_unknown_variable_exits_2(tmp_path, capsys):
    point = write(tmp_path, "p.json", GradedPoint.scalars([1.0, 1.0]).to_json())
    code, rep, _ = run(
        ["eval", "--expr", "x3", "--vars", "2", "--point", point], capsys
    )
    assert code == 2
    assert rep["error"]["type"] == "UnknownVariable"
    assert rep["error"]["index"] == 3
    assert rep["error"]["d"] == 2


def test_missing_file_exits_2(tmp_path, capsys):
    code, rep, _ = run(
        ["eval", "--expr", "x1", "--vars", "1",
         "--point", str(tmp_path / "nope.json")],
        capsys,
    )
    assert code == 2
    assert rep["error"]["type"] == "SchemaError"


def test_point_dimension_mismatch_exits_2(tmp_path, capsys):
    point = write(tmp_path, "p.json", GradedPoint.scalars([1.0]).to_json())
    code, rep, _ = run(
        ["eval", "--expr", "x1", "--vars", "2", "--point", point], capsys
    )
    assert code == 2
    assert rep["error"]["type"] == "SchemaError"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mero", "certify", "--expr", "x1*x1 + 1", "--vars", "1", "--delta", "{half}",
          "--point", "{p2}"], "--point"),
        (["mero", "scan", "--expr", "inv(x1)", "--vars", "1", "--samples", "{s2}"], "--samples"),
        (["derive", "--expr", "x1*x1", "--vars", "1", "--point", "{p2}",
          "--direction", "{p2}"], "--point"),
        (["check-nc", "--expr", "x1*x2", "--vars", "2", "--samples", "{s1}"], "--samples"),
        (["member", "--delta", "{half}", "--point", "{p2}"], "--point"),
        (["check-nc", "--realization", "{r}", "--samples", "{s2}"], "--samples"),
        (["derive", "--realization", "{r}", "--point", "{p2}", "--direction", "{p2}"], "--point"),
        (["approx", "--realization", "{r}", "--cover", "{cover}", "--samples", "{s2}"], "--samples"),
        (["approx", "--realization", "{r}", "--cover", "{grid2}", "--samples", "{s1}"], "--cover"),
        (["corona", "--input", "{corona}"], "--input"),
    ],
    ids=["mero-certify", "mero-scan", "derive-expr", "check-nc-expr", "member",
         "check-nc-realization", "derive-realization", "approx-samples", "approx-cover", "corona"],
)
def test_variable_count_mismatch_exits_2(tmp_path, capsys, argv, flag):
    # extra coordinates used to be ignored (exit 0), missing ones or a grid
    # of another d ended in ShapeMismatch (exit 1)
    p1, p2 = GradedPoint.scalars([0.3]), GradedPoint.scalars([0.3, 0.2])
    corona = corona_payload()
    corona["points"][2] = GradedPoint([np.eye(1), np.eye(1)]).to_json()
    half = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5))
    paths = {
        "half": write(tmp_path, "half.json", half.to_json()),
        "cover": write(tmp_path, "cover.json", [half.to_json()]),
        "p1": write(tmp_path, "p1.json", p1.to_json()),
        "p2": write(tmp_path, "p2.json", p2.to_json()),
        "s1": write(tmp_path, "s1.json", [p1.to_json()]),
        "s2": write(tmp_path, "s2.json", [p1.to_json(), p2.to_json()]),
        "r": write(tmp_path, "r.json", mobius(0.3).to_json()),
        "grid2": write(tmp_path, "grid2.json", [PolyMatrix.from_poly(FreePoly.letter(2, 1)).to_json()]),
        "corona": write(tmp_path, "corona.json", corona),
    }
    code, _, raw = run([a.format(**paths) for a in argv], capsys)
    assert code == 2
    error = strict_loads(raw)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(flag[2:] + " has d=")


def test_mismatched_input_headers_exit_2(tmp_path, capsys):
    # a header or data size that disagrees with the entries is bad input
    grid = PolyMatrix([[FreePoly.letter(2, 1), FreePoly.letter(2, 2)]]).to_json()
    delta = write(tmp_path, "g.json", {**grid, "d": 5})
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.1, 0.1]).to_json())
    code, _, raw = run(["member", "--delta", delta, "--point", point], capsys)
    assert code == 2
    assert strict_loads(raw)["error"] == {
        "type": "SchemaError", "message": "polynomial grid header disagrees with entries"
    }
    payload = GradedPoint.scalars([1.0]).to_json()
    payload["mats"][0]["data"].append([0.0, 0.0])
    point = write(tmp_path, "long.json", payload)
    code, _, raw = run(["eval", "--expr", "x1", "--vars", "1", "--point", point], capsys)
    assert code == 2
    assert strict_loads(raw)["error"] == {
        "type": "SchemaError", "message": "data length 2 does not match 1x1"
    }


def strict_loads(text):
    """``json.loads`` that rejects the non-standard NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_approx_infinite_shrink_is_null(tmp_path, capsys):
    # a sample at the zero set of the grid makes the shrink factor infinite
    r = write(tmp_path, "r.json", mobius(0.5).to_json())
    cover = write(tmp_path, "cover.json", [UNIT_DISK.to_json()])
    samples = write(tmp_path, "pts.json", [GradedPoint.scalars([0.0]).to_json()])
    code, _, raw = run(
        ["approx", "--realization", r, "--cover", cover, "--samples", samples],
        capsys,
    )
    assert code == 0
    rep = strict_loads(raw)
    assert rep["t"] is None
    assert rep["radius"] == 0.0
    assert rep["k"] == 0 and rep["bound"] == 0.0


@pytest.mark.parametrize(
    "flags",
    [
        ["--margin", "-1"],
        ["--margin", "nan"],
        ["--tol", "0"],
        ["--tol=-1e-8"],
        ["--tol", "inf"],
        ["--tol", "nan"],
    ],
)
def test_bad_numeric_flags_exit_2(tmp_path, capsys, flags):
    delta = write(tmp_path, "delta.json", UNIT_DISK.to_json())
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.5]).to_json())
    code = cli.main(["member", "--delta", delta, "--point", point] + flags)
    captured = capsys.readouterr()
    assert code == 2
    rep = strict_loads(captured.out)
    assert rep["error"]["type"] == "SchemaError"
    assert flags[0].split("=")[0] in rep["error"]["message"]
    assert captured.err == ""


def test_bad_bound_exits_2(tmp_path, capsys):
    delta = write(tmp_path, "delta.json", UNIT_DISK.to_json())
    point = write(tmp_path, "m.json", GradedPoint.scalars([0.5]).to_json())
    code, _, raw = run(
        ["mero", "certify", "--expr", "2 + x1", "--vars", "1", "--delta", delta,
         "--point", point, "--bound", "-1"],
        capsys,
    )
    assert code == 2
    assert strict_loads(raw)["error"]["type"] == "SchemaError"


def test_zero_vars_exits_2(tmp_path, capsys):
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.5]).to_json())
    code, _, raw = run(["eval", "--expr", "x1", "--vars", "0", "--point", point], capsys)
    assert code == 2
    assert strict_loads(raw)["error"]["type"] == "SchemaError"


def test_negative_margin_subprocess_has_no_traceback(tmp_path):
    delta = write(tmp_path, "delta.json", UNIT_DISK.to_json())
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.5]).to_json())
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeholo.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "freeholo.cli", "member", "--delta", delta,
         "--point", point, "--margin", "-1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert strict_loads(proc.stdout)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize(
    "eps", [0.0, -0.5, "0.707", True, 10**400], ids=["0.0", "-0.5", "str", "bool", "1e400-int"]
)
def test_corona_nonpositive_epsilon_exits_2(tmp_path, capsys, eps):
    # also an epsilon that is no JSON number, or none a float can hold
    payload = {
        "delta": UNIT_DISK.to_json(),
        "epsilon": eps,
        "mult": 1,
        "points": [GradedPoint.scalars([0.3]).to_json()],
        "psis": [matrices_json([[[0.3]]])],
        "u": matrices_json([[[0.0]]]),
    }
    inp = write(tmp_path, "corona.json", payload)
    code, _, raw = run(["corona", "--input", inp], capsys)
    assert code == 2
    assert strict_loads(raw)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize(
    "argv",
    [
        ["mero", "certify", "--expr", "1+x1", "--vars", "1", "--delta", "D", "--point", "P",
         "--bound", "2"],
        ["derive", "--realization", "R", "--point", "P", "--direction", "P"],
        ["check-nc", "--realization", "R", "--samples", "S"],
        ["eval", "--expr", "1+x1", "--vars", "1", "--point", "P"],
    ],
)
def test_level_zero_point_exits_2(tmp_path, capsys, argv):
    # a 0x0 point used to end in IndexError or ZeroDivisionError tracebacks
    level0 = {"d": 1, "n": 0, "mats": [{"rows": 0, "cols": 0, "data": []}]}
    paths = {
        "D": write(tmp_path, "delta.json", UNIT_DISK.to_json()),
        "P": write(tmp_path, "p.json", level0),
        "R": write(tmp_path, "r.json", mobius(0.3).to_json()),
        "S": write(tmp_path, "s.json", [level0]),
    }
    code, _, raw = run([paths.get(a, a) for a in argv], capsys)
    assert code == 2
    assert "level must be at least 1" in strict_loads(raw)["error"]["message"]


def run_subprocess(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeholo.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "freeholo.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=60,
    )


def huge_psi_samples(tmp_path):
    # finite input whose Gram products overflow to inf and NaN
    payload = json.loads(pathlib.Path(fit_samples(tmp_path, n_points=6)).read_text())
    payload["psi"][0]["data"][0][0] = 1e200
    return write(tmp_path, "huge.json", payload)


def test_fit_non_finite_gram_exits_1(tmp_path):
    proc = run_subprocess(["fit", "--samples", huge_psi_samples(tmp_path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    rep = strict_loads(proc.stdout)
    assert rep["error"]["type"] == "GramMismatch"
    assert "realization" not in rep


@pytest.mark.parametrize("n_points", [6, 40])
def test_fit_overflowing_gram_deviation_is_null(tmp_path, capsys, n_points):
    # 6 points keep the fit's [P; Q] below its QR width rule, 40 reach it
    payload = json.loads(pathlib.Path(fit_samples(tmp_path, n_points=n_points)).read_text())
    payload["phi"][0]["data"][0][0] = 1e200
    code, rep, raw = run(["fit", "--samples", write(tmp_path, "huge.json", payload)], capsys)
    assert code == 1
    assert rep["error"]["type"] == "GramMismatch"
    assert rep["error"]["deviation"] is None
    strict_loads(raw)


def test_model_residual_non_finite_is_null(tmp_path):
    proc = run_subprocess(["model-residual", "--samples", huge_psi_samples(tmp_path)])
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rep = strict_loads(proc.stdout)
    assert rep["residual"] is None
    assert rep["diagonal_floor"] is None
    assert rep["points"] == 6


@pytest.mark.parametrize("command, key", [("eval", "value"), ("derive", "derivative")])
def test_overflowing_value_is_null(tmp_path, command, key):
    # finite input whose square overflows: the entry is written as null
    big = write(tmp_path, "big.json", GradedPoint.scalars([1e200]).to_json())
    argv = [command, "--expr", "x1*x1", "--vars", "1", "--point", big]
    if command == "derive":
        argv += ["--direction", big]
    proc = run_subprocess(argv)
    assert proc.returncode == 0
    assert proc.stderr == ""
    value = strict_loads(proc.stdout)[key]
    assert value["rows"] == value["cols"] == 1
    assert value["data"][0][0] is None


def test_check_nc_overflowing_value_fails_without_traceback(tmp_path):
    # x1*x1 overflows at 1e200: every deviation is inf, written as null
    big = write(tmp_path, "s.json", [GradedPoint.scalars([1e200]).to_json()])
    proc = run_subprocess(["check-nc", "--expr", "x1*x1", "--vars", "1", "--samples", big])
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rep = strict_loads(proc.stdout)
    assert rep["passed"] is False
    assert rep["checks"] > 0
    for key in ("direct_sum_dev", "similarity_dev", "triangular_dev"):
        assert rep[key] is None


@pytest.mark.parametrize(
    "expr, index",
    [("1e300*1e300*x1 + 1", "0"), ("1e308*x1*x1*x1 + 1", "[1-9][0-9]*")],
)
def test_mero_certify_non_finite_sampled_value_exits_1(tmp_path, capsys, expr, index):
    # the value overflows at every sampled point, or only at some: either
    # way there is no sampled bound, and the first such point is named
    half = write(
        tmp_path, "half.json",
        PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5)).to_json(),
    )
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.5]).to_json())
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, raw = run(
            ["mero", "certify", "--expr", expr, "--vars", "1", "--delta", half,
             "--point", point],
            capsys,
        )
    assert code == 1
    error = strict_loads(raw)["error"]
    assert error["type"] == "NonFiniteValue"
    assert re.fullmatch(
        rf"f is not finite at sampled point {index} \(level [123]\)", error["message"]
    )


def test_mero_certify_failed_sampled_norm_exits_1(tmp_path, capsys, monkeypatch):
    # a norm whose SVD fails is NaN: no sampled bound, not a smaller one
    half = write(
        tmp_path, "half.json",
        PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5)).to_json(),
    )
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.5]).to_json())
    op_norms, sample = cli.mat.op_norms, sampling.points_inside_gdelta

    def sample_then_fail(*args):
        # SVDs fail only once the points are drawn, where f's norms are taken
        points = sample(*args)
        monkeypatch.setattr(
            cli.mat, "op_norms", lambda stack: np.concatenate([op_norms(stack)[:-1], [np.nan]])
        )
        return points

    monkeypatch.setattr(sampling, "points_inside_gdelta", sample_then_fail)
    code, _, raw = run(
        ["mero", "certify", "--expr", "x1 + 1", "--vars", "1", "--delta", half,
         "--point", point],
        capsys,
    )
    assert code == 1
    error = strict_loads(raw)["error"]
    assert error["type"] == "NonFiniteValue"
    # the last point of each level is NaN; level 3's, 197, comes first
    assert error["message"] == "the norm of f failed at sampled point 197 (level 3)"


def test_mero_certify_lost_characteristic_polynomial_exits_1(tmp_path, capsys):
    # a level-32 base point whose characteristic polynomial, rescaled to
    # p(0) = 1, leaves ||p(M)|| near 2 after Horner: no certificate
    rng = np.random.default_rng(0)
    g = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))) / np.sqrt(2)
    t = g / 8.0 + 0.5 * np.eye(32)
    half = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5))
    delta = write(tmp_path, "half.json", half.to_json())
    point = write(tmp_path, "p.json", GradedPoint([t]).to_json())
    code, _, raw = run(
        ["mero", "certify", "--expr", "x1", "--vars", "1", "--delta", delta,
         "--point", point, "--bound", "2"],
        capsys,
    )
    assert code == 1
    error = strict_loads(raw)["error"]
    assert error["type"] == "RootFindingFailure"
    assert error["message"].startswith("p(f(M)) has residual 1.98")


def test_mero_certify_overflowing_value_exits_1(tmp_path, capsys):
    # f(M) = x1*x1 + 1 overflows at x1 = 1e200: a mathematical rejection,
    # not an eigenvalue traceback; membership there is outside with no norm
    grid = PolyMatrix([[FreePoly(2, {(1, 1): 1.0}), FreePoly.letter(2, 2)]])
    delta = write(tmp_path, "g.json", grid.to_json())
    point = write(tmp_path, "p.json", GradedPoint.scalars([1e200, 0.1]).to_json())
    code, _, raw = run(
        ["mero", "certify", "--expr", "x1*x1+1", "--vars", "2", "--delta", delta,
         "--point", point, "--bound", "2"],
        capsys,
    )
    assert code == 1
    assert strict_loads(raw)["error"] == {
        "type": "NotInvertible", "message": "f(M) has a non-finite entry"
    }
    code, _, raw = run(["member", "--delta", delta, "--point", point], capsys)
    rep = strict_loads(raw)
    assert code == 0
    assert rep["status"] == "outside"
    assert rep["norm"] is None


def test_approx_overflowing_expansion_exits_1(tmp_path):
    # coefficients of (1e200 x1)^j overflow at order 1; the bound must not
    # be reported as certified for a polynomial with null or purged NaN words
    grid = PolyMatrix.from_poly(FreePoly(1, {(1,): 1e200}))
    r = write(tmp_path, "r.json", random_realization(rng_from_seed(0), grid, 1, 1, 1).to_json())
    cover = write(tmp_path, "cover.json", [grid.to_json()])
    samples = write(tmp_path, "pts.json", [GradedPoint.scalars([1e-201]).to_json()])
    proc = run_subprocess(
        ["approx", "--realization", r, "--cover", cover, "--samples", samples, "--tol", "1e-3"]
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = strict_loads(proc.stdout)["error"]
    assert error["type"] == "TermBlowup"
    assert error["message"] == "expansion produced a non-finite coefficient at order 1"


DEEP = 1_200


@pytest.mark.parametrize(
    "expr, text, value",
    [
        ("*".join(["x1"] * DEEP), "*".join(["x1"] * DEEP), 1.0),
        ("(" * DEEP + "x1" + ")" * DEEP, "x1", -1.0),
        ("-" * DEEP + "x1", "-" * DEEP + "x1", -1.0),
        ("inv(" * DEEP + "x1" + ")" * DEEP, "inv(" * DEEP + "x1" + ")" * DEEP, -1.0),
    ],
    ids=["product", "parentheses", "minus", "inv"],
)
def test_deep_expression_file_evaluates(tmp_path, expr, text, value):
    expr_file = tmp_path / "deep.txt"
    expr_file.write_text(expr)
    point = write(tmp_path, "p.json", GradedPoint.scalars([-1.0]).to_json())
    proc = run_subprocess(
        ["eval", "--expr-file", str(expr_file), "--vars", "1", "--point", point]
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rep = strict_loads(proc.stdout)
    assert rep["expr"] == text
    assert rep["value"]["data"] == [[value, 0.0]]


def test_deep_inv_scan_reports_path(tmp_path):
    expr_file = tmp_path / "deep.txt"
    expr_file.write_text("inv(" * DEEP + "x1" + ")" * DEEP)
    samples = write(tmp_path, "pts.json", [
        GradedPoint.scalars([2.0]).to_json(), GradedPoint.scalars([0.0]).to_json()
    ])
    proc = run_subprocess(
        ["mero", "scan", "--expr-file", str(expr_file), "--vars", "1", "--samples", samples]
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rep = strict_loads(proc.stdout)
    assert rep["singular_paths"] == [[0] * (DEEP - 1)]
    assert [e["singular"] for e in rep["entries"]] == [False, True]


# The five subcommands that read a function, each with valid other inputs
# for a function of d = 2 variables.
FUNCTION_COMMANDS = {
    "eval": ["eval", "--point", "{p}"],
    "check-nc": ["check-nc", "--samples", "{s}"],
    "derive": ["derive", "--point", "{p}", "--direction", "{p}"],
    "mero certify": ["mero", "certify", "--delta", "{delta}", "--point", "{p}"],
    "mero scan": ["mero", "scan", "--samples", "{s}"],
}


def function_inputs(tmp_path):
    p = GradedPoint.scalars([0.3, 0.2])
    half = PolyMatrix([[FreePoly.letter(2, 1).scale(0.5), FreePoly.letter(2, 2).scale(0.5)]])
    return {
        "p": write(tmp_path, "p.json", p.to_json()),
        "s": write(tmp_path, "s.json", [p.to_json()]),
        "delta": write(tmp_path, "delta.json", half.to_json()),
        "missing": str(tmp_path / "missing.json"),
    }


SECOND_SOURCES = [
    (c, ["--expr", "x1", "--expr-file", "{missing}"], "--expr and --expr-file")
    for c in FUNCTION_COMMANDS
] + [
    (c, ["--realization", "{missing}", "--expr", "x1"] + more, named)
    for c in ("check-nc", "derive")
    for more, named in [([], "--realization and --expr"),
                        (["--expr-file", "{missing}"], "--realization, --expr and --expr-file")]
]


@pytest.mark.parametrize(
    "command, sources, named", SECOND_SOURCES,
    ids=[c + "".join(f for f in s if f.startswith("--")) for c, s, _ in SECOND_SOURCES],
)
def test_second_function_source_exits_2(tmp_path, capsys, command, sources, named):
    # the extra source used to be ignored; the files named here do not
    # exist, so an error that reads one would name it
    paths = function_inputs(tmp_path)
    argv = FUNCTION_COMMANDS[command] + sources + ["--vars", "1"]
    code, _, raw = run([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert strict_loads(raw)["error"] == {
        "type": "SchemaError", "message": f"{named} are alternatives; give one"
    }


BROKEN_TEXTS = [
    # (flag, text; None for a missing file), error type, offset
    ("--expr", "", "ExprSyntaxError", 0),
    ("--expr-file", " \n\t\n", "ExprSyntaxError", 0),
    ("--expr-file", None, "SchemaError", None),
    ("--expr", "x1 +", "ExprSyntaxError", 4),
    ("--expr", "((x1", "ExprSyntaxError", 4),
    ("--expr", "x1)", "ExprSyntaxError", 2),
    ("--expr", "inv x1", "ExprSyntaxError", 4),
    ("--expr", "x0", "UnknownVariable", 0),
    ("--expr", "x3", "UnknownVariable", 0),
    ("--expr", "1e999", "ExprSyntaxError", 0),
    ("--expr", "x²", "ExprSyntaxError", 0),
]


@pytest.mark.parametrize(
    "flag, text, kind, offset", BROKEN_TEXTS,
    ids=["empty", "blank-file", "missing-file", "dangling-plus", "unclosed", "unopened",
         "bare-inv", "x0", "x3", "overflow", "superscript"],
)
def test_broken_expression_text_gives_one_error_everywhere(
    tmp_path, capsys, flag, text, kind, offset
):
    paths = function_inputs(tmp_path)
    source = text
    if flag == "--expr-file":
        source = tmp_path / "e.txt"
        if text is not None:
            source.write_text(text)
    errors = {}
    for command, argv in FUNCTION_COMMANDS.items():
        code = cli.main([a.format(**paths) for a in argv] + [flag, str(source), "--vars", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        errors[command] = strict_loads(captured.out)["error"]
    first = errors["eval"]
    assert all(e == first for e in errors.values())
    assert first["type"] == kind and first.get("offset") == offset
    assert ("index" in first) == ("d" in first) == (kind == "UnknownVariable")


@pytest.mark.parametrize("command", FUNCTION_COMMANDS)
def test_function_inputs_are_valid(tmp_path, capsys, command):
    # so an error above comes from the expression, not from another input
    paths = function_inputs(tmp_path)
    argv = FUNCTION_COMMANDS[command] + ["--expr", "x1*x2 + 1", "--vars", "2"]
    code, rep, _ = run([a.format(**paths) for a in argv], capsys)
    assert code == 0 and "error" not in rep


@pytest.mark.parametrize("command", ["eval", "mero scan"])
def test_deep_inv_nest_keeps_the_contract(tmp_path, capsys, command):
    paths = function_inputs(tmp_path)
    deep = "inv(" * DEEP + "x1" + ")" * DEEP
    argv = FUNCTION_COMMANDS[command] + ["--expr", deep, "--vars", "2"]
    code = cli.main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == ""
    report = strict_loads(captured.out)
    assert (code == 0) == ("error" not in report)


ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 3.0e16, 0.1, 1e300, -1.5e-300, 5e-324, 1.7e308]),
    st.floats(min_value=1e290, max_value=1e305),
    st.floats(min_value=1e-305, max_value=1e-290),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def matrix_polys(draw):
    d, out_dim, in_dim = (draw(st.integers(1, 3)) for _ in range(3))
    words = draw(
        st.lists(st.lists(st.integers(1, d), max_size=4).map(tuple), max_size=6, unique=True)
    )
    terms = {}
    for w in words:
        parts = draw(st.lists(ENTRIES, min_size=2 * out_dim * in_dim, max_size=2 * out_dim * in_dim))
        terms[w] = np.array(parts).view(np.complex128).reshape(out_dim, in_dim)
    return MatrixPoly(d, out_dim, in_dim, terms)


@given(matrix_polys())
@example(MatrixPoly(2, 2, 3, {}))
@example(
    MatrixPoly(
        3, 1, 2,
        {
            (): [[complex(1.0, -0.0), complex(1e300, 2e-300)]],
            (3, 1, 2): [[complex(-0.0, 4.0), complex(-1e-300, -1e300)]],
        },
    )
)
@settings(max_examples=80, deadline=None)
def test_polynomial_text_matches_json_dumps(poly):
    # the spliced report is byte for byte the stdlib encoding of to_json()
    report = {"command": "approx", "k": 2, "t": 1.5, "term_count": poly.term_count()}
    want = json.dumps({**report, "polynomial": poly.to_json()}, sort_keys=True, indent=2)
    assert cli._render({**report, "polynomial": poly}) == want + "\n"
    assert poly.json_text() == json.dumps(poly.to_json(), sort_keys=True, indent=2)


def small_corona_input(tmp_path):
    payload = {
        "delta": UNIT_DISK.to_json(),
        "epsilon": 0.5,
        "mult": 1,
        "points": [GradedPoint.scalars([0.3]).to_json()],
        "psis": [matrices_json([[[0.3]]])],
        "u": matrices_json([[[0.0]]]),
    }
    return write(tmp_path, "corona.json", payload)


@pytest.mark.parametrize(
    "flags",
    [
        ["fit", "--rank-rtol", "nan"],
        ["fit", "--gram-rtol", "inf"],
        ["fit", "--gram-rtol", "-1"],
        ["corona", "--floor-slack", "nan"],
        ["check-nc", "--sims", "-3"],
        ["check-nc", "--seed", "-1"],
    ],
)
def test_flags_outside_their_domain_exit_2(tmp_path, flags):
    # before the check: rank 0 with exit 0, the Gram gate or the floor check
    # switched off, GramMismatch with exit 1, or no similarities at all
    command, flag, value = flags
    if command == "fit":
        argv = ["fit", "--samples", fit_samples(tmp_path)]
    elif command == "corona":
        argv = ["corona", "--input", small_corona_input(tmp_path)]
    else:
        pts = write(tmp_path, "s.json", [GradedPoint.scalars([0.3]).to_json()])
        argv = ["check-nc", "--expr", "x1*x1", "--vars", "1", "--samples", pts]
    proc = run_subprocess(argv + [flag, value])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = strict_loads(proc.stdout)["error"]
    assert error["type"] == "SchemaError"
    assert flag in error["message"]


@pytest.mark.parametrize("command", ["fit", "model-residual"])
def test_empty_model_sample_set_exits_2(tmp_path, capsys, command):
    # before: fit exited 1 with ShapeMismatch, model-residual 0 with residual 0.0
    payload = json.loads(pathlib.Path(fit_samples(tmp_path)).read_text())
    payload.update(points=[], psi=[], phi=[], u=[])
    samples = write(tmp_path, "empty.json", payload)
    code, rep, _ = run([command, "--samples", samples], capsys)
    assert code == 2
    assert rep["error"] == {"type": "SchemaError", "message": "empty model sample set"}


def test_cached_parser_leaks_no_state(tmp_path, capsys):
    # each in-process report, made after another command on the shared
    # parser, equals the same command's report from a fresh process
    assert cli.build_parser() is cli.build_parser()
    samples = fit_samples(tmp_path)
    half = write(
        tmp_path, "half.json",
        PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5)).to_json(),
    )
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.5]).to_json())
    fit = ["fit", "--samples", samples]
    certify = ["mero", "certify", "--expr", "x1*x1 + 1", "--vars", "1",
               "--delta", half, "--point", point]
    usage_error = ["eval", "--expr", "x1", "--vars", "two", "--point", point]
    evaluate = ["eval", "--expr", "x1*x1 + 1", "--vars", "1", "--point", point]
    member = ["member", "--delta", half, "--point", point]
    sequences = [
        [fit + ["--no-holdout"], fit],
        [certify + ["--bound", "5"], certify],
        [usage_error, evaluate],
        [evaluate, member],
    ]
    fresh = {}
    for seq in sequences:
        for argv in seq:
            if argv is usage_error:
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
                assert exc.value.code == 2
                assert capsys.readouterr().out == ""
                continue
            code = cli.main(argv)
            out = capsys.readouterr().out
            if tuple(argv) not in fresh:
                fresh[tuple(argv)] = run_subprocess(argv)
            proc = fresh[tuple(argv)]
            assert (code, out) == (proc.returncode, proc.stdout)
    assert json.loads(out)["status"] == "inside"


def test_check_nc_realization_tests_membership_once_per_point(tmp_path, capsys, monkeypatch):
    # three samples at levels 1, 2, 2 and three similarities per level make
    # 9 direct sums, 9 conjugations and 15 triangular points, all inside;
    # each of the 36 points costs one grid evaluation (and one SVD), in the
    # evaluator, where a separate domain predicate made it 69
    from freeholo import ncpoint

    r = write(tmp_path, "r.json", mobius(0.5).to_json())
    rng = np.random.default_rng(8)
    pts = [GradedPoint.scalars([0.004])] + [
        GradedPoint([0.002 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))])
        for _ in range(2)
    ]
    samples = write(tmp_path, "samples.json", [p.to_json() for p in pts])
    points = count_grid_evaluations(monkeypatch, (ncpoint,))
    code, rep, _ = run(["check-nc", "--realization", r, "--samples", samples], capsys)
    assert code == 0 and rep["passed"] is True
    assert (rep["checks"], rep["skipped"]) == (33, 0)
    assert len(points) == 36


def test_mero_certify_sampled_bound_is_pinned(tmp_path, capsys, monkeypatch):
    # 200 sampled points share one constant-term test; bound_sup is the
    # value the one-test-per-point sampler gave
    from freeholo import ncpoint, sampling

    half = write(
        tmp_path, "half.json",
        PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5)).to_json(),
    )
    point = write(tmp_path, "m.json", GradedPoint.scalars([0.5]).to_json())
    points = count_grid_evaluations(monkeypatch, (sampling, ncpoint))
    code, rep, _ = run(
        ["mero", "certify", "--expr", "x1*x1 + 1", "--vars", "1", "--delta", half,
         "--point", point, "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert rep["bound_source"] == "sampled"
    assert rep["bound_sup"] == 3.6656888771218936
    zero_tests = [x for x in points if x.n == 1 and not np.any(x.mats[0])]
    assert len(zero_tests) == 1


# -- contract fuzz -------------------------------------------------------------
#
# Valid small inputs for model-residual, fit, corona, member, eval --expr,
# check-nc and derive with --realization, and mero certify and scan, broken
# by a few random edits: wrong shapes, non-finite entries, empty lists,
# headers that disagree, dimensions of 0, points outside the domain or
# overflowing it. Whatever the edit, the CLI exits 0, 1 or 2 with a
# strict-JSON report, raises nothing and lets no numpy warning out.
# approx is left out: inputs near the domain boundary expand to a million
# terms before the term cap stops them, seconds per example.

SQUARE = PolyMatrix.from_poly(FreePoly.letter(1, 1) * FreePoly.letter(1, 1))

ODD_VALUES = [
    0, -1, 2, 1.5, 1e200, float("inf"), float("nan"), True, None, "x",
    [], {}, [[0.0, 0.0]], [[1e200, 0.0]], SQUARE.to_json(),
]


@pytest.fixture(scope="module")
def fuzz_bundles():
    """Per command: the argv and the valid payload of each input file."""
    from conftest import random_grid, random_rect_realization

    rng = rng_from_seed(17)
    r = random_rect_realization(rng, 1, 2, 1, 1, 1)
    levels = (1, 2, 3, 2)
    s = model_from_realization(r, [sampling.point_inside_gdelta(rng, r.delta, n) for n in levels])
    corona = corona_payload()
    keep = (0, 3, 7, 5)  # levels 1, 2, 3, 1
    corona.update(
        points=[corona["points"][i] for i in keep],
        psis=[[row[i] for i in keep] for row in corona["psis"]],
        u=[corona["u"][i] for i in keep],
    )
    member = {
        "delta": random_grid(rng, 2, 2).to_json(),
        "point": sampling.point_inside_gdelta(rng, random_grid(rng, 1, 1), 2).to_json(),
    }
    inside = [sampling.point_inside_gdelta(rng, r.delta, n).to_json() for n in (1, 2)]
    along = {
        "realization": r.to_json(),
        "point": inside[1],
        "direction": sampling.random_graded_point(rng, r.delta.d, 2, 0.3).to_json(),
    }
    half = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5)).to_json()
    scalars = [sampling.random_graded_point(rng, 1, n, 0.5).to_json() for n in (1, 2, 2)]
    return {
        "model-residual": (["model-residual", "--samples", "{samples}"], {"samples": s.to_json()}),
        "fit": (["fit", "--samples", "{samples}"], {"samples": s.to_json()}),
        "corona": (["corona", "--input", "{input}"], {"input": corona}),
        "member": (["member", "--delta", "{delta}", "--point", "{point}"], member),
        "eval": (["eval", "--expr", FLAGSHIP, "--vars", "2", "--point", "{point}"],
                 {"point": along["direction"]}),
        "check-nc": (["check-nc", "--realization", "{realization}", "--samples", "{samples}"],
                     {"realization": along["realization"], "samples": inside}),
        "derive": (["derive", "--realization", "{realization}", "--point", "{point}",
                    "--direction", "{direction}"], along),
        "mero certify": (["mero", "certify", "--expr", "x1*x1 + 1", "--vars", "1",
                          "--delta", "{delta}", "--point", "{point}"],
                         {"delta": half, "point": scalars[1]}),
        "mero scan": (["mero", "scan", "--expr", "inv(x1*x1 - 0.25)", "--vars", "1",
                       "--samples", "{samples}"], {"samples": scalars}),
    }


def json_paths(obj, path=()):
    """Every path into a JSON value, parents before children."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        items = ()
    return [path] + [p for k, v in items for p in json_paths(v, path + (k,))]


def scaled(obj, factor):
    """The value with every float in it multiplied by ``factor``."""
    if isinstance(obj, float):
        return obj * factor
    if isinstance(obj, dict):
        return {k: scaled(v, factor) for k, v in obj.items()}
    if isinstance(obj, list):
        return [scaled(v, factor) for v in obj]
    return obj


def broken(bundle, data):
    """A deep copy of the bundle after one to three random edits."""
    bundle = copy.deepcopy(bundle)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        paths = json_paths(bundle)[1:]
        near_top = [p for p in paths if len(p) <= 3]
        path = data.draw(st.sampled_from(near_top) | st.sampled_from(paths), label="path")
        *head, key = path
        parent = bundle
        for k in head:
            parent = parent[k]
        action = data.draw(st.sampled_from(["replace", "delete", "repeat", "scale"]))
        if action == "replace" or (action == "delete" and len(head) == 0):
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES), label="value"))
        elif action == "delete":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = scaled(parent[key], data.draw(st.sampled_from([1.5, -3.0, 0.0, 1e200])))
    return bundle


@pytest.mark.parametrize(
    "command",
    ["model-residual", "fit", "corona", "member",
     "eval", "check-nc", "derive", "mero certify", "mero scan"],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cli_contract_holds_on_broken_inputs(tmp_path_factory, fuzz_bundles, command, data):
    argv, bundle = fuzz_bundles[command]
    bundle = broken(bundle, data)
    folder = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, payload in bundle.items():
        files[name] = str(folder / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([a.format(**files) for a in argv])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 1, 2)
    report = strict_loads(out.getvalue())
    assert (code == 0) == ("error" not in report)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-nc", "--realization", "{r}", "--vars", "2", "--samples", "{s}"],
        ["derive", "--realization", "{r}", "--vars", "2", "--point", "{p}", "--direction", "{p}"],
    ],
    ids=["check-nc", "derive"],
)
def test_vars_disagreeing_with_the_realization_exits_2(tmp_path, capsys, argv):
    # --vars used to be ignored when --realization was given (exit 0)
    p = GradedPoint.scalars([0.3])
    paths = {
        "r": write(tmp_path, "r.json", mobius(0.3).to_json()),
        "p": write(tmp_path, "p.json", p.to_json()),
        "s": write(tmp_path, "s.json", [p.to_json()]),
    }
    code, _, raw = run([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert strict_loads(raw)["error"] == {
        "type": "SchemaError", "message": "--realization has d=1 but --vars is 2"
    }


# One run of the installed ``freeholo`` command (``freeholo.cli:main``) in a
# fresh interpreter; the freeholo modules it loaded go to stderr.
LAUNCH = (
    "import sys\n"
    "from freeholo.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*(m for m in sys.modules if m.split('.')[0] == 'freeholo'), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def launched_modules(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeholo.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH] + argv,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(proc.stderr.split())


def test_eval_expr_loads_only_what_it_calls(tmp_path):
    point = write(tmp_path, "p.json", GradedPoint.scalars([1.0, 1.0]).to_json())
    assert launched_modules(["eval", "--expr", FLAGSHIP, "--vars", "2", "--point", point]) == {
        "freeholo", "freeholo.cli", "freeholo.errors", "freeholo.exprlang",
        "freeholo.freepoly", "freeholo.jsonio", "freeholo.mat",
    }


def test_member_loads_no_realization_code(tmp_path):
    delta = write(tmp_path, "delta.json", UNIT_DISK.to_json())
    point = write(tmp_path, "p.json", GradedPoint.scalars([0.5]).to_json())
    loaded = launched_modules(["member", "--delta", delta, "--point", point])
    assert "freeholo.ncpoint" in loaded
    assert not loaded & {f"freeholo.{m}" for m in ("realize", "model", "mero", "approx", "sampling")}


def test_model_residual_loads_no_realization_code(tmp_path):
    loaded = launched_modules(["model-residual", "--samples", fit_samples(tmp_path, n_points=4)])
    assert "freeholo.model" in loaded
    assert not loaded & {f"freeholo.{m}" for m in ("realize", "mero", "approx", "sampling")}


def test_sampling_subcommands_load_no_realization_code(tmp_path):
    # check-nc --expr and a sampled mero certify draw points with sampling,
    # which imports realize only for random_realization
    disk = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5))
    half = write(tmp_path, "half.json", disk.to_json())
    p1 = GradedPoint.scalars([0.25]).to_json()
    point = write(tmp_path, "p1.json", p1)
    samples = write(tmp_path, "s1.json", [p1, GradedPoint.scalars([0.5]).to_json()])
    for argv in (
        ["check-nc", "--expr", "x1*x1", "--vars", "1", "--samples", samples, "--sims", "1"],
        ["mero", "certify", "--expr", "x1 + 1", "--vars", "1", "--delta", half, "--point", point],
    ):
        loaded = launched_modules(argv)
        assert "freeholo.sampling" in loaded, argv
        assert not loaded & {"freeholo.realize", "freeholo.model", "freeholo.approx"}, argv


def test_every_subcommand_runs_in_a_fresh_interpreter(tmp_path):
    # each handler imports what it calls; a missing import would end in a
    # NameError traceback on stderr
    p1 = GradedPoint.scalars([0.25])
    half = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5))
    files = {
        "r": write(tmp_path, "r.json", mobius(0.5).to_json()),
        "p": write(tmp_path, "p.json", GradedPoint.scalars([0.3, 0.2]).to_json()),
        "p1": write(tmp_path, "p1.json", p1.to_json()),
        "s1": write(tmp_path, "s1.json", [p1.to_json(), GradedPoint.scalars([0.5]).to_json()]),
        "far": write(tmp_path, "far.json", [GradedPoint.scalars([1.5]).to_json()]),
        "half": write(tmp_path, "half.json", half.to_json()),
        "s25": write(tmp_path, "s25.json", [p1.to_json()]),
        "cover": write(tmp_path, "cover.json", [
            PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(2.0)).to_json()
        ]),
        "disk": write(tmp_path, "disk.json", [UNIT_DISK.to_json()]),
        "model": fit_samples(tmp_path, n_points=4),
        "corona": write(tmp_path, "corona.json", corona_payload()),
    }
    runs = [
        (["eval", "--expr", FLAGSHIP, "--vars", "2", "--point", "{p}"], 0),
        (["member", "--delta", "{half}", "--point", "{p1}"], 0),
        (["check-nc", "--realization", "{r}", "--samples", "{s1}", "--sims", "1"], 0),
        (["model-residual", "--samples", "{model}"], 0),
        (["fit", "--samples", "{model}"], 0),
        (["corona", "--input", "{corona}"], 0),
        (["approx", "--realization", "{r}", "--cover", "{cover}", "--samples", "{s25}",
          "--tol", "1e-3"], 0),
        (["approx", "--realization", "{r}", "--cover", "{disk}", "--samples", "{far}"], 1),
        (["derive", "--expr", "x1*x1", "--vars", "1", "--point", "{p1}", "--direction", "{p1}"], 0),
        (["mero", "certify", "--expr", "x1 + 1", "--vars", "1", "--delta", "{half}",
          "--point", "{p1}"], 0),
        (["mero", "scan", "--expr", "inv(x1)", "--vars", "1", "--samples", "{s1}"], 0),
        (["derive", "--realization", "{r}", "--vars", "2", "--point", "{p1}",
          "--direction", "{p1}"], 2),
    ]
    for argv, want in runs:
        proc = run_subprocess([a.format(**files) for a in argv])
        assert (proc.returncode, proc.stderr) == (want, ""), argv
        report = strict_loads(proc.stdout)
        assert ("error" in report) == (want != 0), argv


# -- level-stacked evaluation ---------------------------------------------------


def test_check_nc_realization_solves_one_stack_per_level_chunk(tmp_path, capsys, monkeypatch):
    # the 33 combined points are decided by one membership call and solved
    # by one stacked solve per level, then the three samples likewise
    from freeholo import ncpoint, realize

    r = write(tmp_path, "r.json", mobius(0.5).to_json())
    rng = np.random.default_rng(8)
    pts = [GradedPoint.scalars([0.004])] + [
        GradedPoint([0.002 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))])
        for _ in range(2)
    ]
    samples = write(tmp_path, "samples.json", [p.to_json() for p in pts])
    calls, solves = [], []
    memberships, solve = ncpoint.delta_memberships, np.linalg.solve

    def counting(delta, points, *args):
        calls.append(len(points))
        return memberships(delta, points, *args)

    def counting_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(ncpoint, "delta_memberships", counting)
    monkeypatch.setattr(realize, "delta_memberships", counting, raising=False)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    code, rep, _ = run(["check-nc", "--realization", r, "--samples", samples], capsys)
    assert code == 0 and (rep["checks"], rep["skipped"]) == (33, 0)
    assert calls == [33, 3]
    # levels in order of first appearance: the direct sums at 2, 3 and 4,
    # then the level-1 conjugations; the samples at 1 and 2
    assert solves == [(10, 2, 2), (4, 3, 3), (16, 4, 4), (3, 1, 1), (1, 1, 1), (2, 2, 2)]


def reference_sampled_bound(f, delta, seed):
    """A tests-only copy of the sampled bound as it evaluated f point by point."""
    from freeholo.errors import NonFiniteValue

    rng = rng_from_seed(seed)
    points = sampling.points_inside_gdelta(rng, delta, [1 + (i % 3) for i in range(200)])
    by_level = {}
    for i, x in enumerate(points):
        value = f(x)
        if not np.isfinite(value).all():
            raise NonFiniteValue(f"f is not finite at sampled point {i} (level {x.n})")
        by_level.setdefault(x.n, {})[i] = value
    worst = cli.mat.max_op_norm(np.array(list(v.values())) for v in by_level.values())
    if np.isnan(worst):
        norms = (zip(v, cli.mat.op_norms(list(v.values()))) for v in by_level.values())
        i = min(i for level in norms for i, nrm in level if np.isnan(nrm))
        raise NonFiniteValue(f"the norm of f failed at sampled point {i} (level {points[i].n})")
    return worst


@given(
    st.sampled_from(["x1*x1 + 1", "inv(x1 - 0.25) - x2", "inv(x1 - x1)", "1e308*x1*x1*x1 + 1",
                     "inv(1e-200*x1*x2)", "x2*inv(2 + x1*x2)"]),
    st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_sampled_bound_is_the_point_by_point_bound(src, seed):
    from freeholo.exprlang import Schedule, eval_expr, eval_expr_points, parse

    delta = PolyMatrix([[FreePoly.letter(2, 1).scale(0.5), FreePoly.letter(2, 2).scale(0.5)]])
    steps = Schedule(parse(src, 2))

    def outcome(fn, *args):
        try:
            return fn(*args)
        except freeholo.errors.FreeholoError as exc:
            return (type(exc), str(exc))

    with np.errstate(all="ignore"):
        want = outcome(reference_sampled_bound, lambda x: eval_expr(steps, x), delta, seed)
        got = outcome(cli._sampled_bound, lambda ps: eval_expr_points(steps, ps), delta, seed)
    assert got == want


def test_sampled_bound_of_a_realization_is_the_point_by_point_bound():
    from freeholo import realize

    r = random_realization(rng_from_seed(5), UNIT_DISK, 1, 1, 1)
    want = reference_sampled_bound(lambda x: realize.eval_direct(r, x), UNIT_DISK, 4)
    assert cli._sampled_bound(lambda ps: realize.eval_direct_points(r, ps), UNIT_DISK, 4) == want
