"""The four benchmark workloads: seeded inputs, operations and output checks.

Each builder takes a seed and a scratch directory and returns a
:class:`Workload`: one cycle of :class:`Op` objects that the closed loop in
``run.py`` repeats in order, plus a descriptor of the traffic. Sizes and the
cycle are fixed; the seed changes only the random values. Points are scaled
to fixed values of r0 = ||delta(x)||, so Neumann term counts and truncation
orders do not depend on the seed either.

Checks run outside the timed interval and compare against references that
do not share the code under test where one exists (closed forms, plain
numpy formulas, independently planned truncation orders).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from freeholo import cli, jsonio, model, realize, sampling
from freeholo.freepoly import FreePoly, GradedPoint, PolyMatrix, eval_poly_matrix
from freeholo.realize import Realization

X1 = FreePoly.letter(2, 1)
X2 = FreePoly.letter(2, 2)
# The reference grid of the ROADMAP timing table.
GRID = PolyMatrix([[0.5 * X1, 0.5 * X2], [0.3 * X2, 0.3 * (X1 * X2)]])
UNIT_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1))
HALF_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5))
FLAGSHIP = "2 + x1 - x1*x2*x1 + 3*x1*x1*x2"

NEUMANN_TOL = 1e-10
# Rounding allowance on top of a certified bound; values here are contractions.
SLACK = 1e-12
MACHINE = 1e-9


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` and ``digest`` are not."""

    label: str
    run: object
    check: object
    digest: object


@dataclass
class Workload:
    ops: list
    descriptor: dict


# -- input helpers -------------------------------------------------------------


def norm2(a) -> float:
    return float(np.linalg.norm(a, 2))


def grid_value(x: GradedPoint) -> np.ndarray:
    """GRID at x in plain numpy, independent of the package's evaluator."""
    a, b = x.mats
    return np.block([[0.5 * a, 0.5 * b], [0.3 * b, 0.3 * a @ b]])


def scaled(x: GradedPoint, s: float) -> GradedPoint:
    return GradedPoint([s * m for m in x.mats])


def point_at_radius(rng, delta, n: int, r0: float) -> GradedPoint:
    """A seeded point inside the domain, rescaled so ||delta(x)|| = r0."""
    x = sampling.point_inside_gdelta(rng, delta, n)

    def radius(s):
        return norm2(eval_poly_matrix(delta, scaled(x, s)))

    lo, hi = 0.0, 1.0
    while radius(hi) < r0:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if radius(mid) < r0:
            lo = mid
        else:
            hi = mid
    return scaled(x, lo)


def matrix_json(a) -> dict:
    """A complex matrix in the ``freeholo/1`` schema."""
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_json(obj) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=np.complex128)
    return flat.reshape(obj["rows"], obj["cols"])


def write_json(workdir, name, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv):
    """``cli.main`` in process with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_digest(out):
    return repr(out[0]).encode() + out[1].encode()


def histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def mobius(a: complex) -> Realization:
    s = math.sqrt(1.0 - abs(a) ** 2)
    return Realization(UNIT_DISK, 1, 1, 1, np.array([[a, s], [s, -np.conj(a)]]))


def mobius_closed_form(a: complex, x: np.ndarray) -> np.ndarray:
    """a I + (1 - |a|^2) X (I + conj(a) X)^{-1}: the c04 closed form."""
    eye = np.eye(x.shape[0])
    return a * eye + (1.0 - abs(a) ** 2) * x @ np.linalg.inv(eye + np.conj(a) * x)


def disk_points(rng, levels, radius, scale):
    """Level-n disk points rescaled under ``radius`` (as in criterion c07)."""
    pts = []
    for n in levels:
        m = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nrm = norm2(m)
        if nrm >= radius:
            m *= 0.95 * radius / nrm
        pts.append(GradedPoint([m]))
    return pts


def corona_data(rng, mult=16, lam=1.0):
    """Two-function corona data for psi = (z, lam (1 - z)), as in c07."""
    c = lam * lam / (1.0 + lam * lam)
    eps = lam / math.sqrt(1.0 + lam * lam)
    pts = disk_points(rng, [1, 1, 1, 2, 2, 1, 2, 3], radius=0.45, scale=0.4)
    psis = [[p.mats[0] for p in pts], [lam * (np.eye(p.n) - p.mats[0]) for p in pts]]
    scale = math.sqrt(1.0 + lam * lam)
    us = []
    for p in pts:
        m = p.mats[0]
        blocks = [
            scale * np.linalg.matrix_power(m, i) @ (c * np.eye(p.n) - m)
            for i in range(mult)
        ]
        us.append(np.stack(blocks, axis=0).transpose(1, 0, 2).reshape(mult * p.n, p.n))
    return pts, psis, eps, us, mult, lam


# -- eval ----------------------------------------------------------------------

# One cycle of (level n, multiplicity, r0). Classes are ordered by latency and
# weighted so that p50 falls in the middle of the (8, 4) class and p90 in the
# middle of the (32, 4) class: cumulative shares .35-.65 and .80-1.0. A class
# that fills several positions is one input, so its best run is taken over
# all of them.
EVAL_CYCLE = (
    [(1, 1, 0.5), (1, 4, 0.8), (2, 1, 0.8), (2, 4, 0.5), (8, 1, 0.5), "mobius-c04", "mobius-2"]
    + [(8, 4, 0.65)] * 6
    + [(32, 1, 0.65)] * 3
    + [(32, 4, 0.65)] * 4
)


def neumann_order(r0: float, tol: float) -> int:
    """Smallest K >= 0 with r0**(K+2) / (1 - r0) <= tol: the a priori rule."""
    k = 0
    while r0 ** (k + 2) / (1.0 - r0) > tol:
        k += 1
    return k


def _eval_op(r, x, label, tol=NEUMANN_TOL):
    def run():
        return realize.eval_neumann(r, x, tol=tol), realize.eval_direct(r, x)

    def check(out):
        res, direct = out
        require(res.bound <= tol, f"Neumann bound {res.bound:.2e} over tol")
        err = norm2(res.value - direct)
        require(err <= res.bound + SLACK, f"Neumann off direct by {err:.2e} > bound {res.bound:.2e}")
        require(norm2(direct) <= 1.0 + 1e-7, "realization value is not a contraction")

    def digest(out):
        res, direct = out
        return res.value.tobytes() + direct.tobytes() + repr((res.k, res.bound)).encode()

    return Op(label, run, check, digest)


def _mobius_op(a, x, label, tol=NEUMANN_TOL, pinned=None):
    r = mobius(a)
    exact = mobius_closed_form(a, x.mats[0])
    base = _eval_op(r, x, label, tol)

    def check(out):
        base.check(out)
        res, direct = out
        require(norm2(res.value - exact) <= res.bound + SLACK, "Neumann off the Mobius closed form")
        require(norm2(direct - exact) <= SLACK, "eval_direct off the Mobius closed form")
        if pinned is not None:
            want_k, want_bound = pinned
            require(res.k == want_k, f"Mobius term count {res.k} != {want_k}")
            require(abs(res.bound - want_bound) <= 1e-12 * want_bound, "Mobius bound off c04")

    return Op(label, base.run, check, base.digest)


def build_eval(seed, workdir) -> Workload:
    rng = sampling.rng_from_seed(seed)
    real = {m: sampling.random_realization(rng, GRID, 2, 2, m) for m in (1, 4)}
    ops = []
    levels, mults, radii, tols = [], [], [], []
    by_class = {}
    for item in EVAL_CYCLE:
        if item == "mobius-c04":
            # Criterion c04 exactly: a = 0.5 at z = 0.3, tol 1e-8, k = 14.
            ops.append(_mobius_op(0.5, GradedPoint.scalars([0.3]), "mobius-n1", 1e-8,
                                  pinned=(14, 0.3**16 / 0.7)))
            levels.append(1), mults.append(1), radii.append(0.3), tols.append(1e-8)
            continue
        if item == "mobius-2":
            a = complex(0.6 * rng.uniform(-1, 1), 0.6 * rng.uniform(-1, 1)) / math.sqrt(2)
            x = point_at_radius(rng, UNIT_DISK, 2, 0.5)
            ops.append(_mobius_op(a, x, "mobius-n2"))
            levels.append(2), mults.append(1), radii.append(0.5), tols.append(NEUMANN_TOL)
            continue
        n, mult, r0 = item
        if item not in by_class:
            x = point_at_radius(rng, GRID, n, r0)
            by_class[item] = _eval_op(real[mult], x, f"n{n}-m{mult}")
        ops.append(by_class[item])
        levels.append(n), mults.append(mult), radii.append(r0), tols.append(NEUMANN_TOL)
    ks = [neumann_order(r, tol) for r, tol in zip(radii, tols)]
    return Workload(ops, {
        "ops_per_cycle": len(ops),
        "level": histogram(levels),
        "mult": histogram(mults),
        "r0": histogram(radii),
        "neumann_k_planned": histogram(ks),
        "tol": NEUMANN_TOL,
        "realization": "Haar-random, k1 = k2 = 2, on GRID",
    })


# -- fit -----------------------------------------------------------------------

FIT_POINTS = 120
FIT_MULT = 2
# Two fits per four corona solves: corona (fast) holds cumulative share 0-.67
# and fit (slow) .67-1, so p50 sits inside corona and p90 inside fit.
FIT_CYCLE = ("fit", "corona", "corona", "fit", "corona", "corona")


def build_fit(seed, workdir) -> Workload:
    rng = sampling.rng_from_seed(seed)
    truth = sampling.random_realization(rng, GRID, 2, 2, FIT_MULT)
    pts = [sampling.point_inside_gdelta(rng, GRID, 1 + i % 4) for i in range(FIT_POINTS)]
    samples = model.model_from_realization(truth, pts)
    probes = [sampling.point_inside_gdelta(rng, GRID, n) for n in (1, 3)]
    truth_at = [realize.eval_direct(truth, x) for x in probes]
    pts_c, psis, eps, us, mult, lam = corona_data(rng)
    corona_probes = disk_points(rng, [1, 2, 3], radius=0.45, scale=0.4)

    def run_fit():
        return model.model_residual(samples), realize.fit_lurking_isometry(samples, holdout=True)

    def check_fit(out):
        resid, fit = out
        require(resid <= MACHINE, f"model residual {resid:.2e}")
        require(fit.gram_deviation <= MACHINE, f"Gram deviation {fit.gram_deviation:.2e}")
        require(fit.train_residual <= MACHINE, f"train residual {fit.train_residual:.2e}")
        require(fit.holdout_deviation is not None and fit.holdout_deviation <= MACHINE,
                f"holdout deviation {fit.holdout_deviation}")
        for x, want in zip(probes, truth_at):
            got = realize.eval_direct(fit.realization, x)
            require(norm2(got - want) <= 1e-6, "fitted realization differs from the truth")

    def digest_fit(out):
        resid, fit = out
        return repr(resid).encode() + fit.realization.j1.tobytes()

    def run_corona():
        return realize.corona_solve(UNIT_DISK, pts_c, psis, eps, us, mult)

    def check_corona(sol):
        require(sol.identity_residual <= 1e-6, f"corona residual {sol.identity_residual:.2e}")
        require(abs(sol.norm_bound - 1.0 / eps) <= 1e-12, "corona norm bound is not 1/epsilon")
        for x in corona_probes:
            m = x.mats[0]
            phis = sol.phi_values(x)
            ident = phis[0] @ m + phis[1] @ (lam * (np.eye(x.n) - m)) - np.eye(x.n)
            require(norm2(ident) <= 1e-6, "corona identity fails at a probe point")
            require(sol.row_norm_at(x) <= 1.0 / eps + 1e-6, "corona row norm over its bound")

    def digest_corona(sol):
        return repr(sol.identity_residual).encode() + sol.omega.j1.tobytes()

    fit_op = Op("fit", run_fit, check_fit, digest_fit)
    corona_op = Op("corona", run_corona, check_corona, digest_corona)
    ops = [fit_op if kind == "fit" else corona_op for kind in FIT_CYCLE]
    return Workload(ops, {
        "ops_per_cycle": len(ops),
        "fit_samples": FIT_POINTS,
        "fit_level": histogram(p.n for p in pts),
        "fit_mult": FIT_MULT,
        "fit_holdout": True,
        "corona_samples": len(pts_c),
        "corona_level": histogram(p.n for p in pts_c),
        "corona_mult": mult,
        "mix": histogram(FIT_CYCLE),
    })


# -- approx --------------------------------------------------------------------

APPROX_TOL = 1e-6
LEVEL_CAP = 8  # the CLI default; the workload never passes --level-cap
# (truncation order k, sample levels): one input per class, five positions
# each, so p50 falls on k = 4 and p90 on k = 6. The sample sets give closures
# of 8, 4, 14, 2 and 6 points. Two level-1 samples (a 510-point closure) and
# three (TermBlowup after ~160 s) are left out: one such operation outlasts a
# whole run.
APPROX_CLASSES = ((2, (1,)), (3, (2,)), (4, (2, 3)), (5, (4,)), (6, (3, 4)))
APPROX_REPEATS = 5


def radius_for_order(k: int, tol: float) -> float:
    """Cover radius whose shrink factor makes k the certified order with room.

    Solves q**(k + 1.5) / (1 - q) = tol for q = 1/t, half way between the
    orders k and k + 1, and inverts t = (1 + 1/r) / 2.
    """
    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(200):
        q = 0.5 * (lo + hi)
        if q ** (k + 1.5) / (1.0 - q) > tol:
            hi = q
        else:
            lo = q
    t = 1.0 / lo
    return 1.0 / (2.0 * t - 1.0)


def planned_order(r: float, tol: float) -> tuple[int, float, float]:
    t = (1.0 + 1.0 / r) / 2.0
    q = 1.0 / t
    k = 0
    while q ** (k + 2) / (1.0 - q) > tol:
        k += 1
    return k, t, q ** (k + 2) / (1.0 - q)


def closure_points(levels, cap=LEVEL_CAP) -> int:
    """Distinct direct sums of the samples up to total level ``cap``."""
    ways = [0] * (cap + 1)
    ways[0] = 1
    for total in range(1, cap + 1):
        ways[total] = sum(ways[total - n] for n in levels if n <= total)
    return sum(ways[1:])


def build_approx(seed, workdir) -> Workload:
    rng = sampling.rng_from_seed(seed)
    reals = [sampling.random_realization(rng, GRID, 1, 1, 1) for _ in range(2)]
    real_paths = [write_json(workdir, f"real{i}.json", r.to_json()) for i, r in enumerate(reals)]
    decoy = PolyMatrix([[e.scale(1.25) for e in row] for row in GRID.entries])
    cover = write_json(workdir, "cover.json", [GRID.to_json(), decoy.to_json()])
    ops = []
    terms = {}  # k -> term count, filled in by the checks
    for idx, (k, levels) in enumerate(APPROX_CLASSES):
        r = radius_for_order(k, APPROX_TOL)
        want_k, t, want_bound = planned_order(r, APPROX_TOL)
        assert want_k == k
        pts = [point_at_radius(rng, GRID, n, r * (1.0 if j == 0 else 0.8))
               for j, n in enumerate(levels)]
        samples = write_json(workdir, f"samples{idx}.json", [p.to_json() for p in pts])
        real = reals[idx % 2]
        argv = ["approx", "--realization", real_paths[idx % 2], "--cover", cover,
                "--samples", samples, "--tol", repr(APPROX_TOL)]
        probes = [sampling.point_in_shrunk_domain(rng, GRID, n, t) for n in (1, 2)]
        ops += [_approx_op(f"k{k}", argv, real, k, r, want_bound, probes, terms)] * APPROX_REPEATS
    return Workload(ops, {
        "ops_per_cycle": len(ops),
        "truncation_k": {str(k): APPROX_REPEATS for k, _ in APPROX_CLASSES},
        "closure_points": {str(k): closure_points(lv) for k, lv in APPROX_CLASSES},
        "sample_levels": {str(k): "+".join(map(str, lv)) for k, lv in APPROX_CLASSES},
        "tol": APPROX_TOL,
        "cover_candidates": 2,
        "realization": "Haar-random, k1 = k2 = 1, mult = 1, on GRID",
        "term_count": terms,
    })


def _approx_op(label, argv, real, k, r, want_bound, probes, terms):
    def check(out):
        code, text = out
        require(code == 0, f"approx exit code {code}")
        rep = strict_json(text)
        require(rep["k"] == k, f"approx k {rep['k']} != planned {k}")
        require(rep["cover_index"] == 0, "approx chose the decoy cover")
        require(abs(rep["radius"] - r) <= 1e-9 * r, "approx radius off the sample radius")
        require(rep["bound"] <= APPROX_TOL, "approx bound over tol")
        require(abs(rep["bound"] - want_bound) <= 1e-9 * want_bound, "approx bound off the plan")
        poly = jsonio.decode("matrixpoly", rep["polynomial"])
        require(rep["term_count"] == poly.term_count(), "term_count disagrees with the polynomial")
        for x in probes:
            err = norm2(poly.eval(x) - realize.eval_direct(real, x))
            require(err <= rep["bound"] + SLACK, f"approximant off by {err:.2e} > bound")
        terms[str(k)] = rep["term_count"]

    return Op(label, lambda: run_cli(argv), check, cli_digest)


# -- cli -----------------------------------------------------------------------

# Commands in four latency bands (best runs on a 2-core Xeon): single-file
# commands (~3 ms, cumulative share 0-.40), model-residual and fit (~7 ms,
# .40-.60), check-nc on the expression and corona (~12 ms, .60-.80), mero
# certify with its 200 sampled draws and check-nc on the realization
# (~28 ms, .80-1.0). p50 falls in the middle of the second band and p90 in
# the middle of the last; check-nc takes about a third of the time.
CLI_MIX = {
    "eval": 2, "member": 1, "member-outside": 1, "derive": 1, "eval-bad-vars": 1,
    "mero-scan": 2, "fit-corrupt": 1, "fit": 2, "model-residual": 1,
    "check-nc-expr": 2, "corona": 2, "mero-certify": 2, "check-nc-realization": 2,
}


def build_cli(seed, workdir) -> Workload:
    rng = sampling.rng_from_seed(seed)
    ops = {}

    def w(name, payload):
        return write_json(workdir, name, payload)


    # eval: the flagship polynomial at a level-4 point, against plain numpy.
    x = sampling.random_graded_point(rng, 2, 4, scale=0.7)
    a, b = x.mats
    want = 2 * np.eye(4) + a - a @ b @ a + 3 * a @ a @ b
    p_eval = w("eval_point.json", x.to_json())

    def check_eval(rep):
        got = matrix_from_json(rep["value"])
        require(norm2(got - want) <= 1e-12 * max(1.0, norm2(want)), "eval value off numpy")

    ops["eval"] = (["eval", "--expr", FLAGSHIP, "--vars", "2", "--point", p_eval], 0, check_eval)
    ops["eval-bad-vars"] = (
        ["eval", "--expr", FLAGSHIP, "--vars", "3", "--point", p_eval], 2,
        lambda rep: require(rep["error"]["type"] == "SchemaError", "wrong error type"))

    # member: inside and outside points, norm against plain numpy.
    p_grid = w("grid.json", GRID.to_json())
    inside = point_at_radius(rng, GRID, 3, 0.7)
    outside = scaled(inside, 2.0)

    def member_check(pt, status):
        nrm = norm2(grid_value(pt))

        def check(rep):
            require(rep["status"] == status, f"member status {rep['status']} != {status}")
            require(abs(rep["norm"] - nrm) <= 1e-12, "member norm off numpy")

        return check

    ops["member"] = (["member", "--delta", p_grid, "--point", w("in.json", inside.to_json())],
                     0, member_check(inside, "inside"))
    ops["member-outside"] = (
        ["member", "--delta", p_grid, "--point", w("out.json", outside.to_json())],
        0, member_check(outside, "outside"))

    # check-nc on an expression and on a realization. At r0 = 0.015 every
    # direct sum, conjugation (cond <= 50) and triangular point stays inside
    # the domain, so no check is skipped and the work does not vary by seed.
    nc_pts = [point_at_radius(rng, GRID, n, 0.015) for n in (1, 2, 2)]
    p_nc = w("nc_samples.json", [p.to_json() for p in nc_pts])
    truth = sampling.random_realization(rng, GRID, 1, 1, 1)
    p_real = w("real.json", truth.to_json())

    def check_nc(rep):
        require(rep["passed"] is True, "check-nc did not pass")
        require(rep["checks"] > 0, "check-nc made no checks")

    ops["check-nc-expr"] = (["check-nc", "--expr", FLAGSHIP, "--vars", "2", "--samples", p_nc],
                            0, check_nc)
    ops["check-nc-realization"] = (["check-nc", "--realization", p_real, "--samples", p_nc],
                                   0, check_nc)

    # model-residual and fit on 10 points; a corrupted copy must exit 1.
    fit_pts = [sampling.point_inside_gdelta(rng, GRID, 1 + i % 2) for i in range(10)]
    s = model.model_from_realization(truth, fit_pts)
    payload = s.to_json()
    p_model = w("model.json", payload)
    bad = json.loads(json.dumps(payload))
    bad["psi"][1]["data"][0][0] += 0.37
    p_bad = w("model_bad.json", bad)
    probe = sampling.point_inside_gdelta(rng, GRID, 2)
    truth_probe = realize.eval_direct(truth, probe)

    def check_residual(rep):
        require(rep["residual"] <= MACHINE, "model residual not at machine scale")
        require(rep["points"] == len(fit_pts), "model-residual point count")

    def check_fit(rep):
        require(rep["train_residual"] <= MACHINE and rep["holdout_deviation"] <= MACHINE,
                "fit residuals not at machine scale")
        fitted = Realization.from_json(rep["realization"])
        require(norm2(realize.eval_direct(fitted, probe) - truth_probe) <= 1e-6,
                "fitted realization differs from the truth")

    ops["model-residual"] = (["model-residual", "--samples", p_model], 0, check_residual)
    ops["fit"] = (["fit", "--samples", p_model], 0, check_fit)
    ops["fit-corrupt"] = (["fit", "--samples", p_bad], 1,
                          lambda rep: require(rep["error"]["type"] == "GramMismatch",
                                              "corrupted fit did not report GramMismatch"))

    # corona on c07 data.
    pts_c, psis, eps, us, mult, lam = corona_data(rng)
    p_corona = w("corona.json", {
        "delta": UNIT_DISK.to_json(), "epsilon": eps, "mult": mult,
        "points": [p.to_json() for p in pts_c],
        "psis": [[matrix_json(m) for m in row] for row in psis],
        "u": [matrix_json(m) for m in us],
    })

    def check_corona(rep):
        require(rep["identity_residual"] <= 1e-6, "corona identity residual")
        require(abs(rep["norm_bound"] - 1.0 / eps) <= 1e-12, "corona norm bound")
        require(rep["functions"] == 2, "corona function count")

    ops["corona"] = (["corona", "--input", p_corona], 0, check_corona)

    # derive x1*x1 at M along E: the exact derivative is M E + E M.
    m_pt = sampling.random_graded_point(rng, 1, 3)
    e_pt = sampling.random_graded_point(rng, 1, 3)
    want_d = m_pt.mats[0] @ e_pt.mats[0] + e_pt.mats[0] @ m_pt.mats[0]

    def check_derive(rep):
        got = matrix_from_json(rep["derivative"])
        require(norm2(got - want_d) <= 1e-12 * max(1.0, norm2(want_d)), "derivative off M E + E M")

    ops["derive"] = (["derive", "--expr", "x1*x1", "--vars", "1",
                      "--point", w("m.json", m_pt.to_json()),
                      "--direction", w("e.json", e_pt.to_json())], 0, check_derive)

    # mero certify with a sampled bound: f = x1*x1 + 1 on {|z| < 2}, sup |f| = 5.
    p_half = w("half.json", HALF_DISK.to_json())
    z = float(rng.uniform(0.2, 0.8))

    def check_certify(rep):
        require(rep["bound_source"] == "sampled", "certify bound source")
        require(0.0 < rep["bound_sup"] <= 5.0 + 1e-9, "sampled sup bound exceeds the true sup 5")
        require(abs(rep["bound_inv"] - 2.0 / (z * z + 1.0)) <= 1e-12, "bound_inv off 2/|f(M)|")

    ops["mero-certify"] = (["mero", "certify", "--expr", "x1*x1 + 1", "--vars", "1",
                            "--delta", p_half,
                            "--point", w("z.json", GradedPoint.scalars([z]).to_json())],
                           0, check_certify)

    # mero scan: inv(x1 - 1) at six points, one of them singular.
    scan_pts = [sampling.random_graded_point(rng, 1, 1 + i % 3, scale=0.3) for i in range(5)]
    scan_pts.insert(2, GradedPoint.scalars([1.0]))

    def check_scan(rep):
        require(rep["checked"] == 6 and rep["singular_count"] == 1, "scan counts")
        require(rep["entries"][2]["singular"] is True, "scan missed the singular point")

    ops["mero-scan"] = (["mero", "scan", "--expr", "inv(x1 - 1)", "--vars", "1",
                         "--samples", w("scan.json", [p.to_json() for p in scan_pts])],
                        0, check_scan)

    cycle = []
    for name, weight in CLI_MIX.items():
        argv, code, inv = ops[name]
        cycle += [_cli_op(name, argv, code, inv)] * weight
    return Workload(cycle, {
        "ops_per_cycle": len(cycle),
        "mix": dict(CLI_MIX),
        "check_nc_samples": len(nc_pts),
        "model_samples": len(fit_pts),
        "corona_samples": len(pts_c),
        "scan_samples": len(scan_pts),
        "sampled_bound_draws": 200,
    })


def _cli_op(name, argv, want_code, invariant):
    def check(out):
        code, text = out
        require(code == want_code, f"{name}: exit code {code} != {want_code}")
        rep = strict_json(text)
        invariant(rep)

    return Op(name, lambda: run_cli(argv), check, cli_digest)


BUILDERS = {"eval": build_eval, "fit": build_fit, "approx": build_approx, "cli": build_cli}
