"""Batch command line front end.

Every subcommand reads JSON files, runs one library routine, and prints a
JSON report to stdout (or writes it to ``--out``). Reports are rendered
with sorted keys and a fixed indent, so identical inputs plus an identical
seed produce byte-identical output. Each report embeds the schema version,
the tensor layout convention string, the tolerance, and the seed.

Exit status: 0 on success, 1 when the mathematics rejects the input
(mismatched Gram data, no covering grid, a floor violation, a singular
evaluation, a point outside the domain), and 2 on I/O or schema problems,
including numeric flags outside their domain. Reports are strict JSON:
non-finite numbers, such as the infinite shrink factor of ``approx`` at a
sample set on the grid's zero set, are written as ``null``.

At module level this imports only what ``eval --expr`` runs; every other
handler imports its library modules when it is called.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from . import jsonio, mat
from .errors import (
    ExprSyntaxError,
    FreeholoError,
    NoCover,
    NonFiniteValue,
    SchemaError,
    UnknownVariable,
)
from .exprlang import Schedule, eval_expr, eval_expr_points, parse, print_expr
from .freepoly import DEFAULT_MARGIN
from .jsonio import SCHEMA_VERSION, TENSOR_CONVENTION
from .mat import json_int, matrix_to_json

_INPUT_ERRORS = (SchemaError, ExprSyntaxError, UnknownVariable)


def _base_report(args) -> dict:
    """The keys every report carries; ``main`` merges a handler's keys over them."""
    return {
        "schema": SCHEMA_VERSION,
        "convention": TENSOR_CONVENTION,
        "tol": args.tol,
        "seed": args.seed,
    }


def _nulled(obj):
    """The report with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nulled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(v) for v in obj]
    return obj


def _render(report: dict) -> str:
    """The report as indented strict JSON with sorted keys, by
    :func:`jsonio.dumps`: the bytes of ``json.dumps(report, sort_keys=True,
    indent=2, allow_nan=False)``, with a ``MatrixPoly`` (the ``approx``
    polynomial) written by its ``json_text``. A NaN or infinity anywhere
    renders the report again with each such float as ``null``.
    """
    try:
        text = jsonio.dumps(report)
    except ValueError:
        # a NaN or infinity somewhere; the walk is skipped on the common path
        text = jsonio.dumps(_nulled(report))
    return text + "\n"


def _emit(report: dict, out_path) -> None:
    text = _render(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


class _Function(NamedTuple):
    """A function read from the command line: its one-point evaluator ``f``
    and its point-list form ``f_points`` (per point, the value or the
    :class:`FreeholoError` that ``f`` raises there), ``d`` variables, as
    ``source`` names them, and the parsed ``tree`` of an expression (None
    for a realization)."""

    kind: str
    f: object
    f_points: object
    dims: tuple
    d: int
    source: str
    tree: object


def _load_function(args) -> _Function:
    """The function given by ``--realization`` or by ``--expr``/``--expr-file``
    with ``--vars``; :class:`SchemaError` when more than one of those
    sources is given, before any file is read, or when ``--vars`` is given
    with a realization of another d.

    A realization's evaluator raises :class:`OutsideDomain` at points
    outside its domain, after the one membership test it makes anyway. The
    point-list forms evaluate one level stack at a time
    (``realize.eval_direct_points``, ``exprlang.eval_expr_points``).
    """
    given = [flag for flag in ("--realization", "--expr", "--expr-file")
             if getattr(args, flag[2:].replace("-", "_"), None) is not None]
    if len(given) > 1:
        raise SchemaError(f"{', '.join(given[:-1])} and {given[-1]} are alternatives; give one")
    if given == ["--realization"]:
        from . import realize

        r = jsonio.load("realization", args.realization)
        if args.vars is not None:
            _check_d([r.delta], args.vars, "--realization", "--vars")
        return _Function("realization", lambda x: realize.eval_direct(r, x),
                         lambda points: realize.eval_direct_points(r, points),
                         (r.dim_k1, r.dim_k2), r.delta.d, "the d of --realization", None)
    src = args.expr
    if src is None:
        if args.expr_file is None:
            raise SchemaError("one of --expr or --expr-file is required")
        try:
            with open(args.expr_file, "r", encoding="utf-8") as fh:
                src = fh.read().strip()
        except OSError as exc:
            raise SchemaError(f"cannot read expression file {args.expr_file}: {exc}") from exc
    if args.vars is None:
        raise SchemaError("--vars is required with --expr/--expr-file")
    tree = parse(src, args.vars)
    steps = Schedule(tree)
    return _Function("expr", lambda x: eval_expr(steps, x),
                     lambda points: eval_expr_points(steps, points),
                     (1, 1), args.vars, "--vars", tree)


def _check_d(values, d: int, name: str, source: str) -> None:
    """:class:`SchemaError` naming the input ``name`` unless every point or
    grid in ``values`` has the ``d`` variables of ``source``."""
    for x in values:
        if x.d != d:
            raise SchemaError(f"{name} has d={x.d} but {source} is {d}")


def _load_points(args, flag: str, d: int, source: str, many: bool = False):
    """The graded point in the file under ``--flag``, or the list in it if
    ``many``, each checked to have ``d`` variables."""
    path = getattr(args, flag)
    points = jsonio.load_list("gradedpoint", path) if many else [jsonio.load("gradedpoint", path)]
    _check_d(points, d, flag, source)
    return points if many else points[0]


def _cmd_eval(args) -> dict:
    fn = _load_function(args)
    x = _load_points(args, "point", fn.d, fn.source)
    value = fn.f(x)
    return {
        "command": "eval",
        "expr": print_expr(fn.tree),
        "vars": fn.d,
        "level": x.n,
        "value": matrix_to_json(value),
    }


def _cmd_member(args) -> dict:
    from . import ncpoint

    delta = jsonio.load("polymatrix", args.delta)
    x = _load_points(args, "point", delta.d, "the d of --delta")
    m = ncpoint.in_gdelta(delta, x, margin=args.margin)
    return {
        "command": "member",
        "status": m.status,
        "distance": m.distance,
        "norm": m.norm,
        "margin": m.margin,
        "level": x.n,
    }


def _cmd_check_nc(args) -> dict:
    from . import ncpoint, sampling

    fn = _load_function(args)
    samples = _load_points(args, "samples", fn.d, fn.source, many=True)
    if not samples:
        raise SchemaError("empty sample list")
    rng = sampling.rng_from_seed(args.seed)
    levels = sorted({p.n for p in samples})
    sims = []
    couplings = []
    for n in levels:
        for _ in range(args.sims):
            sims.append(sampling.random_invertible(rng, n))
            couplings.append(sampling.random_matrix(rng, n))
    rep = ncpoint.check_nc_axioms(
        fn.f, samples, sims=sims, couplings=couplings, dims=fn.dims, tol=args.tol,
        f_points=fn.f_points,
    )
    return {
        "command": "check-nc",
        "evaluator": fn.kind,
        "passed": rep.passed,
        "checks": rep.checks,
        "skipped": rep.skipped,
        "direct_sum_dev": rep.direct_sum_dev,
        "similarity_dev": rep.similarity_dev,
        "triangular_dev": rep.triangular_dev,
    }


def _load_samples(args):
    """The model sample set under ``--samples``, with at least one point."""
    s = jsonio.load("modelsamples", args.samples)
    if not len(s):
        raise SchemaError("empty model sample set")
    return s


def _cmd_model_residual(args) -> dict:
    from . import model

    s = _load_samples(args)
    return {
        "command": "model-residual",
        "residual": model.model_residual(s),
        "diagonal_floor": model.diagonal_floor(s),
        "points": len(s.points),
        "mult": s.mult,
    }


def _fit_summary(fit) -> dict:
    return {
        "gram_deviation": fit.gram_deviation,
        "rank": fit.rank,
        "train_residual": fit.train_residual,
        "padded_cols": fit.padded_cols,
        "holdout_indices": list(fit.holdout_indices),
        "holdout_deviation": fit.holdout_deviation,
    }


def _cmd_fit(args) -> dict:
    from . import realize

    s = _load_samples(args)
    fit = realize.fit_lurking_isometry(
        s,
        gram_rtol=args.gram_rtol,
        rank_rtol=args.rank_rtol,
        holdout=not args.no_holdout,
    )
    return {
        "command": "fit",
        "realization": fit.realization.to_json(),
        **_fit_summary(fit),
    }


def _cmd_corona(args) -> dict:
    from . import realize

    payload = jsonio.load_json(args.input)
    try:
        delta = jsonio.decode("polymatrix", payload["delta"])
        if type(payload["epsilon"]) not in (int, float):  # so no bool or string
            raise ValueError(f"epsilon must be a number, got {payload['epsilon']!r}")
        epsilon = float(payload["epsilon"])
        mult = json_int(payload["mult"], "mult")
        points = [jsonio.decode("gradedpoint", p) for p in payload["points"]]
        psis = [
            [jsonio.decode("cmatrix", m) for m in row]
            for row in payload["psis"]
        ]
        us = [jsonio.decode("cmatrix", m) for m in payload["u"]]
        if any(len(values) != len(points) for values in (us, *psis)):
            raise ValueError("u and every column function need one value per point")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed corona input: {exc}") from exc
    _check_d(points, delta.d, "input", "the d of its delta")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise SchemaError(f"corona epsilon must be positive and finite, got {epsilon}")
    if mult < 1 or not (points and psis):
        raise SchemaError(f"corona input needs mult >= 1 (got {mult}), a point and a psi")
    for s, x in enumerate(points):
        n, rows = x.n, x.n * mult * delta.cols
        if any(row[s].shape != (n, n) for row in psis) or us[s].shape != (rows, n):
            raise SchemaError(f"at point {s} every psi must be {n}x{n} and u {rows}x{n}")
    sol = realize.corona_solve(
        delta, points, psis, epsilon, us, mult, floor_slack=args.floor_slack
    )
    return {
        "command": "corona",
        "epsilon": sol.epsilon,
        "norm_bound": sol.norm_bound,
        "identity_residual": sol.identity_residual,
        "functions": len(psis),
        "realization": sol.fit.realization.to_json(),
        **_fit_summary(sol.fit),
    }


def _cmd_approx(args) -> dict:
    from . import approx

    r = jsonio.load("realization", args.realization)
    candidates = jsonio.load_list("polymatrix", args.cover)
    _check_d(candidates, r.delta.d, "cover", "the d of --realization")
    samples = _load_points(args, "samples", r.delta.d, "the d of --realization", many=True)
    # a tail in the shrink factor of a cover bounds the series only when the
    # cover dominates the realization's grid; cover_index counts in --cover
    keep = [i for i, c in enumerate(candidates) if approx.dominates(c, r.delta)]
    if candidates and not keep:
        raise NoCover(f"no candidate grid holds the {r.delta.rows}x{r.delta.cols} grid of "
                      "the realization as c times a submatrix with 0 < c <= 1")
    try:
        sel = approx.select_covering_delta(samples, [candidates[i] for i in keep])
    except NonFiniteValue as e:
        j = keep[e.candidate]
        raise NonFiniteValue(f"candidate grid {j} is not finite on the samples", j) from None
    k = approx.choose_truncation(args.tol, sel.t)
    bound = approx.certify_error(r, k, sel.t)
    poly = approx.expand_polynomial(r, k)
    return {
        "command": "approx",
        "cover_index": keep[sel.index],
        "radius": sel.radius,
        "t": sel.t,
        "k": k,
        "bound": bound,
        "term_count": poly.term_count(),
        "polynomial": poly,
    }


def _cmd_derive(args) -> dict:
    from . import ncpoint

    fn = _load_function(args)
    m = _load_points(args, "point", fn.d, fn.source)
    e = _load_points(args, "direction", fn.d, fn.source)
    val = ncpoint.nc_derivative(fn.f, m, e, dims=fn.dims)
    return {
        "command": "derive",
        "evaluator": fn.kind,
        "level": m.n,
        "derivative": matrix_to_json(val),
    }


def _sampled_bound(f_points, delta, seed: int) -> float:
    """The largest ``||f(x)||`` over 200 points sampled inside the domain,
    with ``f_points`` the point-list form of f; the error f raises at the
    first point where it raises, or :class:`NonFiniteValue` at the first
    point where a value is not finite, whichever comes first, and else
    where a norm's SVD failed."""
    from . import sampling

    rng = sampling.rng_from_seed(seed)
    points = sampling.points_inside_gdelta(rng, delta, [1 + (i % 3) for i in range(200)])
    values = f_points(points)
    failed = any(isinstance(v, FreeholoError) for v in values)
    # NaN when a value is not finite or an SVD failed; only then is each point looked at
    worst = math.nan if failed else mat.max_op_norm(s for _, s in mat.shape_stacks(values))
    if math.isnan(worst):
        for i, (x, value) in enumerate(zip(points, values)):
            if isinstance(value, FreeholoError):
                raise value
            if not np.isfinite(value).all():
                raise NonFiniteValue(f"f is not finite at sampled point {i} (level {x.n})")
        i = next(i for i, nrm in enumerate(mat.op_norms_of(values)) if math.isnan(nrm))
        raise NonFiniteValue(f"the norm of f failed at sampled point {i} (level {points[i].n})")
    return worst


def _cmd_mero_certify(args) -> dict:
    from . import mero

    fn = _load_function(args)
    delta = jsonio.load("polymatrix", args.delta)
    _check_d([delta], fn.d, "delta", fn.source)
    m = _load_points(args, "point", fn.d, fn.source)
    if args.bound is not None:
        bound_sup = args.bound
        bound_source = "asserted"
    else:
        bound_sup = _sampled_bound(fn.f_points, delta, args.seed)
        bound_source = "sampled"
    cert = mero.inversion_certificate(
        fn.f, delta, m, bound_sup, bound_source=bound_source
    )
    return {
        "command": "mero-certify",
        "expr": print_expr(fn.tree),
        "bound_inv": cert.bound_inv,
        "bound_sup": cert.bound_sup,
        "bound_source": cert.bound_source,
        "c": [float(cert.c.real), float(cert.c.imag)],
        "p_coeffs": _pairs(cert.p_coeffs),
        "roots": _pairs(cert.roots),
        "p_residual": cert.p_residual,
    }


def _cmd_mero_scan(args) -> dict:
    from . import mero

    fn = _load_function(args)
    samples = _load_points(args, "samples", fn.d, fn.source, many=True)
    rep = mero.singular_scan(fn.tree, samples)
    return {
        "command": "mero-scan",
        "expr": print_expr(fn.tree),
        "checked": rep.total,
        "singular_count": rep.n_singular,
        "singular_paths": [list(p) for p in rep.paths()],
        "entries": [
            {
                "index": e.index,
                "level": e.level,
                "singular": e.singular,
                "path": None if e.path is None else list(e.path),
                "value_norm": e.value_norm,
            }
            for e in rep.entries
        ],
    }


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-8, help="tolerance recorded in the report and used where the command needs one")
    p.add_argument("--seed", type=int, default=0, help="seed for any randomized sampling")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")


def _add_function_flags(p: argparse.ArgumentParser, realization: bool = False) -> None:
    """The flags :func:`_load_function` reads; ``--vars`` is required
    unless ``--realization`` is offered."""
    p.add_argument("--expr", default=None, help="inline expression source")
    p.add_argument("--expr-file", default=None, dest="expr_file", help="file holding the expression")
    p.add_argument("--vars", type=int, required=not realization, help="number of free variables d")
    if realization:
        p.add_argument("--realization", default=None, help="Realization JSON file (alternative to --expr)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``freeholo`` parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged and every default is immutable, so
    each ``parse_args`` still returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="freeholo",
        description="Evaluate, check, fit, approximate, and certify free holomorphic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at a matrix point")
    _add_function_flags(p)
    p.add_argument("--point", required=True, help="GradedPoint JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("member", help="test membership of a point in a basic free open set")
    p.add_argument("--delta", required=True, help="PolyMatrix JSON file")
    p.add_argument("--point", required=True, help="GradedPoint JSON file")
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    _add_common(p)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("check-nc", help="check direct-sum and similarity behaviour on samples")
    _add_function_flags(p, realization=True)
    p.add_argument("--samples", required=True, help="JSON array of GradedPoint")
    p.add_argument("--sims", type=int, default=3, help="random similarities per level")
    _add_common(p)
    p.set_defaults(handler=_cmd_check_nc)

    p = sub.add_parser("model-residual", help="residual of the model identity on sample data")
    p.add_argument("--samples", required=True, help="ModelSampleSet JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_model_residual)

    p = sub.add_parser("fit", help="fit a realization to model sample data")
    p.add_argument("--samples", required=True, help="ModelSampleSet JSON file")
    p.add_argument("--gram-rtol", type=float, default=1e-6, dest="gram_rtol")
    p.add_argument("--rank-rtol", type=float, default=1e-8, dest="rank_rtol")
    p.add_argument("--no-holdout", action="store_true", dest="no_holdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("corona", help="solve a corona problem from pointwise data")
    p.add_argument("--input", required=True, help="JSON file with delta, epsilon, mult, points, psis, u")
    p.add_argument("--floor-slack", type=float, default=1e-9, dest="floor_slack")
    _add_common(p)
    p.set_defaults(handler=_cmd_corona)

    p = sub.add_parser("approx", help="certified polynomial approximation of a realized function")
    p.add_argument("--realization", required=True, help="Realization JSON file")
    p.add_argument("--cover", required=True, help="JSON array of candidate PolyMatrix grids")
    p.add_argument("--samples", required=True, help="JSON array of GradedPoint to cover")
    _add_common(p)
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("derive", help="directional derivative via the triangular embedding")
    _add_function_flags(p, realization=True)
    p.add_argument("--point", required=True, help="GradedPoint JSON file (base point)")
    p.add_argument("--direction", required=True, help="GradedPoint JSON file (direction)")
    _add_common(p)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("mero", help="meromorphic inversion tools")
    msub = p.add_subparsers(dest="mero_command", required=True)

    pc = msub.add_parser("certify", help="inversion certificate for f at an invertible value")
    _add_function_flags(pc)
    pc.add_argument("--delta", required=True, help="PolyMatrix JSON file for the domain")
    pc.add_argument("--point", required=True, help="GradedPoint JSON file (the point M)")
    pc.add_argument("--bound", type=float, default=None, help="asserted sup bound B; sampled when omitted")
    _add_common(pc)
    pc.set_defaults(handler=_cmd_mero_certify)

    ps = msub.add_parser("scan", help="scan samples for singular inversions")
    _add_function_flags(ps)
    ps.add_argument("--samples", required=True, help="JSON array of GradedPoint")
    _add_common(ps)
    ps.set_defaults(handler=_cmd_mero_scan)

    return parser


def _error_report(args, exc: Exception) -> dict:
    report = _base_report(args)
    info = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("offset", "deviation", "condition", "path", "index", "d"):
        if hasattr(exc, attr):
            val = getattr(exc, attr)
            if isinstance(val, tuple):
                val = list(val)
            info[attr] = val
    report["error"] = info
    return report


def _check_flags(args) -> None:
    """Reject numeric flags outside their domain before any library call."""
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise SchemaError(f"--tol must be positive and finite, got {args.tol}")
    bound = getattr(args, "bound", None)
    if bound is not None and not (math.isfinite(bound) and bound > 0):
        raise SchemaError(f"--bound must be positive and finite, got {bound}")
    n_vars = getattr(args, "vars", None)
    if n_vars is not None and n_vars < 1:
        raise SchemaError(f"--vars must be at least 1, got {n_vars}")
    for flag in ("margin", "gram_rtol", "rank_rtol", "floor_slack"):
        value = getattr(args, flag, 0.0)
        if not (math.isfinite(value) and value >= 0):
            name = "--" + flag.replace("_", "-")
            raise SchemaError(f"{name} must be nonnegative and finite, got {value}")
    for flag in ("sims", "seed"):
        value = getattr(args, flag, 0)
        if value < 0:
            raise SchemaError(f"--{flag} must be nonnegative, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        # every reported value is checked or written as null, so numpy's
        # overflow warnings would only add text to stderr
        with np.errstate(all="ignore"):
            report = {**_base_report(args), **args.handler(args)}
    except _INPUT_ERRORS as exc:
        _emit(_error_report(args, exc), None)
        return 2
    except FreeholoError as exc:
        _emit(_error_report(args, exc), None)
        return 1
    except OSError as exc:
        _emit(_error_report(args, exc), None)
        return 2
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
