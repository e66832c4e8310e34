"""Graded point operations and basic free open sets.

A basic free open set is the strict sublevel set ``{x : ||delta(x)|| < 1}``
of a polynomial grid delta, taken at every matrix level at once. Membership
here is three-valued with an explicit margin, because every downstream
certificate needs to know how far inside the point sits.

The module also hosts the structural operations that make a graded function
a *free* function: direct sums, similarity conjugation, the upper triangular
block trick (which contains the difference quotient as its corner), and a
sampling-based checker for the direct-sum and similarity axioms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import mat
from .errors import FreeholoError, OutsideDomain, ShapeMismatch, outcome
from .freepoly import DEFAULT_MARGIN, GradedPoint, PolyMatrix, eval_poly_matrix_stack, level_stacks


@dataclass(frozen=True)
class Membership:
    """Three-valued membership verdict with the distance to the unit shell.

    ``distance`` is ``1 - ||delta(x)||``: positive inside, negative outside,
    and ``status`` applies the margin band around zero.
    """

    status: str  # "inside" | "boundary" | "outside"
    distance: float
    norm: float
    margin: float

    @property
    def inside(self) -> bool:
        return self.status == "inside"

    @classmethod
    def from_norm(cls, nrm: float, margin: float = DEFAULT_MARGIN) -> "Membership":
        """Classify a known ``||delta(x)||`` with the margin band of :func:`in_gdelta`."""
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        if nrm < 1.0 - margin:
            status = "inside"
        elif nrm <= 1.0 + margin:
            status = "boundary"
        else:
            status = "outside"
        return cls(status=status, distance=1.0 - nrm, norm=nrm, margin=margin)


def delta_memberships(delta: PolyMatrix, points, margin: float = DEFAULT_MARGIN) -> list:
    """The one membership kernel: per level of :func:`freepoly.level_stacks`,
    ``(idx, dxs, memberships)``: the points' positions, their grid-outer
    delta(x) as one ``(p, n*rows, n*cols)`` stack, and their memberships, by
    one ``eval_poly_matrix_stack`` and one ``mat.op_norms`` call, each value
    and norm bitwise the point's own. A point without delta's d raises
    ``ShapeMismatch``."""
    found = []
    for idx, mats in level_stacks(points, delta.d):
        dxs = eval_poly_matrix_stack(delta, mats)
        nrms = mat.op_norms(dxs).tolist()
        found.append((idx, dxs, [Membership.from_norm(nrm, margin) for nrm in nrms]))
    return found


def require_inside(delta: PolyMatrix, points) -> list:
    """:func:`delta_memberships` at ``DEFAULT_MARGIN``, or :class:`OutsideDomain`
    at the first point that is not inside, in point order."""
    found = delta_memberships(delta, points)
    outside = {i: m for idx, _, ms in found for i, m in zip(idx, ms) if not m.inside}
    if outside:
        first = min(outside)
        raise outside_domain(points[first], outside[first])
    return found


def outside_domain(x: GradedPoint, m: Membership) -> OutsideDomain:
    """The one :class:`OutsideDomain` for a point ``x`` whose membership ``m``
    is not inside."""
    return OutsideDomain(f"point at level {x.n} is {m.status}: ||delta(x)|| = {m.norm:.9f}")


def in_gdelta(delta: PolyMatrix, x: GradedPoint, margin: float = DEFAULT_MARGIN) -> Membership:
    """Classify ``x`` against ``{ ||delta|| < 1 }``: inside below ``1 - margin``,
    boundary within ``margin`` of the unit shell, else outside."""
    return delta_memberships(delta, [x], margin)[0][2][0]


def point_direct_sum(x: GradedPoint, y: GradedPoint) -> GradedPoint:
    """Coordinatewise block diagonal sum, a point at level ``x.n + y.n``.

    Both points are validated already, so the sum is one stack built here
    and held by ``GradedPoint._of``.
    """
    if x.d != y.d:
        raise ShapeMismatch("points disagree on variable count")
    stack = np.zeros((x.d, x.n + y.n, x.n + y.n), dtype=np.complex128)
    stack[:, : x.n, : x.n] = x.mats
    stack[:, x.n :, x.n :] = y.mats
    return GradedPoint._of(stack)


def conjugate(x: GradedPoint, s) -> GradedPoint:
    """Coordinatewise similarity ``s^{-1} x s``."""
    s = mat.as_array(s)
    if s.shape != (x.n, x.n):
        raise ShapeMismatch("similarity size must match the point level")
    return _conjugate(x, s, mat.inv(s))


def _conjugate(x: GradedPoint, s: np.ndarray, s_inv: np.ndarray) -> GradedPoint:
    return GradedPoint([s_inv @ m @ s for m in x.mats])


def _widened(left: np.ndarray, right: np.ndarray, dims) -> tuple:
    """``(left (x) I_out, right (x) I_in)``, level matrices widened to act
    on values of ``dims = (input_dim, output_dim)``."""
    h_dim, k_dim = dims
    return _kron_identity(left, k_dim), _kron_identity(right, h_dim)


def _kron_identity(a: np.ndarray, k: int) -> np.ndarray:
    """``a (x) I_k``: the broadcast product ``np.kron`` forms, so bitwise
    ``np.kron(a, np.eye(k))``, and ``a`` itself at k = 1."""
    if k == 1:
        return a
    return (a[:, None, :, None] * np.eye(k)[:, None, :]).reshape(a.shape[0] * k, a.shape[1] * k)


def _upper_block(a: np.ndarray, corner: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block matrix ``[[a, corner], [0, b]]``, written into one array."""
    rows, cols = a.shape
    out = np.zeros((rows + b.shape[0], cols + b.shape[1]), dtype=np.complex128)
    out[:rows, :cols] = a
    out[:rows, cols:] = corner
    out[rows:, cols:] = b
    return out


def upper_triangular_pair(n_point: GradedPoint, m_point: GradedPoint, c) -> GradedPoint:
    """The block point with coordinates ``[[N_r, N_r C - C M_r], [0, M_r]]``.

    Free functions send it to ``[[f(N), f(N) C - C f(M)], [0, f(M)]]``, which
    is the workhorse identity behind extension and differentiation.
    """
    if n_point.d != m_point.d:
        raise ShapeMismatch("points disagree on variable count")
    c = mat.as_array(c)
    if c.shape != (n_point.n, m_point.n):
        raise ShapeMismatch("coupling block has the wrong shape")
    pairs = zip(n_point.mats, m_point.mats)
    return GradedPoint([_upper_block(a, a @ c - c @ b, b) for a, b in pairs])


def triangular_identity_deviation(f, n_point, m_point, c, dims=(1, 1)) -> float:
    """Operator norm gap between ``f`` at the triangular point and the
    predicted block form. Zero (to rounding) for free functions."""
    c = mat.as_array(c)
    val = mat.as_array(f(upper_triangular_pair(n_point, m_point, c)))
    fn, fm = mat.as_array(f(n_point)), mat.as_array(f(m_point))
    with np.errstate(over="ignore", invalid="ignore"):
        gap = val - _triangular_form(fn, fm, *_widened(c, c, dims))
    return _deviation(mat.op_norm(gap))


def _triangular_form(fn, fm, c_out, c_in) -> np.ndarray:
    """``[[fn, fn C - C fm], [0, fm]]`` with C widened to ``c_out``, ``c_in``."""
    return _upper_block(fn, fn @ c_in - c_out @ fm, fm)


def _deviation(gap_norm: float, ref_norm=None, weight: float = 1.0) -> float:
    """``||gap|| / (max(1, ||ref||) * weight)`` from the two norms, or inf.

    ``ref_norm`` None means no value scale. The deviation is inf where the
    quotient is NaN: the norm of a gap that is not finite (a non-finite
    value on either side) or whose SVD fails is NaN, and so is an
    overflowing ``inf / inf``, which ``max`` would drop.
    """
    dev = gap_norm / (weight if ref_norm is None else max(1.0, ref_norm) * weight)
    return math.inf if math.isnan(dev) else dev


def nc_derivative(f, m_point: GradedPoint, direction: GradedPoint, dims=(1, 1)) -> np.ndarray:
    """Directional derivative of a free function.

    Evaluates ``f`` at the level-2n point ``[[M, E], [0, M]]`` and returns
    the (1, 2) corner, which for free functions is exactly the derivative of
    ``f`` at ``M`` in direction ``E``. Where ``f`` raises
    :class:`OutsideDomain` there, ``f(M)`` is evaluated, its error
    propagating, and E is halved until the doubled point is accepted, at
    ``2^-j E``; the corner is scaled back by 2^j, both scalings exact
    barring underflow, so j = 0 gives the corner as it is. An E halved to
    zero raises the first error. Any other evaluator error propagates.
    """
    if m_point.d != direction.d or m_point.n != direction.n:
        raise ShapeMismatch("direction must match the base point in d and level")
    h_dim, k_dim = dims
    n = m_point.n
    e, j = direction.mats, 0
    while True:
        try:
            doubled = GradedPoint([_upper_block(a, b, a) for a, b in zip(m_point.mats, e)])
            val = mat.as_array(f(doubled))
            break
        except OutsideDomain as exc:
            if j == 0:
                first = exc
                f(m_point)
            e, j = [b * 0.5 for b in e], j + 1
            if not any(b.any() for b in e):
                raise first from None
    expected = (2 * n * k_dim, 2 * n * h_dim)
    if val.shape != expected:
        raise ShapeMismatch(
            f"evaluator returned shape {val.shape}, expected {expected} at the doubled level"
        )
    corner = val[: n * k_dim, n * h_dim :]
    if j == 0:
        return corner
    with np.errstate(over="ignore"):  # exact unless it overflows
        return np.ldexp(np.ascontiguousarray(corner).view(np.float64), j).view(np.complex128)


@dataclass(frozen=True)
class NcAxiomReport:
    """Outcome of sampling-based free function axiom checks.

    Deviations are normalized: direct-sum gaps by the value scale, and
    similarity gaps additionally by the condition number of the conjugating
    matrix, so a single threshold applies to both.
    """

    direct_sum_dev: float
    similarity_dev: float
    triangular_dev: float
    checks: int
    skipped: int
    tol: float

    @property
    def passed(self) -> bool:
        worst = max(self.direct_sum_dev, self.similarity_dev, self.triangular_dev)
        return worst <= self.tol and self.checks > 0


def check_nc_axioms(
    f,
    samples,
    sims=(),
    couplings=(),
    domain=None,
    dims=(1, 1),
    tol: float = 1e-8,
    f_points=None,
) -> NcAxiomReport:
    """Check the direct-sum and similarity axioms on sample data.

    Parameters
    ----------
    f : callable
        Maps ``GradedPoint`` to a value matrix with the level index outer.
    samples : sequence of GradedPoint
        Points to combine. Direct sums are tested over all ordered pairs,
        the triangular identity over same-level pairs. ``f`` is evaluated
        at most once per sample, and not at all at a sample whose checks
        are all skipped.
    sims : sequence of array_like
        Invertible matrices; each is applied to every sample of matching
        level for the similarity check. Its condition number and inverse
        are taken once, at its first such sample; an exactly singular one
        is skipped there and at every later match.
    couplings : sequence of array_like
        Coupling blocks for the triangular identity; square ones of matching
        level are used (defaults to the identity coupling when empty). Each
        is normed and widened once.
    domain : callable, optional
        Predicate on GradedPoint. Combined, conjugated or triangular points
        that fail it are skipped, not failed, and ``f`` is not evaluated
        there. Without it, a point counts as skipped when ``f`` raises
        :class:`OutsideDomain` there, so an evaluator that tests membership
        itself (``realize.eval_direct``) needs no second test. An
        ``OutsideDomain`` at a sample itself propagates.
    dims : pair of int
        (input, output) dimensions of operator-valued values; (1, 1) for
        scalar-valued functions.
    tol : float
        Normalized deviation threshold for ``passed``.
    f_points : callable, optional
        The point-list form of ``f``: maps a list of points to a list
        holding, per point, ``f``'s value there or the
        :class:`FreeholoError` that ``f`` raises there. Defaults to calling
        ``f`` point by point; a stacked form evaluates many points at once.

    The checks run in four rounds. First, every combined point is built in
    check order: direct sums, conjugations, triangular points, each over
    the samples in order. Second, ``f_points`` evaluates, in one call, the
    combined points that pass ``domain``. Third, it evaluates, in one more
    call, only the samples that a check not skipped needs. Fourth, the
    checks are walked in order: an :class:`OutsideDomain` at a combined
    point skips its check, and any other error is raised at the first check
    that meets it, at the combined point first, then at its samples in
    order. A :class:`FreeholoError` or ``ValueError`` in building a
    combined point, or in the ``domain`` predicate, is raised where the walk
    reaches that point. So the error raised is the one that evaluating check
    by check would meet first; an exception of another type propagates at
    once.
    The norms of all gaps and reference values are then taken with one
    ``mat.op_norms`` call per shape.
    """
    samples = list(samples)
    sims = [mat.as_array(s) for s in sims]
    # without couplings, the identity coupling at each sample level
    pool = [mat.as_array(c) for c in couplings] or [
        np.eye(n, dtype=np.complex128) for n in sorted({x.n for x in samples})
    ]
    inside = (lambda p: True) if domain is None else domain
    at_points = f_points or (lambda points: [outcome(f, p) for p in points])

    @functools.cache
    def similarity(k):
        # (kappa, s^-1 and the widened factors) of sims[k], or None when it
        # is exactly singular; built at its first sample of matching level
        s = sims[k]
        kappa = mat.cond(s)
        if not np.isfinite(kappa):
            return None
        s_inv = mat.inv(s)
        return (kappa, s_inv) + _widened(s_inv, s, dims)

    @functools.cache
    def coupling(k):
        # the widened pool[k] and its weight, at its first checked pair
        c = pool[k]
        return _widened(c, c, dims) + (max(1.0, (1.0 + mat.op_norm(c)) ** 2),)

    def kept(p):
        return p if inside(p) else None

    # round 1: (kind, point or None when skipped before f, i, j, k) per check
    combos, stop = [], None
    try:
        for i, x in enumerate(samples):
            for j, y in enumerate(samples):
                combos.append(("ds", kept(point_direct_sum(x, y)), i, j, None))
        for i, x in enumerate(samples):
            for k, s in enumerate(sims):
                if s.shape == (x.n, x.n):
                    form = similarity(k)
                    p = None if form is None else kept(_conjugate(x, s, form[1]))
                    combos.append(("sim", p, i, None, k))
        for i, x in enumerate(samples):
            for j, y in enumerate(samples):
                for k, c in enumerate(pool):
                    if x.n == y.n and c.shape == (x.n, y.n):
                        combos.append(("tri", kept(upper_triangular_pair(x, y, c)), i, j, k))
    except (FreeholoError, ValueError) as exc:
        # a point that cannot be built (samples of different d, a singular
        # or overflowing similarity) ends the loop there: raised in round 4
        stop = exc

    # round 2: f at the combined points
    asked = [t for t, combo in enumerate(combos) if combo[1] is not None]
    found = [None] * len(combos)
    for t, result in zip(asked, at_points([combos[t][1] for t in asked])):
        found[t] = result

    # round 3: f at the samples the checks before the first error need
    needed = {}  # sample indices in order of first need
    for (_, _, i, j, _), result in zip(combos, found):
        if result is None or isinstance(result, OutsideDomain):
            continue
        if isinstance(result, FreeholoError):
            break
        needed[i] = None
        if j is not None:
            needed[j] = None
    value = dict(zip(needed, at_points([samples[i] for i in needed])))

    # round 4: the checks in order, each a gap, a reference value or None,
    # and a weight; the norms come after
    checks = skipped = 0
    kinds, gaps, refs, weights = [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for (kind, _, i, j, k), result in zip(combos, found):
            if result is None or isinstance(result, OutsideDomain):
                skipped += 1
                continue
            fz = _value(result)
            if kind == "ds":
                predicted = mat.direct_sum(_value(value[i]), _value(value[j]))
                ref, weight = predicted, 1.0
            elif kind == "sim":
                kappa, _, s_out_inv, s_in = similarity(k)
                ref, weight = _value(value[i]), kappa
                predicted = s_out_inv @ ref @ s_in
            else:
                c_out, c_in, weight = coupling(k)
                predicted = _triangular_form(_value(value[i]), _value(value[j]), c_out, c_in)
                ref = None
            kinds.append(kind)
            gaps.append(fz - predicted)
            refs.append(ref)
            weights.append(weight)
            checks += 1
    if stop is not None:
        raise stop

    norms = mat.op_norms_of(gaps + [r for r in refs if r is not None])
    ref_norms = iter(norms[len(gaps):])
    worst = dict.fromkeys(("ds", "sim", "tri"), 0.0)
    for kind, nrm, ref, weight in zip(kinds, norms, refs, weights):
        dev = _deviation(nrm, None if ref is None else next(ref_norms), weight)
        worst[kind] = max(worst[kind], dev)

    return NcAxiomReport(
        direct_sum_dev=worst["ds"],
        similarity_dev=worst["sim"],
        triangular_dev=worst["tri"],
        checks=checks,
        skipped=skipped,
        tol=tol,
    )


def _value(result) -> np.ndarray:
    """A point-list entry as a complex 2-d array; an error is raised."""
    if isinstance(result, FreeholoError):
        raise result
    return mat.as_array(result)
