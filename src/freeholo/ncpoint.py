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
from dataclasses import dataclass

import numpy as np

from . import mat
from .errors import OutsideDomain, ShapeMismatch
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
    """``(delta(x), Membership)`` per point, the one membership kernel: one
    ``eval_poly_matrix_stack`` and one ``mat.op_norms`` call per level, so each
    value and norm is bitwise the point's own. delta(x) is grid-outer, of shape
    (n*rows, n*cols); a point without delta's d raises ``ShapeMismatch``."""
    found = [None] * len(points)
    for idx, mats in level_stacks(points, delta.d):
        values = eval_poly_matrix_stack(delta, mats)
        for i, dx, nrm in zip(idx, values, mat.op_norms(values).tolist()):
            found[i] = (dx, Membership.from_norm(nrm, margin))
    return found


def require_inside(delta: PolyMatrix, points) -> list:
    """:func:`delta_memberships` at ``DEFAULT_MARGIN``, or :class:`OutsideDomain`
    at the first point that is not inside."""
    found = delta_memberships(delta, points)
    for x, (_, m) in zip(points, found):
        if not m.inside:
            raise OutsideDomain(f"point at level {x.n} is {m.status}: ||delta(x)|| = {m.norm:.9f}")
    return found


def in_gdelta(delta: PolyMatrix, x: GradedPoint, margin: float = DEFAULT_MARGIN) -> Membership:
    """Classify ``x`` against ``{ ||delta|| < 1 }``: inside below ``1 - margin``,
    boundary within ``margin`` of the unit shell, else outside."""
    return delta_memberships(delta, [x], margin)[0][1]


def point_direct_sum(x: GradedPoint, y: GradedPoint) -> GradedPoint:
    """Coordinatewise block diagonal sum, a point at level ``x.n + y.n``."""
    if x.d != y.d:
        raise ShapeMismatch("points disagree on variable count")
    return GradedPoint([mat.direct_sum(a, b) for a, b in zip(x.mats, y.mats)])


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
    return np.kron(left, np.eye(k_dim)), np.kron(right, np.eye(h_dim))


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
    mats = []
    for a, b in zip(n_point.mats, m_point.mats):
        corner = a @ c - c @ b
        mats.append(np.block([[a, corner], [np.zeros((b.shape[0], a.shape[1])), b]]))
    return GradedPoint(mats)


def triangular_identity_deviation(f, n_point, m_point, c, dims=(1, 1)) -> float:
    """Operator norm gap between ``f`` at the triangular point and the
    predicted block form. Zero (to rounding) for free functions."""
    c = mat.as_array(c)
    val = mat.as_array(f(upper_triangular_pair(n_point, m_point, c)))
    fn, fm = mat.as_array(f(n_point)), mat.as_array(f(m_point))
    return _deviation(val, _triangular_form(fn, fm, *_widened(c, c, dims)))


def _triangular_form(fn, fm, c_out, c_in) -> np.ndarray:
    """``[[fn, fn C - C fm], [0, fm]]`` with C widened to ``c_out``, ``c_in``."""
    corner = fn @ c_in - c_out @ fm
    zeros = np.zeros((fm.shape[0], fn.shape[1]), dtype=np.complex128)
    return np.block([[fn, corner], [zeros, fm]])


def _deviation(val, predicted, ref=None, weight: float = 1.0) -> float:
    """``||val - predicted|| / (max(1, ||ref||) * weight)``, or inf.

    ``ref`` defaults to no value scale. The deviation is inf when the gap
    is not finite, which covers a non-finite value on either side (the SVD
    behind the norm would not converge on it), and when the quotient is a
    NaN from an overflowing ``inf / inf``, which ``max`` would drop.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = val - predicted
    if not np.isfinite(gap).all():
        return float("inf")
    scale = weight if ref is None else max(1.0, mat.op_norm(ref)) * weight
    dev = mat.op_norm(gap) / scale
    return float("inf") if np.isnan(dev) else dev


def nc_derivative(f, m_point: GradedPoint, direction: GradedPoint, dims=(1, 1)) -> np.ndarray:
    """Directional derivative of a free function.

    Evaluates ``f`` at the level-2n point ``[[M, E], [0, M]]`` and returns
    the (1, 2) corner, which for free functions is exactly the derivative of
    ``f`` at ``M`` in direction ``E``. Any evaluator error (domain, shape,
    singularity) propagates unchanged.
    """
    if m_point.d != direction.d or m_point.n != direction.n:
        raise ShapeMismatch("direction must match the base point in d and level")
    h_dim, k_dim = dims
    n = m_point.n
    mats = []
    for a, e in zip(m_point.mats, direction.mats):
        mats.append(np.block([[a, e], [np.zeros((n, n), dtype=np.complex128), a]]))
    val = mat.as_array(f(GradedPoint(mats)))
    expected = (2 * n * k_dim, 2 * n * h_dim)
    if val.shape != expected:
        raise ShapeMismatch(
            f"evaluator returned shape {val.shape}, expected {expected} at the doubled level"
        )
    return val[: n * k_dim, n * h_dim :]


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
    """
    samples = list(samples)
    sims = [mat.as_array(s) for s in sims]
    # without couplings, the identity coupling at each sample level
    pool = [mat.as_array(c) for c in couplings] or [
        np.eye(n, dtype=np.complex128) for n in sorted({x.n for x in samples})
    ]
    inside = (lambda p: True) if domain is None else domain
    checks = skipped = 0
    ds_dev = sim_dev = tri_dev = 0.0

    # f at samples[i], evaluated once and only when a check needs it
    value = functools.cache(lambda i: mat.as_array(f(samples[i])))

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

    def combined_value(p):
        # f at a combined point, or None when p is outside the domain
        if not inside(p):
            return None
        try:
            return mat.as_array(f(p))
        except OutsideDomain:
            return None

    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            fz = combined_value(point_direct_sum(x, y))
            if fz is None:
                skipped += 1
                continue
            predicted = mat.direct_sum(value(i), value(j))
            ds_dev = max(ds_dev, _deviation(fz, predicted, predicted))
            checks += 1

    for i, x in enumerate(samples):
        for k, s in enumerate(sims):
            if s.shape != (x.n, x.n):
                continue
            form = similarity(k)
            if form is None:
                skipped += 1
                continue
            kappa, s_inv, s_out_inv, s_in = form
            fy = combined_value(_conjugate(x, s, s_inv))
            if fy is None:
                skipped += 1
                continue
            fx = value(i)
            sim_dev = max(sim_dev, _deviation(fy, s_out_inv @ fx @ s_in, fx, kappa))
            checks += 1

    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            if x.n != y.n:
                continue
            for k, c in enumerate(pool):
                if c.shape != (x.n, y.n):
                    continue
                fz = combined_value(upper_triangular_pair(x, y, c))
                if fz is None:
                    skipped += 1
                    continue
                c_out, c_in, weight = coupling(k)
                predicted = _triangular_form(value(i), value(j), c_out, c_in)
                tri_dev = max(tri_dev, _deviation(fz, predicted, weight=weight))
                checks += 1

    return NcAxiomReport(
        direct_sum_dev=ds_dev,
        similarity_dev=sim_dev,
        triangular_dev=tri_dev,
        checks=checks,
        skipped=skipped,
        tol=tol,
    )
