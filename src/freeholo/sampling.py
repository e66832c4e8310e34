"""Seeded random generators for points, polynomials, and realizations.

Everything here is driven by an explicit ``numpy.random.Generator`` so that
reports and tests are reproducible bit for bit from a seed.
"""

from __future__ import annotations

import operator

import numpy as np

from . import mat
from .errors import OutsideDomain, ShapeMismatch
from .freepoly import (
    DEFAULT_MARGIN,
    FreePoly,
    GradedPoint,
    PolyMatrix,
    eval_poly_matrix,
    eval_poly_matrix_stack,
)
from .ncpoint import point_direct_sum


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def random_matrix(rng, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def random_graded_point(rng, d: int, n: int, scale: float = 1.0) -> GradedPoint:
    return GradedPoint([random_matrix(rng, n, scale) for _ in range(d)])


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    if rows < cols:
        raise ShapeMismatch("an isometry needs rows >= cols")
    return random_unitary(rng, rows)[:, :cols]


def random_invertible(rng, n: int) -> np.ndarray:
    """A random ``I + 0.6 E`` with condition number at most 50, in 64 draws."""
    for _ in range(64):
        s = np.eye(n) + 0.6 * random_matrix(rng, n)
        if mat.cond(s) <= 50.0:
            return s
    raise RuntimeError("could not draw a well-conditioned similarity")


def random_free_poly(
    rng, d: int, max_degree: int = 3, n_terms: int = 4, scale: float = 1.0
) -> FreePoly:
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(int(v) for v in rng.integers(1, d + 1, size=length))
        coeff = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        terms[word] = terms.get(word, 0j) + coeff
    return FreePoly(d, terms)


def point_inside_gdelta(
    rng,
    delta: PolyMatrix,
    n: int,
    scale: float = 1.0,
    margin: float = DEFAULT_MARGIN,
) -> GradedPoint:
    """Draw a random point and shrink it toward zero until strictly inside.

    The one-level case of :func:`points_inside_gdelta`, which holds the
    sampler: the same seed gives the same point and the same RNG state.
    """
    return points_inside_gdelta(rng, delta, (n,), scale, margin)[0]


def points_inside_gdelta(
    rng,
    delta: PolyMatrix,
    levels,
    scale: float = 1.0,
    margin: float = DEFAULT_MARGIN,
    target: float = 0.9,
) -> list:
    """One point strictly inside per entry of ``levels``, drawn in rounds.

    Each point is a random draw shrunk by 0.7, at most 60 times, until
    ``||delta(x)||`` is under ``target`` and inside by ``margin``; a point
    still missing after 200 draws raises :class:`OutsideDomain`. That needs
    the constant part of the grid inside already (norm of the value at the
    zero tuple under ``target``); otherwise rejection would be the only
    option and this helper refuses instead of looping forever. The constant
    term is tested once for all levels.

    Each round draws one candidate for every point still missing, in point
    order with one ``standard_normal`` call, and shrinks each level's
    candidates as one stack. Where every first candidate is accepted, the
    points and the final RNG state are those of one draw at a time.
    """
    zero = GradedPoint([np.zeros((1, 1))] * delta.d)
    base = mat.op_norm(eval_poly_matrix(delta, zero))
    if base >= target:
        raise OutsideDomain(
            f"grid constant term has norm {base:.6f}, cannot shrink into the domain"
        )
    levels = [operator.index(n) for n in levels]
    if any(n < 1 for n in levels):
        raise ValueError("graded point level must be at least 1")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    d, out = delta.d, [None] * len(levels)
    missing = list(range(len(levels)))
    for _ in range(200):
        sizes = [2 * d * levels[i] ** 2 for i in missing]
        flat = rng.standard_normal(sum(sizes))
        starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        for n in dict.fromkeys(levels[i] for i in missing):
            pos = np.array([k for k, i in enumerate(missing) if levels[i] == n])
            g = flat[starts[pos, None] + np.arange(2 * d * n * n)].reshape(len(pos), d, 2, n, n)
            x = scale * (g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2 * n)
            if not np.isfinite(x).all():
                raise ValueError("graded point entries must be finite")
            x = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
            for k, point in zip(pos.tolist(), _shrunk(delta, x, margin, target)):
                out[missing[k]] = point
        missing = [i for i in missing if out[i] is None]
        if not missing:
            return out
    raise OutsideDomain("failed to sample a point inside the domain")


def _shrunk(delta, x, margin, target) -> list:
    """Per candidate of the d ``(p, n, n)`` stacks ``x``, its point after
    shrinking by 0.7 until accepted, or None after 60 evaluations.

    A candidate is accepted when ``||delta(x)||`` is under ``target`` and
    inside by ``margin`` (``Membership.from_norm``'s rule, for one array of
    norms). ``x`` is checked finite by the caller, so the accepted
    candidates become points through ``GradedPoint._of``.
    """
    points, pos = [None] * x.shape[1], np.arange(x.shape[1])
    for _ in range(60):
        nrms = mat.op_norms(eval_poly_matrix_stack(delta, x))
        ok = (nrms < target) & (nrms < 1.0 - margin)
        accepted = np.ascontiguousarray(x.transpose(1, 0, 2, 3)[ok])
        for k, stack in zip(pos[ok].tolist(), accepted):
            points[k] = GradedPoint._of(stack)
        if ok.all():
            break
        pos, x = pos[~ok], 0.7 * x[:, ~ok]
    return points


def point_in_shrunk_domain(
    rng, delta: PolyMatrix, n: int, t: float, scale: float = 1.0
) -> GradedPoint:
    """Sample with ``||delta(x)|| < 0.999 / t`` (for shrunk closed sets).

    The one-level case of :func:`points_inside_gdelta` with that target.
    """
    return points_inside_gdelta(rng, delta, (n,), scale, target=0.999 / t)[0]


def random_realization(rng, delta: PolyMatrix, dim_k1: int, dim_k2: int, mult: int) -> Realization:
    """Haar-random isometric colligation over the given grid.

    The codomain must be at least as large as the domain
    (``dim_k rows/cols`` bookkeeping), which holds for any square grid with
    ``dim_k1 <= dim_k2``.
    """
    from .realize import Realization  # here, so sampling alone loads no realize or model

    dom = dim_k1 + mult * delta.rows
    cod = dim_k2 + mult * delta.cols
    if cod < dom:
        raise ShapeMismatch("codomain too small for an isometric colligation")
    j1 = random_unitary(rng, dom) if cod == dom else haar_isometry(rng, cod, dom)
    return Realization(delta=delta, dim_k1=dim_k1, dim_k2=dim_k2, mult=mult, j1=j1)


def perturbations_near(
    rng,
    base: GradedPoint,
    domain_contains,
    count: int,
    spread: float = 0.5,
) -> list:
    """Points inside a membership predicate, clustered around a base point.

    Draws ``base + t E`` with random directions (every third draw perturbs
    ``base (+) base`` instead), shrinking t until the predicate accepts,
    over at most 400 draws. Useful for exploring certified neighborhoods.
    """
    out = []
    tries = 0
    while len(out) < count and tries < 400:
        tries += 1
        seed_pt = base
        if tries % 3 == 0:
            seed_pt = point_direct_sum(base, base)
        n = seed_pt.n
        step = spread
        direction = [random_matrix(rng, n) for _ in range(seed_pt.d)]
        for _ in range(40):
            cand = GradedPoint(
                [m + step * e for m, e in zip(seed_pt.mats, direction)]
            )
            if domain_contains(cand):
                out.append(cand)
                break
            step *= 0.5
    if len(out) < count:
        raise OutsideDomain(
            f"only {len(out)} of {count} perturbations landed inside the domain"
        )
    return out
