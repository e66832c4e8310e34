"""Certified polynomial approximation of realized functions.

Given a realization bounded on a grid domain and a finite point set E, a
covering grid is selected whose values stay strictly under 1 on E and that
holds the realization's grid as c times a submatrix, 0 < c <= 1; shrinking
its domain by a factor t > 1 turns the realization's series into a geometric
one, so truncating it yields a free polynomial with an explicit sup-norm
error bound on the shrunk closed domain. Direct sums of the points need no
separate check: delta(x (+) y) is a permutation conjugate of
delta(x) (+) delta(y), so its norm is the larger of the two, and a grid that
covers E covers every direct sum of its members with the same radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import mat
from .errors import NoCover, NonFiniteValue, TermBlowup
from .freepoly import (
    EPS_COEFF,
    MatrixPoly,
    _promoted_grid,
    _purged,
    eval_poly_matrix_stack,
    graded_sum,
    level_stacks,
    stack_rows,
    word_products,
)
from .realize import Realization, geometric_tail, tail_order


@dataclass(frozen=True)
class CoverSelection:
    """Chosen candidate index, its worst value radius on E, and the shrink t."""

    index: int
    radius: float
    t: float


# Relative rounding of coefficients, and most row and column selections, dominates() allows.
SCALE_RTOL = 1e-12
SUBMATRIX_CAP = 4096


def dominates(cover, grid) -> bool:
    """Whether ``grid``, less its zero rows and columns, is ``c * cover[R, C]``
    for a real ``0 < c <= 1`` and rows R and columns C of ``cover`` in order;
    then ``||grid(x)|| <= ||cover(x)||`` everywhere. c is the ratio of the
    largest coefficient and may not exceed 1; the other coefficients must
    match ``c * cover[R, C]`` up to ``SCALE_RTOL`` times that largest one,
    so the norm inequality, like the bound built on it, holds up to that
    relative rounding. Past ``SUBMATRIX_CAP`` choices of (R, C) it is no.
    """
    index = {w: i for i, w in enumerate(cover.words())}
    words = grid.words()
    if cover.d != grid.d or not set(words) <= set(index):
        return False
    want = np.zeros((len(index), grid.rows, grid.cols), dtype=np.complex128)
    want[[index[w] for w in words]] = grid.stack
    used = want.any(axis=0)  # zero rows and columns, as a fit pads, leave the norm
    want = want[:, used.any(axis=1)][:, :, used.any(axis=0)]
    rows, cols = want.shape[1:]
    if not 0 < math.comb(cover.rows, rows) * math.comb(cover.cols, cols) <= SUBMATRIX_CAP:
        return False
    top = np.unravel_index(np.argmax(np.abs(want)), want.shape) if want.any() else None
    for rs, cs in itertools.product(
        itertools.combinations(range(cover.rows), rows),
        itertools.combinations(range(cover.cols), cols),
    ):
        sub = cover.stack[:, list(rs)][:, :, list(cs)]
        c = (want[top] / sub[top]).real if top and sub[top] else 0.0
        if 0 < c <= 1 and np.abs(want - c * sub).max() <= SCALE_RTOL * abs(want[top]):
            return True
    return False


def select_covering_delta(points, candidates) -> CoverSelection:
    """Pick the candidate grid whose worst norm over the points is smallest.

    Requires that worst norm to be strictly under 1 (otherwise
    :class:`NoCover`); ties break to the first index, and a candidate not
    finite on the points raises :class:`NonFiniteValue`. The shrink factor is
    the midpoint ``t = (1 + 1/r) / 2``, which keeps every point strictly
    inside the shrunk domain ``{ ||t delta|| <= 1 }``. The caller keeps only
    candidates that :func:`dominates` the realization's grid.
    """
    points = list(points)
    candidates = list(candidates)
    if not candidates:
        raise NoCover("no candidate grids supplied")
    if not points:
        raise NoCover("no sample points supplied")
    best_idx = None
    best_r = np.inf
    for idx, delta in enumerate(candidates):
        stacks = level_stacks(points, delta.d)
        worst = mat.max_op_norm(eval_poly_matrix_stack(delta, mats) for _, mats in stacks)
        if np.isnan(worst):
            raise NonFiniteValue(f"candidate grid {idx} is not finite on the samples", idx)
        if worst < best_r:
            best_r = worst
            best_idx = idx
    if best_r >= 1.0:
        raise NoCover(
            f"best candidate still reaches norm {best_r:.6f} >= 1 on the samples"
        )
    t = float("inf") if best_r == 0.0 else (1.0 + 1.0 / best_r) / 2.0
    return CoverSelection(index=best_idx, radius=float(best_r), t=t)


# Most homogeneous orders choose_truncation accepts before TermBlowup.
ORDER_CAP = 100_000
# Most words expand_polynomial keeps after an order before TermBlowup.
TERM_CAP = 10**6


def certify_error(r: Realization, k: int, t: float) -> float:
    """Sup-norm tail bound for truncation after homogeneous order k.

    On the closed shrunk domain ``{ ||t delta|| <= 1 }`` of a cover grid delta
    that :func:`dominates` ``r.delta`` (a smaller cover proves nothing) the
    series term of order j is bounded by ``(1/t)**(j+1)``, so the tail after
    k is at most ``geometric_tail(1/t, k) = (1/t)**(k+2) / (1 - 1/t)``.
    With k from :func:`choose_truncation`, ``bound <= tol`` holds by
    construction. The realization argument fixes the series being
    truncated; the bound itself only uses contractivity of its blocks.

    The bound (the ``bound`` of an ``approx`` report) is a proof under
    exact arithmetic for an exactly isometric J1, once the domination
    holds. It is not one for the stored J1, which ``Realization`` accepts
    as an isometry within ``ISOMETRY_TOL``, so its blocks may exceed norm 1
    by that much. :func:`dominates` accepts coefficients off by a relative
    ``SCALE_RTOL``, and rounding in the expanded coefficients is not
    included.
    """
    if not t > 1.0:
        raise ValueError("shrink factor t must exceed 1")
    if k < 0:
        raise ValueError("truncation order must be nonnegative")
    return geometric_tail(1.0 / t, k)


def choose_truncation(tol: float, t: float) -> int:
    """Smallest nonnegative k with :func:`certify_error` at most ``tol``.

    This is ``tail_order(1/t, tol, ORDER_CAP)``: a ``tol`` that is not
    positive and finite raises ``ValueError``, and an order above
    ``ORDER_CAP`` raises :class:`TermBlowup`.
    """
    if not t > 1.0:
        raise ValueError("shrink factor t must exceed 1")
    return tail_order(1.0 / t, tol, ORDER_CAP)


def _purge(rows: np.ndarray, stack: np.ndarray, order: int) -> tuple:
    """:func:`freeholo.freepoly._purged`, with a NaN or infinite entry raised
    as :class:`TermBlowup` naming the order: the truncation bound would no
    longer describe the polynomial."""
    try:
        return _purged(rows, stack)
    except ValueError:
        raise TermBlowup(f"expansion produced a non-finite coefficient at order {order}") from None


def expand_polynomial(r: Realization, k: int) -> MatrixPoly:
    """Symbolic truncation ``A + sum_{j<=k} B Delta (D Delta)^j C``.

    Returns a free polynomial with k2-by-k1 matrix coefficients whose
    evaluation (level index outer) reproduces the numeric partial sum of the
    realization series exactly, at every level. The grid enters as its
    multiplicity-promoted coefficients ``Delta_u`` (``freepoly._promoted_grid``),
    so the result has degree at most ``(k + 1) * deg(delta)``.

    The series is recognizable with linear representation
    ``(B, Delta_u, D, C)``, and the expansion is the recursion

        leg_0[u] = Delta_u C,
        acc[w] += B leg_j[w],
        leg_{j+1}[u + w] += Delta_u (D leg_j[w]),

    starting from ``acc[()] = A``, over graded arrays. ``acc`` and each
    ``leg_j`` are a set of word rows ``[length, letters..., 0...]`` and one
    ``(m, rows, cols)`` coefficient stack, in graded lexicographic order.
    ``B leg_j`` and ``D leg_j`` are one batched product each, and
    ``Delta_u (D leg_j)`` is one broadcast product over all (u, w) pairs.
    :func:`freeholo.freepoly.graded_sum` merges equal words, each from its
    first contribution: ``u + w`` in u-major order (u in graded order), and
    ``acc`` before ``B leg_j``. A word new to ``acc`` thus starts from its
    ``B leg_j`` coefficient, not from ``0 + B leg_j``; the two differ at
    most in the sign of an exact zero.

    The purge points are those of the word-by-word recursion: a word whose
    coefficient entries all stay under ``EPS_COEFF`` in modulus is dropped
    from ``leg_0``, from each ``B leg_j`` and then the merged ``acc``, from
    each ``D leg_j`` and from the merged ``leg_{j+1}``; a block A, B, C or D
    with no larger entry counts as zero. A NaN or infinite coefficient at
    any of these points raises :class:`TermBlowup` naming the order. The
    expansion stops early once a leg is empty. When ``acc`` holds more than
    ``TERM_CAP`` words after order j, :class:`TermBlowup` names j and that
    word count.
    """
    if k < 0:
        raise ValueError("truncation order must be nonnegative")
    promoted = _promoted_grid(r.delta, r.mult)
    # a block with no entry of modulus EPS_COEFF is zero, as a constant MatrixPoly
    a, b, c, dd = (
        np.array(m, dtype=np.complex128) if np.max(np.abs(m)) >= EPS_COEFF
        else np.zeros(m.shape, dtype=np.complex128)
        for m in (r.block_a, r.block_b, r.block_c, r.block_d)
    )
    u_rows, delta = promoted.word_rows, promoted.stack

    acc_rows, acc = _purge(np.zeros((1, 1), dtype=np.int64), a[None], 0)
    leg_rows, leg = _purge(u_rows, delta @ c, 0)
    for j in range(k + 1):
        b_rows, b_leg = _purge(leg_rows, b @ leg, j)
        rows, merged = graded_sum(stack_rows((acc_rows, b_rows)), np.concatenate((acc, b_leg)))
        acc_rows, acc = _purge(rows, merged, j)
        if len(acc) > TERM_CAP:
            raise TermBlowup(
                f"expansion reached {len(acc)} terms at order {j}, cap {TERM_CAP}"
            )
        if j == k or not len(leg):
            break
        d_rows, d_leg = _purge(leg_rows, dd @ leg, j + 1)
        rows = word_products(u_rows, d_rows)
        prods = (delta[:, None] @ d_leg[None]).reshape((len(rows),) + leg.shape[1:])
        leg_rows, leg = _purge(*graded_sum(rows, prods), j + 1)
    return MatrixPoly._of(r.delta.d, acc_rows, acc)
