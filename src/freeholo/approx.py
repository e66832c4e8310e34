"""Certified polynomial approximation of realized functions.

Given a realization bounded on a grid domain and a finite point set E, a
covering grid is selected whose values stay strictly under 1 on E; shrinking
the domain by a factor t > 1 turns the realization's series into a geometric
one, so truncating it yields a free polynomial with an explicit sup-norm
error bound on the shrunk closed domain. Direct sums of the points need no
separate check: delta(x (+) y) is a permutation conjugate of
delta(x) (+) delta(y), so its norm is the larger of the two, and a grid that
covers E covers every direct sum of its members with the same radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mat
from .errors import NoCover, TermBlowup
from .freepoly import (
    EPS_COEFF,
    GradedPoint,
    MatrixPoly,
    PolyMatrix,
    _promoted_grid,
    eval_poly_matrix,
)
from .realize import Realization


@dataclass(frozen=True)
class CoverSelection:
    """Chosen candidate index, its worst value radius on E, and the shrink t."""

    index: int
    radius: float
    t: float


def _worst_norm(delta: PolyMatrix, points) -> float:
    """``max ||delta(x)||`` over the points, 0 for none."""
    return max((mat.op_norm(eval_poly_matrix(delta, x)) for x in points), default=0.0)


def select_covering_delta(points, candidates) -> CoverSelection:
    """Pick the candidate grid whose worst norm over the points is smallest.

    Requires that worst norm to be strictly under 1 (otherwise
    :class:`NoCover`); ties break to the first index. The shrink factor is
    the midpoint ``t = (1 + 1/r) / 2``, which keeps every point strictly
    inside the shrunk domain ``{ ||t delta|| <= 1 }``.
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
        worst = _worst_norm(delta, points)
        if worst < best_r:
            best_r = worst
            best_idx = idx
    if best_r >= 1.0:
        raise NoCover(
            f"best candidate still reaches norm {best_r:.6f} >= 1 on the samples"
        )
    t = float("inf") if best_r == 0.0 else (1.0 + 1.0 / best_r) / 2.0
    return CoverSelection(index=best_idx, radius=float(best_r), t=t)


def certify_error(r: Realization, k: int, t: float) -> float:
    """Sup-norm tail bound for truncation after homogeneous order k.

    On the closed shrunk domain ``{ ||t delta|| <= 1 }`` the series term of
    order j is bounded by ``(1/t)**(j+1)``, so the tail after k is at most
    ``(1/t)**(k+2) / (1 - 1/t)``. The realization argument fixes the series
    being truncated; the bound itself only uses contractivity of its blocks.
    """
    if t <= 1.0:
        raise ValueError("shrink factor t must exceed 1")
    if k < 0:
        raise ValueError("truncation order must be nonnegative")
    q = 1.0 / t
    return float(q ** (k + 2) / (1.0 - q))


def choose_truncation(tol: float, t: float, k_cap: int = 100_000) -> int:
    """Smallest nonnegative k with :func:`certify_error` at most ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if t <= 1.0:
        raise ValueError("shrink factor t must exceed 1")
    if t == float("inf"):
        return 0
    q = 1.0 / t
    k = 0
    while q ** (k + 2) / (1.0 - q) > tol:
        k += 1
        if k > k_cap:
            raise TermBlowup(f"no truncation under tol={tol} within {k_cap} terms")
    return k


def _purged(terms: dict) -> dict:
    """The terms with a coefficient entry of modulus at least ``EPS_COEFF``."""
    return {w: c for w, c in terms.items() if np.max(np.abs(c)) >= EPS_COEFF}


def expand_polynomial(r: Realization, k: int, term_cap: int = 10**6) -> MatrixPoly:
    """Symbolic truncation ``A + sum_{j<=k} B Delta (D Delta)^j C``.

    Returns a free polynomial with k2-by-k1 matrix coefficients whose
    evaluation (level index outer) reproduces the numeric partial sum of the
    realization series exactly, at every level. The grid enters as its
    multiplicity-promoted coefficients ``Delta_u`` (``freepoly._promoted_grid``),
    so the result has degree at most ``(k + 1) * deg(delta)``.

    The series is recognizable with linear representation
    ``(B, Delta_u, D, C)``, and the expansion is the direct recursion over
    word-to-coefficient dicts

        leg_0[u] = Delta_u C,
        acc[w] += B leg_j[w],
        leg_{j+1}[u + w] += Delta_u (D leg_j[w]),

    starting from ``acc[()] = A``. A word whose coefficient entries all stay
    under ``EPS_COEFF`` in modulus is dropped from ``leg_0``, from each
    ``B leg_j`` and then the merged ``acc``, from each ``D leg_j`` and from
    the merged ``leg_{j+1}``; a block A, B, C or D with no larger entry
    counts as zero. The expansion stops early once a leg is empty. When
    ``acc`` holds more than ``term_cap`` words after order j,
    :class:`TermBlowup` names j and that word count.
    """
    if k < 0:
        raise ValueError("truncation order must be nonnegative")
    delta = _promoted_grid(r.delta, r.mult).terms
    # a block with no entry of modulus EPS_COEFF is zero, as a constant MatrixPoly
    a, b, c, dd = (
        np.array(m, dtype=np.complex128) if np.max(np.abs(m)) >= EPS_COEFF
        else np.zeros(m.shape, dtype=np.complex128)
        for m in (r.block_a, r.block_b, r.block_c, r.block_d)
    )
    acc = _purged({(): a})
    leg = _purged({u: du @ c for u, du in delta.items()})
    for j in range(k + 1):
        for w, bw in _purged({w: b @ lw for w, lw in leg.items()}).items():
            acc[w] = acc.get(w, 0) + bw
        acc = _purged(acc)
        if len(acc) > term_cap:
            raise TermBlowup(
                f"expansion reached {len(acc)} terms at order {j}, cap {term_cap}"
            )
        if j == k or not leg:
            break
        dleg = _purged({w: dd @ lw for w, lw in leg.items()})
        nxt = {}
        for u, du in delta.items():
            for w, dw in dleg.items():
                prod = du @ dw
                uw = u + w
                nxt[uw] = nxt[uw] + prod if uw in nxt else prod
        leg = _purged(nxt)
    return MatrixPoly(r.delta.d, a.shape[0], a.shape[1], acc)


def in_dictionary_hull(x: GradedPoint, sample, dictionary, slack: float = 0.0) -> bool:
    """Hull membership relative to a dictionary of grids.

    ``x`` belongs to the hull of the sample when every dictionary grid that
    keeps the whole sample inside its closed unit sublevel set also keeps
    ``x`` inside it (with optional slack). Only the supplied dictionary is
    consulted; the hull against all conceivable grids is not computable from
    finite data.
    """
    sample = list(sample)
    for delta in dictionary:
        if _worst_norm(delta, sample) <= 1.0:
            if mat.op_norm(eval_poly_matrix(delta, x)) > 1.0 + slack:
                return False
    return True
