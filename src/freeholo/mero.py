"""Explicit inversion certificates and singularity scans.

Given a function holomorphic and bounded on a grid domain, invertible at one
point M, the reciprocal is holomorphic on a smaller basic set that can be
written down explicitly: augment the grid with twice the rescaled
characteristic polynomial of the value at M, composed with the function.
Inside the augmented domain the reciprocal obeys a closed-form norm bound
built from the roots of that polynomial, so invertibility there is certified
rather than sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat
from .errors import (
    FreeholoError,
    NonFiniteValue,
    NotInvertible,
    RootFindingFailure,
    ShapeMismatch,
    SingularityHit,
)
from .exprlang import Schedule, eval_expr_points
from .freepoly import DEFAULT_MARGIN, GradedPoint, PolyMatrix, eval_poly_matrix
from .ncpoint import Membership

INVERTIBILITY_RTOL = 1e-10

# Largest ||p(f(M))|| a certificate accepts. Horner on the monomial
# coefficients of p = q / q(0) loses digits fast with the level: on
# T = G / sqrt(2n) + 0.5 I (G complex Gaussian, default_rng(0)) it gives
# 2.6e-13, 1.1e-8, 1.5e-5 and 1.98 at n = 8, 16, 24 and 32, so levels up to
# 16 certify on that family and 24 and 32 raise.
P_RESIDUAL_TOL = 1e-6


def poly_at_matrix(coeffs_desc, t) -> np.ndarray:
    """Evaluate a scalar polynomial (highest coefficient first) at a matrix."""
    t = mat.as_array(t)
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("matrix polynomial argument must be square")
    out = np.zeros_like(t)
    eye = np.eye(t.shape[0], dtype=np.complex128)
    for c in coeffs_desc:
        out = out @ t + complex(c) * eye
    return out


class AugmentedDomain:
    """A grid domain intersected with sublevel sets of extra function legs.

    Membership means the block diagonal of the grid value and every extra
    leg value has norm under 1; since the block diagonal norm is the max of
    the block norms, the verdict is the conjunction of the individual ones.
    """

    def __init__(self, delta: PolyMatrix, extras=()):
        self.delta = delta
        self.extras = tuple(extras)

    def norm_at(self, x: GradedPoint) -> float:
        values = [eval_poly_matrix(self.delta, x), *(mat.as_array(leg(x)) for leg in self.extras)]
        return mat.max_op_norm(v[None] for v in values)

    def contains(self, x: GradedPoint, margin: float = DEFAULT_MARGIN) -> bool:
        return Membership.from_norm(self.norm_at(x), margin).inside


@dataclass(frozen=True)
class InversionCertificate:
    """Closed-form invertibility guarantee around a base point.

    Attributes
    ----------
    p_coeffs : tuple
        The rescaled characteristic polynomial p (highest first): p(0) = 1
        and p annihilates the function value at the base point.
    c : complex
        Leading coefficient in the factorization ``1 - p(z) = c z prod (z - root)``.
    roots : tuple
        The nonzero-factor roots of that factorization.
    bound_inv : float
        Certified bound: every N inside the augmented domain satisfies
        ``|| f(N)^{-1} || <= bound_inv``.
    bound_sup : float
        The norm bound on f over the original domain the certificate used.
    bound_source : str
        "asserted" when the caller supplied ``bound_sup``, "sampled" when it
        was estimated from random points (then it is evidence, not proof).
    p_residual : float
        ``|| p(f(M)) ||`` by Horner on ``p_coeffs``: zero in exact
        arithmetic, but its rounding grows with the level and the spread of
        the eigenvalues; a certificate is only issued when it is at most
        ``P_RESIDUAL_TOL``.
    domain : AugmentedDomain
        The grid augmented with the leg ``N -> 2 p(f(N))``.
    """

    p_coeffs: tuple
    c: complex
    roots: tuple
    bound_inv: float
    bound_sup: float
    bound_source: str
    p_residual: float
    domain: AugmentedDomain


def inversion_certificate(
    f,
    delta: PolyMatrix,
    m_point: GradedPoint,
    bound_sup: float,
    bound_source: str = "asserted",
) -> InversionCertificate:
    """Certify invertibility of ``f`` near an invertible value.

    Parameters
    ----------
    f : callable
        Scalar-valued free function evaluator (GradedPoint to n-by-n array),
        holomorphic on the domain of ``delta`` with ``||f|| <= bound_sup``
        there.
    delta : PolyMatrix
        The domain grid.
    m_point : GradedPoint
        Base point; ``f(m_point)`` must be invertible
        (smallest singular value above ``INVERTIBILITY_RTOL`` relative).
    bound_sup : float
        Sup-norm bound for ``f`` on the domain.
    bound_source : str
        Provenance of ``bound_sup``: "asserted" or "sampled".

    Construction: with T = f(M) and q its characteristic polynomial, set
    p = q / q(0), so p(T) = 0 and p(0) = 1. Then 1 - p factors as
    ``c z prod (z - root_j)`` and wherever ``||2 p(f(N))|| < 1`` the value
    f(N) is invertible with

        || f(N)^{-1} || <= 2 |c| prod (bound_sup + |root_j|) = bound_inv.

    The augmented domain also keeps ``||delta(N)|| < 1`` so the sup bound
    stays applicable.

    p is used as computed, so the certificate holds only as far as p(T)
    really vanishes: when ``||p(T)||``, by Horner on p's coefficients, is
    above ``P_RESIDUAL_TOL`` (or not finite), :class:`RootFindingFailure`
    is raised instead.
    """
    if bound_sup <= 0:
        raise ValueError("bound_sup must be positive")
    if bound_source not in ("asserted", "sampled"):
        raise ValueError("bound_source must be 'asserted' or 'sampled'")
    t_val = mat.as_array(f(m_point))
    if t_val.shape[0] != t_val.shape[1]:
        raise ShapeMismatch("certificate requires a scalar-valued function")
    if not np.isfinite(t_val).all():
        raise NotInvertible("f(M) has a non-finite entry")
    sing = np.linalg.svd(t_val, compute_uv=False)
    if sing[-1] <= INVERTIBILITY_RTOL * sing[0]:
        rel = sing[-1] / sing[0] if sing[0] > 0 else 0.0
        raise NotInvertible(
            f"f(M) has relative smallest singular value {rel:.3e}"
        )
    # monic characteristic polynomial, highest coefficient first
    q_coeffs = np.poly(np.linalg.eigvals(t_val))
    q_at_zero = q_coeffs[-1]
    if abs(q_at_zero) == 0.0:
        raise NotInvertible("characteristic polynomial vanishes at zero")
    p_coeffs = q_coeffs / q_at_zero  # p(0) = 1, degree = level of M
    if not np.isfinite(p_coeffs).all():  # np.poly or the division overflowed
        raise RootFindingFailure("characteristic polynomial coefficients are not finite")
    # 1 - p(z) = z * g(z) with g read off the nonconstant coefficients of p
    g_coeffs = -p_coeffs[:-1]  # highest first, degree n-1, leading -1/q(0)
    c = complex(g_coeffs[0])
    if len(g_coeffs) > 1:
        roots = np.roots(g_coeffs)
        if not np.all(np.isfinite(roots)):
            raise RootFindingFailure("factor roots are not finite")
    else:
        roots = np.array([], dtype=np.complex128)
    bound_inv = 2.0 * abs(c) * float(np.prod([bound_sup + abs(b) for b in roots] or [1.0]))
    p_residual = mat.op_norm(poly_at_matrix(p_coeffs, t_val))
    if not p_residual <= P_RESIDUAL_TOL:  # a NaN residual fails too
        raise RootFindingFailure(
            f"p(f(M)) has residual {p_residual:.3e} above {P_RESIDUAL_TOL:.0e}: "
            "the characteristic polynomial lost too many digits"
        )

    def reciprocal_leg(x, _f=f, _p=tuple(p_coeffs)):
        return 2.0 * poly_at_matrix(_p, mat.as_array(_f(x)))

    domain = AugmentedDomain(delta, extras=(reciprocal_leg,))
    return InversionCertificate(
        p_coeffs=tuple(complex(v) for v in p_coeffs),
        c=c,
        roots=tuple(complex(b) for b in roots),
        bound_inv=float(bound_inv),
        bound_sup=float(bound_sup),
        bound_source=bound_source,
        p_residual=float(p_residual),
        domain=domain,
    )


def verify_certificate(cert: InversionCertificate, f, candidates) -> dict:
    """Empirically spot-check a certificate on candidate points.

    Candidates outside the augmented domain are skipped. Returns a report
    dict with the number checked, the worst ratio ``||f(N)^{-1}|| / bound``,
    and the number of violations, those exceeding the bound by more than
    1e-8.
    """
    checked = violations = 0
    worst_ratio = 0.0
    for x in candidates:
        if not cert.domain.contains(x):
            continue
        value = mat.as_array(f(x))
        inv_norm = mat.op_norm(mat.inv(value))
        ratio = inv_norm / cert.bound_inv
        worst_ratio = max(worst_ratio, ratio)
        if inv_norm > cert.bound_inv + 1e-8:
            violations += 1
        checked += 1
    return {
        "checked": checked,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "bound_inv": cert.bound_inv,
    }


@dataclass(frozen=True)
class ScanEntry:
    index: int
    level: int
    singular: bool
    path: tuple | None
    value_norm: float | None


@dataclass(frozen=True)
class ScanReport:
    entries: tuple
    total: int
    n_singular: int

    def paths(self):
        return sorted({e.path for e in self.entries if e.singular})


def singular_scan(ast, samples) -> ScanReport:
    """Evaluate an expression at each sample, recording singular inversions.

    The reported locations are paths of inversion nodes in the given tree,
    so they are tied to this presentation of the function; an algebraically
    equal expression written differently may scan clean at the same points.
    A value or value norm that is not finite decides nothing (an overflowed
    operand gets a NaN inverse) and raises :class:`NonFiniteValue` at the
    first such sample in sample order, unless the evaluation raised an
    error other than :class:`SingularityHit` at an earlier sample.

    The samples are evaluated one level stack at a time
    (:func:`exprlang.eval_expr_points`; a level holding a singular sample
    is evaluated again point by point), and the value norms taken with one
    ``mat.op_norms`` call per level; each entry is the one-point scan's.
    """
    samples = list(samples)
    outcomes = eval_expr_points(Schedule(ast), samples)
    norms = iter(mat.op_norms_of([v for v in outcomes if not isinstance(v, FreeholoError)]))
    entries = []
    n_singular = 0
    for idx, (x, value) in enumerate(zip(samples, outcomes)):
        if isinstance(value, SingularityHit):
            n_singular += 1
            entries.append(ScanEntry(idx, x.n, singular=True, path=value.path, value_norm=None))
            continue
        if isinstance(value, FreeholoError):
            raise value
        value_norm = next(norms)
        if not math.isfinite(value_norm):
            raise NonFiniteValue(f"the value is not finite at sample {idx} (level {x.n})")
        entries.append(ScanEntry(idx, x.n, singular=False, path=None, value_norm=value_norm))
    return ScanReport(entries=tuple(entries), total=len(entries), n_singular=n_singular)
