"""Finite sample data for the positivity identity behind realizations.

A model sample set records, at finitely many points x inside the domain of
a grid delta, three operator values with the level index outer:

* ``psi[s]`` of shape (n*k1, n*h): the column data,
* ``phi[s]`` of shape (n*k2, n*h): the target data,
* ``u[s]`` of shape (n*mult*J, n*h): the model data, J = delta.cols.

The defining identity, checked pairwise at equal levels, is

    psi(y)* psi(x) - phi(y)* phi(x) = u(y)* (I - Delta(y)* Delta(x)) u(x)

with Delta the multiplicity-promoted evaluation of delta. Points at unequal
levels are never compared; the identity only constrains same-level pairs.

The promoted Delta is the meaning of the identity, not what is computed.
delta(x) and the membership of x come from ``ncpoint.require_inside``, once
per point: the constructor calls it, or takes delta(x) from
``model_from_realization``, which called it for its resolvent solves. The
sample set holds delta(x) as ``delta_x`` and Delta(x) u(x), formed through
``freepoly.promoted_apply``, as ``delta_u``. ``model_residual``, the fit,
its holdout and ``realize.corona_solve``'s residual read those two, and
none of them evaluates delta.
``freepoly.eval_poly_matrix_promoted`` remains the dense reference that
tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat
from .errors import ShapeMismatch
from .freepoly import GradedPoint, PolyMatrix, promoted_apply
from .ncpoint import require_inside


@dataclass(frozen=True, eq=False)
class ModelSampleSet:
    """Immutable bundle of sample data for fitting and residual checks.

    Every point lies inside ``{ ||delta|| < 1 - DEFAULT_MARGIN }``; after
    the shape checks, ``ncpoint.require_inside`` raises :class:`OutsideDomain`
    at one that does not, before any Delta u is formed. ``delta_x[s]``, of
    shape (n*I, n*J) with I, J = delta.rows, delta.cols, is the read-only
    grid-outer value delta(x) that decided membership: the kernel's, or the
    caller's when it passes ``delta_x`` from its own ``require_inside`` call.
    ``delta_u[s]``, of shape (n*mult*I, n*h), is the read-only Delta(x) u(x).
    Both follow from the other fields, so ``to_json`` leaves them out and
    ``from_json`` forms them again. A fit that pads the grid with zero
    columns reads ``delta_u`` unpadded: those columns of Delta(x) are zero
    and meet only the zero rows padded into u.
    """

    delta: PolyMatrix
    points: tuple
    psi: tuple
    phi: tuple
    u: tuple
    delta_u: tuple
    delta_x: tuple
    h_dim: int
    k1_dim: int
    k2_dim: int
    mult: int

    def __init__(self, delta, points, psi, phi, u, h_dim, k1_dim, k2_dim, mult, delta_x=None):
        points = tuple(points)
        psi = tuple(np.array(mat.as_array(v), dtype=np.complex128) for v in psi)
        phi = tuple(np.array(mat.as_array(v), dtype=np.complex128) for v in phi)
        u = tuple(np.array(mat.as_array(v), dtype=np.complex128) for v in u)
        if not (len(points) == len(psi) == len(phi) == len(u)):
            raise ShapeMismatch("points, psi, phi, u must have equal lengths")
        if min(h_dim, k1_dim, k2_dim, mult) < 1:
            raise ShapeMismatch("dimensions must be positive")
        for x, a, b, c in zip(points, psi, phi, u):
            n = x.n
            if a.shape != (n * k1_dim, n * h_dim):
                raise ShapeMismatch(f"psi shape {a.shape} wrong at level {n}")
            if b.shape != (n * k2_dim, n * h_dim):
                raise ShapeMismatch(f"phi shape {b.shape} wrong at level {n}")
            if c.shape != (n * mult * delta.cols, n * h_dim):
                raise ShapeMismatch(f"u shape {c.shape} wrong at level {n}")
        if delta_x is None:
            delta_x = [dx for dx, _ in require_inside(delta, points)]
        delta_x = tuple(delta_x)
        delta_u = tuple(promoted_apply(dx, x.n, mult, c) for x, dx, c in zip(points, delta_x, u))
        for arrays in (psi, phi, u, delta_u, delta_x):
            for v in arrays:
                v.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "delta_u", delta_u)
        object.__setattr__(self, "delta_x", delta_x)
        object.__setattr__(self, "h_dim", int(h_dim))
        object.__setattr__(self, "k1_dim", int(k1_dim))
        object.__setattr__(self, "k2_dim", int(k2_dim))
        object.__setattr__(self, "mult", int(mult))

    def __len__(self):
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "delta": self.delta.to_json(),
            "points": [p.to_json() for p in self.points],
            "psi": [mat.matrix_to_json(v) for v in self.psi],
            "phi": [mat.matrix_to_json(v) for v in self.phi],
            "u": [mat.matrix_to_json(v) for v in self.u],
            "h_dim": self.h_dim,
            "k1_dim": self.k1_dim,
            "k2_dim": self.k2_dim,
            "mult": self.mult,
        }

    @classmethod
    def from_json(cls, obj) -> "ModelSampleSet":
        return cls(
            delta=PolyMatrix.from_json(obj["delta"]),
            points=[GradedPoint.from_json(p) for p in obj["points"]],
            psi=[mat.matrix_from_json(v) for v in obj["psi"]],
            phi=[mat.matrix_from_json(v) for v in obj["phi"]],
            u=[mat.matrix_from_json(v) for v in obj["u"]],
            h_dim=mat.json_int(obj["h_dim"], "h_dim"),
            k1_dim=mat.json_int(obj["k1_dim"], "k1_dim"),
            k2_dim=mat.json_int(obj["k2_dim"], "k2_dim"),
            mult=mat.json_int(obj["mult"], "mult"),
        )


# bytes of one band of a level's signed Gram (a band holds at least one row
# block); a narrower band computes less of the discarded lower triangle, and
# this size measured fastest on the fit workload's 120 samples
_BAND_BYTES = 1 << 19


def model_residual(s: ModelSampleSet) -> float:
    """Worst violation of the model identity over same-level sample pairs.

    Returns ``max ||psi(y)*psi(x) - phi(y)*phi(x) - u(y)*(I - D(y)*D(x))u(x)||``
    including the diagonal pairs y = x. Machine-scale for data generated by
    an isometric realization; ``inf`` when any pair block is not finite or
    any SVD fails.

    Delta u is the sample set's ``delta_u``; no delta is evaluated here.
    Per level of m samples, the columns ``M_s = [psi_s; (Delta u)_s; phi_s; u_s]``
    of width w are formed once, and with J = diag(I, I, -I, -I) the pair
    block is ``E_st = (J M_s)* M_t``. Since ``||E_ts|| = ||E_st||`` only the
    blocks with t >= s are kept. The rows of the level's (m w)^2 matrix E are
    formed in bands of whole row blocks, rows a..b against columns a.. by
    one product, each of at most ``_BAND_BYTES`` unless one row block is
    larger, so the memory is bounded for any sample count; the product is
    written into ``mat.scratch``. Each band's kept blocks are copied into
    one ``(count, w, w)`` stack for ``mat.max_op_norm``, read
    before the next band is formed; it SVDs only blocks that may attain the
    maximum.
    """
    by_level = {}
    for i, x in enumerate(s.points):
        by_level.setdefault(x.n, []).append(i)

    def bands():
        for idx in by_level.values():
            m, w = len(idx), s.psi[idx[0]].shape[1]
            fields = (s.psi, s.delta_u, s.phi, s.u)
            cols = np.concatenate([np.concatenate([f[i] for i in idx], axis=1) for f in fields])
            signed = cols.conj().T
            signed[:, len(s.psi[idx[0]]) + len(s.delta_u[idx[0]]) :] *= -1.0
            a = 0
            while a < m:
                b = min(m, a + max(1, _BAND_BYTES // (16 * w * w * (m - a))))
                yield _band(signed, cols, w, a, b)
                a = b

    worst = mat.max_op_norm(bands())
    return math.inf if math.isnan(worst) else worst


def _band(signed, cols, w: int, a: int, b: int) -> np.ndarray:
    """The pair blocks ``E_st``, a <= s < b, t >= s, of the level with
    ``signed = (J M)*`` and ``cols = M``: one product of rows a..b against
    columns a.. into a :func:`mat.scratch` buffer, then the kept blocks
    copied in row order into one fresh ``(count, w, w)`` stack."""
    rows, m = b - a, cols.shape[1] // w - a
    prod = mat.scratch(rows * w * m * w).reshape(rows * w, m * w)
    np.matmul(signed[a * w : b * w], cols[:, a * w :], out=prod)
    e = prod.reshape(rows, w, m, w).transpose(0, 2, 1, 3)
    out = np.empty((rows * (2 * m - rows + 1) // 2, w, w), dtype=np.complex128)
    k = 0
    for r in range(rows):
        out[k : k + m - r] = e[r, r:]
        k += m - r
    return out


def diagonal_floor(s: ModelSampleSet) -> float:
    """Smallest eigenvalue of ``psi*psi - phi*phi`` over the sample points.

    Nonnegative (to rounding) whenever the data admits any model at all;
    NaN when any point's ``psi*psi - phi*phi`` is not finite.
    """
    floor = np.inf
    for i in range(len(s)):
        g = s.psi[i].conj().T @ s.psi[i] - s.phi[i].conj().T @ s.phi[i]
        if not np.isfinite(g).all():
            return math.nan
        floor = min(floor, float(np.linalg.eigvalsh((g + g.conj().T) / 2.0)[0]))
    return float(floor)


def model_from_realization(r, points, psi=None) -> ModelSampleSet:
    """Sample a realization into model data with a machine-scale residual.

    For each point the model column is ``u(x) = v(x) psi(x)`` where ``v`` is
    the realization's resolvent leg, and ``phi(x)`` is the realization value
    times ``psi(x)``; the resolvent solve at x yields both. The points are
    solved by ``realize._level_solves``, one stacked solve per level chunk,
    each member bitwise the one-point solve. With ``psi=None`` the identity
    column data is used (h_dim = k1_dim). ``ncpoint.require_inside``
    evaluates delta and decides membership once for all points; the solves
    and the sample set take delta(x) from it.
    """
    from .realize import _level_solves

    points = list(points)
    if psi is None:
        psi = [np.eye(x.n * r.dim_k1, dtype=np.complex128) for x in points]
        h_dim = r.dim_k1
    else:
        psi = [mat.as_array(v) for v in psi]
        if not psi:
            raise ShapeMismatch("psi values required when supplied explicitly")
        if len(psi) != len(points):
            raise ShapeMismatch("points, psi, phi, u must have equal lengths")
        h_dim = psi[0].shape[1] // points[0].n
    delta_x = [dx for dx, _ in require_inside(r.delta, points)]
    solved = [None] * len(points)
    for chunk, omega, v in _level_solves(r, [x.n for x in points], delta_x):
        for j, i in enumerate(chunk):
            solved[i] = omega[j], v[j]
    return ModelSampleSet(
        r.delta, points, psi,
        phi=[omega @ p for (omega, _), p in zip(solved, psi)],
        u=[v @ p for (_, v), p in zip(solved, psi)],
        h_dim=h_dim, k1_dim=r.dim_k1, k2_dim=r.dim_k2, mult=r.mult, delta_x=delta_x,
    )
