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
So the set holds every field as one stack per level (``levels``, one
:class:`SampleLevel` each, in order of first appearance), and the per-point
tuples are views of their members: ``model_residual``, ``diagonal_floor``
and the fit read whole level blocks, with no loop over the points.

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
from functools import cached_property

import numpy as np

from . import mat
from .errors import ShapeMismatch
from .freepoly import GradedPoint, PolyMatrix, promoted_apply
from .ncpoint import require_inside


@dataclass(frozen=True, eq=False)
class SampleLevel:
    """The samples of one level n of a :class:`ModelSampleSet`, point axis first.

    ``at`` holds the positions of its points in the set, ascending; ``psi``,
    ``phi``, ``u``, ``delta_u`` and ``delta_x`` are read-only stacks whose
    member j belongs to point ``at[j]``.
    """

    n: int
    at: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    delta_u: np.ndarray
    delta_x: np.ndarray


def _per_point(name: str) -> cached_property:
    """The sample set's field ``name`` per point, in point order: read-only
    views of the level stacks' members, made on first use."""

    def views(self) -> tuple:
        members = [v for level in self.levels for v in getattr(level, name)]
        at = [i for level in self.levels for i in level.at.tolist()]
        return tuple(map(members.__getitem__, sorted(range(len(at)), key=at.__getitem__)))

    return cached_property(views)


@dataclass(frozen=True, eq=False)
class ModelSampleSet:
    """Immutable bundle of sample data for fitting and residual checks.

    The data are held once, as one :class:`SampleLevel` of stacks per level
    in ``levels``, in order of first appearance; the per-point tuples
    ``psi``, ``phi``, ``u``, ``delta_u`` and ``delta_x`` are read-only views
    of their members, made on first use. ``psi``, ``phi`` and ``u`` are given one matrix per
    point, which the constructor copies into its stacks once, or one
    ``(m, rows, cols)`` stack per level, in that order, which it holds as
    given and sets read-only (``model_from_realization`` hands over its own).
    The shape checks name the level of the first point whose data are wrong.

    Every point lies inside ``{ ||delta|| < 1 - DEFAULT_MARGIN }``; after
    the shape checks, ``ncpoint.require_inside`` raises :class:`OutsideDomain`
    at one that does not, before any Delta u is formed. ``delta_x[s]``, of
    shape (n*I, n*J) with I, J = delta.rows, delta.cols, is the grid-outer
    value delta(x) that decided membership: the kernel's, or the caller's
    when it passes ``delta_x`` (per point, or per level as the data are)
    from its own ``require_inside`` call. ``delta_u[s]``, of shape
    (n*mult*I, n*h), is Delta(x) u(x), formed by one
    ``freepoly.promoted_apply`` per level stack, each member bitwise the
    point's own product. Both follow from the other fields, so ``to_json``
    leaves them out and ``from_json`` forms them again. A fit that pads the
    grid with zero columns reads ``delta_u`` unpadded: those columns of
    Delta(x) are zero and meet only the zero rows padded into u.
    """

    delta: PolyMatrix
    points: tuple
    levels: tuple
    h_dim: int
    k1_dim: int
    k2_dim: int
    mult: int
    psi = _per_point("psi")
    phi = _per_point("phi")
    u = _per_point("u")
    delta_u = _per_point("delta_u")
    delta_x = _per_point("delta_x")

    def __init__(self, delta, points, psi, phi, u, h_dim, k1_dim, k2_dim, mult, delta_x=None):
        points, psi = tuple(points), list(psi)
        groups = {}
        for i, x in enumerate(points):
            groups.setdefault(x.n, []).append(i)
        stacked = bool(psi) and np.ndim(psi[0]) == 3
        if stacked:
            data = [[np.asarray(a, dtype=np.complex128) for a in f] for f in (psi, phi, u)]
            counts = [len(idx) for idx in groups.values()]
            equal = all([len(a) for a in f] == counts for f in data)
            # a stack's members share one shape: its level's first point is the first bad one
            checks = [(n, a.shape[1:], b.shape[1:], c.shape[1:]) for n, a, b, c in zip(groups, *data)]
        else:
            data = [[mat.as_array(v) for v in f] for f in (psi, phi, u)]
            equal = len(points) == len(data[0]) == len(data[1]) == len(data[2])
            checks = [(x.n, a.shape, b.shape, c.shape) for x, a, b, c in zip(points, *data)]
        if not equal:
            raise ShapeMismatch("points, psi, phi, u must have equal lengths")
        if min(h_dim, k1_dim, k2_dim, mult) < 1:
            raise ShapeMismatch("dimensions must be positive")
        rows = {"psi": k1_dim, "phi": k2_dim, "u": mult * delta.cols}
        for n, *shapes in checks:
            for (name, k), shape in zip(rows.items(), shapes):
                if shape != (n * k, n * h_dim):
                    raise ShapeMismatch(f"{name} shape {shape} wrong at level {n}")
        if delta_x is None:
            found = require_inside(delta, points)
            delta_x = [np.array([found[i][0] for i in idx]) for idx in groups.values()]
        elif not stacked:
            delta_x = [np.array([delta_x[i] for i in idx]) for idx in groups.values()]
        if not stacked:
            data = [[np.array([f[i] for i in idx]) for idx in groups.values()] for f in data]
        levels = []
        for (n, idx), a, b, c, dx in zip(groups.items(), *data, delta_x):
            level = SampleLevel(n, np.array(idx), a, b, c, promoted_apply(dx, n, mult, c), dx)
            for v in (level.at, a, b, c, level.delta_u, dx):
                v.setflags(write=False)
            levels.append(level)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "levels", tuple(levels))
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
# bytes of kept pair blocks held for one screen (at least one band's); the
# fit workload's 120 samples keep 0.9 MB, so they are screened at once
_HELD_BYTES = 1 << 20


def model_residual(s: ModelSampleSet) -> float:
    """Worst violation of the model identity over same-level sample pairs.

    Returns ``max ||psi(y)*psi(x) - phi(y)*phi(x) - u(y)*(I - D(y)*D(x))u(x)||``
    including the diagonal pairs y = x. Machine-scale for data generated by
    an isometric realization; ``inf`` when any pair block is not finite or
    any SVD fails.

    Delta u is the sample set's ``delta_u``; no delta is evaluated here.
    Per level of m samples, the columns ``M_s = [psi_s; (Delta u)_s; phi_s; u_s]``
    of width w are copied from the level's stacks once, and with
    J = diag(I, I, -I, -I) the pair block is ``E_st = (J M_s)* M_t``. Since
    ``||E_ts|| = ||E_st||`` only the blocks with t >= s are kept. The rows of
    the level's (m w)^2 matrix E are formed in bands of whole row blocks,
    rows a..b against columns a.. by one product, each of at most
    ``_BAND_BYTES`` unless one row block is larger, so the memory is bounded
    for any sample count. Each band's kept blocks are copied next to the
    level's earlier ones, so a level reaches :func:`mat.max_op_norm` as one
    ``(count, w, w)`` stack; the held blocks are screened at the end, or
    whenever ``_HELD_BYTES`` of them are held. The screen SVDs only blocks
    that may attain the maximum. The columns, their signed conjugate, the
    band product and the held blocks are all views of one
    :func:`mat.scratch` request.
    """
    plans = []
    for level in s.levels:
        m, w = len(level.at), level.psi.shape[2]
        cuts, a = [], 0
        while a < m:
            b = min(m, a + max(1, _BAND_BYTES // (16 * w * w * (m - a))))
            cuts.append((a, b, (b - a) * (2 * (m - a) - (b - a) + 1) // 2 * w * w))
            a = b
        rows = sum(f.shape[1] for f in (level.psi, level.delta_u, level.phi, level.u))
        work = 2 * rows * m * w + max((b - a) * w * (m - a) * w for a, b, _ in cuts)
        plans.append((level, m, w, rows, cuts, work))
    kept = [size for *_, cuts, _ in plans for *_, size in cuts]
    cap = min(sum(kept), max([_HELD_BYTES // 16, *kept]))
    buf = mat.scratch(cap + max([0, *(work for *_, work in plans)]))
    region, rest = buf[:cap], buf[cap:]
    worst, held, used = 0.0, [], 0
    for level, m, w, rows, cuts, _ in plans:
        cols = rest[: rows * m * w].reshape(rows, m, w)
        top = 0
        for f in (level.psi, level.delta_u, level.phi, level.u):
            cols[top : top + f.shape[1]] = f.transpose(1, 0, 2)
            top += f.shape[1]
        cols = cols.reshape(rows, m * w)
        signed = np.conjugate(cols, out=rest[rows * m * w : 2 * rows * m * w].reshape(rows, m * w)).T
        signed[:, level.psi.shape[1] + level.delta_u.shape[1] :] *= -1.0
        start = used
        for a, b, size in cuts:
            if used + size > cap:  # screen what is held, then reuse the region
                got = mat.max_op_norm([*held, region[start:used].reshape(-1, w, w)])
                if math.isnan(got):
                    return math.inf
                worst, held, used, start = max(worst, got), [], 0, 0
            _band(signed, cols, w, a, b, rest[2 * rows * m * w :], region[used : used + size])
            used += size
        held.append(region[start:used].reshape(-1, w, w))
    got = mat.max_op_norm(held)
    return math.inf if math.isnan(got) else max(worst, got)


def _band(signed, cols, w: int, a: int, b: int, work, out) -> None:
    """The pair blocks ``E_st``, a <= s < b, t >= s, of the level with
    ``signed = (J M)*`` and ``cols = M``, into ``out``: one product of rows
    a..b against columns a.. into the flat array ``work``, then one take of
    the kept blocks, in row order, as ``(count, w, w)``."""
    rows, m = b - a, cols.shape[1] // w - a
    prod = work[: rows * w * m * w].reshape(rows * w, m * w)
    np.matmul(signed[a * w : b * w], cols[:, a * w :], out=prod)
    r, t = np.triu_indices(rows, 0, m)
    # row (r w + i) m + t of the (rows w m, w) view is row i of block (r, t)
    first = (r * w * m + t)[:, None] + np.arange(0, w * m, m)
    np.take(prod.reshape(-1, w), first, axis=0, out=out.reshape(len(r), w, w), mode="clip")


def diagonal_floor(s: ModelSampleSet) -> float:
    """Smallest eigenvalue of ``psi*psi - phi*phi`` over the sample points.

    Nonnegative (to rounding) whenever the data admits any model at all;
    NaN when any point's ``psi*psi - phi*phi`` is not finite. One batched
    ``eigvalsh`` per level stack, each eigenvalue bitwise the point's own.
    """
    floor = np.inf
    for level in s.levels:
        psi, phi = level.psi, level.phi
        g = psi.conj().transpose(0, 2, 1) @ psi - phi.conj().transpose(0, 2, 1) @ phi
        if not np.isfinite(g).all():
            return math.nan
        low = np.linalg.eigvalsh((g + g.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
        floor = min(floor, float(low.min()))
    return float(floor)


def model_from_realization(r, points, psi=None) -> ModelSampleSet:
    """Sample a realization into model data with a machine-scale residual.

    For each point the model column is ``u(x) = v(x) psi(x)`` where ``v`` is
    the realization's resolvent leg, and ``phi(x)`` is the realization value
    times ``psi(x)``; the resolvent solve at x yields both. Each level's
    points are solved by ``realize._stack_solves``, one stacked solve per
    chunk, each member bitwise the one-point solve, and each chunk's phi and
    u are one stacked product each; the level stacks go to the sample set
    as they are. With ``psi=None`` the identity column data is used
    (h_dim = k1_dim). ``ncpoint.require_inside`` evaluates delta and decides
    membership once for all points; the solves and the sample set take
    delta(x) from it.
    """
    from .realize import _stack_solves

    points = list(points)
    if psi is None:
        h_dim = r.dim_k1
    else:
        psi = [mat.as_array(v) for v in psi]
        if not psi:
            raise ShapeMismatch("psi values required when supplied explicitly")
        if len(psi) != len(points):
            raise ShapeMismatch("points, psi, phi, u must have equal lengths")
        h_dim = psi[0].shape[1] // points[0].n
        for x, p in zip(points, psi):
            if p.shape != (x.n * r.dim_k1, x.n * h_dim):
                raise ShapeMismatch(f"psi shape {p.shape} wrong at level {x.n}")
    found = require_inside(r.delta, points)
    groups = {}
    for i, x in enumerate(points):
        groups.setdefault(x.n, []).append(i)
    psis, phis, us, dxs = [], [], [], []
    for n, idx in groups.items():
        if psi is None:
            p = np.repeat(np.eye(n * r.dim_k1, dtype=np.complex128)[None], len(idx), axis=0)
        else:
            p = np.array([psi[i] for i in idx])
        dx = np.array([found[i][0] for i in idx])
        phi = np.empty((len(idx), n * r.dim_k2, n * h_dim), dtype=np.complex128)
        u = np.empty((len(idx), n * r.mult * r.delta.cols, n * h_dim), dtype=np.complex128)
        for part, omega, v in _stack_solves(r, n, dx):
            np.matmul(omega, p[part], out=phi[part])
            np.matmul(v, p[part], out=u[part])
        psis.append(p)
        phis.append(phi)
        us.append(u)
        dxs.append(dx)
    return ModelSampleSet(
        r.delta, points, psis, phis, us,
        h_dim=h_dim, k1_dim=r.dim_k1, k2_dim=r.dim_k2, mult=r.mult, delta_x=dxs,
    )
