"""Transfer-function realizations over a polynomial grid domain.

A realization packages an isometric block matrix

    J1 = [[A, B],
          [C, D]]  :  K1 (+) (mult * I)  ->  K2 (+) (mult * J)

together with an I-by-J grid delta. Its value at a level-n point x inside
``{ ||delta|| < 1 }`` is

    Omega(x) = (I_n (x) A) + (I_n (x) B) Delta(x) (I - (I_n (x) D) Delta(x))^{-1} (I_n (x) C)

where Delta(x) is the multiplicity-promoted evaluation of delta in the fixed
layout level (x) multiplicity (x) grid-index (see ``jsonio.TENSOR_CONVENTION``).
Isometry of J1 forces ``||Omega(x)|| <= 1`` strictly inside the domain.

The Kronecker factors and the promoted Delta(x) are the meaning of the
formula, not what is computed. The private kernels ``_solve`` (the resolvent
solve) and ``_series`` (the Neumann terms) take the realization, the level n
and the unpromoted grid-outer value delta(x); ``_solve`` takes a stack of
them at points of one level. They apply the blocks through
``mat.kron_left_identity_apply``, one GEMM over the n level blocks, and
Delta(x) through ``freepoly.promoted_apply``, one GEMM with delta(x) per
multiplicity slot; ``_series`` runs that arithmetic per term on terms held
in the multiplicity-major layout both helpers multiply in, two in-place
GEMMs and no copy per term; ``_solve`` assembles its resolvent matrices in
place in ``mat.scratch``, a buffer reused across calls. ``eval_direct``
solves a one-point stack; ``_stack_solves`` solves a level stack with one
``_solve`` per chunk for ``model_from_realization``, the fit's holdout and
the corona residual, and ``_level_solves`` groups the points of
``eval_direct_points`` into such stacks, each member bitwise the one-point
solve. ``_solve`` also returns the resolvent
leg v(x) = (I - D~Delta)^{-1} C~, the model column the realization
generates. ``eval_direct``, ``eval_neumann`` and ``model_from_realization``
take delta(x) and its norm from the membership kernel
``ncpoint.require_inside``; ``eval_direct_points``
from ``ncpoint.delta_memberships`` itself, so that a point outside gets its
error while the others are solved; the fit's holdout and the corona residual
read the sample set's delta(x).

The fitting routine recovers such a J1 from finite model sample data by
matching two families of structured vectors with equal Gram matrices and
completing the resulting partial isometry deterministically. It reads
Delta(x) u(x) from the sample set, which formed it once per point. When the
codomain is too small for any isometry (for instance row-valued functions,
where k1 exceeds k2), the grid is padded with zero columns first; padding
never moves the domain and only widens the codomain side of J1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat
from .errors import (
    BelowFloor,
    GramMismatch,
    RankOverflow,
    ShapeMismatch,
    TermBlowup,
)
from .freepoly import GradedPoint, PolyMatrix, delta_pad_columns, promoted_apply
from .model import ModelSampleSet
from .ncpoint import delta_memberships, outside_domain, require_inside

ISOMETRY_TOL = 1e-8

# Most series terms eval_neumann sums before it gives up with TermBlowup.
NEUMANN_TERM_CAP = 200_000

# Most zero grid columns fit_lurking_isometry pads before RankOverflow.
PAD_CAP = 64


@dataclass(frozen=True, eq=False)
class Realization:
    """Isometric colligation (A, B, C, D) over a grid delta.

    ``j1`` has shape ``(dim_k2 + mult * delta.cols, dim_k1 + mult * delta.rows)``
    and must be an isometry within ``ISOMETRY_TOL``.
    """

    delta: PolyMatrix
    dim_k1: int
    dim_k2: int
    mult: int
    j1: np.ndarray

    def __init__(self, delta, dim_k1, dim_k2, mult, j1):
        j1 = np.array(mat.as_array(j1), dtype=np.complex128)
        rows_want = dim_k2 + mult * delta.cols
        cols_want = dim_k1 + mult * delta.rows
        if j1.shape != (rows_want, cols_want):
            raise ShapeMismatch(
                f"J1 shape {j1.shape} does not match ({rows_want}, {cols_want}) "
                f"from k1={dim_k1}, k2={dim_k2}, mult={mult}, grid {delta.rows}x{delta.cols}"
            )
        defect = mat.isometry_defect(j1)
        if not defect <= ISOMETRY_TOL:  # a NaN defect (overflow in J1* J1) fails too
            raise ShapeMismatch(
                f"J1 is not an isometry: defect {defect:.3e} exceeds {ISOMETRY_TOL:.0e}"
            )
        j1.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "dim_k1", int(dim_k1))
        object.__setattr__(self, "dim_k2", int(dim_k2))
        object.__setattr__(self, "mult", int(mult))
        object.__setattr__(self, "j1", j1)

    # -- block accessors ---------------------------------------------------

    @property
    def block_a(self) -> np.ndarray:
        return self.j1[: self.dim_k2, : self.dim_k1]

    @property
    def block_b(self) -> np.ndarray:
        return self.j1[: self.dim_k2, self.dim_k1 :]

    @property
    def block_c(self) -> np.ndarray:
        return self.j1[self.dim_k2 :, : self.dim_k1]

    @property
    def block_d(self) -> np.ndarray:
        return self.j1[self.dim_k2 :, self.dim_k1 :]

    def to_json(self) -> dict:
        return {
            "delta": self.delta.to_json(),
            "dimK1": self.dim_k1,
            "dimK2": self.dim_k2,
            "mult": self.mult,
            "J1": mat.matrix_to_json(self.j1),
        }

    @classmethod
    def from_json(cls, obj) -> "Realization":
        return cls(
            delta=PolyMatrix.from_json(obj["delta"]),
            dim_k1=mat.json_int(obj["dimK1"], "dimK1"),
            dim_k2=mat.json_int(obj["dimK2"], "dimK2"),
            mult=mat.json_int(obj["mult"], "mult"),
            j1=mat.matrix_from_json(obj["J1"]),
        )


def _value(r: Realization, n: int, w: np.ndarray) -> np.ndarray:
    """``kron(I_n, A) + kron(I_n, B) @ w``, the value once ``w = Delta v``."""
    a_tilde = mat.kron_left_identity_apply(n, r.block_a, np.eye(n * r.dim_k1))
    return a_tilde + mat.kron_left_identity_apply(n, r.block_b, w)


def _solve(r: Realization, n: int, dxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(Omega(x), v(x))`` from ``dxs``, a ``(p, n*I, n*J)`` stack of
    the grid-outer delta(x) at p points of level n.

    One batched LU solve of the resolvent equations. Each member's
    ``kron(I_n, D) Delta(x)`` is assembled entrywise as
    ``sum_i D[p, (m, i)] delta_ij(x)[a, b]`` at row (a, p) and column
    (b, m, j), by one product of D's blocks with that member's delta(x), never
    through the promoted factors; Delta(x) v is one GEMM per member through
    :func:`freepoly.promoted_apply`. The points are batched along the
    leading axis only, so every member is bitwise the solve of its point
    alone.

    The products and the resolvent matrices are two blocks of one
    :func:`mat.scratch` buffer: the products are negated into the
    resolvent's (row, column) order and 1 is added on its diagonal, in
    place, so no identity, difference or copy of the size of the resolvent
    is made. The result equals ``solve(I - D~Delta, C~)`` up to the sign of
    a zero: ``-x`` is ``-0.0`` where ``0 - x`` is ``+0.0``. Omega and v are
    fresh arrays from the solve, never views of the scratch.
    """
    mult, rows, cols = r.mult, r.delta.rows, r.delta.cols
    p, size = len(dxs), n * mult * cols
    d2 = r.block_d.reshape(mult * cols * mult, rows)
    buf = mat.scratch(2 * p * size * size)
    t = buf[: p * size * size].reshape(p, mult * cols, mult, n, cols, n)
    a = buf[p * size * size :].reshape(p, n, mult * cols, n, mult, cols)
    for dx, out in zip(dxs, t):
        # np.dot, as the one-point tensordot calls it: for a one-row grid it
        # takes a rank-1 update whose bits differ from np.matmul's GEMM
        np.dot(d2, dx.reshape(rows, n * cols * n), out=out.reshape(d2.shape[0], -1))
    np.negative(t.transpose(0, 3, 1, 5, 2, 4), out=a)
    a.reshape(p, size * size)[:, :: size + 1] += 1.0
    c_tilde = mat.kron_left_identity_apply(n, r.block_c, np.eye(n * r.dim_k1))
    v = np.linalg.solve(a.reshape(p, size, size), c_tilde)
    return _value(r, n, promoted_apply(dxs, n, mult, v)), v


def _series(r: Realization, n: int, dx: np.ndarray, k: int) -> np.ndarray:
    """Sum the terms ``Delta (D~ Delta)^j C~`` for j = 0, ..., k at ``dx = delta(x)``.

    Adding stops at an all-zero term, since every later term is then
    exactly zero as well. The terms are held multiplicity-major, rows in
    (mult, grid, level) order, the partition both helpers multiply in: D~
    is one wide GEMM of D with the (mult, grid) by (level, column) term, and
    Delta one GEMM of dx per multiplicity slot, each in place on a buffer
    made before the loop. No term is copied; the sum is moved back to
    (level, mult, grid) rows once, so it is bitwise ``promoted_apply`` of
    ``kron_left_identity_apply`` with D, term by term.
    """
    mult, rows, cols, q, d = r.mult, r.delta.rows, r.delta.cols, n * r.dim_k1, r.block_d
    c_tilde = mat.kron_left_identity_apply(n, r.block_c, np.eye(q))
    first = promoted_apply(dx, n, mult, c_tilde).reshape(n, mult * rows, q)
    term = np.ascontiguousarray(first.swapaxes(0, 1)).reshape(mult, rows * n, q)
    total = term.copy()
    fed = np.empty((mult, cols * n, q), dtype=np.complex128)
    wide_term, wide_fed = term.reshape(mult * rows, n * q), fed.reshape(mult * cols, n * q)
    for _ in range(k):
        np.matmul(d, wide_term, out=wide_fed)
        np.matmul(dx, fed, out=term)
        if not term.any():  # the method skips np.any's Python wrapper
            break
        total += term
    return total.reshape(mult * rows, n, q).swapaxes(0, 1).reshape(n * mult * rows, q)


# Most bytes of the (p, size, size) resolvent matrices in one _stack_solves
# chunk; _solve holds two arrays of that size in mat.scratch, so this is half
# of what the scratch keeps, and the solve one more, LAPACK's copy. With one BLAS
# thread the time per point stopped falling at 0.1-0.5 MB: at size 16 (level
# 4, mult 2) 38 us alone, 9-11 us from 32 points on; at size 64 117 us
# alone, 88 us at 8 points (0.5 MB), 99-114 us beyond; at sizes 128 and 256
# the stack saved at most 2%.
_SOLVE_BYTES = mat.SCRATCH_BYTES // 2


def _stack_solves(r: Realization, n: int, dxs: np.ndarray):
    """:func:`_solve` over ``dxs``, a ``(m, n*I, n*J')`` stack of the
    grid-outer delta(x) at points of level n, cut into chunks of at most
    ``_SOLVE_BYTES`` of resolvent matrices. A stack narrower than the grid
    of ``r`` (a sample set's, where a fit padded the grid) is widened by
    zero columns, one chunk at a time. Yields ``(part, omega, v)`` per chunk,
    ``part`` the slice of the stack it solved.
    """
    rows, cols = r.delta.rows, r.delta.cols
    size = n * r.mult * cols
    step = max(1, _SOLVE_BYTES // (16 * size * size))
    for start in range(0, len(dxs), step):
        part = slice(start, start + step)
        stack = dxs[part]
        if stack.shape[2] != n * cols:
            stack = np.zeros((len(stack), n * rows, n * cols), dtype=np.complex128)
            stack[:, :, : dxs.shape[2]] = dxs[part]
        yield part, *_solve(r, n, stack)


def _level_solves(r: Realization, levels, dxs):
    """:func:`_stack_solves` at many points given one by one: ``levels[i]``
    and ``dxs[i]`` are the level and the grid-outer delta(x) of point i.
    Levels are taken in order of first appearance, and a level with one
    point is solved from a view of its delta(x). Yields
    ``(positions, omega, v)`` per chunk, ``omega[j]`` and ``v[j]`` belonging
    to point ``positions[j]``.
    """
    by_level = {}
    for i, n in enumerate(levels):
        by_level.setdefault(n, []).append(i)
    for n, idx in by_level.items():
        # one point: what eval_direct solves
        stack = dxs[idx[0]][None] if len(idx) == 1 else np.array([dxs[i] for i in idx])
        for part, omega, v in _stack_solves(r, n, stack):
            yield idx[part], omega, v


def eval_direct(r: Realization, x: GradedPoint) -> np.ndarray:
    """Evaluate the realization by solving the resolvent equation directly.

    Requires the point strictly inside the domain (by ``DEFAULT_MARGIN``);
    there the resolvent is uniformly invertible and the value is a strict
    contraction up to rounding.
    """
    [(dx, _)] = require_inside(r.delta, [x])
    return _solve(r, x.n, dx[None])[0][0]


def eval_direct_points(r: Realization, points) -> list:
    """:func:`eval_direct` at each point: its value, or the
    :class:`OutsideDomain` that :func:`eval_direct` raises there.

    One :func:`ncpoint.delta_memberships` call decides every point, and
    the points inside are solved by :func:`_level_solves`, one stacked
    :func:`_solve` per level chunk, so each value is bitwise the one-point
    solve's. A point without the grid's d raises ``ShapeMismatch``.
    """
    found = delta_memberships(r.delta, points)
    out = [None if m.inside else outside_domain(x, m) for x, (_, m) in zip(points, found)]
    inside = [i for i, o in enumerate(out) if o is None]
    levels = [points[i].n for i in inside]
    for chunk, omega, _ in _level_solves(r, levels, [found[i][0] for i in inside]):
        for j, value in zip(chunk, omega):
            out[inside[j]] = value
    return out


# -- certified truncation -----------------------------------------------------


def geometric_tail(q: float, k: int) -> float:
    """``q**(k+2) / (1 - q)``, for ``0 <= q < 1``.

    When term j of a series has norm at most ``q**(j+1)``, this bounds the
    sum of the terms after term k. :func:`eval_neumann` and the Oka-Weil
    truncation in :mod:`freeholo.approx` both report it as their bound.
    """
    return float(q ** (k + 2) / (1.0 - q))


def tail_order(q: float, tol: float, cap: int) -> int:
    """Smallest ``k >= 0`` with ``geometric_tail(q, k) <= tol``.

    The order is seeded from logarithms and then stepped against
    :func:`geometric_tail` itself, so the returned k satisfies
    ``geometric_tail(q, k) <= tol`` in floating point and, for k > 0,
    ``geometric_tail(q, k - 1) > tol``. ``q = 0`` gives 0. A ``tol`` that is
    not positive and finite, or a q outside [0, 1), raises ``ValueError``;
    an order above ``cap`` raises :class:`TermBlowup`.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"ratio must lie in [0, 1), got {q}")
    if q == 0.0:
        return 0
    seed = math.ceil((math.log(tol) + math.log1p(-q)) / math.log(q)) - 2
    k = min(max(0, seed), cap + 1)
    while k > 0 and geometric_tail(q, k - 1) <= tol:
        k -= 1
    while k <= cap and geometric_tail(q, k) > tol:
        k += 1
    if k > cap:
        raise TermBlowup(
            f"a geometric tail of ratio {q:.6f} needs more than {cap} terms "
            f"to fall under tol={tol}"
        )
    return k


@dataclass(frozen=True, eq=False)
class NeumannResult:
    """Certified truncation: ``||value - exact|| <= bound <= tol``.

    ``bound`` is a proof under exact arithmetic (see :func:`eval_neumann`);
    the computed ``value`` carries rounding error on top of it.
    """

    value: np.ndarray
    k: int
    bound: float


def eval_neumann(r: Realization, x: GradedPoint, tol: float = 1e-8) -> NeumannResult:
    """Evaluate by geometric series with an a priori certified tail bound.

    With ``r0 = ||delta(x)|| < 1`` the k-th series term is bounded by
    ``r0**(k+1)``, so truncating after term K leaves a tail of at most
    ``geometric_tail(r0, K) = r0**(K+2) / (1 - r0)``. K is
    ``tail_order(r0, tol, NEUMANN_TERM_CAP)``, the smallest nonnegative
    order whose reported bound is at most ``tol``, so ``bound <= tol``
    holds by construction. The bound is a proof under exact arithmetic;
    rounding in the summed terms is not included. When D = 0 every term
    after the first vanishes, so the tail has ratio 0: K = 0 and the bound
    is zero. A computed term can also vanish by underflow, which proves
    nothing, so K and the bound never depend on the computed terms. A
    ``tol`` that is not positive and finite raises ``ValueError``; more
    than ``NEUMANN_TERM_CAP`` terms raise :class:`TermBlowup`.

    The terms ``Delta (D~ Delta)^k C~`` are summed first and ``B~`` is
    applied once. Each term costs one wide GEMM with D over all level
    blocks and one GEMM with the unpromoted delta(x) per multiplicity slot,
    in place on buffers made before the loop and with no layout copy;
    neither ``kron(I_n, D)`` nor the promoted Delta(x) is formed, and
    delta(x) and its norm come from the membership test.
    """
    [(dx, m)] = require_inside(r.delta, [x])
    q = m.norm if np.any(r.block_d) else 0.0
    k = tail_order(q, tol, NEUMANN_TERM_CAP)
    value = _value(r, x.n, _series(r, x.n, dx, k))
    return NeumannResult(value=value, k=k, bound=geometric_tail(q, k))


# -- fitting -----------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """A fitted realization plus the diagnostics of the fit.

    ``gram_deviation`` is ``||P*P - Q*Q||_F`` over the training columns: a
    test of the data's isometry identity up to rounding, which data from an
    isometric realization pass at rounding level. ``train_residual`` is
    ``max_j ||J1 p_j - q_j||`` over the same columns, also a test up to
    rounding. ``holdout_deviation`` is evidence, not proof: it is sampled
    at the reserved points only, and is ``None`` when none were reserved.
    """

    realization: Realization
    gram_deviation: float
    rank: int
    train_residual: float
    padded_cols: int
    holdout_indices: tuple
    holdout_deviation: float | None


def _pad_u_rows(u_val: np.ndarray, n: int, mult: int, j_old: int, pad: int) -> np.ndarray:
    """Insert zero rows for the padded grid columns in every (level, mult)
    slot of each member of a ``(m, n*mult*j_old, q)`` level stack."""
    if pad == 0:
        return u_val
    m, q = u_val.shape[0], u_val.shape[2]
    out = np.zeros((m, n * mult, j_old + pad, q), dtype=np.complex128)
    out[:, :, :j_old, :] = u_val.reshape(m, n * mult, j_old, q)
    return out.reshape(m, n * mult * (j_old + pad), q)


# The fit factors [P; Q] by a thin QR only when it has at least this many
# times more columns than rows. Below that, the numpy QR call costs more than
# the N-by-N Gram difference it saves. With one BLAS thread, the QR path
# cost 14-17 us more per fit up to N = 3 (dom + cod), and broke even near
# N = 9 (dom + cod) at dom + cod = 6 and N = 4.5 (dom + cod) at 12; at
# N = 10 (dom + cod) = 120 it took 0.29 ms where the direct path took 0.48.
_QR_WIDTH = 8


def fit_lurking_isometry(
    samples: ModelSampleSet,
    gram_rtol: float = 1e-6,
    rank_rtol: float = 1e-8,
    holdout: bool = True,
) -> FitResult:
    """Fit an isometric realization to model sample data.

    For every training point, level-block row k, and basis column, two
    vectors are formed::

        p = [ psi-block ; (Delta u)-block ]   in  C^(k1 + mult*I)
        q = [ phi-block ;        u-block  ]   in  C^(k2 + mult*J)

    The model identity says the two families have equal Gram matrices, so
    some isometry maps each p to its q. The map is recovered on the span of
    the p family by SVD (singular values below ``rank_rtol`` times the
    largest are cut) and completed to a full isometry deterministically.
    If the codomain lacks room, the grid is first padded with zero columns
    (each adds ``mult`` codomain dimensions and leaves the domain of the
    function untouched); more than ``PAD_CAP`` padded columns raises
    :class:`RankOverflow`.

    The p and q vectors of one point are the columns of its panel of
    ``[P; Q]``, from ``[psi; Delta u]`` and ``[phi; u]``, Delta u read from
    the sample set. The panels sit in point order: each level's training
    panels are written side by side from the level stacks, one assignment
    per field, and one take moves every panel to its point's place. Both
    arrays are views of :func:`mat.scratch`.

    The Gram deviation ``||P*P - Q*Q||_F`` (Frobenius norm) above
    ``gram_rtol`` times ``max(1, max_j ||p_j||^2)`` (the largest entry of the
    positive semidefinite P*P sits on its diagonal) raises
    :class:`GramMismatch`: the data cannot come from any isometric
    realization. The Frobenius norm bounds the operator norm and the modulus
    of every entry from above. A deviation that is not finite raises too: it
    is ``inf`` when the Gram overflows (or the data hold an infinity) and NaN
    when the data hold a NaN.

    Everything up to the train residual reads ``M = [P; Q]`` only through
    ``M M*``. When M has N >= 8 (dom + cod) columns, it is replaced by
    ``Z = R^T`` from one thin QR ``M^T = U R``: then ``Z Z* = M M*``, and
    ``P*P - Q*Q = conj(U) (Z_P* Z_P - Z_Q* Z_Q) U^T`` has the Frobenius norm
    of the (dom + cod)-square difference, so the gate, the SVD of P and the
    polar step run on dom + cod columns. A narrower M is its own factor, so
    its Gram difference has fewer than 64 (dom + cod)^2 entries. The train
    residual reads P and Q.

    Unless ``holdout=False``, every fifth point (indices 4, 9, ...) is
    reserved, excluded from the fit, and used to report the reproduction
    deviation ``max || Omega(x) psi(x) - phi(x) ||``, or ``inf`` if that fails.
    """
    s = samples
    if len(s) == 0:
        raise ShapeMismatch("cannot fit from zero sample points")
    k1, k2, mult = s.k1_dim, s.k2_dim, s.mult
    i_rows, j_cols = s.delta.rows, s.delta.cols

    deficit = (k1 + mult * i_rows) - (k2 + mult * j_cols)
    pad = -(-deficit // mult) if deficit > 0 else 0
    if pad > PAD_CAP:
        raise RankOverflow(
            f"isometric completion needs {pad} padded grid columns, cap is {PAD_CAP}"
        )
    delta = delta_pad_columns(s.delta, pad)
    j_new = j_cols + pad

    held_out = holdout and len(s) >= 5
    reserved = tuple(range(4, len(s), 5)) if held_out else ()
    dom_dim = k1 + mult * i_rows
    cod_dim = k2 + mult * j_new
    rows = dom_dim + cod_dim
    # each level's training panels, n*w columns each, go side by side, and
    # one take moves every panel to where its point sits in point order (a
    # reserved point takes no columns)
    width = np.zeros(len(s), dtype=np.intp)
    first = np.zeros(len(s), dtype=np.intp)
    levels, total = [], 0
    for level in s.levels:
        n, w = level.n, level.psi.shape[2]
        at, fields = level.at, (level.psi, level.delta_u, level.phi, level.u)
        if held_out:
            keep = at % 5 != 4
            at, fields = at[keep], [f[keep] for f in fields]
        width[at] = n * w
        first[at] = np.arange(total, total + len(at) * n * w, n * w)
        levels.append((n, w, total, fields))
        total += len(at) * n * w
    buf = mat.scratch(2 * rows * total)
    by_level, pq = buf[: rows * total].reshape(rows, total), buf[rows * total :].reshape(rows, total)
    for n, w, done, (psi, delta_u, phi, u) in levels:
        # the padded grid columns are zero, so the held Delta u needs no padding
        u = _pad_u_rows(u, n, mult, j_cols, pad)
        # one column per (level-block row, basis column), level block outer
        panels = by_level[:, done : done + len(psi) * n * w].reshape(rows, len(psi), n, w)
        top = 0
        for f in (psi, delta_u, phi, u):
            k = f.shape[1] // n
            panels[top : top + k] = f.reshape(len(f), n, k, w).transpose(2, 0, 1, 3)
            top += k
    moved = np.repeat(first - (np.cumsum(width) - width), width) + np.arange(total)
    np.take(by_level, moved, axis=1, out=pq, mode="clip")
    p_mat, q_mat = pq[:dom_dim], pq[dom_dim:]

    # a wide M = [P; Q] becomes Z = R^T from M^T = U R: M = Z U^T and
    # U^T conj(U) = I, so Z Z* = M M*
    wide = pq.shape[1] >= _QR_WIDTH * pq.shape[0]
    z = np.linalg.qr(pq.T, mode="r").T if wide else pq
    z_p, z_q = z[:dom_dim], z[dom_dim:]

    # the largest entry of the PSD Gram P*P is on its diagonal
    scale = max(1.0, float(np.max(np.sum(np.abs(p_mat) ** 2, axis=0))))
    # ||P*P - Q*Q||_F = ||Z_P* Z_P - Z_Q* Z_Q||_F; scaled down by a power of
    # two (exact) near its largest entry, the norm squares no finite entry
    # into overflow
    gram = z_p.conj().T @ z_p - z_q.conj().T @ z_q
    unit = 2.0 ** -max(0, math.frexp(float(np.max(np.abs(gram))))[1])
    deviation = float(np.linalg.norm(gram * unit)) / unit
    if not math.isfinite(deviation):
        # an overflowing Gram gives inf (its inf - inf entries give NaN),
        # NaN data give NaN, whichever factor was normed
        deviation = math.nan if np.isnan(pq).any() else math.inf
    if not (math.isfinite(deviation) and deviation <= gram_rtol * scale):
        raise GramMismatch(deviation)

    u_l, sing, v_h = np.linalg.svd(z_p, full_matrices=False)
    if sing.size and sing[0] > 0.0:
        rank = int(np.sum(sing >= rank_rtol * sing[0]))
    else:
        rank = 0
    u_r = u_l[:, :rank]
    if rank:
        y_raw = z_q @ v_h[:rank, :].conj().T / sing[:rank]
        wy, _, vyh = np.linalg.svd(y_raw, full_matrices=False)
        y_on = wy @ vyh  # polar correction: exactly orthonormal columns
    else:
        y_on = np.zeros((cod_dim, 0), dtype=np.complex128)

    domain_frame = mat.complete_to_isometry(u_r, dom_dim)
    codomain_frame = mat.complete_to_isometry(y_on, dom_dim)
    j1 = codomain_frame @ domain_frame.conj().T

    train_residual = float(np.max(np.linalg.norm(j1 @ p_mat - q_mat, axis=0)))

    fitted = Realization(delta=delta, dim_k1=k1, dim_k2=k2, mult=mult, j1=j1)

    return FitResult(
        realization=fitted,
        gram_deviation=deviation,
        rank=rank,
        train_residual=train_residual,
        padded_cols=pad,
        holdout_indices=tuple(reserved),
        holdout_deviation=_max_gap(fitted, s, reserved) if reserved else None,
    )


def _max_gap(r: Realization, s: ModelSampleSet, indices) -> float:
    """``max || Omega(x) psi(x) - phi(x) ||`` over the sample points ``indices``, or inf.

    Omega(x) is solved from the chosen members of each level's delta(x)
    stack by :func:`_stack_solves`, one stacked :func:`_solve` per chunk,
    and the chunk's gaps are formed from the level's psi and phi stacks by
    one stacked product and handed to :func:`mat.max_op_norm` as one stack,
    so every gap is bitwise the one-point solve's. No delta is evaluated and
    no membership decided here: the sample set decided it. A gap that is not
    finite, or whose SVD fails, gives ``inf``.
    """
    chosen = np.zeros(len(s), dtype=bool)
    chosen[list(indices)] = True

    def gaps():
        for level in s.levels:
            pick = chosen[level.at]
            dxs, psi, phi = (f if pick.all() else f[pick] for f in (level.delta_x, level.psi, level.phi))
            for part, omega, _ in _stack_solves(r, level.n, dxs):
                yield omega @ psi[part] - phi[part]

    worst = mat.max_op_norm(gaps())
    return math.inf if math.isnan(worst) else worst


# -- corona ------------------------------------------------------------------


@dataclass(frozen=True)
class CoronaSolution:
    """Row function Omega with ``Omega psi = epsilon`` on the input data.

    The solution functions are ``phi_i = Omega_i / epsilon``; they satisfy
    ``sum_i phi_i psi_i = I`` on the data, and ``norm_bound = 1 / epsilon``
    bounds their row norm everywhere in the domain, since Omega is given by
    the realization formula of a colligation J1 (the ``norm_bound`` of a
    ``corona`` report). That is a proof under exact arithmetic for an
    exactly isometric J1. The fitted J1 is an isometry only within
    ``ISOMETRY_TOL``, so for it the bound holds up to that defect and up
    to rounding.
    ``identity_residual``: ``max ||Omega(x) psi(x) - epsilon I|| / epsilon`` on the data, or inf.
    """

    omega: Realization
    epsilon: float
    norm_bound: float
    identity_residual: float
    fit: FitResult

    @property
    def n_functions(self) -> int:
        return self.omega.dim_k1

    def phi_values(self, x: GradedPoint) -> list:
        """Values of the solution functions at a point inside the domain."""
        row = eval_direct(self.omega, x) / self.epsilon
        n = x.n
        count = self.n_functions
        return [row[:, [b * count + i for b in range(n)]] for i in range(count)]

    def row_norm_at(self, x: GradedPoint) -> float:
        return mat.op_norm(eval_direct(self.omega, x)) / self.epsilon


def stack_column(psi_vals) -> np.ndarray:
    """Interleave per-function values into one column operator value.

    ``psi_vals`` holds N same-level n-by-n matrices; the result has shape
    (n*N, n) with rows ordered level-outer, function-inner.
    """
    arrays = [mat.as_array(v) for v in psi_vals]
    n = arrays[0].shape[0]
    for a in arrays:
        if a.shape != (n, n):
            raise ShapeMismatch("column entries must be same-level square values")
    stacked = np.stack(arrays, axis=0)  # (N, n, n)
    return stacked.transpose(1, 0, 2).reshape(len(arrays) * n, n)


def corona_solve(
    delta: PolyMatrix,
    points,
    psis,
    epsilon: float,
    u,
    mult: int,
    floor_slack: float = 1e-9,
) -> CoronaSolution:
    """Solve the finite-data corona problem at coercivity level ``epsilon``.

    Parameters
    ----------
    delta : PolyMatrix
        Domain grid; all points must be strictly inside.
    points : sequence of GradedPoint
    psis : sequence of sequences
        ``psis[i][s]`` is the value of the i-th column function at point s.
    epsilon : float
        Coercivity floor; the stacked column must satisfy
        ``psi(x)* psi(x) >= epsilon^2`` at every point (within ``floor_slack``),
        otherwise, or where that difference overflows, :class:`BelowFloor`
        naming the first such point. Every column is stacked (and its shape
        checked) first; the smallest eigenvalues then come from one batched
        ``eigvalsh`` per level, each bitwise the point's own.
    u : sequence
        Model data for ``psi(y)* psi(x) - epsilon^2`` with multiplicity
        ``mult``, e.g. sampled from a realization via
        :func:`freeholo.model.model_from_realization`.
    mult : int
        Multiplicity of the supplied model data.

    Returns a :class:`CoronaSolution` whose row realization satisfies
    ``Omega(x) psi(x) = epsilon I`` on the input points and
    ``||Omega(x)|| <= 1`` everywhere inside, so the solution functions
    ``Omega_i / epsilon`` have certified row norm at most ``1 / epsilon``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    points = list(points)
    n_funcs = len(psis)
    if n_funcs == 0:
        raise ShapeMismatch("need at least one column function")
    if any(len(row) != len(points) for row in psis):
        raise ShapeMismatch("each column function needs one value per point")
    columns = [stack_column(values) for values in zip(*psis)]
    by_level = {}
    for s_idx, col in enumerate(columns):
        by_level.setdefault(col.shape, []).append(s_idx)
    lows = np.full(len(points), math.nan)  # an overflowed Gram confirms no floor
    for idx in by_level.values():
        cols = np.stack([columns[s_idx] for s_idx in idx])
        g = cols.conj().transpose(0, 2, 1) @ cols - epsilon * epsilon * np.eye(cols.shape[2])
        finite = np.isfinite(g).all(axis=(1, 2))
        g = np.where(finite[:, None, None], g, 0.0)  # zeros stand in for the overflowed
        eig = np.linalg.eigvalsh((g + g.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
        lows[idx] = np.where(finite, eig, math.nan)
    for s_idx, low in enumerate(lows):
        if not low >= -floor_slack:
            raise BelowFloor(
                f"psi*psi drops {-low:.3e} under epsilon^2 at point {s_idx}"
            )
    phis = [epsilon * np.eye(x.n, dtype=np.complex128) for x in points]
    sample = ModelSampleSet(
        delta=delta,
        points=points,
        psi=columns,
        phi=phis,
        u=u,
        h_dim=1,
        k1_dim=n_funcs,
        k2_dim=1,
        mult=mult,
    )
    fit = fit_lurking_isometry(sample, holdout=False)
    # phi = epsilon I, so the residual is the fit's gap over every point;
    # max(a) / epsilon is max(a / epsilon), since rounding is monotone
    residual = _max_gap(fit.realization, sample, range(len(sample))) / epsilon
    return CoronaSolution(
        omega=fit.realization,
        epsilon=float(epsilon),
        norm_bound=1.0 / float(epsilon),
        identity_residual=residual,
        fit=fit,
    )
