"""Dense complex matrices with certified numeric kernels.

Matrices are plain complex ndarrays. Every function accepts anything
``numpy.asarray`` understands as a 2-d array and returns a fresh ndarray
unless noted. Operator norms come from one SVD call per stack of matrices
(``op_norms``) so certificates can rely on them to near machine precision,
and inversion refuses matrices whose smallest singular value sits under a
relative floor instead of returning garbage.

``matrix_to_json`` and ``matrix_from_json`` are the JSON codec of every
matrix in the ``freeholo/1`` schema. Decoding validates outside input and
returns a read-only array; the value types (``GradedPoint``,
``Realization``, ...) hold read-only arrays as well.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DimensionTooSmall, ShapeMismatch, SingularMatrix

# sigma_min <= SINGULAR_RTOL * sigma_max is treated as singular
SINGULAR_RTOL = 1e-12
# columns handed to complete_to_isometry must be orthonormal within this
ORTHONORMAL_TOL = 1e-8


def as_array(m) -> np.ndarray:
    """Coerce an array_like to a complex 2-d ndarray (no copy if possible)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got ndim={a.ndim}")
    return a


def json_int(value, name: str) -> int:
    """An integer field of decoded JSON; ``ValueError`` unless ``value`` is
    an ``int`` other than a ``bool`` (so ``1.9``, ``true`` and ``"2"`` fail)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def matrix_to_json(a) -> dict:
    """Row-major ``{"rows", "cols", "data": [[re, im], ...]}``.

    No validation: the value types validate their matrices when built, and
    a non-finite entry is left for the report writer to render.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": a.view(np.float64).reshape(-1, 2).tolist(),
    }


def json_pair_template(level: int) -> str:
    """The ``%`` template of one ``[re, im]`` entry of :func:`matrix_to_json`
    as indented JSON (two spaces a level) whose brackets sit at ``level``:
    ``template % (re, im)`` is ``json.dumps``'s text of the pair for finite
    floats, since both write ``float.__repr__``."""
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + "%r," + inner + "%r\n" + "  " * level + "]"


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode :func:`matrix_to_json` output into a read-only complex array.

    Raises
    ------
    ShapeMismatch
        If ``data`` does not hold ``rows * cols`` entries.
    ValueError
        If an entry is NaN or infinite.
    """
    rows, cols = json_int(obj["rows"], "rows"), json_int(obj["cols"], "cols")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ShapeMismatch(f"data length {len(data)} does not match {rows}x{cols}")
    a = np.array([complex(re, im) for re, im in data], dtype=np.complex128).reshape(rows, cols)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a.setflags(write=False)
    return a


# -- scratch memory ------------------------------------------------------------

# Most bytes the scratch buffer keeps between calls.
SCRATCH_BYTES = 2 << 20

_held = threading.local()


def scratch(count: int, slot: str = "buf") -> np.ndarray:
    """A flat complex128 array of ``count`` entries, contents undefined: a
    view of a buffer held per thread and reused by every call on it.

    glibc maps an array above its mmap threshold when it is made and unmaps
    it when it is freed, so a fresh array of 1 MiB faults in its pages on
    every call; a kernel that assembles its temporaries here touches no
    fresh pages once the buffer has grown. The buffer grows to the largest
    request and keeps it, up to ``SCRATCH_BYTES``; a larger request gets a
    fresh array that is not kept. The view is overwritten by the next call
    on the same thread, so a caller takes all its blocks from one call and
    returns nothing that shares memory with them. ``slot`` names one of
    independent buffers: the screen's caps take ``"caps"``, since
    ``model_residual`` holds the blocks it screens in the default one.
    """
    buf = getattr(_held, slot, None)
    if buf is None or len(buf) < count:
        if 16 * count > SCRATCH_BYTES:
            return np.empty(count, dtype=np.complex128)
        buf = np.empty(count, dtype=np.complex128)
        setattr(_held, slot, buf)
    return buf[:count]


# -- norms and factorizations ---------------------------------------------


def op_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a ``(p, rows, cols)`` stack.

    One SVD call runs the LAPACK routine of a single matrix on each, so
    each norm is bitwise the matrix's own. A matrix that is not finite (LAPACK
    would print to stdout) or whose SVD fails, even when retried alone after
    a failed call, has norm NaN; a 0-size matrix has norm 0.0.
    """
    a = np.asarray(stack, dtype=np.complex128)
    if 0 in a.shape:
        return np.zeros(len(a))
    if not np.isfinite(a).all():  # zeros stand in for the matrices that are not finite
        finite = np.isfinite(a).all(axis=(1, 2))
        return np.where(finite, op_norms(np.where(finite[:, None, None], a, 0.0)), np.nan)
    try:
        return np.linalg.svd(a, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.array([np.nan])
        return np.concatenate([op_norms(m[None]) for m in a])


# bytes max_op_norm holds before it screens them, and candidates per op_norms call
_SCREEN_BYTES, _SCREEN_CHUNK = 1 << 23, 8


def max_op_norm(stacks) -> float:
    """Largest ``||A||_2`` over an iterable of ``(p, rows, cols)`` stacks of any shapes.

    NaN if a matrix is not finite or an SVD fails, 0.0 for no matrices, else
    bitwise the ``max`` of their :func:`op_norms`. As ``||A||_2`` is at most
    ``min(||A||_F, sqrt(||A||_1 ||A||_inf))``, matrices are SVD'd in descending
    order of that cap until it, times ``1 + 1e-10`` (sigma_1 may pass it by
    ulps) plus the smallest normal number, is under the running maximum.
    Stacks are read lazily and screened whenever ``_SCREEN_BYTES`` are held.
    """
    worst, held, size = 0.0, [], 0
    for stack in stacks:
        held.append(np.asarray(stack, dtype=np.complex128))
        size += held[-1].nbytes
        if size > _SCREEN_BYTES:
            worst, held, size = _screened_max(held, worst), [], 0
    return _screened_max(held, worst)


def _screened_max(held, worst: float) -> float:
    by_shape = {}
    for a in held:
        if a.size:
            by_shape.setdefault(a.shape[1:], []).append(a)
    groups = [same[0] if len(same) == 1 else np.concatenate(same) for same in by_shape.values()]
    if sum(map(len, groups)) <= _SCREEN_CHUNK:  # one chunk would SVD them all
        return float(np.maximum.reduce([worst, *(op_norms(a).max() for a in groups)]))
    caps = [_caps(a) for a in groups]
    if any(c is None for c in caps):
        return np.nan
    bound = np.concatenate(caps)
    group = np.concatenate([np.full(len(a), g) for g, a in enumerate(groups)])
    member = np.concatenate([np.arange(len(a)) for a in groups])
    order = np.argsort(-bound)
    for start in range(0, len(order), _SCREEN_CHUNK):
        if bound[order[start]] < worst:
            break
        chunk = order[start : start + _SCREEN_CHUNK]
        for g in dict.fromkeys(group[chunk].tolist()):
            picked = member[chunk[group[chunk] == g]]
            worst = np.maximum(worst, op_norms(groups[g][picked]).max())
    return float(worst)


def _caps(a):
    """The screen's cap of each matrix A of a nonempty ``(p, rows, cols)``
    stack, at least ``||A||_2``; None if an entry is not finite.

    The cap is ``t * min(||m||_F, sqrt(||m||_1 ||m||_inf))`` with ``t = max|A|``
    and ``m = |A| / t``, so no square or product under- or overflows, times
    ``1 + 1e-10`` (a computed sigma_1 may pass it by ulps) plus the smallest
    normal number. ``|A|`` is laid out entry-major, ``(rows * cols, p)``, so
    every sum and maximum runs over leading axes of one contiguous array,
    for all p matrices at once, in the ``"caps"`` slot of :func:`scratch`.
    """
    p, rows, cols = a.shape
    m = scratch(-(-p * rows * cols // 2), "caps").view(np.float64)[: p * rows * cols]
    m = np.abs(a.reshape(p, rows * cols).T, out=m.reshape(rows * cols, p))
    t = m.max(axis=0)
    if not np.isfinite(t).all():
        return None
    m /= np.where(t > 0.0, t, 1.0)
    by_entry = m.reshape(rows, cols, p)
    one_inf = np.sqrt(by_entry.sum(axis=0).max(axis=0) * by_entry.sum(axis=1).max(axis=0))
    cap = t * np.minimum(np.sqrt(np.einsum("kp,kp->p", m, m)), one_inf)
    return cap * (1.0 + 1e-10) + np.finfo(float).tiny


def shape_stacks(ms) -> list:
    """``(positions, stack)`` per shape of a sequence of 2-d matrices, in order
    of first appearance: the matrices of that shape, stacked in order."""
    by_shape = {}
    for k, m in enumerate(ms):
        by_shape.setdefault(m.shape, []).append(k)
    return [(idx, np.array([ms[k] for k in idx])) for idx in by_shape.values()]


def op_norms_of(ms) -> list:
    """:func:`op_norms` of a sequence of 2-d matrices of any shapes, as floats
    in order: one call per :func:`shape_stacks` stack, so each norm is
    bitwise the matrix's own."""
    out = [0.0] * len(ms)
    for idx, stack in shape_stacks(ms):
        for k, nrm in zip(idx, op_norms(stack).tolist()):
            out[k] = nrm
    return out


def op_norm(m) -> float:
    """Largest singular value, via full SVD: :func:`op_norms` of one matrix.

    Accurate to a small multiple of machine epsilon relative to the norm,
    which the truncation and membership certificates assume; NaN when the
    matrix is not finite or the SVD fails.
    """
    return float(op_norms(as_array(m)[None])[0])


def cond(m) -> float:
    """2-norm condition number; ``inf`` for singular input."""
    a = as_array(m)
    if a.size == 0:
        return 1.0
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def inv(m) -> np.ndarray:
    """Inverse of a square matrix, or of each member of a ``(p, n, n)`` stack, by SVD.

    Raises
    ------
    SingularMatrix
        If ``sigma_min <= SINGULAR_RTOL * sigma_max`` for the matrix, or for
        any member of a stack (carries the condition estimate of the first
        such member).
    ShapeMismatch
        If the matrices are not square.

    A matrix or member that is not finite gets an all-NaN inverse, without a
    call to LAPACK, which may fail or print on such input. The SVD of a stack
    runs the routine of one matrix on each member, and the inverse formula
    is the same per member, so a member's inverse is bitwise its own.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3):
        raise ShapeMismatch(f"expected a 2-d array or a stack of them, got ndim={a.ndim}")
    if a.shape[-2] != a.shape[-1]:
        raise ShapeMismatch(f"cannot invert a {a.shape[-2]}x{a.shape[-1]} matrix")
    if a.shape[-1] == 0:
        return np.zeros(a.shape, dtype=np.complex128)
    if not np.isfinite(a).all():
        out = np.full(a.shape, np.nan, dtype=np.complex128)
        finite = np.isfinite(a).all(axis=(-2, -1))
        if finite.any():  # only a stack has finite members here
            out[finite] = inv(a[finite])
        return out
    u, s, vh = np.linalg.svd(a)
    low = s[..., -1] <= SINGULAR_RTOL * s[..., 0]
    if low.any():
        first = s.reshape(-1, s.shape[-1])[np.flatnonzero(low)[0]]
        kappa = float("inf") if first[-1] == 0.0 else float(first[0] / first[-1])
        raise SingularMatrix(condition=kappa)
    return (vh.conj().swapaxes(-1, -2) * (1.0 / s)[..., None, :]) @ u.conj().swapaxes(-1, -2)


# -- structural operations --------------------------------------------------


def direct_sum(a, b) -> np.ndarray:
    """Block diagonal sum; either operand may be empty (0x0 acts as neutral)."""
    x, y = as_array(a), as_array(b)
    out = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]), dtype=np.complex128)
    out[: x.shape[0], : x.shape[1]] = x
    out[x.shape[0] :, x.shape[1] :] = y
    return out


def kron_left_identity(n: int, m) -> np.ndarray:
    """``I_n (x) m`` with the identity factor on the left (outer index)."""
    if n < 0:
        raise ShapeMismatch("identity size must be nonnegative")
    return np.kron(np.eye(n), as_array(m))


def kron_left_identity_apply(n: int, m, x) -> np.ndarray:
    """``kron(I_n, m) @ x`` without forming the Kronecker product.

    The n row blocks of ``x`` are laid side by side, block row by block
    column, and multiplied by ``m`` in one GEMM (Van Loan, "The ubiquitous
    Kronecker product", 2000), costing ``n`` times fewer operations than the
    dense product; the level axis is moved in front again afterwards. A
    level-minor operand, rows (block row, level), is thus one plain GEMM,
    the product ``realize._series`` runs per Neumann term. Returns an array
    of shape ``(n * m.shape[0], x.shape[1])``. A ``(p, rows, q)`` stack
    ``x`` gives the ``(p, n * m.shape[0], q)`` stack of its members'
    products, each bitwise the product of that member alone.
    """
    a = as_array(m)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (2, 3):
        raise ShapeMismatch(f"expected a 2-d array or a stack of them, got ndim={x.ndim}")
    if n < 0:
        raise ShapeMismatch("identity size must be nonnegative")
    if x.shape[-2] != n * a.shape[1]:
        raise ShapeMismatch(
            f"cannot apply I_{n} (x) {a.shape[0]}x{a.shape[1]} to {x.shape[-2]} rows"
        )
    lead, q = x.shape[:-2], x.shape[-1]
    wide = np.ascontiguousarray(x.reshape(lead + (n, a.shape[1], q)).swapaxes(-3, -2))
    prod = np.matmul(a, wide.reshape(lead + (a.shape[1], n * q)))
    out = prod.reshape(lead + (a.shape[0], n, q)).swapaxes(-3, -2)
    return out.reshape(lead + (n * a.shape[0], q))


def isometry_defect(m) -> float:
    """``|| m* m - I ||`` in operator norm; zero exactly for isometries."""
    a = as_array(m)
    g = a.conj().T @ a
    return op_norm(g - np.eye(a.shape[1]))


def complete_to_isometry(partial, target_dim: int) -> np.ndarray:
    """Extend an orthonormal column family to an isometry with ``target_dim`` columns.

    The completion is deterministic: standard basis vectors of the codomain
    are tried in index order, each orthogonalized against the columns held
    so far by two sweeps of block classical Gram-Schmidt (CGS2,
    ``v -= Q (Q* v)`` twice; Giraud, Langou and Rozloznik, "The loss of
    orthogonality in the Gram-Schmidt orthogonalization process", 2005),
    and appended, normalized, when its norm stays above 1e-8, until
    ``target_dim`` columns are held. The given columns are kept verbatim as
    the leading columns of the result.

    Parameters
    ----------
    partial : array_like
        Shape ``(rows, k)`` with finite, orthonormal columns (within 1e-8);
        else ``ValueError``. ``k`` may be zero; then the result is the
        leading ``target_dim`` columns of the orthonormalized standard basis
        (the identity when square).
    target_dim : int
        Number of columns of the result.

    Raises
    ------
    DimensionTooSmall
        If ``rows < target_dim`` (no isometry of that size exists) or the
        given family already has more than ``target_dim`` columns.
    """
    p = as_array(partial)
    rows, k = p.shape
    if target_dim < k:
        raise DimensionTooSmall(
            f"target_dim {target_dim} is below the {k} columns already given"
        )
    if rows < target_dim:
        raise DimensionTooSmall(
            f"codomain of dimension {rows} cannot host an isometry with {target_dim} columns"
        )
    # a NaN defect fails the comparison too; a family that is not finite is
    # refused before its Gram is formed
    if k and not (np.isfinite(p).all() and isometry_defect(p) <= ORTHONORMAL_TOL):
        raise ValueError("partial columns are not orthonormal within 1e-8")
    out = np.empty((rows, target_dim), dtype=np.complex128)
    out[:, :k] = p
    held = k
    for i in range(rows):
        if held == target_dim:
            break
        q = out[:, :held]
        v = -(q @ q[i].conj())  # the first sweep on e_i: Q* e_i is row i of Q, conjugated
        v[i] += 1.0
        v -= q @ (q.conj().T @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-8:
            out[:, held] = v / nrm
            held += 1
    if held < target_dim:
        raise DimensionTooSmall(
            "standard basis did not yield enough independent directions"
        )
    return out
