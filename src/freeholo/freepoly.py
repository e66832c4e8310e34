"""Free polynomials in noncommuting variables and their matrix evaluation.

A word is a tuple of 1-based letters, e.g. ``(1, 2, 1)`` stands for
``x1 x2 x1``. Every polynomial here is a ``PolyMatrix``, a grid held in
one normal form ``delta = sum_w C_w w``: read-only word rows
``[length, letters..., 0...]`` in graded lexicographic order and one stack
with a rows-by-cols coefficient matrix ``C_w`` per row.
:func:`graded_sum` is the only routine that orders and merges word rows;
the series expansion in :mod:`freeholo.approx` uses it and
:func:`word_products` too. Two subclasses add methods, not storage: a
``FreePoly`` (a combination of words in ``d`` variables, evaluated at
tuples of n-by-n matrices for every level n >= 1) is the 1x1 case with
ring operations, and a ``MatrixPoly`` is read as one polynomial with
matrix coefficients.

Evaluation layout conventions, fixed once and for all:

* ``eval_poly_matrix`` produces the block matrix whose (i, j) block of size
  n-by-n is entry (i, j) evaluated at the point. The grid index is the outer
  (slow) index, the level index the inner one.
* Operator-valued objects (``MatrixPoly`` values, realization values) put
  the level index outside: the value at level n of a polynomial with
  coefficient matrices ``C_w`` is ``sum_w kron(w(x), C_w)``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeMismatch
from .mat import json_int, json_pair_template, matrix_from_json, matrix_to_json

# coefficients with modulus under this are purged during normalization
EPS_COEFF = 1e-15

# Width of the band around ||delta(x)|| = 1 that membership tests of a grid
# delta call boundary; points under 1 - DEFAULT_MARGIN are inside.
DEFAULT_MARGIN = 1e-9


def graded_sum(rows: np.ndarray, stack: np.ndarray) -> tuple:
    """Distinct words among word rows ``[length, letters..., 0...]``, summed.

    Returns the distinct rows in graded lexicographic order (by length,
    then letter by letter) and a new coefficient stack: each word's
    coefficient is its first row's plus its later rows' in row order. Rows
    are compared letter by letter, so no word code can overflow. Fewer than
    two rows come back as given, not copied.
    """
    if len(rows) < 2:
        return rows, stack
    order = np.lexsort(rows.T[::-1])  # stable: a group lists its rows in row order
    ordered = rows[order]
    later = (ordered[1:] == ordered[:-1]).all(axis=1)  # sorted row k + 1 repeats row k
    if not np.count_nonzero(later):  # distinct words: only a reordering
        return ordered, stack[order]
    start = np.concatenate(([True], ~later))
    out = stack[order[start]]
    # unbuffered, in sorted order: each group adds its later rows in row order
    np.add.at(out, np.cumsum(start)[1:][later] - 1, stack[order[1:][later]])
    return ordered[start], out


def _purged(rows: np.ndarray, stack: np.ndarray) -> tuple:
    """The rows and stack without the words whose coefficient entries all
    stay under ``EPS_COEFF`` in modulus, the arrays given if none is dropped.

    A NaN or infinite entry raises ``ValueError``. After :func:`graded_sum`
    this gives every polynomial its normal form.
    """
    if np.count_nonzero(~np.isfinite(stack)):
        raise ValueError("matrix polynomial coefficients must be finite")
    keep = np.abs(stack).max(axis=(1, 2), initial=0.0) >= EPS_COEFF
    if np.count_nonzero(keep) == len(keep):
        return rows, stack
    return rows[keep], stack[keep]


def word_products(u_rows: np.ndarray, w_rows: np.ndarray) -> np.ndarray:
    """Word rows of the product ``u + w`` for every pair, u-major."""
    n_u, n_w = len(u_rows), len(w_rows)
    w_width = w_rows.shape[1] - 1
    out = np.zeros((n_u, n_w, u_rows.shape[1] + w_width), dtype=np.int64)
    out[:, :, 0] = u_rows[:, None, 0] + w_rows[None, :, 0]
    for i, (length, *letters) in enumerate(u_rows.tolist()):
        out[i, :, 1 : 1 + length] = letters[:length]
        out[i, :, 1 + length : 1 + length + w_width] = w_rows[:, 1:]
    return out.reshape(n_u * n_w, out.shape[2])


def stack_rows(parts) -> np.ndarray:
    """Sets of word rows one after another, zero-padded to the widest."""
    out = np.zeros((sum(map(len, parts)), max((p.shape[1] for p in parts), default=1)), np.int64)
    k = 0
    for p in parts:
        out[k : k + len(p), : p.shape[1]] = p
        k += len(p)
    return out


def _check_word(word, d):
    w = tuple(int(i) for i in word)
    for letter in w:
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} outside 1..{d}")
    return w


class GradedPoint:
    """A d-tuple of n-by-n complex matrices, the argument of free evaluation.

    The constructor validates its matrices (square, one size n >= 1, at
    least one, finite) and holds read-only C-contiguous complex128 copies.
    :meth:`_of` is the trusted constructor of the sampler and of
    ``ncpoint.point_direct_sum``: it holds the slices of a ``(d, n, n)``
    stack without copying or checking, so its caller must already know the
    stack to be C-contiguous complex128 with d, n >= 1, finite, and
    written by nothing else.
    """

    __slots__ = ("_d", "_n", "_mats")

    def __init__(self, mats):
        arrays = []
        n = None
        for m in mats:
            a = np.array(m, dtype=np.complex128, order="C")
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeMismatch("graded point entries must be square matrices")
            if n is None:
                n = a.shape[0]
            elif a.shape[0] != n:
                raise ShapeMismatch("graded point entries must share one size")
            if not a.size:
                raise ValueError("graded point level must be at least 1")
            if not np.all(np.isfinite(a)):
                raise ValueError("graded point entries must be finite")
            a.setflags(write=False)
            arrays.append(a)
        if not arrays:
            raise ValueError("graded point needs at least one matrix")
        object.__setattr__(self, "_d", len(arrays))
        object.__setattr__(self, "_n", int(n))
        object.__setattr__(self, "_mats", tuple(arrays))

    @classmethod
    def _of(cls, stack: np.ndarray) -> "GradedPoint":
        """The point whose matrices are the slices of ``stack``, made read-only."""
        stack.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "_d", stack.shape[0])
        object.__setattr__(self, "_n", stack.shape[1])
        object.__setattr__(self, "_mats", tuple(stack))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoint is immutable")

    @classmethod
    def scalars(cls, values):
        """Level-1 point from a sequence of complex numbers."""
        return cls([np.array([[complex(v)]]) for v in values])

    @property
    def d(self):
        return self._d

    @property
    def n(self):
        return self._n

    @property
    def mats(self):
        return self._mats

    def __repr__(self):
        return f"GradedPoint(d={self._d}, n={self._n})"

    def to_json(self) -> dict:
        return {
            "d": self._d,
            "n": self._n,
            "mats": [matrix_to_json(m) for m in self._mats],
        }

    @classmethod
    def from_json(cls, obj) -> "GradedPoint":
        mats = [matrix_from_json(m) for m in obj["mats"]]
        pt = cls(mats)
        if pt.d != json_int(obj["d"], "d") or pt.n != json_int(obj["n"], "n"):
            raise ShapeMismatch("graded point header disagrees with matrix data")
        return pt


def _word_values(mats):
    """Memo of word values keyed by word prefix, at the d point matrices
    ``mats``, each n-by-n or a ``(p, n, n)`` stack of same-level points.

    Returns ``value(w)`` for a checked word tuple ``w``, the product of the
    matrices along ``w`` taken left to right (batched on stacks): ``I_n``
    for the empty word, made on its first use, and the given matrix for a
    letter. The memo holds no reference cycle, so its matrices are freed
    with the call that made it.
    """
    table = {(i,): m for i, m in enumerate(mats, 1)}
    return functools.partial(_word_value, table, mats)


def _word_value(table: dict, mats, w) -> np.ndarray:
    if not w and w not in table:
        table[w] = np.eye(mats[0].shape[-1], dtype=np.complex128)
    k = len(w)
    while w[:k] not in table:  # longest memoized prefix, without recursion
        k -= 1
    for j in range(k, len(w)):
        table[w[: j + 1]] = table[w[:j]] @ mats[w[j] - 1]
    return table[w]


def _json_arrays(obj) -> tuple:
    """``(d, word rows, numbers)`` of a :meth:`FreePoly.to_json` object."""
    d = json_int(obj["d"], "d")
    if d < 1:
        raise ValueError("need at least one variable")
    pairs = []
    for t in obj["terms"]:
        re, im = t["coeff"]
        pairs.append((tuple(json_int(i, "word letter") for i in t["word"]), complex(re, im)))
    return (d, *_term_arrays(d, (), pairs))


def _ring_form(d: int, word_rows, coeffs) -> tuple:
    """``(d, word rows, stack)``, the 1x1 normal form of word rows and their
    numbers, summed from ``0j``.

    Products are Python's: numpy's complex product may fuse a multiply and
    an add, which moves the last bit.
    """
    stack = np.asarray(coeffs, dtype=np.complex128).reshape(-1, 1, 1) + 0.0
    return (d, *_purged(*graded_sum(word_rows, stack)))


def _entries_json(pm: "PolyMatrix") -> list:
    """The grid of :meth:`FreePoly.to_json` objects, written from the stack:
    entry (i, j) lists the words whose coefficient there is at least ``EPS_COEFF``."""
    words = pm.words()

    def entry(coeffs):
        terms = [{"coeff": [v.real + 0.0, v.imag + 0.0], "word": list(w)}
                 for w, v in zip(words, coeffs) if abs(v) >= EPS_COEFF]
        return {"d": pm.d, "terms": terms}

    return [[entry(vs) for vs in row] for row in pm.stack.transpose(1, 2, 0).tolist()]


def _grid_form(grid, d) -> tuple:
    """``(d, word rows, stack)``, the normal form of a grid of ``(d, word
    rows, numbers)`` entries.

    The numbers sit at their entries of one stack, summed from ``0j`` and
    normalised once; an entry under ``EPS_COEFF`` is then zero, as in a
    ``FreePoly``. A grid without entries takes the variable count ``d``.
    """
    rows, cols = len(grid), len(grid[0]) if grid else 0
    if any(len(row) != cols for row in grid):
        raise ShapeMismatch("ragged polynomial grid")
    if rows and cols:
        d = grid[0][0][0]
    elif d is None:
        raise ValueError("empty grid needs an explicit variable count")
    cells = [cell for row in grid for cell in row]
    if any(cell[0] != d for cell in cells):
        raise ShapeMismatch("entries disagree on variable count")
    words = stack_rows([cell[1] for cell in cells])
    at = np.repeat(np.arange(len(cells)), [len(cell[1]) for cell in cells])
    stack = np.zeros((len(words), rows * cols), dtype=np.complex128)
    stack[np.arange(len(words)), at] = np.concatenate([cell[2] for cell in cells] + [[]])
    words, stack = _purged(*graded_sum(words, stack.reshape(len(words), rows, cols) + 0.0))
    stack[np.abs(stack) < EPS_COEFF] = 0.0
    return d, words, stack


class PolyMatrix:
    """Rectangular grid of free polynomials sharing one variable count.

    Held in the normal form ``delta = sum_w C_w w``: read-only
    :attr:`word_rows` in graded lexicographic order, and their read-only
    ``(m, rows, cols)`` coefficient :attr:`stack`, whose slice for word w
    has the coefficient of w in grid entry (i, j) at (i, j). The
    constructor and :meth:`from_json` place each entry's coefficients there;
    :meth:`to_json` writes the entries straight from the stack, and
    :attr:`entries` reads them back as a grid of ``FreePoly``, the 1x1
    case. Every polynomial goes through :func:`graded_sum` and
    :func:`_purged`, and its word rows are cut to the width of the longest
    word, so equal polynomials have equal word rows and stacks.

    Immutable; ``==`` with one of the same type compares word rows and
    stacks exactly, and the hash maps ``-0.0`` to ``0.0`` as ``==`` does.
    """

    __slots__ = ("_d", "_word_rows", "_stack")

    def __init__(self, entries, d: int | None = None):
        grid = [list(row) for row in entries]
        if not all(isinstance(p, FreePoly) for row in grid for p in row):
            raise TypeError("entries must be FreePoly")
        cells = [[(p.d, p._word_rows, p._stack[:, 0, 0]) for p in row] for row in grid]
        self._hold(*_grid_form(cells, d))

    @classmethod
    def _of(cls, d: int, word_rows: np.ndarray, stack: np.ndarray):
        """The polynomial of word rows and a stack already in normal form."""
        self = object.__new__(cls)
        self._hold(d, word_rows, stack)
        return self

    def _hold(self, d, word_rows, stack):
        # the longest word is last, so its length is the width of the rows
        word_rows = word_rows[:, : 1 + word_rows[-1, 0]] if len(word_rows) else word_rows[:, :1]
        word_rows.setflags(write=False)
        stack.setflags(write=False)
        object.__setattr__(self, "_d", int(d))
        object.__setattr__(self, "_word_rows", word_rows)
        object.__setattr__(self, "_stack", stack)

    @classmethod
    def from_poly(cls, p: FreePoly) -> "PolyMatrix":
        return cls._of(p.d, p.word_rows, p.stack)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._d == other._d and np.array_equal(self._word_rows, other._word_rows)
                and np.array_equal(self._stack, other._stack))

    def __hash__(self):
        return hash((self._d, self._stack.shape, self._word_rows.tobytes(),
                     (self._stack + 0).tobytes()))

    @property
    def d(self) -> int:
        return self._d

    @property
    def rows(self) -> int:
        return self._stack.shape[1]

    @property
    def cols(self) -> int:
        return self._stack.shape[2]

    @property
    def word_rows(self) -> np.ndarray:
        """The read-only word rows ``[length, letters..., 0...]``, graded."""
        return self._word_rows

    @property
    def stack(self) -> np.ndarray:
        """The read-only coefficient stack, one slice per word row."""
        return self._stack

    def term_count(self) -> int:
        return len(self._word_rows)

    def words(self):
        """The words in graded lexicographic order."""
        return [tuple(r[1 : 1 + r[0]]) for r in self._word_rows.tolist()]

    @property
    def entries(self):
        return tuple(tuple(map(FreePoly.from_json, row)) for row in _entries_json(self))

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols}, d={self.d})"

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "d": self._d, "entries": _entries_json(self)}

    @classmethod
    def from_json(cls, obj) -> "PolyMatrix":
        grid = [[_json_arrays(p) for p in row] for row in obj["entries"]]
        header = (json_int(obj.get("d", 1), "d"), *(json_int(obj[k], k) for k in ("rows", "cols")))
        pm = cls._of(*_grid_form(grid, header[0]))
        if (pm.d, pm.rows, pm.cols) != header:
            raise ShapeMismatch("polynomial grid header disagrees with entries")
        return pm


class FreePoly(PolyMatrix):
    """Finite complex combination of words in d noncommuting variables.

    The 1x1 :class:`PolyMatrix`, so it is accepted wherever a grid is, with
    ring operations on its one 1x1 coefficient per word. ``+`` stacks the
    word rows and ``*`` forms the pairwise :func:`word_products`, each
    merged by :func:`graded_sum` and purged by :func:`_purged`; negation
    and :meth:`scale` act on the stack. So a coefficient under ``EPS_COEFF``
    in modulus is dropped, a NaN or infinite one (given, or reached by
    overflow) raises ``ValueError``, and words are in graded order. Every
    coefficient is summed from ``0j``, so no real or imaginary part is
    ``-0.0``.
    """

    __slots__ = ()

    def __init__(self, d: int, terms=None):
        if d < 1:
            raise ValueError("need at least one variable")
        self._hold(*_ring_form(d, *_term_arrays(d, (), (terms or {}).items())))

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, d: int, c) -> "FreePoly":
        return cls(d, {(): complex(c)})

    @classmethod
    def letter(cls, d: int, index: int) -> "FreePoly":
        """The variable ``x{index}`` (1-based)."""
        return cls(d, {(index,): 1.0})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(zip(self.words(), self._stack[:, 0, 0].tolist()))

    def __repr__(self):
        bits = [f"({c:g})*" + ("*".join(f"x{i}" for i in w) or "1") for w, c in self.terms.items()]
        return "FreePoly(" + (" + ".join(bits) or "0") + ")"

    # -- ring operations -----------------------------------------------------

    def _like(self, other) -> "FreePoly":
        if isinstance(other, FreePoly):
            if other.d != self.d:
                raise ShapeMismatch("variable counts differ")
            return other
        return FreePoly.const(self.d, other)

    def __add__(self, other):
        b = self._like(other)
        word_rows = stack_rows((self._word_rows, b._word_rows))
        stack = np.concatenate((self._stack, b._stack))
        return FreePoly._of(*_ring_form(self._d, word_rows, stack))

    __radd__ = __add__

    def __neg__(self):
        return FreePoly._of(self._d, self._word_rows, -self._stack + 0.0)

    def __sub__(self, other):
        return self + (-self._like(other))

    def __rsub__(self, other):
        return self._like(other) - self

    def __mul__(self, other):
        b = self._like(other)
        u, w = self._stack.ravel().tolist(), b._stack.ravel().tolist()
        word_rows = word_products(self._word_rows, b._word_rows)
        return FreePoly._of(*_ring_form(self._d, word_rows, [x * y for x in u for y in w]))

    def __rmul__(self, other):
        return self._like(other) * self

    def scale(self, c) -> "FreePoly":
        c = complex(c)
        coeffs = [c * v for v in self._stack.ravel().tolist()]
        return FreePoly._of(*_ring_form(self._d, self._word_rows, coeffs))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return _entries_json(self)[0][0]

    @classmethod
    def from_json(cls, obj) -> "FreePoly":
        """Decode :meth:`to_json` output; a word listed twice gets the sum."""
        return cls._of(*_ring_form(*_json_arrays(obj)))


def eval_poly(p: FreePoly, x: GradedPoint) -> np.ndarray:
    """Evaluate ``p`` at the point, an n-by-n matrix: the 1x1 grid case of
    :func:`eval_poly_matrix`, summed in graded word order."""
    return eval_poly_matrix(p, x)


def eval_poly_matrix(pm: PolyMatrix, x: GradedPoint) -> np.ndarray:
    """Blockwise evaluation: an (rows*n)-by-(cols*n) matrix, grid index outer.

    Block (i, j) equals entry (i, j) evaluated at the point, summed as in
    :func:`eval_poly_matrix_stack`, of which this is the one-point case.
    """
    return eval_poly_matrix_stack(pm, level_stacks([x], pm.d)[0][1])[0]


def eval_poly_matrix_stack(pm: PolyMatrix, mats) -> np.ndarray:
    """The values at p points of one level n: ``(p, rows*n, cols*n)``.

    ``mats`` are d ``(p, n, n)`` arrays, the k-th coordinates of the points.
    Each nonzero entry ``(C_w)_ij`` of the coefficient stack adds
    ``(C_w)_ij w(x)`` to block (i, j) in graded word order; a zero entry
    adds nothing (not even ``0 * inf``), so a direct sum of grids evaluates
    to the exact block diagonal, and each point's value is bitwise its own.
    """
    (p, n, _), word, words = mats[0].shape, _word_values(mats), pm.words()
    out = np.zeros((p, pm.rows, n, pm.cols, n), dtype=np.complex128)
    for i, row in enumerate(pm.stack.transpose(1, 2, 0).tolist()):
        for j, coeffs in enumerate(row):
            block = out[:, i, :, j]
            for w, c in zip(words, coeffs):
                if c:
                    block += c * word(w)
    return out.reshape(p, pm.rows * n, pm.cols * n)


def level_stacks(points, d: int) -> list:
    """Per level, in order of first appearance: the positions of its points
    and their coordinates as the d stacks that :func:`eval_poly_matrix_stack`
    takes, views of the point's matrices for a level with one point. A point
    without d coordinates raises ``ShapeMismatch``."""
    groups = {}
    for i, x in enumerate(points):
        if x.d != d:
            raise ShapeMismatch(f"point has {x.d} coordinates, grid wants {d}")
        groups.setdefault(x.n, []).append(i)
    return [
        (idx, [m[None] for m in points[idx[0]].mats] if len(idx) == 1
         else [np.array(ms) for ms in zip(*(points[i].mats for i in idx))])
        for idx in groups.values()
    ]


def eval_poly_matrix_promoted(pm: PolyMatrix, x: GradedPoint, mult: int) -> np.ndarray:
    """Evaluation in the layout level (x) multiplicity (x) grid-index.

    Returns ``sum_{i,j} kron(entry_ij(x), kron(I_mult, E_ij))`` of shape
    ``(n*mult*rows, n*mult*cols)``, the value of :func:`_promoted_grid`.
    This is the form that composes with ``kron(I_n, block)`` factors in
    realization formulas; it is a permutation conjugate of
    :func:`eval_poly_matrix` tensored with the multiplicity identity, so
    operator norms agree. Products with it are computed by
    :func:`promoted_apply`; this dense form is the reference.
    """
    if mult < 1:
        raise ShapeMismatch("multiplicity must be at least 1")
    return _promoted_grid(pm, mult).eval(x)


def _promoted_grid(pm: PolyMatrix, mult: int) -> MatrixPoly:
    """The multiplicity-promoted grid ``{w: kron(I_mult, C_w)}``.

    ``C_w`` is the rows-by-cols slice of ``pm.stack`` for word w. This is
    the one definition of the promoted Delta: its value at x is
    :func:`eval_poly_matrix_promoted`, and
    :func:`freeholo.approx.expand_polynomial` expands the series over its
    terms.
    """
    return MatrixPoly._of(pm.d, pm.word_rows, np.kron(np.eye(mult)[None], pm.stack))


def promoted_apply(dx: np.ndarray, n: int, mult: int, y: np.ndarray) -> np.ndarray:
    """``eval_poly_matrix_promoted(pm, x, mult) @ y`` from ``dx = eval_poly_matrix(pm, x)``.

    The rows of y, in (level, mult, grid) order, are copied once into
    multiplicity-major (mult, grid, level) order; each multiplicity slot is
    then a (grid, level)-rowed block that the grid-outer dx multiplies in
    one GEMM, and the level axis is moved in front again. The promoted
    matrix is never formed and the point need not lie in any domain. A
    ``(p, ...)`` stack of dx values with a ``(p, ...)`` stack of y gives the
    stack of the members' products, one GEMM per slot, every member bitwise
    its own product.
    """
    rows, cols = dx.shape[-2] // n, dx.shape[-1] // n
    lead, q = y.shape[:-2], y.shape[-1]
    if y.shape[-2] != n * mult * cols:
        raise ShapeMismatch(
            f"cannot apply a level-{n} {rows}x{cols} grid at multiplicity {mult} "
            f"to {y.shape[-2]} rows"
        )
    slots = np.ascontiguousarray(y.reshape(lead + (n, mult * cols, q)).swapaxes(-3, -2))
    prod = np.matmul(dx[..., None, :, :], slots.reshape(lead + (mult, cols * n, q)))
    out = prod.reshape(lead + (mult * rows, n, q)).swapaxes(-3, -2)
    return out.reshape(lead + (n * mult * rows, q))


def delta_pad_columns(pm: PolyMatrix, extra: int) -> PolyMatrix:
    """Append ``extra`` zero columns on the right (none to a grid without rows).

    Padding with zero columns never changes the value's operator norm, so
    the strict sublevel set is untouched; it only widens the codomain side
    of realization bookkeeping.
    """
    if extra < 0:
        raise ShapeMismatch("cannot pad a negative number of columns")
    if extra == 0 or pm.rows == 0:
        return pm
    zeros = np.zeros(pm.stack.shape[:2] + (extra,), dtype=np.complex128)
    return PolyMatrix._of(pm.d, pm.word_rows, np.concatenate((pm.stack, zeros), axis=2))


def commutator_delta() -> PolyMatrix:
    """1 - (x1 x2 - x2 x1)^2 in two variables.

    Its strict sublevel set contains no level-1 point (scalars commute, so
    the value is exactly 1 there) but does contain level-2 points.
    """
    comm = FreePoly(2, {(1, 2): 1.0, (2, 1): -1.0})
    return PolyMatrix.from_poly(FreePoly.const(2, 1.0) - comm * comm)


class MatrixPoly(PolyMatrix):
    """Free polynomial whose coefficients are complex matrices.

    The :class:`PolyMatrix` normal form read as one operator-valued
    polynomial rather than a grid of scalar ones: the value at a graded
    point is ``sum_w kron(w(x), C_w)`` with the level index outer, matching
    operator-valued evaluation elsewhere, and the JSON lists each word with
    its ``out_dim``-by-``in_dim`` matrix. A value type without arithmetic;
    :attr:`terms` (views of the stack) is built when read. Words from
    outside (the dict constructor and :meth:`from_json`) are validated: a
    letter outside 1..d raises ``ValueError``.
    """

    __slots__ = ()

    out_dim = PolyMatrix.rows
    in_dim = PolyMatrix.cols

    def __init__(self, d: int, out_dim: int, in_dim: int, terms=None):
        word_rows, stack = _term_arrays(d, (out_dim, in_dim), (terms or {}).items())
        self._hold(d, *_purged(*graded_sum(word_rows, stack)))

    @property
    def terms(self):
        return dict(zip(self.words(), self._stack))

    def eval(self, x: GradedPoint) -> np.ndarray:
        """:func:`eval_poly_matrix` of these coefficients, level index moved outside."""
        n, rows, cols = x.n, self.rows, self.cols
        value = eval_poly_matrix(self, x).reshape(rows, n, cols, n)
        return value.transpose(1, 0, 3, 2).reshape(n * rows, n * cols)

    def to_json(self) -> dict:
        return {
            "d": self._d,
            "out_dim": self.out_dim,
            "in_dim": self.in_dim,
            "terms": [
                {"word": list(w), "coeff": matrix_to_json(c)}
                for w, c in zip(self.words(), self._stack)
            ],
        }

    def json_text(self, depth: int = 0) -> str:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True)`` from the stack.

        Byte for byte the text of that value nested ``depth`` levels deep in
        such a document, whose first line carries no indent: sorted keys,
        integers, and ``float.__repr__`` for the coefficient entries, which
        the constructor keeps finite. Each term is one ``%`` format of a
        template per word length, built on the entry template
        :func:`mat.json_pair_template` that ``jsonio.dumps`` also writes
        matrix data with, so no per-term dicts are built. ``jsonio.dumps``
        calls this method for a ``MatrixPoly`` inside a report.
        """

        def nl(level):
            return "\n" + "  " * (depth + level)

        def listing(items, level):
            if not items:
                return "[]"
            return "[" + nl(level + 1) + ("," + nl(level + 1)).join(items) + nl(level) + "]"

        entry = json_pair_template(depth + 5)
        coeff = (
            "{" + nl(4) + f'"cols": {self.in_dim},'
            + nl(4) + '"data": ' + listing([entry] * (self.out_dim * self.in_dim), 4) + ","
            + nl(4) + f'"rows": {self.out_dim}' + nl(3) + "}"
        )
        words = self.words()
        templates = {
            length: "{" + nl(3) + '"coeff": ' + coeff + ","
            + nl(3) + '"word": ' + listing(["%d"] * length, 3) + nl(2) + "}"
            for length in {len(w) for w in words}
        }
        values = self._stack.view(np.float64).reshape(len(words), 2 * self.out_dim * self.in_dim)
        terms = [templates[len(w)] % (*v, *w) for w, v in zip(words, values.tolist())]
        return (
            "{" + nl(1) + f'"d": {self._d},'
            + nl(1) + f'"in_dim": {self.in_dim},'
            + nl(1) + f'"out_dim": {self.out_dim},'
            + nl(1) + '"terms": ' + listing(terms, 1) + nl(0) + "}"
        )

    @classmethod
    def from_json(cls, obj) -> "MatrixPoly":
        """Decode :meth:`to_json` output; a word listed twice gets the sum."""
        pairs = [
            (tuple(json_int(i, "word letter") for i in t["word"]), matrix_from_json(t["coeff"]))
            for t in obj["terms"]
        ]
        d, out_dim, in_dim = (json_int(obj[key], key) for key in ("d", "out_dim", "in_dim"))
        return cls._of(d, *_purged(*graded_sum(*_term_arrays(d, (out_dim, in_dim), pairs))))


def _term_arrays(d: int, shape: tuple, pairs) -> tuple:
    """Word rows and coefficient stack of ``(word, coefficient)`` pairs, in order.

    Words are checked in Python first, so a letter past int64 cannot enter
    a row; each coefficient must have ``shape`` (``()`` for a number).
    """
    words, coeffs = [], []
    for word, c in pairs:
        words.append(_check_word(word, d))
        coeffs.append(np.asarray(c, dtype=np.complex128))
        if coeffs[-1].shape != shape:
            got = coeffs[-1].shape
            raise ShapeMismatch(f"coefficient for {words[-1]} has shape {got}, want {shape}")
    width = max(map(len, words), default=0)
    rows = np.array([(len(w), *w) + (0,) * (width - len(w)) for w in words], dtype=np.int64)
    stack = np.array(coeffs) if coeffs else np.empty((0,) + shape, dtype=np.complex128)
    return rows.reshape(-1, 1 + width), stack
