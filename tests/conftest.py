"""Shared helpers for the test suite."""

import numpy as np

from freeholo.exprlang import Add, Const, Inv, Mul, Neg, Sub, Var


def random_parser_ast(rng, d, depth=4, allow_inv=True):
    """A random tree using only shapes the parser itself can produce.

    Constants are nonnegative reals or nonnegative pure imaginaries (single
    number tokens); negative values only appear through Neg nodes, products
    through Mul.
    """
    leaf_kinds = ("const", "var")
    node_kinds = ("add", "sub", "mul", "neg") + (("inv",) if allow_inv else ())
    if depth <= 0 or rng.random() < 0.3:
        kind = leaf_kinds[rng.integers(0, len(leaf_kinds))]
        if kind == "var":
            return Var(int(rng.integers(1, d + 1)))
        mag = float(np.round(rng.uniform(0, 4), 3))
        return Const(complex(0, mag) if rng.random() < 0.3 else complex(mag, 0))
    kind = node_kinds[rng.integers(0, len(node_kinds))]
    sub = lambda: random_parser_ast(rng, d, depth - 1, allow_inv)
    if kind == "add":
        return Add(sub(), sub())
    if kind == "sub":
        return Sub(sub(), sub())
    if kind == "mul":
        return Mul(sub(), sub())
    if kind == "neg":
        return Neg(sub())
    return Inv(sub())


def random_graded(seed, d, n, scale=0.4):
    rng = np.random.default_rng(seed)
    from freeholo.freepoly import GradedPoint

    return GradedPoint(
        [
            scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(d)
        ]
    )


def random_grid(rng, i_rows, j_cols):
    """An I-by-J grid in two variables, each entry two random short words."""
    from freeholo.freepoly import FreePoly, PolyMatrix

    words = [(1,), (2,), (1, 2), (2, 1), (1, 1)]
    return PolyMatrix(
        [
            [
                FreePoly(2, {words[int(w)]: complex(*(0.4 * rng.standard_normal(2)))
                             for w in rng.choice(len(words), size=2, replace=False)})
                for _ in range(j_cols)
            ]
            for _ in range(i_rows)
        ],
        d=2,
    )


def random_rect_realization(rng, i_rows, j_cols, k1, offset, mult):
    """A Haar-random realization on a random I-by-J grid with k1 != k2.

    ``k2`` is ``k1 + offset``, raised where needed so that an isometry
    ``K1 (+) mult*I -> K2 (+) mult*J`` exists, and moved off ``k1``.
    Rectangular grids and k1 != k2 catch reshape-order slips that a square
    grid with k1 == k2 hides.
    """
    from freeholo.realize import Realization
    from freeholo.sampling import haar_isometry

    k2 = max(k1 + offset, k1 + mult * (i_rows - j_cols), 1)
    if k2 == k1:
        k2 += 1
    delta = random_grid(rng, i_rows, j_cols)
    j1 = haar_isometry(rng, k2 + mult * j_cols, k1 + mult * i_rows)
    return Realization(delta, k1, k2, mult, j1)


def per_point(found) -> list:
    """delta(x) per point, in point order, from the membership kernel's
    ``(idx, dxs, memberships)`` level stacks."""
    out = [None] * sum(len(idx) for idx, _, _ in found)
    for idx, dxs, _ in found:
        for i, dx in zip(idx, dxs):
            out[i] = dx
    return out


def random_column_data(rng, n, k1, h):
    """An explicit psi value of shape (n*k1, n*h) with entries of size ~1."""
    shape = (n * k1, n * h)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2 * n * k1)


def _purged(terms: dict) -> dict:
    """The terms with a coefficient entry of modulus at least ``EPS_COEFF``."""
    from freeholo.freepoly import EPS_COEFF

    return {w: c for w, c in terms.items() if np.max(np.abs(c)) >= EPS_COEFF}


def expand_by_word_dicts(r, k):
    """Reference for ``approx.expand_polynomial``: the word-by-word recursion.

    ``leg_0[u] = Delta_u C``, ``acc[w] += B leg_j[w]`` and
    ``leg_{j+1}[u + w] += Delta_u (D leg_j[w])`` over word-to-coefficient
    dicts, purging at the same points and raising the same
    :class:`TermBlowup` for ``approx.TERM_CAP``. It checks no coefficient for
    finiteness.
    """
    from freeholo.approx import TERM_CAP
    from freeholo.errors import TermBlowup
    from freeholo.freepoly import EPS_COEFF, MatrixPoly, _promoted_grid

    delta = _promoted_grid(r.delta, r.mult).terms
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
        if len(acc) > TERM_CAP:
            raise TermBlowup(
                f"expansion reached {len(acc)} terms at order {j}, cap {TERM_CAP}"
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


def count_grid_evaluations(monkeypatch, modules) -> list:
    """Record the points at which ``modules`` evaluate a grid, one by one
    (``eval_poly_matrix``) or level-stacked (``eval_poly_matrix_stack``).

    Membership is decided by ``ncpoint``'s kernel, so pass ``ncpoint`` to
    count the points of ``realize`` and ``model``. A module that imports
    neither name is an error, not a count of zero."""
    from freeholo.freepoly import GradedPoint, eval_poly_matrix, eval_poly_matrix_stack

    points = []

    def counting(pm, x):
        points.append(x)
        return eval_poly_matrix(pm, x)

    def counting_stack(pm, mats):
        points.extend(GradedPoint(list(ms)) for ms in zip(*mats))
        return eval_poly_matrix_stack(pm, mats)

    wrappers = {"eval_poly_matrix": counting, "eval_poly_matrix_stack": counting_stack}
    for module in modules:
        names = [name for name in wrappers if hasattr(module, name)]
        assert names, f"{module.__name__} evaluates no grid"
        for name in names:
            monkeypatch.setattr(module, name, wrappers[name])
    return points


def corona_inputs(seed, levels, lam=1.0, mult=16):
    """``(points, psis, epsilon, u, mult)`` of a two-function corona problem
    on the unit disk, one point per entry of ``levels``."""
    from freeholo.freepoly import GradedPoint
    from freeholo.realize import stack_column
    from freeholo.sampling import rng_from_seed

    # psi1 = x, psi2 = lam(1 - x) never vanish together on the closed disk;
    # the telescoping column u_i = sqrt(1+lam^2) x^(i-1) (c - x) models
    # psi*psi - eps^2 with c = lam^2/(1+lam^2), eps = lam/sqrt(1+lam^2)
    c = lam * lam / (1.0 + lam * lam)
    eps = lam / np.sqrt(1.0 + lam * lam)
    rng = rng_from_seed(seed)
    pts = []
    for n in levels:
        m = 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nrm = np.linalg.norm(m, 2)
        if nrm > 0.45:
            m *= 0.95 * 0.45 / nrm
        pts.append(GradedPoint([m]))
    psis = [
        [p.mats[0] for p in pts],
        [lam * (np.eye(p.n) - p.mats[0]) for p in pts],
    ]
    scale = np.sqrt(1.0 + lam * lam)
    us = []
    for p in pts:
        m = p.mats[0]
        blocks = [
            scale
            * np.linalg.matrix_power(m, i)
            @ (c * np.eye(p.n) - m)
            for i in range(mult)
        ]
        us.append(stack_column(blocks))
    return pts, psis, eps, us, mult
