import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    corona_inputs,
    per_point,
    random_column_data,
    random_grid,
    random_rect_realization,
)
from freeholo import mat, realize
from freeholo.approx import ORDER_CAP, choose_truncation
from freeholo.errors import (
    BelowFloor,
    GramMismatch,
    OutsideDomain,
    RankOverflow,
    ShapeMismatch,
    TermBlowup,
)
from freeholo.freepoly import (
    FreePoly,
    GradedPoint,
    PolyMatrix,
    delta_pad_columns,
    eval_poly_matrix,
    eval_poly_matrix_promoted,
    promoted_apply,
)
from freeholo.mat import (
    complete_to_isometry,
    isometry_defect,
    kron_left_identity_apply,
    op_norm,
)
from freeholo.model import ModelSampleSet, model_from_realization, model_residual
from freeholo.ncpoint import require_inside
from freeholo.realize import (
    NEUMANN_TERM_CAP,
    PAD_CAP,
    Realization,
    corona_solve,
    eval_direct,
    eval_neumann,
    fit_lurking_isometry,
    geometric_tail,
    stack_column,
    tail_order,
)
from freeholo.sampling import (
    haar_isometry,
    point_inside_gdelta,
    random_free_poly,
    random_realization,
    random_unitary,
    rng_from_seed,
)

UNIT_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1))


def mobius(a):
    s = np.sqrt(1.0 - abs(a) ** 2)
    return Realization(
        UNIT_DISK, 1, 1, 1, np.array([[a, s], [s, -np.conj(a)]], dtype=complex)
    )


SHIFT = Realization(UNIT_DISK, 1, 1, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))


def solved(r, x):
    """``(Omega(x), v(x))`` from the resolvent kernel at one point inside."""
    [(_, dxs, _)] = require_inside(r.delta, [x])
    omega, v = realize._solve(r, x.n, dxs)
    return omega[0], v[0]


def test_realization_validates_shape_and_isometry():
    with pytest.raises(ShapeMismatch):
        Realization(UNIT_DISK, 1, 1, 1, np.eye(3))
    with pytest.raises(ShapeMismatch):
        Realization(UNIT_DISK, 1, 1, 1, 1.1 * np.eye(2))


def test_block_slicing():
    j1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = Realization(UNIT_DISK, 1, 1, 1, j1)
    assert r.block_a[0, 0] == 0.0
    assert r.block_b[0, 0] == 1.0
    assert r.block_c[0, 0] == 1.0
    assert r.block_d[0, 0] == 0.0


def test_shift_realization_is_identity_function():
    for seed, n in ((0, 1), (1, 2), (2, 3)):
        x = point_inside_gdelta(rng_from_seed(seed), UNIT_DISK, n)
        np.testing.assert_allclose(eval_direct(SHIFT, x), x.mats[0], atol=1e-12)


def test_mobius_scalar_value():
    # (a + x) / (1 + conj(a) x) at a = 0.5, x = 0.3: 0.8 / 1.15
    r = mobius(0.5)
    val = eval_direct(r, GradedPoint.scalars([0.3]))
    assert val[0, 0] == pytest.approx(0.8 / 1.15, rel=1e-12)


def test_mobius_matrix_value_matches_formula():
    a = 0.4 - 0.2j
    r = mobius(a)
    x = point_inside_gdelta(rng_from_seed(3), UNIT_DISK, 3)
    m = x.mats[0]
    expected = (a * np.eye(3) + m) @ np.linalg.inv(
        np.eye(3) + np.conj(a) * m
    )
    np.testing.assert_allclose(eval_direct(r, x), expected, atol=1e-11)


def test_eval_requires_inside_point():
    with pytest.raises(OutsideDomain):
        eval_direct(SHIFT, GradedPoint.scalars([1.0]))
    with pytest.raises(OutsideDomain):
        eval_direct(SHIFT, GradedPoint.scalars([1.7]))


def test_contractive_on_inside_points():
    rng = rng_from_seed(4)
    for k1, k2, mult in ((1, 1, 1), (2, 2, 2), (1, 2, 3)):
        r = random_realization(rng, UNIT_DISK, k1, k2, mult)
        for n in (1, 2, 3):
            x = point_inside_gdelta(rng, UNIT_DISK, n)
            assert op_norm(eval_direct(r, x)) <= 1.0 + 1e-7


def test_neumann_mobius_truncation_order():
    # scalar x = 0.3, tol 1e-8: smallest K with 0.3^(K+2)/0.7 <= 1e-8 is 14
    r = mobius(0.5)
    res = eval_neumann(r, GradedPoint.scalars([0.3]), tol=1e-8)
    assert res.k == 14
    assert res.bound <= 1e-8
    assert res.bound == pytest.approx(0.3**16 / 0.7, rel=1e-12)
    assert abs(res.value[0, 0] - 0.8 / 1.15) <= res.bound


def test_neumann_deviation_within_bound():
    rng = rng_from_seed(5)
    for trial in range(25):
        d = int(rng.integers(1, 3))
        delta = PolyMatrix.from_poly(
            random_free_poly(rng, d, max_degree=2, n_terms=3, scale=0.4)
        )
        try:
            r = random_realization(rng, delta, 1, 1, int(rng.integers(1, 3)))
            x = point_inside_gdelta(rng, delta, int(rng.integers(1, 4)))
        except OutsideDomain:
            continue
        tol = 10.0 ** -rng.integers(6, 10)
        res = eval_neumann(r, x, tol=tol)
        exact = eval_direct(r, x)
        assert res.bound <= tol
        assert op_norm(res.value - exact) <= res.bound + 1e-12


def test_neumann_nilpotent_early_stop():
    # D = 0 collapses the series after the linear term with a zero bound
    res = eval_neumann(SHIFT, GradedPoint.scalars([0.5]), tol=1e-8)
    assert res.k == 0
    assert res.bound == 0.0
    assert res.value[0, 0] == pytest.approx(0.5)


def test_neumann_zero_point():
    r = mobius(0.3)
    res = eval_neumann(r, GradedPoint.scalars([0.0]), tol=1e-8)
    assert res.bound == 0.0
    assert res.value[0, 0] == pytest.approx(0.3)


# (r0, tol, k) where comparing r0**(k+2) with tol*(1-r0) stops one order
# early: the bound r0**(k+2)/(1-r0) it would report rounds above tol
ROUNDING_BOUNDARY = [
    (0.6170811798068087, 0.003031694978827545, 13),
    (0.3823576754849779, 0.013231589374084685, 4),
    (0.43756521837275997, 3.4094344512214066e-15, 40),
]


@pytest.mark.parametrize("r0, tol, k", ROUNDING_BOUNDARY)
def test_neumann_bound_within_tol_at_rounding_boundary(r0, tol, k):
    res = eval_neumann(mobius(0.5), GradedPoint.scalars([r0]), tol=tol)
    assert res.bound <= tol
    assert res.k == tail_order(r0, tol, NEUMANN_TERM_CAP) == k
    assert res.bound == geometric_tail(r0, k)
    assert choose_truncation(tol, 1.0 / r0) == k


def test_neumann_bound_ignores_underflowed_terms():
    # the series terms underflow to exact zeros before term 1028, but the
    # exact tail after term 1027 is still above tol
    x = GradedPoint.scalars([1.0 / 1.032258064516129])
    r0, tol = 0.96875, 2.074938565007775e-13
    assert op_norm(x.mats[0]) == r0
    res = eval_neumann(mobius(0.5), x, tol=tol)
    assert res.k == 1028
    assert res.bound == geometric_tail(r0, 1028) == 2.0100967348512822e-13
    assert res.bound <= tol


@st.composite
def shrinks_and_tols(draw):
    """A shrink t = 1/q with q in (0, 0.99], and a tol in [1e-15, 1).

    Half the tols sit on a rounding boundary: ``geometric_tail(q, k)`` for
    some k or one of its two float neighbours.
    """
    t = 1.0 / draw(st.floats(1e-12, 0.99))
    q = 1.0 / t
    if draw(st.booleans()):
        return t, draw(st.floats(1e-15, 1.0, exclude_max=True))
    k = draw(st.integers(0, math.ceil(math.log(1e-15) / math.log(q))))
    tol = geometric_tail(q, k)
    tol = draw(st.sampled_from([np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)]))
    assume(1e-15 <= tol < 1.0)
    return t, float(tol)


@given(shrinks_and_tols())
@settings(max_examples=80, deadline=None)
def test_tail_order_is_minimal_and_shared(case):
    t, tol = case
    q = 1.0 / t
    k = tail_order(q, tol, NEUMANN_TERM_CAP)
    assert geometric_tail(q, k) <= tol
    assert k == 0 or geometric_tail(q, k - 1) > tol
    # |D| = 0.999 keeps every term clear of underflow, so no sum stops early
    res = eval_neumann(mobius(0.999), GradedPoint.scalars([q]), tol=tol)
    assert (res.k, res.bound) == (k, geometric_tail(q, k))
    assert choose_truncation(tol, t) == k


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_tail_rule_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        eval_neumann(mobius(0.5), GradedPoint.scalars([0.3]), tol=tol)
    with pytest.raises(ValueError):
        choose_truncation(tol, 2.0)
    with pytest.raises(ValueError):
        choose_truncation(tol, float("inf"))


def test_tail_order_caps():
    q = 1.0 - 1e-4
    k = tail_order(q, 1e-2, NEUMANN_TERM_CAP)
    assert ORDER_CAP < k <= NEUMANN_TERM_CAP
    with pytest.raises(TermBlowup):
        tail_order(q, 1e-2, k - 1)
    assert tail_order(q, 1e-2, k) == k
    with pytest.raises(TermBlowup):
        choose_truncation(1e-2, 1.0 / q)
    with pytest.raises(TermBlowup):
        eval_neumann(mobius(0.5), GradedPoint.scalars([q]), tol=1e-300)
    assert tail_order(0.0, 1e-2, 0) == 0


def disk_points(seed, levels, radius=0.85):
    rng = rng_from_seed(seed)
    pts = []
    for n in levels:
        while True:
            m = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            if np.linalg.norm(m, 2) < radius:
                break
        pts.append(GradedPoint([m]))
    return pts


def test_fit_roundtrip_reproduces_function():
    r = mobius(0.4 + 0.1j)
    pts = disk_points(6, [1, 1, 1, 2, 2, 1, 2, 3])
    fit = fit_lurking_isometry(model_from_realization(r, pts))
    assert fit.gram_deviation < 1e-10
    assert fit.train_residual < 1e-10
    assert fit.holdout_indices == (4,)
    assert fit.holdout_deviation < 1e-10
    assert isometry_defect(fit.realization.j1) < 1e-10
    for x in disk_points(7, [1, 2, 3]):
        np.testing.assert_allclose(
            eval_direct(fit.realization, x), eval_direct(r, x), atol=1e-8
        )


def test_fit_corrupted_data_raises_gram_mismatch():
    r = mobius(0.3)
    pts = disk_points(8, [1, 1, 2, 2, 1, 2])
    s = model_from_realization(r, pts)
    bad_phi = list(s.phi)
    bad_phi[2] = bad_phi[2] + 0.1
    bad = ModelSampleSet(
        s.delta, s.points, s.psi, bad_phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult
    )
    with pytest.raises(GramMismatch) as ei:
        fit_lurking_isometry(bad)
    assert ei.value.deviation >= 1e-3


def test_fit_no_holdout_uses_all_points():
    r = mobius(0.2)
    pts = disk_points(9, [1, 1, 2, 2, 1])
    fit = fit_lurking_isometry(model_from_realization(r, pts), holdout=False)
    assert fit.holdout_indices == ()
    assert fit.holdout_deviation is None


@pytest.mark.parametrize("k1, passes", [(PAD_CAP + 1, True), (PAD_CAP + 2, False)])
def test_fit_pad_cap(k1, passes):
    # mult 1 over a 1x1 grid needs k1 - k2 padded columns
    x = GradedPoint.scalars([0.5])
    s = ModelSampleSet(
        UNIT_DISK, [x], [np.zeros((k1, 1))], [np.zeros((1, 1))], [np.zeros((1, 1))],
        h_dim=1, k1_dim=k1, k2_dim=1, mult=1,
    )
    if passes:
        assert fit_lurking_isometry(s).padded_cols == PAD_CAP
    else:
        with pytest.raises(RankOverflow, match=f"needs {PAD_CAP + 1} padded"):
            fit_lurking_isometry(s)


def test_fit_multi_variable():
    d2 = PolyMatrix([[0.6 * FreePoly.letter(2, 1), 0.6 * FreePoly.letter(2, 2)]])
    rng = rng_from_seed(10)
    r = random_realization(rng, d2, 1, 1, 2)
    pts = [point_inside_gdelta(rng, d2, n) for n in (1, 1, 2, 2, 1, 2, 3, 1)]
    fit = fit_lurking_isometry(model_from_realization(r, pts))
    for n in (1, 2, 3):
        x = point_inside_gdelta(rng, d2, n)
        np.testing.assert_allclose(
            eval_direct(fit.realization, x), eval_direct(r, x), atol=1e-7
        )


def test_solve_generates_exact_model():
    # v(x) is the model column: I - Omega*Omega = v*(I - Delta*Delta)v
    r = mobius(0.25)
    x = disk_points(11, [2])[0]
    omega, v = solved(r, x)
    assert np.array_equal(omega, eval_direct(r, x))
    big_delta = np.kron(eval_poly_matrix(r.delta, x), np.eye(r.mult))
    lhs = np.eye(2) - omega.conj().T @ omega
    rhs = v.conj().T @ (np.eye(2) - big_delta.conj().T @ big_delta) @ v
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_stack_column_interleaves_levels():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[10.0, 20.0], [30.0, 40.0]])
    stacked = stack_column([a, b])
    assert stacked.shape == (4, 2)
    np.testing.assert_array_equal(stacked[0], a[0])
    np.testing.assert_array_equal(stacked[1], b[0])
    np.testing.assert_array_equal(stacked[2], a[1])
    np.testing.assert_array_equal(stacked[3], b[1])


def test_corona_two_function_solution():
    pts, psis, eps, us, mult = corona_inputs(12, [1, 1, 1, 2, 2, 1, 2, 3])
    sol = corona_solve(UNIT_DISK, pts, psis, eps, us, mult)
    assert sol.norm_bound == pytest.approx(1.0 / eps, rel=1e-12)
    assert sol.identity_residual < 1e-6
    # solutions keep working at fresh points of every level
    rng = rng_from_seed(13)
    for n in (1, 2, 3):
        m = 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nrm = np.linalg.norm(m, 2)
        if nrm > 0.45:
            m *= 0.95 * 0.45 / nrm
        x = GradedPoint([m])
        phis = sol.phi_values(x)
        ident = phis[0] @ m + phis[1] @ (np.eye(n) - m) - np.eye(n)
        assert op_norm(ident) < 1e-6
        assert sol.row_norm_at(x) <= 1.0 / eps + 1e-6


def test_corona_floor_violation_raises():
    from freeholo.errors import BelowFloor

    pts, psis, eps, us, mult = corona_inputs(14, [1, 1, 2, 2, 1])
    with pytest.raises(BelowFloor):
        corona_solve(UNIT_DISK, pts, psis, 3.0, us, mult)


def test_realization_json_roundtrip():
    r = mobius(0.3 - 0.4j)
    again = Realization.from_json(r.to_json())
    assert again.dim_k1 == 1 and again.dim_k2 == 1 and again.mult == 1
    np.testing.assert_allclose(again.j1, r.j1, atol=1e-15)
    x = GradedPoint.scalars([0.2])
    np.testing.assert_allclose(
        eval_direct(again, x), eval_direct(r, x), atol=1e-14
    )


def test_array_holding_results_compare_and_hash():
    # fields that hold arrays give no truth value, so these compare by identity
    r = mobius(0.3 - 0.4j)
    pts = disk_points(6, [1, 1, 1, 2, 2, 1, 2, 3])
    samples = model_from_realization(r, pts)
    for value, twin in [
        (r, Realization.from_json(r.to_json())),
        (eval_neumann(r, pts[0]), eval_neumann(r, pts[0])),
        (samples, model_from_realization(r, pts)),
    ]:
        assert value == value and value != twin and len({value, twin}) == 2
    # the results that hold those compare and hash by their fields
    sol = corona_solve(UNIT_DISK, *corona_inputs(12, [1, 1, 1, 2, 2, 1, 2, 3]))
    for value in (fit_lurking_isometry(samples), sol.fit, sol):
        twin = dataclasses.replace(value)
        assert value == twin and hash(value) == hash(twin)
    assert sol.fit != fit_lurking_isometry(samples)


@given(st.integers(0, 2_000))
@settings(max_examples=20, deadline=None)
def test_eval_direct_matches_neumann_random(seed):
    rng = rng_from_seed(seed)
    r = random_realization(rng, UNIT_DISK, 1, 1, int(rng.integers(1, 3)))
    n = int(rng.integers(1, 4))
    x = point_inside_gdelta(rng, UNIT_DISK, n)
    res = eval_neumann(r, x, tol=1e-10)
    assert op_norm(res.value - eval_direct(r, x)) <= res.bound + 1e-12


def dense_reference(r, x):
    """``(Omega(x), v(x))`` with every Kronecker factor and Delta(x) formed."""
    n = x.n
    big = eval_poly_matrix_promoted(r.delta, x, r.mult)
    a, b, c, d = (
        np.kron(np.eye(n), blk) for blk in (r.block_a, r.block_b, r.block_c, r.block_d)
    )
    v = np.linalg.solve(np.eye(d.shape[0]) - d @ big, c)
    return a + b @ big @ v, v


def a_priori_order(r0, tol):
    k = 0
    while r0 ** (k + 2) / (1.0 - r0) > tol:
        k += 1
    return k


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
    st.integers(1, 3),
    st.sampled_from([-2, -1, 1, 2]),
    st.integers(1, 3),
    st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_kernel_matches_dense_kron_reference(seed, grid, k1, offset, mult, n):
    # rectangular grids and k1 != k2 catch reshape-order slips that a square
    # grid with k1 == k2 hides
    i_rows, j_cols = grid
    k2 = max(k1 + offset, k1 + mult * (i_rows - j_cols), 1)
    if k2 == k1:
        k2 += 1
    rng = rng_from_seed(seed)
    words = [(1,), (2,), (1, 2), (2, 1), (1, 1)]
    delta = PolyMatrix(
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
    j1 = haar_isometry(rng, k2 + mult * j_cols, k1 + mult * i_rows)
    r = Realization(delta, k1, k2, mult, j1)
    x = point_inside_gdelta(rng, delta, n)

    omega_ref, v_ref = dense_reference(r, x)
    omega = eval_direct(r, x)
    v = solved(r, x)[1]
    assert omega.shape == (n * k2, n * k1) and v.shape == (n * mult * j_cols, n * k1)
    np.testing.assert_allclose(omega, omega_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-12)

    tol = 1e-8
    res = eval_neumann(r, x, tol=tol)
    assert op_norm(res.value - omega) <= res.bound + 1e-12
    assert res.k == a_priori_order(op_norm(eval_poly_matrix(delta, x)), tol)


def series_by_helpers(r, n, dx, k):
    """``(sum of the Neumann terms, terms summed)``, each term composed from
    the library helpers: a product with D through ``kron_left_identity_apply``,
    then ``promoted_apply``, an all-zero check and an in-place add."""
    c_tilde = kron_left_identity_apply(n, r.block_c, np.eye(n * r.dim_k1))
    term = promoted_apply(dx, n, r.mult, c_tilde)
    total = term.copy()
    summed = 1
    for _ in range(k):
        term = promoted_apply(dx, n, r.mult, kron_left_identity_apply(n, r.block_d, term))
        if not np.any(term):
            break
        total += term
        summed += 1
    return total, summed


def d_rows_on(rng, grid, k1, mult, keep):
    """A Haar-built realization whose D rows vanish exactly outside the grid
    columns ``keep``: ``J1 = [[X, W], [Y, 0]]`` up to a row permutation, with
    ``[X, W]`` a unitary's columns on the kept rows and ``Y`` an isometry."""
    i_rows, j_cols = grid
    k2 = k1 + mult * i_rows
    kept = list(range(k2)) + [
        k2 + m * j_cols + j for m in range(mult) for j in range(j_cols) if j in keep
    ]
    zeroed = [i for i in range(k2 + mult * j_cols) if i not in kept]
    u = random_unitary(rng, len(kept))
    j1 = np.zeros((k2 + mult * j_cols, k1 + mult * i_rows), dtype=np.complex128)
    j1[np.ix_(kept, range(k1))] = u[:, mult * i_rows : mult * i_rows + k1] / np.sqrt(2)
    j1[np.ix_(kept, range(k1, j1.shape[1]))] = u[:, : mult * i_rows]
    j1[np.ix_(zeroed, range(k1))] = haar_isometry(rng, len(zeroed), k1) / np.sqrt(2)
    return Realization(random_grid(rng, i_rows, j_cols), k1, k2, mult, j1)


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (2, 3)]),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 40),
)
@settings(max_examples=30, deadline=None)
def test_series_equals_helper_composition_bitwise(seed, grid, mult, n, k):
    # the plan's views split rows from cols, so only rectangular grids show
    # a swapped reshape
    rng = rng_from_seed(seed)
    r = random_rect_realization(rng, *grid, 1 + seed % 2, 1, mult)
    dx = eval_poly_matrix(r.delta, point_inside_gdelta(rng, r.delta, n))
    want, _ = series_by_helpers(r, n, dx, k)
    assert np.array_equal(realize._series(r, n, dx, k), want)


@pytest.mark.parametrize("grid", [(1, 2), (2, 3)])
@pytest.mark.parametrize("mult", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_series_early_stop_equals_helper_composition_bitwise(grid, mult, n):
    rng = rng_from_seed(100 * grid[0] + 10 * mult + n)
    shape = (n * grid[0], n * grid[1])
    dx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dx *= 0.9 / op_norm(dx)
    # D = 0 stops at the second term; D rows only on grid column 0, where
    # delta(x) vanishes, make D~ Delta nilpotent and stop there too
    for keep in ((), (0,)):
        r = d_rows_on(rng, grid, 1, mult, keep)
        if keep:
            dx[:, :n] = 0.0
        want, summed = series_by_helpers(r, n, dx, 40)
        assert summed == 1
        assert np.array_equal(realize._series(r, n, dx, 40), want)


X1, X2 = FreePoly.letter(2, 1), FreePoly.letter(2, 2)
# the benchmark's grid
GRID = PolyMatrix([[0.5 * X1, 0.5 * X2], [0.3 * X2, 0.3 * (X1 * X2)]])


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("mult", [1, 4])
@given(st.integers(0, 10_000), st.integers(0, 60))
@settings(max_examples=3, deadline=None)
def test_series_at_bench_shapes(n, mult, seed, k):
    # the sizes the eval workload runs, where GEMMs take blocked kernels and
    # edge tiles that the small shapes above never reach
    rng = rng_from_seed(seed)
    r = random_realization(rng, GRID, 2, 2, mult)
    x = point_inside_gdelta(rng, GRID, n)
    dx = eval_poly_matrix(GRID, x)
    want, _ = series_by_helpers(r, n, dx, k)
    assert np.array_equal(realize._series(r, n, dx, k), want)
    res = eval_neumann(r, x)
    assert op_norm(res.value - eval_direct(r, x)) <= res.bound + 1e-12


def series_rounding(k, x0, rho):
    """The gap allowed between two computed sums of the N = k + 1 terms
    ``M^j x0``, given ``||M||_2 <= rho < 1``:

        32 u (floor(log2 N) + 2) ||x0||_F / (1 - rho)^2,   u = 2^-53.

    To first order a computed power M^j is off by a small multiple of
    j u rho^j ||x0||: the loop applies M j times, and squaring builds it from
    at most floor(log2 N) + 1 factors whose errors double at each squaring
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM
    2002, section 3.5). Summed over j that is at most u ||x0|| / (1 - rho)^2.
    An addition errs by at most u times a partial sum, which is below
    ||x0|| / (1 - rho). Squaring adds floor(log2 N) + 2 times at most. The
    loop's terms stop moving its sum once they fall under u times it, after
    at most about 37 / (1 - rho) terms.

    Over 1,000 random cases, the gap stayed under 0.6 of the formula with 1
    in place of 32. Those cases include ||M|| = 0.999 at Jordan-block
    points, where the formula with (1 - rho) in place of its square was
    exceeded by a factor of 2.2.
    """
    bits = (k + 1).bit_length() - 1
    return 32 * 2.0**-53 * (bits + 2) * np.linalg.norm(x0) / (1.0 - rho) ** 2


def first_term(r, n, dx):
    c_tilde = kron_left_identity_apply(n, r.block_c, np.eye(n * r.dim_k1))
    return promoted_apply(dx, n, r.mult, c_tilde)


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (2, 3)]),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 300),
    st.sampled_from(["haar", "zero D", "nilpotent"]),
)
@settings(max_examples=60, deadline=None)
def test_series_squared_equals_series_within_rounding(seed, grid, mult, n, k, case):
    assume(case != "nilpotent" or grid[1] > 1)  # one grid column leaves no room
    rng = rng_from_seed(seed)
    if case == "haar":
        r = random_rect_realization(rng, *grid, 1 + seed % 2, 1, mult)
        dx = eval_poly_matrix(r.delta, point_inside_gdelta(rng, r.delta, n))
    else:
        # D = 0, or D rows only on grid column 0 where delta(x) vanishes:
        # D~ Delta is nilpotent and both sums are the first term
        shape = (n * grid[0], n * grid[1])
        dx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dx *= 0.9 / op_norm(dx)
        r = d_rows_on(rng, grid, 1, mult, () if case == "zero D" else (0,))
        if case == "nilpotent":
            dx[:, :n] = 0.0
    loop, squared = realize._series(r, n, dx, k), realize._series_squared(r, n, dx, k)
    assert squared.shape == loop.shape
    if case != "haar":
        assert np.array_equal(squared, loop)
    rho = op_norm(r.block_d) * op_norm(dx)
    assert np.linalg.norm(squared - loop) <= series_rounding(k, first_term(r, n, dx), rho)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("mult", [1, 4])
@given(st.integers(0, 10_000), st.integers(0, 300))
@settings(max_examples=3, deadline=None)
def test_series_squared_at_bench_shapes(n, mult, seed, k):
    rng = rng_from_seed(seed)
    r = random_realization(rng, GRID, 2, 2, mult)
    dx = eval_poly_matrix(GRID, point_inside_gdelta(rng, GRID, n))
    loop, squared = realize._series(r, n, dx, k), realize._series_squared(r, n, dx, k)
    rho = op_norm(r.block_d) * op_norm(dx)
    assert np.linalg.norm(squared - loop) <= series_rounding(k, first_term(r, n, dx), rho)


@pytest.mark.parametrize("k", range(8))
def test_series_squared_sums_exactly_k_plus_one_terms(k):
    # x = shift / 2 at level 6 and a = 1/2: term j, a power of two times
    # s x^(j+1), fills superdiagonal j + 1 alone, so both sums are exact and
    # a term too many or too few changes them
    r = mobius(0.5)
    dx = 0.5 * np.eye(6, k=1, dtype=np.complex128)
    loop, squared = realize._series(r, 6, dx, k), realize._series_squared(r, 6, dx, k)
    assert np.array_equal(squared, loop)
    s = math.sqrt(0.75)
    want = sum((-0.5) ** j * s * np.linalg.matrix_power(dx, j + 1) for j in range(k + 1))
    assert np.array_equal(loop, want)


BENCH_KERNELS = [
    # (n, mult, k): the eval workload's classes on its 2-by-2 grid, K1 = 2
    ((1, 1, 33), realize._series_squared),
    ((1, 4, 109), realize._series_squared),
    ((2, 1, 109), realize._series_squared),
    ((2, 4, 33), realize._series_squared),
    ((8, 1, 33), realize._series_squared),
    ((8, 4, 54), realize._series_squared),
    ((32, 1, 54), realize._series_squared),
    ((32, 4, 54), realize._series),
]


@pytest.mark.parametrize("shape, kernel", BENCH_KERNELS)
def test_neumann_kernel_at_the_eval_classes(shape, kernel):
    n, mult, k = shape
    assert realize._neumann_kernel(n, mult, 2, 2, 2, k) is kernel


def test_neumann_kernel_switches_with_the_term_count():
    # the Mobius classes (1-by-1 grid, K1 = 1), and no squaring for one term
    assert realize._neumann_kernel(1, 1, 1, 1, 1, 14) is realize._series_squared
    assert realize._neumann_kernel(2, 1, 1, 1, 1, 33) is realize._series_squared
    assert realize._neumann_kernel(1, 1, 1, 1, 1, 0) is realize._series
    # level 32, mult 4 keeps the loop to about 150 terms
    picks = [realize._neumann_kernel(32, 4, 2, 2, 2, k) for k in range(1, 1000)]
    first = picks.index(realize._series_squared)
    assert 100 <= first + 1 < 300
    assert set(picks[first:]) == {realize._series_squared}
    assert set(picks[:first]) == {realize._series}


@pytest.mark.parametrize("a, x", [
    (0.999, GradedPoint.scalars([0.9998])),
    (0.999j, GradedPoint([0.9998 * random_unitary(rng_from_seed(12), 2)])),
])
def test_neumann_near_the_term_cap(a, x):
    # 157,698 terms: the loop would take over a second at level 1,
    # binary powering 17 squarings
    r = mobius(a)
    res = eval_neumann(r, x, tol=1e-10)
    assert 150_000 <= res.k <= NEUMANN_TERM_CAP
    assert res.bound <= 1e-10
    # M = -conj(a) x, x0 = (1 - |a|^2)^(1/2) x
    rho = abs(a) * op_norm(x.mats[0])
    x0 = math.sqrt(1.0 - abs(a) ** 2) * x.mats[0]
    direct = eval_direct(r, x)
    assert op_norm(res.value - direct) <= res.bound + series_rounding(res.k, x0, rho)
    m = x.mats[0]
    exact = (a * np.eye(x.n) + m) @ np.linalg.inv(np.eye(x.n) + np.conj(a) * m)
    assert op_norm(res.value - exact) <= res.bound + series_rounding(res.k, x0, rho)


UNIT = 2.0**-53


def point_at_radius(rng, delta, n, r0):
    """A point of level n inside the domain, scaled by bisection so that
    ``||delta(x)|| = r0`` to rounding."""
    x = point_inside_gdelta(rng, delta, n)

    def radius(s):
        return op_norm(eval_poly_matrix(delta, GradedPoint([s * m for m in x.mats])))

    lo, hi = 0.0, 1.0
    while radius(hi) < r0:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) < r0 else (lo, mid)
    return GradedPoint([lo * m for m in x.mats])


def helper_terms(r, n, dx):
    """The Neumann terms x0, M x0, M^2 x0, ..., composed from the library
    helpers as :func:`series_by_helpers` composes them."""
    c_tilde = kron_left_identity_apply(n, r.block_c, np.eye(n * r.dim_k1))
    term = promoted_apply(dx, n, r.mult, c_tilde)
    while True:
        yield term
        term = promoted_apply(dx, n, r.mult, kron_left_identity_apply(n, r.block_d, term))


def summed_prefix(r, n, dx, k, stopped):
    """The smallest J <= k whose sum of terms 0..J, added in order as the
    loop adds them, is bitwise ``stopped``. Fails when ``stopped`` is no
    such prefix."""
    terms = helper_terms(r, n, dx)
    total = next(terms).copy()
    for j, term in zip(range(k + 1), terms):
        if np.array_equal(total, stopped):
            return j
        if np.any(term):
            total += term
    raise AssertionError("the stopped sum is no prefix sum of the terms")


def check_stopped_series(r, x, tol):
    """The loop's a posteriori stop at ``x``: a prefix of the terms, within
    u ||S|| plus rounding of the full sum, and ``eval_neumann`` with the a
    priori k and bound, within its bound of ``eval_direct``."""
    n = x.n
    [(_, dxs, [m])] = require_inside(r.delta, [x])
    q, dx = m.norm, dxs[0]
    k = tail_order(q, tol, NEUMANN_TERM_CAP)
    stopped = realize._series(r, n, dx, k, q)
    j = summed_prefix(r, n, dx, k, stopped)
    assert np.array_equal(realize._series(r, n, dx, j), stopped)
    full = realize._series(r, n, dx, k)
    rho = op_norm(r.block_d) * op_norm(dx)
    x0 = first_term(r, n, dx)
    gap = np.linalg.norm(stopped - full)
    assert gap <= UNIT * np.linalg.norm(stopped) + series_rounding(k, x0, rho)
    res = eval_neumann(r, x, tol=tol)
    assert (res.k, res.bound) == (k, geometric_tail(q, k))
    assert op_norm(res.value - eval_direct(r, x)) <= res.bound + 1e-12
    if realize._neumann_kernel(n, r.mult, r.delta.rows, r.delta.cols, r.dim_k1, k) is realize._series:
        assert np.array_equal(res.value, realize._value(r, n, stopped))


@pytest.mark.parametrize("n", [16, 32])
@given(st.integers(0, 10_000), st.floats(0.3, 0.95), st.sampled_from([1e-6, 1e-10, 1e-14]))
@settings(max_examples=3, deadline=None)
def test_stopped_series_at_bench_shapes(n, seed, r0, tol):
    rng = rng_from_seed(seed)
    r = random_realization(rng, GRID, 2, 2, 4)
    check_stopped_series(r, point_at_radius(rng, GRID, n, r0), tol)


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 3)]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.floats(0.3, 0.95),
    st.sampled_from([1e-6, 1e-10, 1e-14]),
)
@settings(max_examples=40, deadline=None)
def test_stopped_series_is_a_prefix_within_bound(seed, grid, mult, n, r0, tol):
    # eval_neumann runs squaring at these shapes, so the loop's stop is
    # reached by calling _series with the ratio directly
    rng = rng_from_seed(seed)
    r = random_rect_realization(rng, *grid, 1 + seed % 2, 1, mult)
    check_stopped_series(r, point_at_radius(rng, r.delta, n, r0), tol)


@pytest.mark.parametrize("grid", [(1, 2), (2, 3)])
@pytest.mark.parametrize("mult", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_stopped_series_keeps_the_early_stop_bytes(grid, mult, n):
    # the D = 0 and nilpotent cases of the early-stop test, with the ratio
    rng = rng_from_seed(100 * grid[0] + 10 * mult + n)
    shape = (n * grid[0], n * grid[1])
    dx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dx *= 0.9 / op_norm(dx)
    for keep in ((), (0,)):
        r = d_rows_on(rng, grid, 1, mult, keep)
        if keep:
            dx[:, :n] = 0.0
        want, summed = series_by_helpers(r, n, dx, 40)
        assert summed == 1
        stopped = realize._series(r, n, dx, 40, op_norm(dx))
        assert stopped.tobytes() == realize._series(r, n, dx, 40).tobytes() == want.tobytes()


def bench_class_point(seed):
    """A Haar-random level-32, mult-4 realization on GRID and a point at
    r0 = 0.65, the eval workload's slowest class."""
    rng = rng_from_seed(seed)
    r = random_realization(rng, GRID, 2, 2, 4)
    return r, point_at_radius(rng, GRID, 32, 0.65)


class CountingNumpy:
    """numpy with its ``matmul`` calls counted."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


def loop_steps(monkeypatch, call):
    """``(call(), steps)``: the steps of the term loop that ``call`` ran,
    counted by realize's ``np.matmul`` calls, two per step. A loop that
    stops at step s leaves term s out and has summed s terms."""
    counting = CountingNumpy()
    monkeypatch.setattr(realize, "np", counting)
    try:
        out = call()
    finally:
        monkeypatch.undo()
    return out, counting.matmuls // 2


def test_stopped_series_stops_on_the_bound_side(monkeypatch):
    # at tol 1e-20 the bound lies under u ||S||, so the bound decides the stop:
    # the loop drops the first term t under (1 - q) bound and adds the one before
    r, x = bench_class_point(3)
    [(_, dxs, [m])] = require_inside(r.delta, [x])
    q, dx = m.norm, dxs[0]
    k = tail_order(q, 1e-20, NEUMANN_TERM_CAP)
    bound = geometric_tail(q, k)
    assert realize._neumann_kernel(32, 4, 2, 2, 2, k) is realize._series
    stopped, steps = loop_steps(monkeypatch, lambda: realize._series(r, 32, dx, k, q))
    assert steps < k and bound < UNIT * np.linalg.norm(stopped)
    assert np.array_equal(stopped, realize._series(r, 32, dx, steps - 1))
    terms = list(itertools.islice(helper_terms(r, 32, dx), steps + 1))
    dropped, last = np.linalg.norm(terms[steps]), np.linalg.norm(terms[steps - 1])
    assert dropped <= (1.0 - q) * bound * (1.0 + 1e-9) and last > (1.0 - q) * bound * (1.0 - 1e-9)
    res = eval_neumann(r, x, tol=1e-20)
    assert (res.k, res.bound) == (k, bound)
    assert np.array_equal(res.value, realize._value(r, 32, stopped))
    assert op_norm(res.value - eval_direct(r, x)) <= res.bound + 1e-12


def test_stopped_series_sums_fewer_terms_than_the_a_priori_order(monkeypatch):
    r, x = bench_class_point(7)
    check_stopped_series(r, x, 1e-10)
    res, steps = loop_steps(monkeypatch, lambda: eval_neumann(r, x, tol=1e-10))
    # the full loop sums k + 1 = 55 terms
    assert res.k == 54 and steps < res.k
    [(_, dxs, _)] = require_inside(r.delta, [x])
    summed = realize._series(r, 32, dxs[0], steps - 1)
    assert np.array_equal(res.value, realize._value(r, 32, summed))
    # the term left out would still have moved some bits of the sum
    assert not np.array_equal(realize._series(r, 32, dxs[0], steps), summed)


def pad_psi_rows(psi, n, k1, extra):
    """Append ``extra`` zero rows to every level block of a psi value."""
    w = psi.shape[1]
    out = np.zeros((n, k1 + extra, w), dtype=np.complex128)
    out[:, :k1] = psi.reshape(n, k1, w)
    return out.reshape(n * (k1 + extra), w)


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
    st.integers(1, 3),
    st.sampled_from([-2, -1, 1, 2]),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_fit_recovers_structured_realization(seed, grid, k1, offset, mult, explicit, padded):
    rng = rng_from_seed(seed)
    truth = random_rect_realization(rng, *grid, k1, offset, mult)
    k2 = truth.dim_k2
    h = int(rng.choice([v for v in (1, 2, 3) if v != k1])) if explicit else k1

    def column(n):
        return random_column_data(rng, n, k1, h) if explicit else np.eye(n * k1)

    levels = [1, 2, 3] * 4
    pts = [point_inside_gdelta(rng, truth.delta, n) for n in levels]
    s = model_from_realization(truth, pts, psi=[column(n) for n in levels])
    # zero rows in psi widen the fit's domain past the codomain (k1 > k2),
    # which only a padded grid can host
    extra = max(k2 - k1, k2 + mult * (grid[1] - grid[0]) - k1) + 1 if padded else 0
    if padded:
        s = ModelSampleSet(
            s.delta, s.points,
            [pad_psi_rows(v, x.n, k1, extra) for v, x in zip(s.psi, s.points)],
            s.phi, s.u, s.h_dim, k1 + extra, k2, mult,
        )
    fit = fit_lurking_isometry(s, holdout=False)
    assert fit.gram_deviation <= 1e-9
    assert fit.train_residual <= 1e-9
    assert (fit.padded_cols > 0) == padded
    for n in (1, 2, 3):
        x = point_inside_gdelta(rng, truth.delta, n)
        psi = column(n)
        got = eval_direct(fit.realization, x) @ pad_psi_rows(psi, n, k1, extra)
        np.testing.assert_allclose(got, eval_direct(truth, x) @ psi, rtol=0, atol=1e-6)


# -- the fit's Gram gate against a dense reference ------------------------------


def dense_panels(s, indices):
    """The fit's P and Q over the sample points ``indices``, one level-block
    row at a time. Zero rows for padded grid columns would change no Gram
    matrix, so none are added."""
    p, q = [], []
    for i in indices:
        blocks = [np.split(v, s.points[i].n) for v in (s.psi[i], s.delta_u[i], s.phi[i], s.u[i])]
        for psi_k, du_k, phi_k, u_k in zip(*blocks):
            p.append(np.vstack([psi_k, du_k]))
            q.append(np.vstack([phi_k, u_k]))
    return np.hstack(p), np.hstack(q)


def takes_qr_path(p, q):
    return p.shape[1] >= realize._QR_WIDTH * (p.shape[0] + q.shape[0])


def with_phi(s, phi):
    return ModelSampleSet(
        s.delta, s.points, s.psi, phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult
    )


def dense_fit_j1(p, q, rank_rtol=1e-8):
    """J1 from the SVD of the dense P, completed as the fit completes it."""
    u, sing, v_h = np.linalg.svd(p, full_matrices=False)
    rank = int(np.sum(sing >= rank_rtol * sing[0]))
    wy, _, vyh = np.linalg.svd(q @ v_h[:rank].conj().T / sing[:rank], full_matrices=False)
    dom = p.shape[0]
    return complete_to_isometry(wy @ vyh, dom) @ complete_to_isometry(u[:, :rank], dom).conj().T


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(1, 2),
    st.sampled_from([-1, 1, 2]),
    st.integers(1, 2),
    st.booleans(),
    st.sampled_from([0.0, 1e-9, 1e-4, 0.1, 10.0]),
)
@settings(max_examples=25, deadline=None)
def test_gram_deviation_is_the_dense_frobenius_norm(seed, grid, k1, offset, mult, wide, moved):
    rng = rng_from_seed(seed)
    truth = random_rect_realization(rng, *grid, k1, offset, mult)
    # with psi = I a level-n point gives n * n * k1 columns; narrow sets stay
    # below the width rule, wide ones reach it
    target = realize._QR_WIDTH * (k1 + truth.dim_k2 + mult * sum(grid))
    levels, cols = [], 0
    while len(levels) < 100:
        n = 1 + len(levels) % 3
        if cols >= target if wide else levels and cols + n * n * k1 >= target:
            break
        levels.append(n)
        cols += n * n * k1
    s = model_from_realization(truth, [point_inside_gdelta(rng, truth.delta, n) for n in levels])
    phi = list(s.phi)
    j = int(rng.integers(len(phi)))
    phi[j] = phi[j] + moved * rng.standard_normal(phi[j].shape)
    s = with_phi(s, phi)

    try:
        deviation = fit_lurking_isometry(s, holdout=False).gram_deviation
    except GramMismatch as e:
        deviation = e.deviation
    p, q = dense_panels(s, range(len(s)))
    assert takes_qr_path(p, q) == wide
    diff = p.conj().T @ p - q.conj().T @ q
    # Householder QR and each Gram product err by at most about
    # D eps ||M||_F^2, M = [P; Q] with D rows (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 3.5 and thm. 19.4)
    rows = p.shape[0] + q.shape[0]
    slack = 4 * rows * np.finfo(float).eps * (np.linalg.norm(p) ** 2 + np.linalg.norm(q) ** 2)
    assert abs(deviation - np.linalg.norm(diff)) <= slack
    # never below the entrywise deviation, so GramMismatch fires at least as often
    assert deviation >= np.max(np.abs(diff)) - slack


FIT_GRID = PolyMatrix(
    [
        [0.5 * FreePoly.letter(2, 1), 0.5 * FreePoly.letter(2, 2)],
        [0.3 * FreePoly.letter(2, 2), 0.3 * FreePoly.letter(2, 1) * FreePoly.letter(2, 2)],
    ]
)


@pytest.fixture(scope="module")
def wide_fit_set():
    """120 points at levels 1-4, mult 2: [P; Q] is 12 x 1,440 after the holdout."""
    rng = rng_from_seed(7)
    truth = random_realization(rng, FIT_GRID, 2, 2, 2)
    pts = [point_inside_gdelta(rng, FIT_GRID, 1 + i % 4) for i in range(120)]
    return truth, model_from_realization(truth, pts)


def test_qr_path_matches_the_dense_fit(wide_fit_set):
    truth, s = wide_fit_set
    fit = fit_lurking_isometry(s)
    p, q = dense_panels(s, [i for i in range(len(s)) if i not in fit.holdout_indices])
    assert takes_qr_path(p, q)
    sing = np.linalg.svd(p, compute_uv=False)
    assert fit.rank == int(np.sum(sing >= 1e-8 * sing[0]))
    assert np.max(np.abs(fit.realization.j1 - dense_fit_j1(p, q))) <= 1e-12
    rng = rng_from_seed(8)
    for n in (1, 2, 3):
        x = point_inside_gdelta(rng, FIT_GRID, n)
        np.testing.assert_allclose(
            eval_direct(fit.realization, x), eval_direct(truth, x), rtol=0, atol=1e-9
        )


def test_qr_path_rejects_a_moved_q_entry(wide_fit_set):
    _, s = wide_fit_set
    phi = [v.copy() for v in s.phi]
    phi[2][0, 0] += 0.1
    bad = with_phi(s, phi)
    with pytest.raises(GramMismatch) as ei:
        fit_lurking_isometry(bad)
    p, q = dense_panels(bad, [i for i in range(len(bad)) if i % 5 != 4])
    assert takes_qr_path(p, q)
    assert ei.value.deviation >= np.max(np.abs(p.conj().T @ p - q.conj().T @ q))


# three points stay below the width rule, twelve (56 columns, 4 rows) reach it
NARROW_AND_WIDE = [[1, 1, 2], [1, 2, 3] * 4]


@pytest.mark.parametrize("levels", NARROW_AND_WIDE)
@pytest.mark.parametrize("value", [1e200, math.nan])
def test_non_finite_gram_deviation_on_both_paths(levels, value):
    # a finite 1e200 overflows the Gram: inf; NaN data: NaN
    s = model_from_realization(mobius(0.3), disk_points(12, levels))
    phi = [v.copy() for v in s.phi]
    phi[0][0, 0] = value
    with np.errstate(all="ignore"), pytest.raises(GramMismatch) as ei:
        fit_lurking_isometry(with_phi(s, phi), holdout=False)
    assert takes_qr_path(*dense_panels(s, range(len(s)))) == (len(levels) > 3)
    deviation = ei.value.deviation
    assert math.isnan(deviation) if math.isnan(value) else deviation == math.inf


@pytest.mark.parametrize("levels", NARROW_AND_WIDE)
def test_huge_data_keep_a_finite_gram_deviation(levels):
    # the Frobenius norm squares the Gram difference's entries, about
    # eps c^2 here, which overflows unless they are scaled down first
    s = model_from_realization(mobius(0.3), disk_points(13, levels))
    c = 2.0**330
    big = ModelSampleSet(
        s.delta, s.points, [c * v for v in s.psi], [c * v for v in s.phi],
        [c * v for v in s.u], s.h_dim, s.k1_dim, s.k2_dim, s.mult,
    )
    fit = fit_lurking_isometry(big, holdout=False)
    assert fit.gram_deviation <= 1e-12 * c * c
    np.testing.assert_allclose(
        fit.realization.j1, fit_lurking_isometry(s, holdout=False).realization.j1,
        rtol=0, atol=1e-12,
    )


# -- level-stacked resolvent solves ----------------------------------------------


def one_point_solve(r, n, dx):
    """Reference ``(Omega(x), v(x))`` at one point: the one-point kernel as a
    ``tensordot`` with D's blocks, one LU solve and the helper products."""
    mult, rows, cols = r.mult, r.delta.rows, r.delta.cols
    d3 = r.block_d.reshape(mult * cols, mult, rows)
    t = np.tensordot(d3, dx.reshape(rows, n, cols, n), axes=([2], [0]))
    size = n * mult * cols
    d_delta = t.transpose(2, 0, 4, 1, 3).reshape(size, size)
    c_tilde = kron_left_identity_apply(n, r.block_c, np.eye(n * r.dim_k1))
    v = np.linalg.solve(np.eye(size) - d_delta, c_tilde)
    w = promoted_apply(dx, n, mult, v)
    a_tilde = kron_left_identity_apply(n, r.block_a, np.eye(n * r.dim_k1))
    return a_tilde + kron_left_identity_apply(n, r.block_b, w), v


def widened(dx, n, cols):
    """``dx`` with zero columns up to a level-n grid of ``cols`` columns."""
    out = np.zeros((dx.shape[0], n * cols), dtype=np.complex128)
    out[:, : dx.shape[1]] = dx
    return out


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
    st.integers(1, 2),
    st.sampled_from([-1, 1, 2]),
    st.integers(1, 3),
    st.integers(0, 2),
    st.lists(st.integers(1, 4), min_size=1, max_size=9),
)
@settings(max_examples=40, deadline=None)
def test_stacked_solve_members_equal_one_point_solves(seed, grid, k1, offset, mult, pad, levels):
    # a grid padded with zero columns takes the narrower delta(x) of the
    # unpadded one, as a fit's holdout does
    rng = rng_from_seed(seed)
    base = random_rect_realization(rng, *grid, k1, offset, mult)
    delta = delta_pad_columns(base.delta, pad)
    j1 = haar_isometry(rng, base.dim_k2 + mult * delta.cols, k1 + mult * delta.rows)
    r = Realization(delta, k1, base.dim_k2, mult, j1)
    pts = [point_inside_gdelta(rng, base.delta, n) for n in levels]
    found = require_inside(base.delta, pts)
    dxs = per_point(found)
    want = [one_point_solve(r, x.n, widened(dx, x.n, delta.cols)) for x, dx in zip(pts, dxs)]
    seen = []
    for idx, stack, _ in found:
        n = pts[idx[0]].n
        for part, omega, v in realize._stack_solves(r, n, stack):
            chunk = idx[part]
            assert {levels[i] for i in chunk} == {n}
            for j, i in enumerate(chunk):
                assert np.array_equal(omega[j], want[i][0]) and np.array_equal(v[j], want[i][1])
            seen += chunk
    assert sorted(seen) == list(range(len(pts)))
    if pad == 0:
        for x, (omega, v) in zip(pts, want):
            assert np.array_equal(eval_direct(r, x), omega)
            assert np.array_equal(solved(r, x)[1], v)


def reference_max_gap(r, s, indices):
    """``max ||Omega(x) psi(x) - phi(x)||`` solved and normed point by point."""
    gaps = []
    for i in indices:
        n = s.points[i].n
        omega = one_point_solve(r, n, widened(s.delta_x[i], n, r.delta.cols))[0]
        gaps.append(op_norm(omega @ s.psi[i] - s.phi[i]))
    return max(gaps)


def test_max_gap_equals_a_per_point_loop(wide_fit_set):
    _, s = wide_fit_set
    fit = fit_lurking_isometry(s)
    r = fit.realization
    assert realize._max_gap(r, s, fit.holdout_indices) == reference_max_gap(r, s, fit.holdout_indices)
    everywhere = range(len(s))
    assert realize._max_gap(r, s, everywhere) == reference_max_gap(r, s, everywhere)
    # the corona's gap runs on a padded grid over points of mixed levels
    pts, psis, eps, us, mult = corona_inputs(15, [2, 1, 3, 1, 2, 1])
    sol = corona_solve(UNIT_DISK, pts, psis, eps, us, mult)
    assert sol.fit.padded_cols > 0
    sample = ModelSampleSet(
        UNIT_DISK, pts, [stack_column(col) for col in zip(*psis)],
        [eps * np.eye(x.n) for x in pts], us, 1, len(psis), 1, mult,
    )
    assert sol.identity_residual == reference_max_gap(sol.omega, sample, range(len(pts))) / eps


def level_chunks(levels, r):
    """How many stacked solves ``_stack_solves`` makes over these levels' stacks."""
    count = 0
    for n in set(levels):
        size = n * r.mult * r.delta.cols
        step = max(1, realize._SOLVE_BYTES // (16 * size * size))
        count += -(-levels.count(n) // step)
    return count


@pytest.mark.parametrize("budget", [None, 3 * 16 * 16 * 16])
def test_one_solve_per_level_chunk(wide_fit_set, monkeypatch, budget):
    # with a budget of three level-4 resolvent matrices, level 4 takes chunks
    truth, s = wide_fit_set
    if budget is not None:
        monkeypatch.setattr(realize, "_SOLVE_BYTES", budget)
    fit = fit_lurking_isometry(s)
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    held = [s.points[i].n for i in fit.holdout_indices]
    realize._max_gap(fit.realization, s, fit.holdout_indices)
    assert len(calls) == level_chunks(held, fit.realization) < len(held)
    calls.clear()
    levels = [x.n for x in s.points]
    again = model_from_realization(truth, s.points)
    assert len(calls) == level_chunks(levels, truth) < len(levels)
    assert sum(calls) == len(levels)
    for a, b in zip(again.u + again.phi, s.u + s.phi):
        assert np.array_equal(a, b)


# -- the resolvent assembled in scratch ------------------------------------------


def subtracted_solve(r, n, dxs):
    """``_solve`` with the resolvent formed as ``np.eye(size) - D~Delta``:
    the identity, the difference and the reshaped copy made anew per call."""
    mult, rows, cols = r.mult, r.delta.rows, r.delta.cols
    size = n * mult * cols
    d2 = r.block_d.reshape(mult * cols * mult, rows)
    t = np.empty((len(dxs), mult * cols, mult, n, cols, n), dtype=np.complex128)
    for dx, out in zip(dxs, t):
        np.dot(d2, dx.reshape(rows, n * cols * n), out=out.reshape(d2.shape[0], -1))
    d_delta = t.transpose(0, 3, 1, 5, 2, 4)
    c_tilde = kron_left_identity_apply(n, r.block_c, np.eye(n * r.dim_k1))
    v = np.linalg.solve(np.eye(size) - d_delta.reshape(-1, size, size), c_tilde)
    return realize._value(r, n, promoted_apply(dxs, n, mult, v)), v


def solve_case(seed, grid, n, mult, p):
    """A realization and a ``(p, n*I, n*J)`` stack of delta(x) for ``_solve``.

    ``"rect"`` is a 2-by-3 grid, ``"one-row"`` a 1-by-2 grid (``np.dot``
    takes its rank-1 path), ``"padded"`` a 2-by-2 grid padded with a zero
    column, fed the narrower delta(x) widened by zeros as a fit's holdout is.
    """
    rng = rng_from_seed(seed)
    shape = {"rect": (2, 3), "one-row": (1, 2), "padded": (2, 2)}[grid]
    base = random_rect_realization(rng, *shape, 1, 1, mult)
    r = base
    if grid == "padded":
        delta = delta_pad_columns(base.delta, 1)
        j1 = haar_isometry(rng, base.dim_k2 + mult * delta.cols, 1 + mult * delta.rows)
        r = Realization(delta, 1, base.dim_k2, mult, j1)
    pts = [point_inside_gdelta(rng, base.delta, n) for _ in range(p)]
    [(_, stack, _)] = require_inside(base.delta, pts)
    dxs = [widened(dx, n, r.delta.cols) for dx in stack]
    return r, np.array(dxs)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("mult", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 8, 32])
@pytest.mark.parametrize("grid", ["rect", "one-row", "padded"])
def test_solve_equals_the_subtracted_resolvent(grid, n, mult, p):
    # -x and 0 - x differ only in the sign of a zero, which + 0 folds
    r, dxs = solve_case(n + 10 * mult + 100 * p, grid, n, mult, p)
    got, want = realize._solve(r, n, dxs), subtracted_solve(r, n, dxs)
    for a, b in zip(got, want):
        assert a.shape == b.shape and (a + 0).tobytes() == (b + 0).tobytes()


def test_solve_returns_no_view_of_the_scratch():
    r, dxs = solve_case(1, "rect", 8, 4, 3)
    omega, v = realize._solve(r, 8, dxs)
    kept = mat._held.buf
    assert not np.shares_memory(omega, kept) and not np.shares_memory(v, kept)
    held = omega.copy(), v.copy()
    # another shape reuses the same scratch
    other, odxs = solve_case(2, "one-row", 2, 1, 3)
    realize._solve(other, 2, odxs)
    assert mat._held.buf is kept
    assert omega.tobytes() == held[0].tobytes() and v.tobytes() == held[1].tobytes()


def test_concurrent_eval_direct_gives_the_one_thread_bits():
    # more threads than cores, at points of one shape, so that a shared
    # buffer would be written by one thread while another assembles or
    # solves in it
    rng = rng_from_seed(3)
    r = random_rect_realization(rng, 2, 2, 1, 1, 4)
    points = [point_inside_gdelta(rng, r.delta, 16) for _ in range(4)]
    want = [eval_direct(r, x).tobytes() for x in points]
    start = threading.Barrier(len(points), timeout=60)
    seen = [[] for _ in points]

    def run(k):
        start.wait()
        for _ in range(25):
            seen[k].append(eval_direct(r, points[k]).tobytes())

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert seen == [[value] * 25 for value in want]


def test_scratch_keeps_no_request_above_its_cap():
    cap = 2 * realize._SOLVE_BYTES // 16
    kept = mat.scratch(cap)
    big = mat.scratch(cap + 1)
    assert len(big) == cap + 1 and not np.shares_memory(big, kept)
    assert mat._held.buf is kept.base and len(kept.base) == cap
    # a solve whose two resolvent blocks pass the cap keeps the buffer too
    r, dxs = solve_case(4, "rect", 32, 4, 1)
    assert 2 * dxs.shape[0] * (32 * 4 * 3) ** 2 > cap
    realize._solve(r, 32, dxs)
    assert mat._held.buf is kept.base
    smaller = mat.scratch(cap // 2)
    assert smaller.base is kept.base and len(smaller) == cap // 2


# -- the corona's coercivity floor ------------------------------------------------


def floor_eigenvalues(psis, epsilon):
    """Smallest eigenvalue of ``psi*psi - epsilon^2`` at each point, one
    ``eigvalsh`` call per point."""
    lows = []
    for col in (stack_column(vals) for vals in zip(*psis)):
        g = col.conj().T @ col - epsilon * epsilon * np.eye(col.shape[1])
        lows.append(float(np.linalg.eigvalsh((g + g.conj().T) / 2.0)[0]))
    return lows


def test_corona_floor_names_the_first_failing_point():
    # points 2 (level 2) and 3 (level 1) fall under the floor; level 2 is
    # stacked first, level 1 holds the earliest points
    pts, psis, eps, us, mult = corona_inputs(16, [2, 1, 2, 1, 3])
    psis = [[0.05 * v if s in (2, 3) else v for s, v in enumerate(row)] for row in psis]
    lows = floor_eigenvalues(psis, eps)
    assert [low < 0 for low in lows] == [False, False, True, True, False]
    with pytest.raises(BelowFloor) as ei:
        corona_solve(UNIT_DISK, pts, psis, eps, us, mult)
    assert str(ei.value) == f"psi*psi drops {-lows[2]:.3e} under epsilon^2 at point 2"


def test_corona_floor_reads_each_eigenvalue_bitwise():
    # at a slack of exactly -min(low) the floor holds (and the fit then
    # refuses the data, which model another epsilon); one ulp less fails
    pts, psis, eps, us, mult = corona_inputs(17, [1, 2, 1, 3, 2])
    big = 1.2 * eps
    lows = floor_eigenvalues(psis, big)
    worst = int(np.argmin(lows))
    slack = -lows[worst]
    assert slack > 0
    with pytest.raises(GramMismatch):
        corona_solve(UNIT_DISK, pts, psis, big, us, mult, floor_slack=slack)
    with pytest.raises(BelowFloor) as ei:
        corona_solve(UNIT_DISK, pts, psis, big, us, mult, floor_slack=np.nextafter(slack, 0.0))
    first = next(s for s, low in enumerate(lows) if not low >= -np.nextafter(slack, 0.0))
    assert first == worst and str(ei.value).endswith(f"at point {worst}")


def test_corona_floor_overflow_names_its_point():
    pts, psis, eps, us, mult = corona_inputs(18, [1, 2, 1])
    psis = [[1e200 * v if s == 2 else v for s, v in enumerate(row)] for row in psis]
    with np.errstate(all="ignore"), pytest.raises(BelowFloor) as ei:
        corona_solve(UNIT_DISK, pts, psis, eps, us, mult)
    assert str(ei.value) == "psi*psi drops nan under epsilon^2 at point 2"


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(1, 2),
    st.lists(st.integers(1, 3), min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_eval_direct_points_is_eval_direct_at_each_point(seed, grid, mult, levels):
    # points near the unit shell, some outside: each value bitwise the
    # one-point solve's, each OutsideDomain with its text
    rng = np.random.default_rng(seed)
    r = random_rect_realization(rng, *grid, 1, 1, mult)
    points = [point_inside_gdelta(rng, r.delta, n, scale=2.0) for n in levels]
    points = [GradedPoint([m * (1.0 + rng.uniform(0, 0.5) * (i % 2)) for m in x.mats])
              for i, x in enumerate(points)]
    got = realize.eval_direct_points(r, points)
    for x, value in zip(points, got):
        try:
            want = eval_direct(r, x)
        except OutsideDomain as exc:
            assert type(value) is OutsideDomain and str(value) == str(exc)
            continue
        assert value.tobytes() == want.tobytes()
