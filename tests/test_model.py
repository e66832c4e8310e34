import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    corona_inputs,
    count_grid_evaluations,
    per_point,
    random_column_data,
    random_graded,
    random_grid,
    random_rect_realization,
)
from freeholo import freepoly, model, ncpoint, realize
from freeholo.errors import OutsideDomain, ShapeMismatch
from freeholo.freepoly import FreePoly, GradedPoint, PolyMatrix, eval_poly_matrix_promoted
from freeholo.jsonio import decode
from freeholo.mat import op_norm
from freeholo.model import (
    ModelSampleSet,
    diagonal_floor,
    model_from_realization,
    model_residual,
)
from freeholo.realize import Realization
from freeholo.sampling import point_inside_gdelta, rng_from_seed

UNIT_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1))


def mobius(a):
    s = np.sqrt(1.0 - abs(a) ** 2)
    j1 = np.array([[a, s], [s, -np.conj(a)]], dtype=complex)
    return Realization(UNIT_DISK, 1, 1, 1, j1)


def disk_points(seeds, levels):
    pts = []
    for seed, n in zip(seeds, levels):
        rng = np.random.default_rng(seed)
        while True:
            m = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            if np.linalg.norm(m, 2) < 0.85:
                break
        pts.append(GradedPoint([m]))
    return pts


def test_model_from_realization_residual_is_tiny():
    r = mobius(0.4 + 0.1j)
    pts = disk_points(range(6), [1, 1, 2, 2, 3, 1])
    s = model_from_realization(r, pts)
    assert model_residual(s) < 1e-12
    assert s.h_dim == 1 and s.k1_dim == 1 and s.k2_dim == 1 and s.mult == 1


def test_model_residual_detects_corruption():
    r = mobius(0.3)
    pts = disk_points(range(10, 14), [1, 2, 2, 1])
    s = model_from_realization(r, pts)
    bad_phi = list(s.phi)
    bad_phi[1] = bad_phi[1] + 0.05
    bad = ModelSampleSet(
        s.delta, s.points, s.psi, bad_phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult
    )
    assert model_residual(bad) > 1e-3


def test_diagonal_floor_nonnegative_for_contractions():
    # with psi = I and phi = Omega contractive, psi*psi - phi*phi >= 0
    r = mobius(0.25 - 0.35j)
    pts = disk_points(range(20, 25), [1, 2, 3, 1, 2])
    s = model_from_realization(r, pts)
    assert diagonal_floor(s) >= -1e-10
    assert diagonal_floor(s) <= 1.0 + 1e-12


def test_membership_enforced_on_construction():
    r = mobius(0.2)
    outside = GradedPoint.scalars([1.5])
    with pytest.raises(OutsideDomain):
        model_from_realization(r, [outside])


def test_first_outside_point_is_named_in_point_order():
    # levels 2, 1, 2, 1 with points 1 and 2 outside: the membership kernel
    # takes level 2 first, yet point 1 (level 1, norm 2) is the one named
    r = mobius(0.2)
    pts = [
        GradedPoint([0.3 * np.eye(2)]),
        GradedPoint.scalars([2.0]),
        GradedPoint([3.0 * np.eye(2)]),
        GradedPoint.scalars([0.4]),
    ]
    named = r"^point at level 1 is outside: \|\|delta\(x\)\|\| = 2\.000000000$"
    with pytest.raises(OutsideDomain, match=named):
        model_from_realization(r, pts)


def test_explicit_psi_count_must_match_points():
    # with no points, psi=[eye] used to end in IndexError at points[0]
    r = mobius(0.1)
    pts = disk_points([40, 41], [1, 1])
    for points, psi in (([], [np.eye(1)]), (pts, [np.eye(1)]), (pts[:1], [np.eye(1)] * 2)):
        with pytest.raises(ShapeMismatch, match="must have equal lengths"):
            model_from_realization(r, points, psi=psi)


def test_shape_validation():
    r = mobius(0.1)
    pts = disk_points([40, 41], [1, 1])
    s = model_from_realization(r, pts)
    with pytest.raises(ShapeMismatch):
        ModelSampleSet(
            s.delta,
            s.points,
            [v[:, :0] for v in s.psi],  # wrong column count
            s.phi,
            s.u,
            s.h_dim,
            s.k1_dim,
            s.k2_dim,
            s.mult,
        )


def test_promoted_delta_shape():
    r = mobius(0.3)
    pts = disk_points([60], [3])
    s = model_from_realization(r, pts)
    promoted = eval_poly_matrix_promoted(s.delta, s.points[0], s.mult)
    assert promoted.shape == (3, 3)
    np.testing.assert_allclose(promoted, pts[0].mats[0], atol=1e-14)


def test_json_roundtrip():
    r = mobius(0.15 + 0.2j)
    pts = disk_points(range(70, 73), [1, 2, 2])
    s = model_from_realization(r, pts)
    again = decode("modelsamples", s.to_json())
    assert model_residual(again) < 1e-12
    assert len(again) == len(s)
    for a, b in zip(again.u, s.u):
        np.testing.assert_allclose(a, b, atol=1e-15)


def dense_model_residual(s):
    """The same-level pair loop with the dense promoted Delta of every sample."""
    deltas = [eval_poly_matrix_promoted(s.delta, x, s.mult) for x in s.points]
    worst = 0.0
    for i in range(len(s)):
        for j in range(len(s)):
            if s.points[i].n != s.points[j].n:
                continue
            lhs = s.psi[i].conj().T @ s.psi[j] - s.phi[i].conj().T @ s.phi[j]
            du_i = deltas[i] @ s.u[i]
            du_j = deltas[j] @ s.u[j]
            rhs = s.u[i].conj().T @ s.u[j] - du_i.conj().T @ du_j
            worst = max(worst, op_norm(lhs - rhs))
    return worst


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
    st.integers(1, 3),
    st.sampled_from([-2, -1, 1, 2]),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_model_residual_matches_dense_pair_loop(seed, grid, k1, offset, mult, explicit, corrupt):
    rng = rng_from_seed(seed)
    r = random_rect_realization(rng, *grid, k1, offset, mult)
    levels = [1, 2, 3] + [int(n) for n in rng.integers(1, 4, size=4)]
    pts = [point_inside_gdelta(rng, r.delta, n) for n in levels]
    psi = None
    if explicit:
        h = int(rng.choice([v for v in (1, 2, 3) if v != k1]))
        psi = [random_column_data(rng, n, k1, h) for n in levels]
    s = model_from_realization(r, pts, psi=psi)
    if corrupt:
        u = list(s.u)
        k = int(rng.integers(len(u)))
        u[k] = u[k] + rng.standard_normal(u[k].shape)
        s = ModelSampleSet(
            s.delta, s.points, s.psi, s.phi, u, s.h_dim, s.k1_dim, s.k2_dim, s.mult
        )
    want = dense_model_residual(s)
    got = model_residual(s)
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    if corrupt:
        assert want > 1e-3
    else:
        assert got < 1e-12


def band_events(monkeypatch):
    """Record each band formed, and the block counts of the stacks each
    ``max_op_norm`` call reads, in order."""
    events = []
    band, fold = model._band, model.mat.max_op_norm
    monkeypatch.setattr(model, "_band", lambda *a: events.append("form") or band(*a))

    def reading(stacks):
        stacks = list(stacks)
        events.append([len(stack) for stack in stacks])
        return fold(stacks)

    monkeypatch.setattr(model.mat, "max_op_norm", reading)
    return events


@pytest.mark.parametrize("seed", [3, 8])
def test_model_residual_in_bands_of_one_row_block(monkeypatch, seed):
    rng = rng_from_seed(seed)
    r = random_rect_realization(rng, 2, 3, 2, 1, 2)
    levels = [1, 2, 3, 2, 1, 3, 3, 2]
    s = model_from_realization(r, [point_inside_gdelta(rng, r.delta, n) for n in levels])
    u = list(s.u)
    u[5] = u[5] + rng.standard_normal(u[5].shape)
    s = ModelSampleSet(s.delta, s.points, s.psi, s.phi, u, s.h_dim, s.k1_dim, s.k2_dim, s.mult)
    events = band_events(monkeypatch)
    want = model_residual(s)
    assert want > 1e-3
    # one band per level; the kept blocks t >= s reach one screen as one
    # stack per level, levels in order of first appearance
    assert events == ["form"] * 3 + [[3, 6, 6]]
    events.clear()
    monkeypatch.setattr(model, "_BAND_BYTES", 1)
    got = model_residual(s)
    assert abs(got - want) <= 1e-12 * want
    assert abs(got - dense_model_residual(s)) <= 1e-12 * want
    # one band per row block, each level's bands still one stack
    assert events == ["form"] * len(levels) + [[3, 6, 6]]
    events.clear()
    # a hold of one band's blocks screens them before the region is reused
    monkeypatch.setattr(model, "_HELD_BYTES", 1)
    assert model_residual(s) == got
    reads = [e for e in events if e != "form"]
    assert events.count("form") == len(levels) and len(reads) > 1
    assert sum(map(sum, reads)) == 15


def test_model_residual_non_finite_is_inf():
    r = mobius(0.4)
    s = model_from_realization(r, disk_points(range(90, 94), [1, 2, 1, 2]))
    psi = list(s.psi)
    psi[0] = psi[0] * 1e200
    huge = ModelSampleSet(
        s.delta, s.points, psi, s.phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert model_residual(huge) == np.inf


def test_model_residual_failed_norm_is_inf(monkeypatch):
    # an SVD that fails gives a NaN norm, which must not be folded away
    s = model_from_realization(mobius(0.4), disk_points(range(90, 94), [1, 2, 1, 2]))
    op_norms = model.mat.op_norms
    monkeypatch.setattr(
        model.mat, "op_norms", lambda stack: np.concatenate([[np.nan], op_norms(stack)[1:]])
    )
    assert model_residual(s) == np.inf


def random_samples(rng, grid, levels, k1, k2, h, mult):
    """A sample set on a random I-by-J grid with unrelated random data."""
    delta = random_grid(rng, *grid)
    pts = [point_inside_gdelta(rng, delta, n) for n in levels]

    def data(n, rows):
        return random_column_data(rng, n, rows, h)

    return ModelSampleSet(
        delta, pts, [data(x.n, k1) for x in pts], [data(x.n, k2) for x in pts],
        [data(x.n, mult * grid[1]) for x in pts], h, k1, k2, mult,
    )


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (2, 2)]),
    st.integers(1, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_held_delta_u_matches_dense_promoted_product(seed, grid, mult, levels):
    rng = rng_from_seed(seed)
    s = random_samples(rng, grid, levels, 2, 1, 2, mult)
    assert len(s.delta_u) == len(s)
    for x, u, du in zip(s.points, s.u, s.delta_u):
        dense = eval_poly_matrix_promoted(s.delta, x, s.mult)
        assert du.shape == (x.n * mult * grid[0], u.shape[1])
        scale = np.linalg.norm(dense) * np.linalg.norm(u)
        assert np.linalg.norm(du - dense @ u) <= 1e-14 * scale
        assert not du.flags.writeable
        with pytest.raises(ValueError):
            du[0, 0] = 1.0


def test_held_delta_u_is_bitwise_stable():
    r = random_rect_realization(rng_from_seed(3), 2, 3, 2, 1, 2)
    pts = [point_inside_gdelta(rng_from_seed(n), r.delta, n) for n in (1, 2, 3, 4)]
    s = model_from_realization(r, pts)
    again = ModelSampleSet(
        s.delta, s.points, s.psi, s.phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult
    )
    decoded = decode("modelsamples", s.to_json())
    assert "delta_u" not in s.to_json() and "delta_x" not in s.to_json()
    for other in (again, decoded):
        assert [a.tobytes() for a in other.delta_u] == [a.tobytes() for a in s.delta_u]
        assert [a.tobytes() for a in other.delta_x] == [a.tobytes() for a in s.delta_x]
    for x, dx in zip(s.points, s.delta_x):
        assert dx.shape == (x.n * s.delta.rows, x.n * s.delta.cols)
        with pytest.raises(ValueError):
            dx[0, 0] = 1.0


def test_residual_and_fit_evaluate_no_delta(monkeypatch):
    from freeholo import realize

    r = random_rect_realization(rng_from_seed(5), 3, 2, 1, 1, 2)
    rng = rng_from_seed(6)
    s = model_from_realization(r, [point_inside_gdelta(rng, r.delta, n) for n in (1, 2, 3, 1, 2)])
    pts, psis, eps, us, mult = corona_inputs(12, [1, 1, 2, 3, 2])

    def refuse(*args, **kwargs):
        raise AssertionError("delta evaluated after the sample set was built")

    # the membership kernel and every other grid evaluation go through these
    with pytest.MonkeyPatch.context() as m:
        for module in (ncpoint, freepoly):
            m.setattr(module, "eval_poly_matrix_stack", refuse)
        assert model_residual(s) < 1e-12
        fit = realize.fit_lurking_isometry(s, holdout=True)
    assert fit.holdout_indices == (4,)
    assert fit.train_residual < 1e-9 and fit.holdout_deviation < 1e-9
    # corona builds its own sample set, whose constructor evaluates delta
    # once per point; its padded fit and its identity residual evaluate none
    points = count_grid_evaluations(monkeypatch, (ncpoint,))
    sol = realize.corona_solve(UNIT_DISK, pts, psis, eps, us, mult)
    assert sol.fit.padded_cols == 1
    assert sol.identity_residual < 1e-6
    assert len(points) == len(pts)


def test_model_from_realization_evaluates_delta_once_per_point(monkeypatch):
    from freeholo import mat

    r = random_rect_realization(rng_from_seed(5), 3, 2, 1, 1, 2)
    rng = rng_from_seed(6)
    pts = [point_inside_gdelta(rng, r.delta, n) for n in (1, 2, 3, 1, 2)]
    points = count_grid_evaluations(monkeypatch, (ncpoint,))
    normed, op_norms = [], mat.op_norms
    monkeypatch.setattr(mat, "op_norms", lambda a: normed.append(len(a)) or op_norms(a))
    s = model_from_realization(r, pts)
    # one SVD call per level, one matrix per point, wherever delta is evaluated
    assert normed == [2, 2, 1]
    assert len(points) == len(pts)
    assert model_residual(s) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_overflowing_point_is_outside_before_delta_u(monkeypatch, n):
    # x1*x1 overflows at 1e200; at level 2 the SVD of delta(x) fails
    def refuse(*args, **kwargs):
        raise AssertionError("Delta u formed at a point outside")

    monkeypatch.setattr(model, "promoted_apply", refuse)
    x1 = FreePoly.letter(1, 1)
    point = GradedPoint([np.diag([1e200] + [0.5] * (n - 1)).astype(complex)])
    one = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OutsideDomain, match=rf"level {n} is outside: \|\|delta\(x\)\|\| = nan"):
            ModelSampleSet(PolyMatrix.from_poly(x1 * x1), [point], [one], [one], [one], 1, 1, 1, 1)


# -- level stacks ------------------------------------------------------------------


def per_point_floor(s):
    """The smallest eigenvalue of ``psi*psi - phi*phi``, one ``eigvalsh`` per point."""
    floor = np.inf
    for i in range(len(s)):
        g = s.psi[i].conj().T @ s.psi[i] - s.phi[i].conj().T @ s.phi[i]
        if not np.isfinite(g).all():
            return np.nan
        floor = min(floor, float(np.linalg.eigvalsh((g + g.conj().T) / 2.0)[0]))
    return float(floor)


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (2, 3)]),
    st.integers(1, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=9),
)
@settings(max_examples=25, deadline=None)
def test_diagonal_floor_is_the_per_point_loop_bitwise(seed, grid, k2, levels):
    rng = rng_from_seed(seed)
    s = random_samples(rng, grid, levels, 2, k2, 2, 1)
    assert diagonal_floor(s) == per_point_floor(s)
    r = random_rect_realization(rng, *grid, 2, 1, 2)
    s = model_from_realization(r, [point_inside_gdelta(rng, r.delta, n) for n in levels])
    assert diagonal_floor(s) == per_point_floor(s)
    # a point whose psi*psi overflows makes the floor NaN, wherever it sits
    psi = list(s.psi)
    psi[-1] = psi[-1] * 1e200
    huge = ModelSampleSet(s.delta, s.points, psi, s.phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(diagonal_floor(huge)) and np.isnan(per_point_floor(huge))


def fit_sized_samples():
    """120 samples of a k1 = k2 = 2, mult-2 realization on a 2-by-2 grid,
    levels 1-4 in turn: the size of the benchmark's fit set."""
    rng = rng_from_seed(7)
    r = random_rect_realization(rng, 2, 2, 2, 0, 2)
    levels = [1 + i % 4 for i in range(120)]
    return model_from_realization(r, [point_inside_gdelta(rng, r.delta, n) for n in levels])


def test_model_residual_makes_no_large_temporary():
    # past one warm-up call the columns, band products and kept blocks live
    # in the reused scratch; the parent's fresh band stacks peaked at 1.7 MiB
    s = fit_sized_samples()
    assert [len(level.at) for level in s.levels] == [30] * 4
    want = model_residual(s)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = model_residual(s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want and want < 1e-12
    assert peak <= 512 * 1024


def test_level_stacks_hold_the_per_point_arrays():
    rng = rng_from_seed(21)
    r = random_rect_realization(rng, 2, 3, 2, 1, 2)
    levels = [2, 1, 3, 2, 2, 1, 4]
    pts = [point_inside_gdelta(rng, r.delta, n) for n in levels]
    psi = [random_column_data(rng, x.n, 2, 3) for x in pts]
    s = model_from_realization(r, pts, psi=psi)
    dxs = per_point(ncpoint.require_inside(r.delta, pts))
    assert [level.n for level in s.levels] == [2, 1, 3, 4]
    assert [level.at.tolist() for level in s.levels] == [[0, 3, 4], [1, 5], [2], [6]]
    for level in s.levels:
        for name in ("psi", "phi", "u", "delta_u", "delta_x"):
            stack = getattr(level, name)
            assert not stack.flags.writeable
            for j, i in enumerate(level.at):
                v = getattr(s, name)[i]
                # a read-only view of the stack's member, no copy
                assert np.shares_memory(v, stack) and v.tobytes() == stack[j].tobytes()
                assert not v.flags.writeable
    for i, x in enumerate(pts):
        # bitwise the one-point arrays: the solve, its products, the kernel's
        # delta(x) and the one-point Delta u
        omega, v = realize._solve(r, x.n, dxs[i][None])
        assert s.psi[i].tobytes() == psi[i].tobytes()
        assert s.phi[i].tobytes() == (omega[0] @ psi[i]).tobytes()
        assert s.u[i].tobytes() == (v[0] @ psi[i]).tobytes()
        assert s.delta_x[i].tobytes() == dxs[i].tobytes()
        assert s.delta_u[i].tobytes() == freepoly.promoted_apply(dxs[i], x.n, s.mult, s.u[i]).tobytes()
    # per point again, through the copying constructor and through JSON
    again = ModelSampleSet(r.delta, pts, s.psi, s.phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult)
    decoded = decode("modelsamples", s.to_json())
    for other in (again, decoded):
        assert [level.at.tolist() for level in other.levels] == [[0, 3, 4], [1, 5], [2], [6]]
        for name in ("psi", "phi", "u", "delta_u", "delta_x"):
            assert [a.tobytes() for a in getattr(other, name)] == [
                a.tobytes() for a in getattr(s, name)
            ]
    assert not np.shares_memory(again.psi[0], s.psi[0])


def test_constructor_errors_name_the_first_bad_point():
    rng = rng_from_seed(22)
    r = random_rect_realization(rng, 2, 2, 1, 1, 1)
    pts = [point_inside_gdelta(rng, r.delta, n) for n in (1, 2, 1, 3)]
    s = model_from_realization(r, pts)
    phi, psi = list(s.phi), list(s.psi)
    phi[1] = phi[1][:, :1]  # level 2
    psi[3] = psi[3][:1]  # level 3, after it
    with pytest.raises(ShapeMismatch, match=r"phi shape \(4, 1\) wrong at level 2"):
        ModelSampleSet(r.delta, pts, psi, phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult)
    with pytest.raises(ShapeMismatch, match=r"psi shape \(1, 3\) wrong at level 3"):
        ModelSampleSet(r.delta, pts, psi, s.phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult)
    # level stacks: the bad stack's level, levels in order of first appearance
    stacks = [[getattr(level, f) for level in s.levels] for f in ("psi", "phi", "u")]
    u = list(stacks[2])
    u[1] = u[1][:, :, :1]
    with pytest.raises(ShapeMismatch, match=r"u shape \(4, 1\) wrong at level 2"):
        ModelSampleSet(r.delta, pts, stacks[0], stacks[1], u, s.h_dim, s.k1_dim, s.k2_dim, s.mult)
    with pytest.raises(ShapeMismatch, match="must have equal lengths"):
        ModelSampleSet(r.delta, pts, stacks[0][:2], stacks[1][:2], stacks[2][:2], 1, 1, 2, 1)
    with pytest.raises(ShapeMismatch, match="must have equal lengths"):
        ModelSampleSet(r.delta, pts, s.psi[:3], s.phi, s.u, s.h_dim, s.k1_dim, s.k2_dim, s.mult)
    # the first point outside is named, after the shape checks passed
    outside = GradedPoint([np.eye(2) * 5.0, np.eye(2)])
    with pytest.raises(OutsideDomain, match="level 2 is outside"):
        ModelSampleSet(
            r.delta, [pts[0], outside, pts[2], pts[3]], s.psi, s.phi, s.u,
            s.h_dim, s.k1_dim, s.k2_dim, s.mult,
        )


def test_concurrent_model_residual_gives_the_one_thread_value():
    # the columns, band products and kept blocks are views of one thread's
    # scratch and the screen's caps of another slot of it; more threads than
    # cores, switching often, would mix any buffer they shared
    s = fit_sized_samples()
    want = model_residual(s)
    start = threading.Barrier(4, timeout=60)
    seen = [[] for _ in range(4)]

    def run(k):
        start.wait()
        for _ in range(10):
            seen[k].append(model_residual(s))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
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
    assert seen == [[want] * 10] * 4
