import functools
import zlib

import numpy as np
import pytest
from conftest import random_parser_ast, random_rect_realization
from hypothesis import given, settings
from hypothesis import strategies as st

from freeholo import ncpoint, realize, sampling
from freeholo.errors import OutsideDomain, ShapeMismatch, SingularMatrix
from freeholo.freepoly import DEFAULT_MARGIN, FreePoly, GradedPoint, PolyMatrix, eval_poly
from freeholo.mat import cond, direct_sum, inv, op_norm
from freeholo.ncpoint import (
    check_nc_axioms,
    conjugate,
    in_gdelta,
    nc_derivative,
    point_direct_sum,
    triangular_identity_deviation,
    upper_triangular_pair,
)

X1 = FreePoly.letter(2, 1)
X2 = FreePoly.letter(2, 2)
UNIT_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1))


def random_point(seed, d, n, scale=0.4):
    rng = np.random.default_rng(seed)
    return GradedPoint(
        [
            scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(d)
        ]
    )


def test_in_gdelta_statuses():
    m = in_gdelta(UNIT_DISK, GradedPoint.scalars([0.5]))
    assert m.status == "inside" and m.inside
    assert m.distance == pytest.approx(0.5)

    m = in_gdelta(UNIT_DISK, GradedPoint.scalars([1.0]))
    assert m.status == "boundary" and not m.inside
    assert m.distance == pytest.approx(0.0, abs=1e-12)

    m = in_gdelta(UNIT_DISK, GradedPoint.scalars([2.0]))
    assert m.status == "outside"
    assert m.distance == pytest.approx(-1.0)


def test_in_gdelta_margin_widens_boundary():
    x = GradedPoint.scalars([0.95])
    assert in_gdelta(UNIT_DISK, x).status == "inside"
    assert in_gdelta(UNIT_DISK, x, margin=0.1).status == "boundary"


def test_point_direct_sum_levels_add():
    a = random_point(1, 2, 2)
    b = random_point(2, 2, 3)
    s = point_direct_sum(a, b)
    assert s.n == 5 and s.d == 2
    np.testing.assert_array_equal(s.mats[0][:2, :2], a.mats[0])
    np.testing.assert_array_equal(s.mats[1][2:, 2:], b.mats[1])
    with pytest.raises(ShapeMismatch):
        point_direct_sum(a, random_point(3, 3, 2))


def test_point_direct_sum_holds_what_the_constructor_would():
    # the trusted stack gives the bytes and flags of a validated point
    a, b = random_point(4, 2, 1), random_point(5, 2, 3)
    s = point_direct_sum(a, b)
    want = GradedPoint([direct_sum(x, y) for x, y in zip(a.mats, b.mats)])
    for got, ref in zip(s.mats, want.mats):
        assert got.tobytes() == ref.tobytes() and got.shape == ref.shape == (4, 4)
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert not got.flags.writeable
    with pytest.raises(AttributeError):
        s._n = 3


def test_conjugate_roundtrip():
    x = random_point(4, 2, 3)
    s = np.eye(3) + 0.3 * np.triu(np.ones((3, 3)), 1)
    y = conjugate(x, s)
    back = conjugate(y, np.linalg.inv(s))
    for a, b in zip(back.mats, x.mats):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_upper_triangular_pair_shape():
    n_pt = random_point(11, 2, 2)
    m_pt = random_point(12, 2, 3)
    c = np.random.default_rng(13).standard_normal((2, 3))
    tri = upper_triangular_pair(n_pt, m_pt, c)
    assert tri.n == 5
    np.testing.assert_array_equal(tri.mats[0][2:, :2], np.zeros((3, 2)))
    np.testing.assert_allclose(
        tri.mats[1][:2, 2:], n_pt.mats[1] @ c - c @ m_pt.mats[1]
    )


def test_triangular_identity_for_polynomials():
    p = X1 * X1 * X2 - 3 * X2 + 0.5

    def f(pt):
        return eval_poly(p, pt)

    n_pt = random_point(14, 2, 2)
    m_pt = random_point(15, 2, 2)
    c = np.random.default_rng(16).standard_normal((2, 2))
    assert triangular_identity_deviation(f, n_pt, m_pt, c) < 1e-12


def test_nc_derivative_hand_value():
    # f = x1^2, M = diag(1, 2), E = E12: D = ME + EM = [[0, 3], [0, 0]]
    p = FreePoly.letter(1, 1) * FreePoly.letter(1, 1)

    def f(pt):
        return eval_poly(p, pt)

    m_pt = GradedPoint([np.diag([1.0, 2.0]).astype(complex)])
    e_pt = GradedPoint([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    np.testing.assert_allclose(
        nc_derivative(f, m_pt, e_pt), [[0.0, 3.0], [0.0, 0.0]], atol=1e-13
    )


def test_nc_derivative_linear_in_direction():
    p = X1 * X2 * X1 + X2

    def f(pt):
        return eval_poly(p, pt)

    m_pt = random_point(17, 2, 3)
    e1 = random_point(18, 2, 3)
    e2 = random_point(19, 2, 3)
    a = 0.7 - 0.2j
    combo = GradedPoint([a * u + v for u, v in zip(e1.mats, e2.mats)])
    lhs = nc_derivative(f, m_pt, combo)
    rhs = a * nc_derivative(f, m_pt, e1) + nc_derivative(f, m_pt, e2)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_nc_derivative_matches_finite_differences():
    p = 2 * X1 * X2 - X2 * X2 * X1

    def f(pt):
        return eval_poly(p, pt)

    m_pt = random_point(20, 2, 2)
    e_pt = random_point(21, 2, 2)
    h = 1e-5
    plus = GradedPoint([m + h * e for m, e in zip(m_pt.mats, e_pt.mats)])
    minus = GradedPoint([m - h * e for m, e in zip(m_pt.mats, e_pt.mats)])
    fd = (f(plus) - f(minus)) / (2 * h)
    exact = nc_derivative(f, m_pt, e_pt)
    assert np.abs(fd - exact).max() / max(np.abs(exact).max(), 1.0) < 1e-6


def test_nc_derivative_product_rule():
    pq = (X1 * X2) * (X2 + 0.5)

    def f(pt):
        return eval_poly(pq, pt)

    m_pt = random_point(22, 2, 2)
    e_pt = random_point(23, 2, 2)

    def g1(pt):
        return eval_poly(X1 * X2, pt)

    def g2(pt):
        return eval_poly(X2 + 0.5, pt)

    lhs = nc_derivative(f, m_pt, e_pt)
    rhs = nc_derivative(g1, m_pt, e_pt) @ g2(m_pt) + g1(m_pt) @ nc_derivative(
        g2, m_pt, e_pt
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_check_nc_axioms_passes_polynomials():
    p = X1 * X2 - X2 * X1 + 2

    def f(pt):
        return eval_poly(p, pt)

    rng = np.random.default_rng(24)
    samples = [random_point(25 + i, 2, 1 + i % 2) for i in range(4)]
    sims = [np.eye(1) + 0.1 * rng.standard_normal((1, 1)),
            np.eye(2) + 0.1 * rng.standard_normal((2, 2))]
    rep = check_nc_axioms(f, samples, sims=sims)
    assert rep.passed
    assert rep.checks > 0
    assert rep.direct_sum_dev < 1e-10
    assert rep.similarity_dev < 1e-10
    assert rep.triangular_dev < 1e-10


def test_check_nc_axioms_flags_transpose():
    # entrywise transpose respects direct sums but not similarity
    def f(pt):
        return pt.mats[0].T

    samples = [random_point(40 + i, 1, 2) for i in range(3)]
    rng = np.random.default_rng(44)
    sims = [np.eye(2) + 0.5 * rng.standard_normal((2, 2))]
    rep = check_nc_axioms(f, samples, sims=sims)
    assert not rep.passed
    assert rep.similarity_dev > 1e-3


def test_check_nc_axioms_flags_trace():
    # x -> tr(x) I respects neither sums nor the triangular identity
    def f(pt):
        return np.trace(pt.mats[0]) * np.eye(pt.n)

    samples = [random_point(50 + i, 1, 2) for i in range(3)]
    rep = check_nc_axioms(f, samples)
    assert not rep.passed
    assert rep.direct_sum_dev > 1e-3


def test_check_nc_axioms_overflowing_gap_is_inf():
    # the level-3 direct sum has a finite gap whose norm, like the value
    # scale, overflows: inf / inf must read as inf, not a NaN that max drops
    def f(pt):
        return 1.5e308 * np.ones((pt.n, pt.n), dtype=np.complex128)

    samples = [GradedPoint.scalars([0.5]), GradedPoint([0.5 * np.eye(2)])]
    rep = check_nc_axioms(f, samples)
    assert rep.direct_sum_dev == np.inf
    assert not rep.passed


def test_check_nc_axioms_skips_outside_domain():
    def f(pt):
        return eval_poly(X1, pt)

    samples = [GradedPoint.scalars([0.6, 0.0]), GradedPoint.scalars([0.7, 0.0])]

    def domain(pt):
        return in_gdelta(PolyMatrix.from_poly(X1), pt).inside

    rep = check_nc_axioms(f, samples, domain=domain)
    # every direct sum keeps the same norm, so only the base points count
    assert rep.skipped == 0
    assert rep.passed


def uncached_deviations(f, samples, sims, couplings, inside):
    """The checker's three deviations with f evaluated afresh every time."""
    ds = sim = tri = 0.0
    for x in samples:
        for y in samples:
            z = point_direct_sum(x, y)
            if inside(z):
                pred = direct_sum(f(x), f(y))
                ds = max(ds, op_norm(f(z) - pred) / max(1.0, op_norm(pred)))
    for x in samples:
        for s in sims:
            if s.shape == (x.n, x.n) and inside(conjugate(x, s)):
                fx = f(x)
                pred = inv(s) @ fx @ s
                dev = op_norm(f(conjugate(x, s)) - pred)
                sim = max(sim, dev / (max(1.0, op_norm(fx)) * cond(s)))
    for x in samples:
        for y in samples:
            for c in couplings:
                if x.n == y.n == c.shape[0] and inside(upper_triangular_pair(x, y, c)):
                    dev = triangular_identity_deviation(f, x, y, c)
                    tri = max(tri, dev / max(1.0, (1.0 + op_norm(c)) ** 2))
    return ds, sim, tri


def test_check_nc_axioms_evaluates_each_sample_once():
    # a function that breaks all three axioms, so every deviation is nonzero
    def g(pt):
        a, b = pt.mats
        return a @ b + a.T + 0.1 * np.trace(b) * np.eye(pt.n)

    calls = []

    def f(pt):
        calls.append(pt)
        return g(pt)

    rng = np.random.default_rng(60)
    small = [random_point(61 + i, 2, 1 + i % 2, scale=0.2) for i in range(4)]
    # every combination with this point leaves the domain
    big = GradedPoint([5.0 * np.eye(3), np.zeros((3, 3))])
    samples = small[:2] + [big] + small[2:]
    sims = [np.eye(n) + 0.2 * rng.standard_normal((n, n)) for n in (1, 2, 3, 2)]
    couplings = [rng.standard_normal((n, n)) for n in (1, 2, 3)]

    def inside(pt):
        return max(op_norm(m) for m in pt.mats) < 1.0

    rep = check_nc_axioms(f, samples, sims=sims, couplings=couplings, domain=inside)
    assert not any(p is big for p in calls)
    assert all(sum(p is x for p in calls) == 1 for x in small)
    assert len(calls) == len(small) + rep.checks
    assert rep.skipped > 0
    want = uncached_deviations(g, samples, sims, couplings, inside)
    assert (rep.direct_sum_dev, rep.similarity_dev, rep.triangular_dev) == want
    assert min(want) > 1e-3


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(1, 2),
    st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_check_nc_axioms_skips_where_the_evaluator_finds_the_point_outside(
    seed, grid, k1, mult
):
    # samples near the unit shell: conjugations and the triangular points of
    # the large coupling leave the domain, and eval_direct raises there
    rng = sampling.rng_from_seed(seed)
    r = random_rect_realization(rng, *grid, k1, 1, mult)
    samples = [sampling.point_inside_gdelta(rng, r.delta, n, scale=2.0) for n in (1, 1, 2)]
    sims = [sampling.random_invertible(rng, n) for n in (1, 2, 1, 2)]
    couplings = [scale * sampling.random_matrix(rng, n) for scale in (1.0, 1e3) for n in (1, 2)]
    dims = (r.dim_k1, r.dim_k2)

    def inside(p):
        return in_gdelta(r.delta, p).inside

    def plain(p):
        return realize.eval_direct(r, p)

    want = check_nc_axioms(plain, samples, sims, couplings, domain=inside, dims=dims)

    evaluated, grid_points = [], []

    def f(p):
        evaluated.append(p)
        return realize.eval_direct(r, p)

    memberships = ncpoint.delta_memberships

    def counting(delta, points, margin=DEFAULT_MARGIN):
        grid_points.extend(points)
        return memberships(delta, points, margin)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ncpoint, "delta_memberships", counting)
        got = check_nc_axioms(f, samples, sims, couplings, dims=dims)
    assert got == want
    assert got.skipped > 0 and got.checks > 0
    # one grid evaluation per evaluator call, each sample at most once, and
    # every combined point evaluated exactly once, checked or skipped
    assert [id(p) for p in grid_points] == [id(p) for p in evaluated]
    assert all(sum(p is x for p in evaluated) <= 1 for x in samples)
    combined = [p for p in evaluated if not any(p is x for x in samples)]
    assert len(combined) == got.checks + got.skipped


def test_check_nc_axioms_outside_sample_propagates():
    # f accepts every combined point but rejects the sample itself
    sample = GradedPoint([0.3 * np.eye(2)])

    def f(pt):
        if pt is sample:
            raise OutsideDomain("sample outside")
        return pt.mats[0]

    with pytest.raises(OutsideDomain):
        check_nc_axioms(f, [sample])


def test_check_nc_axioms_prepares_each_similarity_and_coupling_once(monkeypatch):
    from freeholo import mat

    calls = {"cond": [], "inv": [], "op_norm": []}
    for name in calls:
        def counting(m, _real=getattr(mat, name), _seen=calls[name]):
            _seen.append(m)
            return _real(m)

        monkeypatch.setattr(mat, name, counting)

    def f(pt):
        return eval_poly(X1 * X2 + X2, pt)

    rng = np.random.default_rng(70)
    samples = [random_point(71, 2, 1), random_point(72, 2, 2), random_point(73, 2, 2)]
    s1, s2, s3 = (np.eye(n) + 0.2 * rng.standard_normal((n, n)) + 0j for n in (1, 2, 3))
    singular = np.zeros((2, 2), dtype=complex)
    couplings = [rng.standard_normal((n, n)) + 0j for n in (1, 2)]
    rep = check_nc_axioms(f, samples, sims=[s1, s2, s3, singular], couplings=couplings)
    assert rep.passed

    def count(name, m):
        return sum(a is m for a in calls[name])

    # s3 matches no sample and is never touched; the singular one is
    # skipped at both level-2 samples without an inversion
    assert [count("cond", s) for s in (s1, s2, s3, singular)] == [1, 1, 0, 1]
    assert [count("inv", s) for s in (s1, s2, s3, singular)] == [1, 1, 0, 0]
    assert [count("op_norm", c) for c in couplings] == [1, 1]
    assert rep.skipped == 2

    near_singular = np.diag([1.0, 1e-14]) + 0j
    with pytest.raises(SingularMatrix):
        check_nc_axioms(f, samples, sims=[near_singular])


# -- the point-list form ----------------------------------------------------------


def reference_check(f, samples, sims=(), couplings=(), domain=None, dims=(1, 1), tol=1e-8):
    """A tests-only copy of the checker as it ran before it worked in rounds:
    one loop over the checks, f at each combined point as the loop reaches
    it, Kronecker widening and ``np.block`` forms."""
    samples = list(samples)
    sims = [np.asarray(s, dtype=np.complex128) for s in sims]
    pool = [np.asarray(c, dtype=np.complex128) for c in couplings] or [
        np.eye(n, dtype=np.complex128) for n in sorted({x.n for x in samples})
    ]
    inside = (lambda p: True) if domain is None else domain
    h_dim, k_dim = dims
    checks = skipped = 0
    ds_dev = sim_dev = tri_dev = 0.0
    values = {}

    def value(i):
        if i not in values:
            values[i] = np.asarray(f(samples[i]), dtype=np.complex128)
        return values[i]

    def combined_value(p):
        if not inside(p):
            return None
        try:
            return np.asarray(f(p), dtype=np.complex128)
        except OutsideDomain:
            return None

    def deviation(val, predicted, ref=None, weight=1.0):
        with np.errstate(over="ignore", invalid="ignore"):
            gap = val - predicted
        if not np.isfinite(gap).all():
            return float("inf")
        scale = weight if ref is None else max(1.0, op_norm(ref)) * weight
        dev = op_norm(gap) / scale
        return float("inf") if np.isnan(dev) else dev

    def triangular_form(fn, fm, c_out, c_in):
        corner = fn @ c_in - c_out @ fm
        zeros = np.zeros((fm.shape[0], fn.shape[1]), dtype=np.complex128)
        return np.block([[fn, corner], [zeros, fm]])

    prepared = {}
    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            fz = combined_value(point_direct_sum(x, y))
            if fz is None:
                skipped += 1
                continue
            predicted = direct_sum(value(i), value(j))
            ds_dev = max(ds_dev, deviation(fz, predicted, predicted))
            checks += 1
    for i, x in enumerate(samples):
        for k, s in enumerate(sims):
            if s.shape != (x.n, x.n):
                continue
            if k not in prepared:
                kappa = cond(s)
                prepared[k] = None if not np.isfinite(kappa) else (kappa, inv(s))
            if prepared[k] is None:
                skipped += 1
                continue
            kappa, s_inv = prepared[k]
            fy = combined_value(GradedPoint([s_inv @ m @ s for m in x.mats]))
            if fy is None:
                skipped += 1
                continue
            fx = value(i)
            predicted = np.kron(s_inv, np.eye(k_dim)) @ fx @ np.kron(s, np.eye(h_dim))
            sim_dev = max(sim_dev, deviation(fy, predicted, fx, kappa))
            checks += 1
    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            if x.n != y.n:
                continue
            for c in pool:
                if c.shape != (x.n, y.n):
                    continue
                fz = combined_value(upper_triangular_pair(x, y, c))
                if fz is None:
                    skipped += 1
                    continue
                c_out, c_in = np.kron(c, np.eye(k_dim)), np.kron(c, np.eye(h_dim))
                weight = max(1.0, (1.0 + op_norm(c)) ** 2)
                predicted = triangular_form(value(i), value(j), c_out, c_in)
                tri_dev = max(tri_dev, deviation(fz, predicted, weight=weight))
                checks += 1
    return ncpoint.NcAxiomReport(ds_dev, sim_dev, tri_dev, checks, skipped, tol)


def report_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type and text
        return (type(exc), str(exc))


def guarded(f, radius):
    """``f``, but :class:`OutsideDomain` where a coordinate's norm reaches
    ``radius`` or, so that a sample can be outside while its combined points
    are not, where a checksum of the point's bytes is 0 mod 7; with its
    point-list form over ``f_points``."""

    def outside(p):
        return (max(op_norm(m) for m in p.mats) >= radius
                or zlib.crc32(p.mats[0].tobytes()) % 7 == 0)

    def one(p):
        if outside(p):
            raise OutsideDomain(f"point at level {p.n} is outside")
        return f(p)

    def many(points, f_points):
        kept = [i for i, p in enumerate(points) if not outside(p)]
        out = [OutsideDomain(f"point at level {p.n} is outside") for p in points]
        for i, value in zip(kept, f_points([points[i] for i in kept])):
            out[i] = value
        return out

    return one, many


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_rounds_give_the_loop_report_or_error_for_expressions(seed, guard, with_domain):
    # random trees with inv( over samples that include scalar points, so
    # that combined points and samples are singular at random; the guard
    # raises OutsideDomain at random points, the domain skips others
    from freeholo.exprlang import Add, Inv, Schedule, Sub, Var, eval_expr, eval_expr_points

    rng = np.random.default_rng(seed)
    tree = random_parser_ast(rng, 2, depth=int(rng.integers(1, 4)))
    if rng.random() < 0.6:  # singular wherever x1 == x2
        tree = Add(tree, Inv(Sub(Var(1), Var(2))))
    steps = Schedule(tree)
    samples = []
    for _ in range(int(rng.integers(1, 5))):
        n, kind = int(rng.integers(1, 3)), rng.choice(["random", "equal", "scalars"])
        if kind == "random":
            samples.append(random_point(int(rng.integers(1 << 30)), 2, n, scale=0.8))
        else:
            c = [float(np.round(rng.uniform(0, 3), 2)) for _ in range(2)]
            samples.append(GradedPoint([c[0] * np.eye(n), c[kind == "scalars"] * np.eye(n)]))
    sims = [sampling.random_invertible(rng, n) for n in (1, 2, 2)] + [np.zeros((1, 1))]
    couplings = [sampling.random_matrix(rng, n, 3.0) for n in (1, 2)]

    def f(p):
        return eval_expr(steps, p)

    def f_points(points):
        return eval_expr_points(steps, points)

    if guard:
        radius = float(rng.uniform(0.5, 3.0))
        f, many = guarded(f, radius)
        f_points = functools.partial(many, f_points=f_points)
    limit = float(rng.uniform(0.5, 4.0))
    domain = (lambda p: op_norm(p.mats[1]) < limit) if with_domain else None
    kw = dict(sims=sims, couplings=couplings, domain=domain)
    with np.errstate(all="ignore"):
        want = report_or_error(reference_check, f, samples, **kw)
        got = report_or_error(check_nc_axioms, f, samples, f_points=f_points, **kw)
        plain = report_or_error(check_nc_axioms, f, samples, **kw)
    assert got == want
    assert plain == want


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(1, 2),
    st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_rounds_give_the_loop_report_for_realizations_near_the_shell(seed, grid, k1, mult):
    # the realization's point-list form raises OutsideDomain at the
    # conjugations and large-coupling triangular points that leave the domain
    rng = sampling.rng_from_seed(seed)
    r = random_rect_realization(rng, *grid, k1, 1, mult)
    samples = [sampling.point_inside_gdelta(rng, r.delta, n, scale=2.0) for n in (1, 1, 2)]
    sims = [sampling.random_invertible(rng, n) for n in (1, 2, 1, 2)]
    couplings = [scale * sampling.random_matrix(rng, n) for scale in (1.0, 1e3) for n in (1, 2)]
    dims = (r.dim_k1, r.dim_k2)

    def f(p):
        return realize.eval_direct(r, p)

    want = reference_check(f, samples, sims, couplings, dims=dims)
    got = check_nc_axioms(f, samples, sims, couplings, dims=dims,
                          f_points=lambda points: realize.eval_direct_points(r, points))
    assert got == want
    assert got.skipped > 0 and got.checks > 0


def test_rounds_raise_the_first_error_of_the_loop():
    # the direct sum of the two samples raises first in the loop, although
    # its samples' own errors are met before it in point order
    a, b = GradedPoint([0.1 * np.eye(1)]), GradedPoint([0.2 * np.eye(1)])

    def f(p):
        if p is a or p is b:
            raise OutsideDomain("sample")
        if p.n == 2 and p.mats[0][0, 0] == 0.2:
            raise SingularMatrix("combined")
        return p.mats[0]

    assert report_or_error(reference_check, f, [a, b]) == (OutsideDomain, "sample")
    assert report_or_error(check_nc_axioms, f, [a, b]) == (OutsideDomain, "sample")
    assert report_or_error(reference_check, f, [b, a]) == (SingularMatrix, "combined")
    assert report_or_error(check_nc_axioms, f, [b, a]) == (SingularMatrix, "combined")
    # a point that cannot be built (samples of different d) is raised where
    # the loop reaches it, after the errors of the checks before it
    c = GradedPoint([0.1 * np.eye(1), 0.1 * np.eye(1)])
    for samples in ([b, c], [a, c]):
        assert report_or_error(check_nc_axioms, f, samples) == report_or_error(
            reference_check, f, samples)


def test_widening_is_the_kronecker_product():
    rng = np.random.default_rng(90)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    a[0, 0] = complex(-0.0, np.inf)
    with np.errstate(invalid="ignore"):  # inf * 0
        for k in (2, 3):
            want = np.kron(a, np.eye(k))
            assert ncpoint._kron_identity(a, k).tobytes() == want.tobytes()
    assert ncpoint._kron_identity(a, 1) is a
