import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graded, random_parser_ast
from freeholo.errors import (
    FreeholoError,
    NonFiniteValue,
    NotInvertible,
    RootFindingFailure,
    SingularityHit,
)
from freeholo.exprlang import Add, Const, Inv, Schedule, Sub, Var, eval_expr, parse
from freeholo.freepoly import FreePoly, GradedPoint, PolyMatrix, eval_poly
from freeholo.mat import op_norm
from freeholo.mero import (
    AugmentedDomain,
    ScanEntry,
    ScanReport,
    P_RESIDUAL_TOL,
    inversion_certificate,
    poly_at_matrix,
    singular_scan,
    verify_certificate,
)
from freeholo.sampling import point_inside_gdelta, rng_from_seed

HALF_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(0.5))


def f_identity(x):
    return x.mats[0]


def test_poly_at_matrix_matches_polyval():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    t = rng.standard_normal((3, 3))
    expected = (
        coeffs[0] * np.linalg.matrix_power(t, 3)
        + coeffs[1] * np.linalg.matrix_power(t, 2)
        + coeffs[2] * t
        + coeffs[3] * np.eye(3)
    )
    np.testing.assert_allclose(poly_at_matrix(coeffs, t), expected, atol=1e-12)
    assert poly_at_matrix(coeffs, np.zeros((1, 1)))[0, 0] == pytest.approx(
        coeffs[3]
    )


def test_scalar_identity_certificate():
    # f = x at M = 1: p = 1 - z, c = 1, no roots, bound 2
    cert = inversion_certificate(f_identity, HALF_DISK, GradedPoint.scalars([1.0]), 2.0)
    assert cert.p_coeffs == ((-1 + 0j), (1 + 0j))
    assert cert.c == 1.0 + 0j
    assert cert.roots == ()
    assert cert.bound_inv == pytest.approx(2.0)
    assert cert.p_residual == 0.0
    assert cert.bound_source == "asserted"


def test_certificate_p_annihilates_value():
    p = FreePoly.letter(1, 1) * FreePoly.letter(1, 1)

    def f(x):
        return eval_poly(p, x)

    m = GradedPoint([np.diag([2.0, 3.0]).astype(complex)])
    cert = inversion_certificate(f, HALF_DISK, m, 9.5)
    assert cert.p_residual < 1e-10
    # p(0) = 1
    assert np.polyval(cert.p_coeffs, 0.0) == pytest.approx(1.0)


def test_certificate_factorization_identity():
    def f(x):
        m = x.mats[0]
        return m @ m + 0.5 * m + np.eye(x.n)

    m = GradedPoint([np.array([[1.0, 0.3], [0.0, 1.5]], dtype=complex)])
    cert = inversion_certificate(f, HALF_DISK, m, 8.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = complex(rng.standard_normal(), rng.standard_normal())
        lhs = 1.0 - np.polyval(cert.p_coeffs, z)
        rhs = cert.c * z * np.prod([z - b for b in cert.roots])
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_bound_inv_formula():
    def f(x):
        m = x.mats[0]
        return m @ m - 2.0 * m + 2.0 * np.eye(x.n)

    m = GradedPoint([np.diag([2.0, 0.5]).astype(complex)])
    cert = inversion_certificate(f, HALF_DISK, m, 7.0)
    expected = 2.0 * abs(cert.c) * np.prod([7.0 + abs(b) for b in cert.roots])
    assert cert.bound_inv == pytest.approx(expected, rel=1e-12)


def shifted_gaussian(n):
    """T = G / sqrt(2n) + 0.5 I, G = (X + iY) / sqrt(2) from default_rng(0)."""
    rng = np.random.default_rng(0)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return g / np.sqrt(2 * n) + 0.5 * np.eye(n)


@pytest.mark.parametrize("n, certifies", [(8, True), (16, True), (24, False), (32, False)])
def test_certificate_refuses_a_lost_characteristic_polynomial(n, certifies):
    # Horner on p's monomial coefficients gives ||p(T)|| of 2.6e-13, 1.1e-8,
    # 1.5e-5 and 1.98 at these levels: p no longer annihilates T from n = 24
    t = shifted_gaussian(n)
    m = GradedPoint([t])
    if certifies:
        cert = inversion_certificate(f_identity, HALF_DISK, m, 2.0)
        assert cert.p_residual <= P_RESIDUAL_TOL
        assert cert.p_residual == op_norm(poly_at_matrix(cert.p_coeffs, t))
    else:
        with pytest.raises(RootFindingFailure, match="above 1e-06"):
            inversion_certificate(f_identity, HALF_DISK, m, 2.0)


def test_certificate_requires_invertible_value():
    with pytest.raises(NotInvertible):
        inversion_certificate(
            f_identity, HALF_DISK, GradedPoint.scalars([0.0]), 2.0
        )


def test_verify_certificate_no_violations():
    cert = inversion_certificate(f_identity, HALF_DISK, GradedPoint.scalars([1.0]), 2.0)
    rng = rng_from_seed(2)
    candidates = []
    while len(candidates) < 80:
        n = int(rng.integers(1, 4))
        x = point_inside_gdelta(rng, HALF_DISK, n, scale=1.5)
        if cert.domain.contains(x):
            candidates.append(x)
    rep = verify_certificate(cert, f_identity, candidates)
    assert rep["checked"] == 80
    assert rep["violations"] == 0
    assert rep["worst_ratio"] <= 1.0 + 1e-12


def test_augmented_domain_is_restrictive():
    cert = inversion_certificate(f_identity, HALF_DISK, GradedPoint.scalars([1.0]), 2.0)
    # 0 is inside the grid, but the reciprocal leg 2(1 - x) is too big there
    assert not cert.domain.contains(GradedPoint.scalars([0.0]))
    assert cert.domain.contains(GradedPoint.scalars([1.0]))
    assert cert.domain.norm_at(GradedPoint.scalars([1.0])) == pytest.approx(0.5)


def test_augmented_domain_conjunction():
    domain = AugmentedDomain(
        HALF_DISK, extras=(lambda x: 3.0 * x.mats[0],)
    )
    assert domain.contains(GradedPoint.scalars([0.2]))
    assert not domain.contains(GradedPoint.scalars([0.5]))  # extra leg at 1.5
    assert domain.norm_at(GradedPoint.scalars([0.5])) == pytest.approx(1.5)


def test_singular_scan_reports_paths():
    ast = parse("inv(x1)*x1", 1)
    pts = [GradedPoint.scalars([0.0]), GradedPoint.scalars([0.5])]
    rep = singular_scan(ast, pts)
    assert rep.total == 2
    assert rep.n_singular == 1
    assert rep.entries[0].singular and rep.entries[0].index == 0
    assert not rep.entries[1].singular
    assert rep.entries[1].value_norm == pytest.approx(1.0)
    assert rep.paths() == [(0,)]


def test_singular_scan_is_presentation_relative():
    # the same function written without inv scans clean at the same point
    clean = parse("x1", 1)
    pts = [GradedPoint.scalars([0.0])]
    assert singular_scan(clean, pts).n_singular == 0

    wrapped = parse("inv(inv(x1))", 1)
    rep = singular_scan(wrapped, pts)
    assert rep.n_singular == 1
    assert rep.paths() == [(0,)]  # the inner inv dies first


def test_singular_scan_matrix_level():
    ast = parse("inv(x1*x1 - 0.25)", 1)
    ok = random_graded(3, 1, 2, scale=0.1)
    bad = GradedPoint([np.diag([0.5, 0.1]).astype(complex)])
    rep = singular_scan(ast, [ok, bad])
    assert [e.singular for e in rep.entries] == [False, True]
    assert rep.entries[1].level == 2


def reference_scan(ast, samples):
    """A tests-only copy of the scan as it evaluated and normed point by point."""
    steps = Schedule(ast)
    entries, n_singular = [], 0
    for idx, x in enumerate(samples):
        try:
            value = eval_expr(steps, x)
        except SingularityHit as hit:
            n_singular += 1
            entries.append(ScanEntry(idx, x.n, singular=True, path=hit.path, value_norm=None))
            continue
        value_norm = op_norm(value)
        if not math.isfinite(value_norm):
            raise NonFiniteValue(f"the value is not finite at sample {idx} (level {x.n})")
        entries.append(ScanEntry(idx, x.n, singular=False, path=None, value_norm=value_norm))
    return ScanReport(entries=tuple(entries), total=len(entries), n_singular=n_singular)


@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_singular_scan_is_the_point_by_point_scan(seed, count):
    # random trees with inv( at levels 1-3, over regular, singular (a
    # repeated scalar) and overflowing samples, some of d = 1
    rng = np.random.default_rng(seed)
    ast = random_parser_ast(rng, 2, depth=int(rng.integers(1, 5)))
    if rng.random() < 0.6:  # singular at the scalar samples x1 = 0.5
        ast = Add(ast, Inv(Sub(Var(1), Const(0.5))))
    samples = []
    for _ in range(count):
        n, d = int(rng.integers(1, 4)), int(rng.choice([2, 2, 2, 2, 1]))
        kind = rng.choice(["regular", "regular", "scalar", "huge"])
        if kind == "scalar":
            mats = [float(rng.choice([0.5, 2.0])) * np.eye(n) for _ in range(d)]
        else:
            scale = 1e200 if kind == "huge" else 0.7
            mats = [scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                    for _ in range(d)]
        samples.append(GradedPoint(mats))

    def outcome(fn):
        try:
            return fn(ast, samples)
        except FreeholoError as exc:
            return (type(exc), str(exc))

    with np.errstate(all="ignore"):
        assert outcome(singular_scan) == outcome(reference_scan)
