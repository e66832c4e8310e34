import re

import numpy as np
import pytest

from conftest import count_grid_evaluations
from freeholo import ncpoint, sampling
from freeholo.errors import OutsideDomain, ShapeMismatch
from freeholo.freepoly import FreePoly, GradedPoint, PolyMatrix, eval_poly_matrix
from freeholo.mat import isometry_defect, op_norm
from freeholo.ncpoint import in_gdelta
from freeholo.sampling import (
    haar_isometry,
    perturbations_near,
    point_in_shrunk_domain,
    point_inside_gdelta,
    points_inside_gdelta,
    random_free_poly,
    random_invertible,
    random_realization,
    random_unitary,
    rng_from_seed,
)

UNIT_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1))


def test_rng_determinism():
    a = rng_from_seed(42).standard_normal(5)
    b = rng_from_seed(42).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_random_unitary_and_isometry():
    rng = rng_from_seed(0)
    u = random_unitary(rng, 5)
    assert isometry_defect(u) < 1e-12
    assert isometry_defect(u.conj().T) < 1e-12
    v = haar_isometry(rng, 6, 3)
    assert v.shape == (6, 3)
    assert isometry_defect(v) < 1e-12


def test_random_invertible_condition():
    rng = rng_from_seed(1)
    for n in (1, 2, 4):
        s = random_invertible(rng, n)
        assert np.linalg.cond(s) <= 50.0


def test_random_free_poly_degree():
    rng = rng_from_seed(2)
    p = random_free_poly(rng, 3, max_degree=2)
    assert p.d == 3
    assert max(map(len, p.terms), default=0) <= 2


def test_point_inside_gdelta():
    rng = rng_from_seed(3)
    for n in (1, 2, 4):
        x = point_inside_gdelta(rng, UNIT_DISK, n)
        assert x.n == n
        assert in_gdelta(UNIT_DISK, x).inside


def shrink_until_inside(rng, delta, n, margin, target=0.9, scale=1.0):
    """The sampler's draw-and-shrink loop with a separate in_gdelta verdict.

    Returns the point, the number of grid norms taken to get it and the
    number of draws.
    """
    norms = 1  # the constant-term check
    for draws in range(1, 201):
        x = sampling.random_graded_point(rng, delta.d, n, scale)
        for _ in range(60):
            norms += 1
            nrm = op_norm(eval_poly_matrix(delta, x))
            if nrm < target and in_gdelta(delta, x, margin).inside:
                return x, norms, draws
            x = GradedPoint([0.7 * m for m in x.mats])
    raise AssertionError("no point found")


def test_point_inside_gdelta_evaluates_each_candidate_once(monkeypatch):
    # margin 0.2 makes the membership verdict, not the 0.9 target, decide
    grid = PolyMatrix([[FreePoly.letter(2, 1), FreePoly.letter(2, 2)],
                       [FreePoly.letter(2, 2), FreePoly.letter(2, 1) * FreePoly.letter(2, 2)]])
    for seed, n in ((30, 1), (31, 3), (32, 6)):
        want, norms, _ = shrink_until_inside(rng_from_seed(seed), grid, n, 0.2)
        with monkeypatch.context() as m:
            calls = count_grid_evaluations(m, (sampling, ncpoint))
            got = point_inside_gdelta(rng_from_seed(seed), grid, n, margin=0.2)
        assert len(calls) == norms > 2
        for a, b in zip(got.mats, want.mats):
            np.testing.assert_array_equal(a, b)


def test_points_inside_gdelta_matches_single_draws(monkeypatch):
    # the stream of one point_inside_gdelta call per level, and of the
    # sampler loop above, with the constant term evaluated once
    grid = PolyMatrix([[FreePoly.letter(2, 1), FreePoly.letter(2, 2)],
                       [FreePoly.letter(2, 2), FreePoly.letter(2, 1) * FreePoly.letter(2, 2)]])
    levels = [1 + i % 3 for i in range(12)] + [5]
    rng_singles = rng_from_seed(33)
    singles = [point_inside_gdelta(rng_singles, grid, n) for n in levels]
    rng = rng_from_seed(33)
    loop = [shrink_until_inside(rng, grid, n, sampling.DEFAULT_MARGIN)[0] for n in levels]
    points = count_grid_evaluations(monkeypatch, (sampling,))
    rng = rng_from_seed(33)
    got = points_inside_gdelta(rng, grid, levels)
    assert len([x for x in points if not any(np.any(m) for m in x.mats)]) == 1
    assert [p.n for p in got] == levels
    for a, b, c in zip(got, singles, loop):
        for ma, mb, mc in zip(a.mats, b.mats, c.mats):
            np.testing.assert_array_equal(ma, mb)
            np.testing.assert_array_equal(ma, mc)
    # the generator is left where the single draws leave it
    assert rng.standard_normal() == rng_singles.standard_normal()


TWO_VARIABLE_GRID = PolyMatrix(
    [[FreePoly.letter(2, 1), FreePoly.letter(2, 2)],
     [FreePoly.letter(2, 2), FreePoly.letter(2, 1) * FreePoly.letter(2, 2)]]
)

# constant term 0.899 just under the 0.9 target: at scale 1e8 about half
# the draws shrink 60 times without getting inside and are drawn again
NEAR_TARGET = PolyMatrix.from_poly(FreePoly.letter(1, 1) * FreePoly.letter(1, 1) + 0.899)


def draw_in_rounds(rng, delta, levels, margin, scale=1.0, target=0.9):
    """The sampler's rounds with one draw at a time and a separate in_gdelta
    verdict: each round draws a candidate for every point still missing, in
    point order, and shrinks each one by 0.7 at most 60 times.

    Returns the points and the number of rounds, or None for the points if
    some point is still missing after 200 rounds.
    """
    out = [None] * len(levels)
    for rounds in range(1, 201):
        missing = [i for i, x in enumerate(out) if x is None]
        draws = [(i, sampling.random_graded_point(rng, delta.d, levels[i], scale)) for i in missing]
        for i, x in draws:
            for _ in range(60):
                nrm = op_norm(eval_poly_matrix(delta, x))
                if nrm < target and in_gdelta(delta, x, margin).inside:
                    out[i] = x
                    break
                x = GradedPoint([0.7 * m for m in x.mats])
        if all(x is not None for x in out):
            return out, rounds
    return None, 200


def test_points_inside_gdelta_redraws_in_rounds():
    levels = [1, 2, 1, 3, 1, 2, 1, 1, 2]
    redraws = 0
    for seed in range(4):
        rng_rounds = rng_from_seed(seed)
        want, rounds = draw_in_rounds(rng_rounds, NEAR_TARGET, levels, sampling.DEFAULT_MARGIN, scale=1e8)
        redraws += rounds - 1
        rng = rng_from_seed(seed)
        got = points_inside_gdelta(rng, NEAR_TARGET, levels, scale=1e8)
        assert [p.n for p in got] == levels
        for a, b in zip(got, want):
            for ma, mb in zip(a.mats, b.mats):
                np.testing.assert_array_equal(ma, mb)
        assert rng.standard_normal() == rng_rounds.standard_normal()
    assert redraws > 0


@pytest.mark.parametrize("grid", [UNIT_DISK, TWO_VARIABLE_GRID], ids=["d1", "d2"])
@pytest.mark.parametrize("margin", [sampling.DEFAULT_MARGIN, 0.2])
def test_points_inside_gdelta_equals_validated_rounds(grid, margin):
    # the sampler's points are held without a second validation: the bytes
    # and the generator's end state of rounds built on GradedPoint(...), and
    # arrays as read-only, contiguous and complex as the constructor's
    levels = [1, 2, 3, 3, 1, 2, 2, 1, 3]
    for seed in (7, 11, 31):
        rng_rounds, rng = rng_from_seed(seed), rng_from_seed(seed)
        want, _ = draw_in_rounds(rng_rounds, grid, levels, margin)
        got = points_inside_gdelta(rng, grid, levels, margin=margin)
        assert [(p.d, p.n) for p in got] == [(grid.d, n) for n in levels]
        for a, b in zip(got, want):
            for ma, mb in zip(a.mats, b.mats):
                assert ma.tobytes() == mb.tobytes() and ma.shape == mb.shape
                assert ma.dtype == np.complex128 and ma.flags.c_contiguous
                assert not ma.flags.writeable
        assert rng.bit_generator.state == rng_rounds.bit_generator.state


def test_points_inside_gdelta_gives_up_after_200_draws():
    # at scale 1e30 no draw gets inside in 60 shrinks
    rng, rng_rounds = rng_from_seed(9), rng_from_seed(9)
    with pytest.raises(OutsideDomain, match="failed to sample a point inside the domain"):
        points_inside_gdelta(rng, NEAR_TARGET, [1, 1, 2], scale=1e30)
    assert draw_in_rounds(rng_rounds, NEAR_TARGET, [1, 1, 2], sampling.DEFAULT_MARGIN, scale=1e30)[0] is None
    assert rng.standard_normal() == rng_rounds.standard_normal()


@pytest.mark.parametrize(
    "levels, scale, margin",
    [
        ([1, 2, 3] * 4, 1e308, sampling.DEFAULT_MARGIN),  # some draws are infinite
        ([1, 2, 0, 1], 1.0, sampling.DEFAULT_MARGIN),  # a level below 1
        ([2, 1.0], 1.0, sampling.DEFAULT_MARGIN),  # a level that is not an integer
        ([1, 2], 1.0, -1.0),  # a margin the verdict refuses
    ],
)
def test_points_inside_gdelta_raises_where_the_draw_does(levels, scale, margin):
    rng_loop, rng = rng_from_seed(5), rng_from_seed(5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((ValueError, TypeError)) as want:
            for n in levels:
                shrink_until_inside(rng_loop, UNIT_DISK, n, margin, scale=scale)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            points_inside_gdelta(rng, UNIT_DISK, levels, scale=scale, margin=margin)


def test_point_inside_rejects_bad_constant():
    shifted = PolyMatrix.from_poly(FreePoly.letter(1, 1) + 2.0)
    with pytest.raises(OutsideDomain):
        point_inside_gdelta(rng_from_seed(4), shifted, 1)


def test_point_in_shrunk_domain():
    rng = rng_from_seed(5)
    t = 1.5
    for n in (1, 3):
        x = point_in_shrunk_domain(rng, UNIT_DISK, n, t)
        assert op_norm(eval_poly_matrix(UNIT_DISK, x)) <= 1.0 / t


def own_shrink_loop(rng, delta, n, t):
    """The loop point_in_shrunk_domain ran on its own: 80 shrinks, ``<=``."""
    target = (1.0 / t) * 0.999
    zero = GradedPoint([np.zeros((1, 1))] * delta.d)
    if op_norm(eval_poly_matrix(delta, zero)) > max(target, 1e-12):
        raise AssertionError("constant term outside")
    for _ in range(200):
        x = sampling.random_graded_point(rng, delta.d, n)
        for _ in range(80):
            if op_norm(eval_poly_matrix(delta, x)) <= target:
                return x
            x = GradedPoint([0.7 * m for m in x.mats])
    raise AssertionError("no point found")


def test_point_in_shrunk_domain_matches_own_loop():
    x1, x2 = FreePoly.letter(2, 1), FreePoly.letter(2, 2)
    grid = PolyMatrix([[0.5 * x1, 0.5 * x2], [0.3 * x2, 0.3 * (x1 * x2)]])
    for delta in (UNIT_DISK, grid):
        for seed in range(6):
            for t in (1.05, 2.0, 30.0, 1e4):
                rng_old, rng_new = rng_from_seed(seed), rng_from_seed(seed)
                for n in (1, 2, 3):
                    want = own_shrink_loop(rng_old, delta, n, t)
                    got = point_in_shrunk_domain(rng_new, delta, n, t)
                    for a, b in zip(got.mats, want.mats):
                        np.testing.assert_array_equal(a, b)
                assert rng_new.standard_normal() == rng_old.standard_normal()


def test_random_realization_isometric():
    rng = rng_from_seed(6)
    r = random_realization(rng, UNIT_DISK, 2, 2, 3)
    assert isometry_defect(r.j1) < 1e-12
    with pytest.raises(ShapeMismatch):
        random_realization(rng, PolyMatrix([[FreePoly.letter(1, 1)]] * 3), 1, 1, 2)


def test_perturbations_near_stay_inside():
    rng = rng_from_seed(7)
    base = point_inside_gdelta(rng, UNIT_DISK, 2)

    def contains(p):
        return in_gdelta(UNIT_DISK, p).inside

    pts = perturbations_near(rng, base, contains, count=12)
    assert len(pts) == 12
    assert all(contains(p) for p in pts)
    # sums double the level when requested
    levels = {p.n for p in pts}
    assert 2 in levels and 4 in levels
