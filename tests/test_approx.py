import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    expand_by_word_dicts,
    random_graded,
    random_grid,
    random_rect_realization,
)
from freeholo import approx
from freeholo.approx import (
    certify_error,
    choose_truncation,
    expand_polynomial,
    select_covering_delta,
)
from freeholo.errors import NoCover, NonFiniteValue, TermBlowup
from freeholo.freepoly import (
    FreePoly,
    GradedPoint,
    MatrixPoly,
    PolyMatrix,
    eval_poly_matrix,
    eval_poly_matrix_promoted,
)
from freeholo.mat import op_norm
from freeholo.ncpoint import point_direct_sum
from freeholo.realize import Realization, eval_direct
from freeholo.sampling import point_in_shrunk_domain, rng_from_seed

UNIT_DISK = PolyMatrix.from_poly(FreePoly.letter(1, 1))
SHIFT = Realization(UNIT_DISK, 1, 1, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))


def mobius(a):
    s = np.sqrt(1.0 - abs(a) ** 2)
    return Realization(
        UNIT_DISK, 1, 1, 1, np.array([[a, s], [s, -np.conj(a)]], dtype=complex)
    )


def scalars(*vals):
    return [GradedPoint.scalars([v]) for v in vals]


def test_cover_single_candidate():
    sel = select_covering_delta(scalars(0.5, 0.2), [UNIT_DISK])
    assert sel.index == 0
    assert sel.radius == pytest.approx(0.5)
    assert sel.t == pytest.approx(1.5)


def test_cover_elimination():
    tight = PolyMatrix.from_poly(FreePoly.letter(1, 1).scale(4.0))
    sel = select_covering_delta(scalars(0.5, 0.2), [tight, UNIT_DISK])
    assert sel.index == 1
    assert sel.radius == pytest.approx(0.5)


def test_cover_tie_breaks_to_first():
    sel = select_covering_delta(scalars(0.5), [UNIT_DISK, UNIT_DISK])
    assert sel.index == 0


def test_cover_failure():
    with pytest.raises(NoCover):
        select_covering_delta(scalars(1.2), [UNIT_DISK])
    with pytest.raises(NoCover):
        select_covering_delta([], [UNIT_DISK])
    with pytest.raises(NoCover):
        select_covering_delta(scalars(0.5), [])


# each letter grid houses one of PA, PB, and neither houses both
DA = PolyMatrix.from_poly(FreePoly.letter(2, 1))
DB = PolyMatrix.from_poly(FreePoly.letter(2, 2))
PA = GradedPoint.scalars([0.5, 3.0])
PB = GradedPoint.scalars([3.0, 0.5])


def test_split_samples_have_no_cover():
    assert select_covering_delta([PA], [DA, DB]).index == 0
    assert select_covering_delta([PB], [DA, DB]).index == 1
    with pytest.raises(NoCover):
        select_covering_delta([PA, PB], [DA, DB])


GRID = PolyMatrix([
    [FreePoly.letter(2, 1).scale(0.5), FreePoly.letter(2, 2).scale(0.5)],
    [FreePoly.letter(2, 2).scale(0.3), (FreePoly.letter(2, 1) * FreePoly.letter(2, 2)).scale(0.3)],
])


def test_non_finite_candidate_carries_its_position():
    # x1 x2 overflows at (1e200, 1e200); the letter grid DA stays finite
    pts = [GradedPoint.scalars([0.1, 0.1]), GradedPoint.scalars([1e200, 1e200])]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NonFiniteValue, match="^candidate grid 1 is not finite"
    ) as caught:
        select_covering_delta(pts, [DA, GRID])
    assert caught.value.candidate == 1


def scaled(grid, c):
    return PolyMatrix([[e.scale(c) for e in row] for row in grid.entries], d=grid.d)


def grid_of(*rows):
    """A two-variable grid from rows of ``{word: coefficient}`` entries."""
    return PolyMatrix([[FreePoly(2, e) for e in row] for row in rows], d=2)


@pytest.mark.parametrize(
    "cover, grid, holds",
    [
        (GRID, GRID, True),
        (scaled(GRID, 1.25), GRID, True),  # c = 0.8, as the approx workload's decoy
        (scaled(GRID, 0.3), GRID, False),  # c would be 1/0.3
        (scaled(GRID, -1.0), GRID, False),  # c would be -1
        (GRID, grid_of([{(2,): 0.25}]), True),  # half of entry (0, 1)
        (GRID, grid_of([{(1,): 1.0}]), False),  # twice entry (0, 0)
        (GRID, grid_of([{(1,): 0.5}, {(2,): 0.5}]), True),  # row 0
        (GRID, grid_of([{(1,): 0.5}], [{(2,): 0.3}]), True),  # column 0
        (GRID, grid_of([{(2,): 0.5}], [{(2,): 0.3}]), False),  # entries (0, 1) and (1, 0)
        (GRID, grid_of([{(1, 1): 0.5}]), False),  # a word GRID lacks
        (GRID, grid_of([{(1,): 0.5}, {}, {(2,): 0.5}]), True),  # row 0, a zero column between
        (GRID, grid_of([{(1,): 0.5}, {}], [{}, {}]), True),  # a fit's padding
        (DA, GRID, False),  # larger than the cover
        (UNIT_DISK, PolyMatrix.from_poly(FreePoly.letter(2, 1)), False),  # other d
    ],
)
def test_dominates_needs_a_scaled_submatrix(cover, grid, holds):
    assert approx.dominates(cover, grid) is holds


def test_dominates_skips_covers_past_the_selection_cap(monkeypatch):
    one = grid_of([{(1,): 0.5}])
    monkeypatch.setattr(approx, "SUBMATRIX_CAP", 3)  # GRID has 4 1x1 selections
    assert not approx.dominates(GRID, one)


@st.composite
def cover_cases(draw):
    """Random two-variable samples at levels 1-3 and one to three random grids."""
    seed = draw(st.integers(0, 10_000))
    rng = rng_from_seed(seed)
    scale = draw(st.sampled_from([0.05, 0.2, 0.5]))
    levels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    samples = [random_graded(seed + i, 2, n, scale) for i, n in enumerate(levels)]
    shapes = draw(st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), min_size=1, max_size=3))
    return samples, [random_grid(rng, *shape) for shape in shapes]


def cover(points, candidates):
    try:
        return select_covering_delta(points, candidates)
    except NoCover:
        return None


@given(cover_cases())
@example(([PA, PB], [DA, DB]))
@settings(max_examples=40, deadline=None)
def test_direct_sums_leave_the_cover_unchanged(case):
    # ||delta(x (+) y)|| = max(||delta(x)||, ||delta(y)||), so adding direct
    # sums of the samples changes neither the verdict nor the radius
    samples, candidates = case
    sums = [point_direct_sum(x, y) for x in samples for y in samples]
    sums.append(point_direct_sum(sums[0], samples[-1]))
    want = cover(samples, candidates)
    got = cover(samples + sums, candidates)
    if want is None:
        assert got is None
        return
    assert got.index == want.index
    assert got.radius == pytest.approx(want.radius, rel=1e-12)
    assert got.t == pytest.approx(want.t, rel=1e-12)


def test_certify_error_hand_value():
    # t = 2, K = 10: 2^-12 / (1 - 1/2) = 2^-11
    assert certify_error(SHIFT, 10, 2.0) == pytest.approx(2.0**-11)
    # larger t shrinks the bound
    assert certify_error(SHIFT, 10, 4.0) < certify_error(SHIFT, 10, 2.0)
    with pytest.raises(ValueError):
        certify_error(SHIFT, 10, 1.0)
    with pytest.raises(ValueError):
        certify_error(SHIFT, -1, 2.0)


def test_choose_truncation_minimal():
    t = 1.5
    for tol in (1e-3, 1e-6, 1e-9):
        k = choose_truncation(tol, t)
        assert certify_error(SHIFT, k, t) <= tol
        if k > 0:
            assert certify_error(SHIFT, k - 1, t) > tol


def test_expand_shift_is_exact_letter():
    poly = expand_polynomial(SHIFT, 7)
    assert poly.words() == [(1,)]
    np.testing.assert_allclose(poly.terms[(1,)], [[1.0]], atol=1e-15)


def test_expand_mobius_taylor_coefficients():
    # (a + x)(1 + a x)^(-1) = a + (1-a^2)(x - a x^2 + a^2 x^3 - ...), a = 0.5
    poly = expand_polynomial(mobius(0.5), 2)
    coeff = {w: complex(poly.terms[w][0, 0]) for w in poly.words()}
    assert coeff[()] == pytest.approx(0.5)
    assert coeff[(1,)] == pytest.approx(0.75)
    assert coeff[(1, 1)] == pytest.approx(-0.375)
    assert coeff[(1, 1, 1)] == pytest.approx(0.1875)


def test_expand_constant_when_b_is_zero():
    j1 = np.eye(2, dtype=complex)
    j1[1, 1] = -1.0
    r = Realization(UNIT_DISK, 1, 1, 1, j1)  # A = 1, B = 0, C = 0, D = -1
    poly = expand_polynomial(r, 4)
    assert poly.words() == [()]
    np.testing.assert_allclose(poly.terms[()], [[1.0]], atol=1e-15)


def test_expansion_error_within_certificate():
    r = mobius(0.3 + 0.2j)
    t = 1.5
    k = choose_truncation(1e-4, t)
    bound = certify_error(r, k, t)
    poly = expand_polynomial(r, k)
    rng = rng_from_seed(20)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(10):
            x = point_in_shrunk_domain(rng, UNIT_DISK, n, t)
            dev = op_norm(poly.eval(x) - eval_direct(r, x))
            worst = max(worst, dev)
    assert worst <= bound + 1e-9


def test_expansion_band_homogeneity():
    # the order-(k+1) band evaluates no larger than ||delta(x)||^(k+2)
    r = mobius(0.4)
    rng = rng_from_seed(21)
    for k in (0, 1, 3):
        hi = expand_polynomial(r, k + 1).terms
        lo = expand_polynomial(r, k).terms
        band = MatrixPoly(
            1, 1, 1, {w: hi.get(w, 0) - lo.get(w, 0) for w in hi.keys() | lo.keys()}
        )
        for n in (1, 2):
            x = point_in_shrunk_domain(rng, UNIT_DISK, n, 1.4)
            r0 = op_norm(eval_poly_matrix(UNIT_DISK, x))
            assert op_norm(band.eval(x)) <= r0 ** (k + 2) + 1e-10


def dense_partial_sum(r, x, k):
    """``A~ + B~ sum_{j<=k} Delta (D~ Delta)^j C~`` with every factor formed."""
    n = x.n
    big = eval_poly_matrix_promoted(r.delta, x, r.mult)
    a, b, c, d = (
        np.kron(np.eye(n), blk) for blk in (r.block_a, r.block_b, r.block_c, r.block_d)
    )
    leg = big @ c
    total = a + b @ leg
    for _ in range(k):
        leg = big @ (d @ leg)
        total = total + b @ leg
    return total


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
    st.integers(1, 3),
    st.sampled_from([-2, -1, 1, 2]),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_expansion_matches_dense_partial_sum(seed, grid, k1, offset, mult, k, n):
    # rectangular grids, k1 != k2 and mult > 1 exercise the promoted layout
    # that a 1x1 grid at multiplicity 1 cannot tell apart
    rng = rng_from_seed(seed)
    r = random_rect_realization(rng, *grid, k1, offset, mult)
    x = random_graded(seed + 1, 2, n, 0.3)
    poly = expand_polynomial(r, k)
    assert (poly.out_dim, poly.in_dim) == (r.dim_k2, r.dim_k1)
    np.testing.assert_allclose(poly.eval(x), dense_partial_sum(r, x, k), rtol=0, atol=1e-12)


def test_term_cap_raises_term_blowup(monkeypatch):
    # word counts 4, 13, 40, 121, 364 at orders 0-4; the cap bounds acc
    # after each order and equality is allowed
    r = random_rect_realization(np.random.default_rng(5), 2, 1, 1, 1, 2)
    monkeypatch.setattr(approx, "TERM_CAP", 364)
    assert expand_polynomial(r, 4).term_count() == 364
    monkeypatch.setattr(approx, "TERM_CAP", 3)
    with pytest.raises(TermBlowup, match=r"^expansion reached 4 terms at order 0, cap 3$"):
        expand_polynomial(r, 4)
    monkeypatch.setattr(approx, "TERM_CAP", 40)
    with pytest.raises(TermBlowup, match=r"^expansion reached 121 terms at order 3, cap 40$"):
        expand_polynomial(r, 4)


def test_expansion_constructs_one_matrix_poly(monkeypatch):
    # the one dict-constructor call builds the grid's coefficient form with
    # the realization; the promoted grid and the result come from graded rows
    calls = []
    init = MatrixPoly.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MatrixPoly, "__init__", counting_init)
    r = random_rect_realization(np.random.default_rng(5), 2, 1, 1, 1, 2)
    assert expand_polynomial(r, 4).term_count() == 364
    assert len(calls) <= 1


def assert_same_expansion(new, old):
    """Same words, coefficients within 1e-14 relative; True when bitwise equal."""
    assert new.words() == old.words()
    bitwise = True
    got_terms = new.terms  # the property rebuilds its dict on every read
    for w, want in old.terms.items():
        got = got_terms[w]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        bitwise = bitwise and np.array_equal(got.view(np.int64), want.view(np.int64))
    return bitwise


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]),
    st.integers(1, 2),
    st.sampled_from([-1, 1, 2]),
    st.integers(1, 3),
    st.integers(0, 5),
)
@settings(max_examples=30, deadline=None)
def test_expansion_matches_word_recursion(seed, grid, k1, offset, mult, k):
    # the graded-array expansion against the word-by-word dict recursion;
    # the statistics (--hypothesis-show-statistics) say how often the
    # coefficients agree bit for bit, signs of zero included
    r = random_rect_realization(rng_from_seed(seed), *grid, k1, offset, mult)
    same_bits = assert_same_expansion(expand_polynomial(r, k), expand_by_word_dicts(r, k))
    event("bitwise equal" if same_bits else "equal to 1e-14 relative")


def test_expansion_of_long_words():
    # words up to x2^71: a base-(d+1) integer code of x2^40 would already
    # pass 3**39 > 2**63, and the expansion compares words letter by letter
    a = 0.99
    s = np.sqrt(1.0 - a * a)
    grid = PolyMatrix.from_poly(FreePoly(2, {(2,): 0.9}))
    r = Realization(grid, 1, 1, 1, np.array([[a, s], [s, -a]]))
    poly = expand_polynomial(r, 70)
    assert poly.words() == [(2,) * n for n in range(72)]
    assert assert_same_expansion(poly, expand_by_word_dicts(r, 70))
