import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grid
from freeholo.freepoly import (
    EPS_COEFF,
    FreePoly,
    GradedPoint,
    MatrixPoly,
    PolyMatrix,
    commutator_delta,
    delta_pad_columns,
    eval_poly,
    eval_poly_matrix,
    eval_poly_matrix_promoted,
    eval_poly_matrix_stack,
    promoted_apply,
)
from freeholo.errors import ShapeMismatch
from freeholo.mat import direct_sum, matrix_to_json, op_norm, op_norms
from freeholo.sampling import random_free_poly, random_graded_point, rng_from_seed


def x(i, d=2):
    return FreePoly.letter(d, i)


def random_point(seed, d, n, scale=0.5):
    rng = np.random.default_rng(seed)
    mats = [
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for _ in range(d)
    ]
    return GradedPoint(mats)


def word_value(word, pt):
    """The product of the point's matrices along the word."""
    return eval_poly(FreePoly(pt.d, {word: 1.0}), pt)


def block_diagonal(a, b):
    """The grid ``[[a, 0], [0, b]]``, built entry by entry."""
    zero = FreePoly(a.d)
    rows = [list(row) + [zero] * b.cols for row in a.entries]
    rows += [[zero] * a.cols + list(row) for row in b.entries]
    return PolyMatrix(rows, d=a.d)


NILPOTENT_PAIR = GradedPoint(
    [
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    ]
)


def test_hand_polynomial_at_scalar_pair():
    # 2 + x1 - x1 x2 x1 + 3 x1 x1 x2 at (1, 1): 2 + 1 - 1 + 3 = 5
    p = 2 + x(1) - x(1) * x(2) * x(1) + 3 * (x(1) * x(1) * x(2))
    val = eval_poly(p, GradedPoint.scalars([1.0, 1.0]))
    np.testing.assert_allclose(val, [[5.0]], atol=1e-14)


def test_word_order_matters():
    # x1 x2 at (E12, E21) is E12 E21 = diag(1, 0); reversed gives diag(0, 1)
    np.testing.assert_allclose(
        word_value((1, 2), NILPOTENT_PAIR), np.diag([1.0, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        word_value((2, 1), NILPOTENT_PAIR), np.diag([0.0, 1.0]), atol=1e-15
    )


def test_empty_word_is_identity():
    p = random_point(0, 2, 3)
    np.testing.assert_array_equal(word_value((), p), np.eye(3))


def test_long_words_evaluate_without_recursion():
    # words longer than the interpreter's recursion limit, each value the
    # left-to-right product of its letters; unitary letters keep it O(1)
    c, s = np.cos(0.3), np.sin(0.3)
    p = GradedPoint([np.array([[c, -s], [s, c]]), np.diag([1j, -1.0])])
    word = (1, 2) * 1500
    want = np.eye(2, dtype=complex)
    for letter in word:
        want = want @ p.mats[letter - 1]
    np.testing.assert_array_equal(word_value(word, p), want)
    poly = FreePoly(2, {word: 1.0, word[:2]: 2.0})
    np.testing.assert_array_equal(eval_poly(poly, p), want + 2.0 * p.mats[0] @ p.mats[1])


def test_product_expansion():
    p = (x(1) + x(2)) * (x(1) - x(2))
    assert p.terms == {
        (1, 1): 1.0 + 0.0j,
        (1, 2): -1.0 + 0.0j,
        (2, 1): 1.0 + 0.0j,
        (2, 2): -1.0 + 0.0j,
    }


def test_cancellation_drops_terms():
    p = x(1) * x(2) - x(1) * x(2)
    assert p.term_count() == 0
    assert p.terms == {}


def test_graded_lex_order():
    p = FreePoly(2, {w: 1.0 for w in [(2,), (1, 1), (), (1,), (2, 1)]})
    assert p.words() == [(), (1,), (2,), (1, 1), (2, 1)]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_eval_is_ring_morphism(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    pt = random_point(seed + 1, d, n)

    def rand_poly(r):
        g = np.random.default_rng(r)
        p = FreePoly(d)
        for _ in range(4):
            w = tuple(int(v) for v in g.integers(1, d + 1, size=g.integers(0, 4)))
            c = complex(g.standard_normal(), g.standard_normal())
            p = p + FreePoly(d, {w: c})
        return p

    p, q = rand_poly(seed + 2), rand_poly(seed + 3)
    np.testing.assert_allclose(
        eval_poly(p * q, pt), eval_poly(p, pt) @ eval_poly(q, pt), atol=1e-10
    )
    np.testing.assert_allclose(
        eval_poly(p + q, pt), eval_poly(p, pt) + eval_poly(q, pt), atol=1e-12
    )
    # the graded form against a dict of running sums: same words, and each
    # coefficient within k eps sum |contribution| for its k contributions
    c = complex(rng.standard_normal(), rng.standard_normal())
    pt_, qt_ = p.terms.items(), q.terms.items()
    for got, contributions in [
        (p + q, [*pt_, *qt_]),
        (p - q, [*pt_, *((w, -v) for w, v in qt_)]),
        (p * q, [(u + w, a * b) for u, a in pt_ for w, b in qt_]),
        (-p, [(w, -v) for w, v in pt_]),
        (p.scale(c), [(w, c * v) for w, v in pt_]),
    ]:
        want, bound = {}, {}
        for w, v in contributions:
            want[w] = want.get(w, 0j) + v
            bound[w] = bound.get(w, 0.0) + 2.3e-16 * abs(v)
        want = {w: v for w, v in want.items() if abs(v) >= EPS_COEFF}
        terms = got.terms
        assert set(terms) == set(want)
        for w, v in want.items():
            k = sum(u == w for u, _ in contributions)
            assert abs(terms[w] - v) <= k * bound[w]
        parts = got.stack.view(np.float64)
        assert not np.signbit(parts[parts == 0]).any()


def test_eval_respects_direct_sums():
    p = 1 + x(1) * x(2) - 2 * x(2)
    a = random_point(5, 2, 2)
    b = random_point(6, 2, 3)
    joined = GradedPoint(
        [
            np.block(
                [
                    [a.mats[i], np.zeros((2, 3))],
                    [np.zeros((3, 2)), b.mats[i]],
                ]
            )
            for i in range(2)
        ]
    )
    va, vb, vj = eval_poly(p, a), eval_poly(p, b), eval_poly(p, joined)
    np.testing.assert_allclose(vj[:2, :2], va, atol=1e-12)
    np.testing.assert_allclose(vj[2:, 2:], vb, atol=1e-12)
    np.testing.assert_allclose(vj[:2, 2:], 0, atol=1e-12)


def test_freepoly_json_roundtrip():
    p = 0.5 * x(1) - (1.0 + 2.0j) * (x(2) * x(1)) + 3
    again = FreePoly.from_json(p.to_json())
    assert again == p


def test_poly_matrix_block_layout():
    pm = PolyMatrix([[x(1), FreePoly.const(2, 1.0)], [FreePoly(2), x(2)]])
    pt = random_point(7, 2, 2)
    val = eval_poly_matrix(pm, pt)
    assert val.shape == (4, 4)
    np.testing.assert_allclose(val[:2, :2], pt.mats[0], atol=1e-14)
    np.testing.assert_allclose(val[:2, 2:], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(val[2:, :2], 0, atol=1e-14)
    np.testing.assert_allclose(val[2:, 2:], pt.mats[1], atol=1e-14)


def test_promoted_eval_norm_matches():
    pm = PolyMatrix([[x(1), x(2)], [x(2) * x(1), FreePoly.const(2, 0.5)]])
    pt = random_point(8, 2, 3)
    plain = op_norm(eval_poly_matrix(pm, pt))
    for mult in (1, 2, 3):
        promoted = eval_poly_matrix_promoted(pm, pt, mult)
        assert promoted.shape == (3 * mult * 2, 3 * mult * 2)
        assert op_norm(promoted) == pytest.approx(plain, rel=1e-12)


def test_commutator_delta_values():
    delta = commutator_delta()
    scalars = GradedPoint.scalars([0.7, -1.3])
    assert op_norm(eval_poly_matrix(delta, scalars)) == pytest.approx(1.0, rel=1e-12)
    assert op_norm(eval_poly_matrix(delta, NILPOTENT_PAIR)) == pytest.approx(
        0.0, abs=1e-14
    )


def test_delta_direct_sum_and_padding_preserve_norm():
    d1 = PolyMatrix.from_poly(x(1))
    d2 = PolyMatrix.from_poly(0.5 * x(2))
    pt = random_point(9, 2, 2)
    n1 = op_norm(eval_poly_matrix(d1, pt))
    n2 = op_norm(eval_poly_matrix(d2, pt))
    both = block_diagonal(d1, d2)
    assert op_norm(eval_poly_matrix(both, pt)) == pytest.approx(
        max(n1, n2), rel=1e-12
    )
    padded = delta_pad_columns(d1, 3)
    assert padded.cols == d1.cols + 3
    assert op_norm(eval_poly_matrix(padded, pt)) == pytest.approx(n1, rel=1e-12)


def test_poly_matrix_json_roundtrip():
    pm = PolyMatrix([[x(1), x(2) * x(1)], [FreePoly.const(2, 2.0j), x(2)]])
    again = PolyMatrix.from_json(pm.to_json())
    assert again == pm


def test_poly_matrix_json_header_must_match_entries():
    obj = PolyMatrix([[x(1), x(2) * x(1)]]).to_json()
    for key, bad in [("d", 5), ("rows", 2), ("cols", 1)]:
        with pytest.raises(ShapeMismatch, match="header disagrees with entries"):
            PolyMatrix.from_json({**obj, key: bad})


def test_poly_matrix_hash_ignores_zero_sign():
    pm = PolyMatrix([[x(1), x(2)]])
    signed = np.where(pm.stack == 0, -0.0, pm.stack)
    flipped = PolyMatrix._of(2, pm.word_rows, signed)
    assert np.signbit(flipped.stack.real).any()
    assert flipped == pm and hash(flipped) == hash(pm)


WORDS = st.lists(st.integers(1, 3), max_size=3).map(tuple)
COEFFS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def grids(d):
    """Grids up to 3x3 in d variables, words up to length 3."""
    entry = st.dictionaries(WORDS.map(lambda w: tuple(min(i, d) for i in w)), COEFFS, max_size=4)
    shape = st.tuples(st.integers(1, 3), st.integers(1, 3))
    return shape.flatmap(
        lambda s: st.lists(st.lists(entry.map(lambda t: FreePoly(d, t)), min_size=s[1],
                                    max_size=s[1]), min_size=s[0], max_size=s[0])
    ).map(lambda rows: PolyMatrix(rows, d=d))


@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(grids(d), grids(d))),
    st.integers(1, 4), st.integers(0, 10_000), st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_grid_coefficient_form_properties(pair, n, seed, extra):
    pm, other = pair
    pt = random_point(seed, pm.d, n)
    val = eval_poly_matrix(pm, pt)
    for i, row in enumerate(pm.entries):
        for j, p in enumerate(row):
            block = val[i * n : (i + 1) * n, j * n : (j + 1) * n]
            # a sum of k terms in another order moves by under k eps sum |term|
            scale = sum(abs(c) * np.abs(word_value(w, pt)).max() for w, c in p.terms.items())
            assert np.abs(block - eval_poly(p, pt)).max() <= 1e-14 * scale
    assert PolyMatrix(pm.entries, d=pm.d) == pm
    again = PolyMatrix.from_json(pm.to_json())
    assert again == pm and hash(again) == hash(pm)
    assert again.stack.tobytes() == pm.stack.tobytes()
    both = eval_poly_matrix(block_diagonal(pm, other), pt)
    np.testing.assert_array_equal(both, direct_sum(val, eval_poly_matrix(other, pt)))
    padded = eval_poly_matrix(delta_pad_columns(pm, extra), pt)
    np.testing.assert_array_equal(padded, np.pad(val, ((0, 0), (0, n * extra))))


@st.composite
def matrix_polys(draw):
    """Matrix polynomials up to 3x3 in up to 3 variables, words up to length 3."""
    d, out_dim, in_dim = (draw(st.integers(1, 3)) for _ in range(3))
    words = draw(st.lists(WORDS.map(lambda w: tuple(min(i, d) for i in w)), max_size=4))
    size = out_dim * in_dim
    coeffs = st.lists(COEFFS, min_size=size, max_size=size)
    terms = {w: np.reshape(draw(coeffs), (out_dim, in_dim)) for w in words}
    return MatrixPoly(d, out_dim, in_dim, terms)


@given(matrix_polys(), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_matrix_poly_eval_is_grid_eval_level_outside(mp, n, seed):
    # one normal form, two layouts: MatrixPoly.eval permutes the grid value
    pt = random_point(seed, mp.d, n)
    grid = PolyMatrix._of(mp.d, mp.word_rows, mp.stack)
    value = eval_poly_matrix(mp, pt)
    assert value.tobytes() == eval_poly_matrix(grid, pt).tobytes()
    level_outer = value.reshape(mp.rows, n, mp.cols, n).transpose(1, 0, 3, 2)
    assert mp.eval(pt).tobytes() == level_outer.reshape(n * mp.rows, n * mp.cols).tobytes()
    assert grid != mp and MatrixPoly.from_json(mp.to_json()) == mp


def test_matrix_poly_eval_matches_kron_sum():
    c0 = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    c1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    mp = MatrixPoly(1, 2, 2, {(): c0, (1,): c1})
    pt = random_point(10, 1, 3)
    expected = np.kron(np.eye(3), c0) + np.kron(pt.mats[0], c1)
    np.testing.assert_allclose(mp.eval(pt), expected, atol=1e-13)


def test_matrix_poly_poly_matrix_roundtrip():
    pm = PolyMatrix([[x(1), FreePoly.const(2, 1.5)], [x(2), x(1) * x(2)]])
    mp = MatrixPoly._of(pm.d, pm.word_rows, pm.stack)
    assert mp.words() == [(), (1,), (2,), (1, 2)]
    np.testing.assert_array_equal(mp.terms[(1,)], [[1, 0], [0, 0]])
    assert PolyMatrix(pm.entries, d=pm.d) == pm
    assert pm.entries[1][1] == x(1) * x(2)
    pt = random_point(12, 2, 2)
    # the two layouts differ by a fixed permutation, so norms agree
    assert op_norm(mp.eval(pt)) == pytest.approx(
        op_norm(eval_poly_matrix(pm, pt)), rel=1e-12
    )


def test_free_poly_rejects_non_finite_coefficients():
    # given, or reached by overflow in +, * or scale
    for coeff in (float("inf"), float("nan"), complex(0.0, float("-inf"))):
        with pytest.raises(ValueError, match="finite"):
            FreePoly(1, {(1,): coeff})
        with pytest.raises(ValueError, match="finite"):
            FreePoly.const(1, coeff)
    big = FreePoly.const(1, 1e300) + FreePoly.letter(1, 1)
    huge = big.scale(1e8)
    for overflow in (lambda: big * big, lambda: huge + huge, lambda: big.scale(1e10)):
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            overflow()


def test_matrix_poly_rejects_non_finite_coefficients():
    # a NaN coefficient used to be purged and an infinite one kept
    with pytest.raises(ValueError, match="finite"):
        MatrixPoly(1, 1, 1, {(1,): [[np.nan]], (): [[np.inf]]}).term_count()


def test_matrix_poly_graded_stack():
    mp = MatrixPoly(
        2, 1, 1, {(2, 1): [[1.0]], (1,): [[2.0]], (): [[3.0]], (2,): [[1e-16]], (1, 2): [[4.0]]}
    )
    assert mp.words() == [(), (1,), (1, 2), (2, 1)]
    np.testing.assert_array_equal(mp.stack[:, 0, 0], [3.0, 2.0, 4.0, 1.0])
    assert not mp.stack.flags.writeable
    for w, c in zip(mp.words(), mp.stack):
        assert np.shares_memory(mp.terms[w], mp.stack)
        np.testing.assert_array_equal(mp.terms[w], c)
    with pytest.raises(ShapeMismatch):
        MatrixPoly(1, 1, 2, {(1,): [[1.0]]})
    with pytest.raises(ValueError, match="letter 3 outside 1..2"):
        MatrixPoly(2, 1, 1, {(1, 3): [[1.0]]})
    # a word listed twice merges in row order: (1e16 - 1e16) + 1 is 1, not 0
    terms = [((2, 1), 1e16), ((1,), 2.0), ((2, 1), -1e16), ((2, 1), 1.0)]
    obj = {"d": 2, "out_dim": 1, "in_dim": 1,
           "terms": [{"word": list(w), "coeff": matrix_to_json([[c]])} for w, c in terms]}
    merged = MatrixPoly.from_json(obj)
    assert merged.words() == [(1,), (2, 1)] and merged.stack[1, 0, 0] == 1.0
    assert not merged.word_rows.flags.writeable


def test_matrix_poly_json_roundtrip():
    mp = MatrixPoly(
        2, 1, 2, {(1,): np.array([[1.0, 2.0j]]), (2, 2): np.array([[0.5, 0.0]])}
    )
    again = MatrixPoly.from_json(mp.to_json())
    assert again.words() == mp.words()
    for w in mp.words():
        np.testing.assert_array_equal(again.terms[w], mp.terms[w])


@pytest.mark.parametrize(
    "word, coeff, message",
    [
        ((1, 3), 1.0, "letter 3 outside 1..2"),
        ((0, 1), 1.0, "letter 0 outside 1..2"),
        ((2,), np.nan, "matrix polynomial coefficients must be finite"),
        ((), np.inf, "matrix polynomial coefficients must be finite"),
    ],
)
def test_matrix_poly_entry_points_reject_alike(word, coeff, message):
    with pytest.raises(ValueError) as by_dict:
        MatrixPoly(2, 1, 1, {word: [[coeff]]})
    with pytest.raises(ValueError) as by_ring:
        FreePoly(2, {word: coeff})
    assert str(by_dict.value) == str(by_ring.value) == message


def test_graded_point_validation():
    from freeholo.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        GradedPoint([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        GradedPoint([])
    with pytest.raises(ValueError, match="level must be at least 1"):
        GradedPoint([np.zeros((0, 0))])


def test_graded_point_json_roundtrip():
    pt = random_point(13, 3, 2)
    again = GradedPoint.from_json(pt.to_json())
    assert again.d == pt.d and again.n == pt.n
    for a, b in zip(again.mats, pt.mats):
        np.testing.assert_array_equal(a, b)


@given(
    st.integers(0, 10_000),
    st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (2, 2)]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_promoted_apply_matches_dense(seed, grid, mult, n, q):
    rng = rng_from_seed(seed)
    delta = random_grid(rng, *grid)
    # any point: the product needs no membership
    x = random_graded_point(rng, 2, n, scale=3.0)
    y = rng.standard_normal((n * mult * grid[1], q)) + 1j * rng.standard_normal(
        (n * mult * grid[1], q)
    )
    want = eval_poly_matrix_promoted(delta, x, mult) @ y
    dx = eval_poly_matrix(delta, x)
    np.testing.assert_allclose(promoted_apply(dx, n, mult, y), want, rtol=0, atol=1e-12)
    with pytest.raises(ShapeMismatch):
        promoted_apply(dx, n, mult, y[1:])


@pytest.mark.parametrize("grid, mult, n, q", [((1, 2), 1, 1, 1), ((2, 3), 2, 3, 2), ((3, 1), 3, 2, 4)])
def test_promoted_apply_stack_is_its_members(grid, mult, n, q):
    rng = rng_from_seed(sum(grid) + 10 * mult + 100 * n)
    delta = random_grid(rng, *grid)
    dxs = np.stack([eval_poly_matrix(delta, random_graded_point(rng, 2, n)) for _ in range(3)])
    shape = (3, n * mult * grid[1], q)
    ys = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = promoted_apply(dxs, n, mult, ys)
    assert got.shape == (3, n * mult * grid[0], q)
    for member, dx, y in zip(got, dxs, ys):
        assert np.array_equal(member, promoted_apply(dx, n, mult, y))
    with pytest.raises(ShapeMismatch):
        promoted_apply(dxs, n, mult, ys[:, 1:])


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    n=st.integers(1, 4),
    p=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_stacked_kernels_equal_their_one_point_cases(seed, d, shape, n, p):
    rng = np.random.default_rng(seed)
    grid = PolyMatrix(
        [[random_free_poly(rng, d, max_degree=3) for _ in range(shape[1])] for _ in range(shape[0])]
    )
    mats = [
        rng.standard_normal((p, n, n)) + 1j * rng.standard_normal((p, n, n)) for _ in range(d)
    ]
    values = eval_poly_matrix_stack(grid, mats)
    assert values.shape == (p, shape[0] * n, shape[1] * n)
    for k in range(p):
        one = eval_poly_matrix(grid, GradedPoint([m[k] for m in mats]))
        assert values[k].tobytes() == one.tobytes()
    norms = op_norms(values)
    assert [v.tobytes() for v in norms] == [np.float64(op_norm(v)).tobytes() for v in values]
    # a NaN norm exactly where a matrix holds a NaN or an infinite entry
    bad = rng.random(p) < 0.5
    for k in np.flatnonzero(bad):
        values[k].flat[rng.integers(values[k].size)] = rng.choice([np.nan, np.inf, -np.inf])
    assert (np.isnan(op_norms(values)) == bad).all()


def test_stacked_kernels_on_empty_stacks():
    grid = PolyMatrix([[x(1), x(2) * x(1)]])
    empty = eval_poly_matrix_stack(grid, [np.zeros((0, 3, 3))] * 2)
    assert empty.shape == (0, 3, 6)
    assert op_norms(empty).shape == (0,)
    assert op_norms(np.zeros((4, 0, 3))).tolist() == [0.0] * 4
    assert op_norm(np.zeros((2, 0))) == 0.0
