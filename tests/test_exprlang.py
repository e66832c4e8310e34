import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graded, random_parser_ast
from freeholo.errors import (
    ExprSyntaxError,
    FreeholoError,
    NotPolynomial,
    ShapeMismatch,
    SingularMatrix,
    SingularityHit,
    UnknownVariable,
)
from freeholo.exprlang import (
    Add,
    Const,
    Inv,
    Mul,
    Neg,
    Schedule,
    Sub,
    Var,
    eval_expr,
    eval_expr_points,
    eval_expr_stack,
    parse,
    print_expr,
    to_free_poly,
)
from freeholo.freepoly import GradedPoint, eval_poly, level_stacks
from freeholo.mat import SINGULAR_RTOL

FLAGSHIP = "2 + x1 - x1*x2*x1 + 3*x1*x1*x2"


def test_flagship_parse_and_eval():
    ast = parse(FLAGSHIP, 2)
    val = eval_expr(ast, GradedPoint.scalars([1.0, 1.0]))
    np.testing.assert_allclose(val, [[5.0]], atol=1e-14)
    # through the polynomial path as well
    poly = to_free_poly(ast, 2)
    val2 = eval_poly(poly, GradedPoint.scalars([1.0, 1.0]))
    np.testing.assert_allclose(val2, [[5.0]], atol=1e-14)


def test_precedence():
    # product binds tighter than sum
    t = parse("x1 + x2*x1", 2)
    assert isinstance(t, Add)
    assert isinstance(t.right, Mul)
    t2 = parse("(x1 + x2)*x1", 2)
    assert isinstance(t2, Mul)
    assert isinstance(t2.left, Add)


def test_left_association():
    t = parse("x1*x2*x1", 2)
    assert t == Mul(Mul(Var(1), Var(2)), Var(1))
    t = parse("x1 - x2 - x1", 2)
    assert t == Sub(Sub(Var(1), Var(2)), Var(1))


def test_number_forms():
    assert parse("2", 1) == Const(2.0 + 0.0j)
    assert parse("0.5", 1) == Const(0.5 + 0.0j)
    assert parse("2.5i", 1) == Const(2.5j)
    assert parse("1e-3", 1) == Const(1e-3 + 0.0j)
    assert parse("1.5E+2", 1) == Const(150.0 + 0.0j)
    assert parse("1.", 1) == Const(1.0 + 0.0j)
    assert parse(".5", 1) == Const(0.5 + 0.0j)
    assert parse("x12", 12) == Var(12)
    # any Unicode whitespace separates tokens, here a tab and an NBSP
    assert parse("x1\t*\xa0x1", 1) == Mul(Var(1), Var(1))


def test_unary_minus():
    t = parse("-x1*x2", 2)
    assert t == Mul(Neg(Var(1)), Var(2))
    t = parse("-(x1*x2)", 2)
    assert t == Neg(Mul(Var(1), Var(2)))
    assert repr(t) == "Neg(operand=Mul(left=Var(index=1), right=Var(index=2)))"


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("x1 + * 2", 2)
    assert ei.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + x2", 2)
    with pytest.raises(ExprSyntaxError):
        parse("", 2)
    with pytest.raises(ExprSyntaxError):
        parse("x1 $ x2", 2)
    # "invx1" lexes as inv then x1; "1e" as 1 then a stray e
    for src, offset in [("invx1", 3), ("1e", 1), ("x", 0)]:
        with pytest.raises(ExprSyntaxError) as ei:
            parse(src, 1)
        assert ei.value.offset == offset


@pytest.mark.parametrize(
    "src, offset, message",
    [
        ("x²", 0, "unexpected character 'x'"),
        ("8i7٣", 3, "unexpected character '٣'"),
        ("²", 0, "unexpected character '²'"),
        ("1e999", 0, "number literal '1e999' out of range"),
        ("x1 + 1e999i", 5, "number literal '1e999i' out of range"),
    ],
)
def test_non_ascii_digits_and_overflowing_literals(src, offset, message):
    # digits are ASCII only and a literal must be a finite float
    with pytest.raises(ExprSyntaxError) as ei:
        parse(src, 1)
    assert ei.value.offset == offset
    assert message in str(ei.value)


# pieces of the token grammar plus characters that look like its digits
GRAMMAR_TEXT = st.lists(
    st.sampled_from(
        ["x", "1", "2", "07", ".", "e", "E", "+", "-", "*", "(", ")", "i", "inv",
         " ", "\t", "\xa0", "²", "٣", "e308", "e-400", "e999"]
    ),
    max_size=24,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(src=st.one_of(st.text(), GRAMMAR_TEXT))
@example(src="x²")
@example(src="8i7٣")
@example(src="1e999i")
def test_parse_raises_syntax_error_or_round_trips(src):
    try:
        t = parse(src, 2)
    except ExprSyntaxError:
        return
    assert parse(print_expr(t), 2) == t


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as ei:
        parse("x3", 2)
    assert ei.value.index == 3
    assert ei.value.d == 2


def test_inv_evaluation():
    ast = parse("inv(1 - x1)", 1)
    val = eval_expr(ast, GradedPoint.scalars([0.5]))
    np.testing.assert_allclose(val, [[2.0]], atol=1e-12)


def test_inv_matrix_argument():
    ast = parse("inv(1 - x1*x1)", 1)
    x = random_graded(30, 1, 3, scale=0.3)
    expected = np.linalg.inv(np.eye(3) - x.mats[0] @ x.mats[0])
    np.testing.assert_allclose(eval_expr(ast, x), expected, atol=1e-11)


def test_singularity_reports_path():
    ast = parse("x1 + inv(x1 - 1)*inv(x1)", 1)
    with pytest.raises(SingularityHit) as ei:
        eval_expr(ast, GradedPoint.scalars([1.0]))
    steps = Schedule(ast)
    paths = {steps.path(i) for i, node in enumerate(steps.nodes) if isinstance(node, Inv)}
    assert tuple(ei.value.path) in paths
    # at 0 only the second inversion dies, at a different path
    with pytest.raises(SingularityHit) as ei2:
        eval_expr(ast, GradedPoint.scalars([0.0]))
    assert tuple(ei2.value.path) != tuple(ei.value.path)


def test_to_free_poly_rejects_inv():
    with pytest.raises(NotPolynomial):
        to_free_poly(parse("inv(x1)", 1), 1)


def test_to_free_poly_matches_eval():
    src = "(x1 + 2i)*(x1 - x2) - 0.5*x2*x2"
    ast = parse(src, 2)
    poly = to_free_poly(ast, 2)
    for seed in range(5):
        x = random_graded(60 + seed, 2, 2)
        np.testing.assert_allclose(
            eval_expr(ast, x), eval_poly(poly, x), atol=1e-12
        )


def test_print_parse_roundtrip_hand_cases():
    for src in [
        FLAGSHIP,
        "(x1 + x2)*x1",
        "-x1*x2",
        "-(x1*x2)",
        "x1*(x2*x1)",
        "inv(1 - x1)*x2",
        "x1 - (x2 - x1)",
        "-(x1 + x2)",
        "x1*(x2 + 1)*x1",
    ]:
        t = parse(src, 2)
        assert parse(print_expr(t), 2) == t


def test_print_parse_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        t = random_parser_ast(rng, d=2, depth=5)
        s = print_expr(t)
        assert parse(s, 2) == t, s


def test_negative_constant_normalizes_on_print():
    t = Const(-3.0 + 0.0j)
    assert parse(print_expr(t), 1) == Neg(Const(3.0 + 0.0j))
    t2 = Const(1.0 + 2.0j)
    reparsed = parse(print_expr(t2), 1)
    x = GradedPoint.scalars([0.0])
    np.testing.assert_allclose(eval_expr(t2, x), eval_expr(reparsed, x), atol=1e-13)


def test_eval_matches_numpy_on_random_trees():
    rng = np.random.default_rng(1)
    hits = 0
    for trial in range(200):
        t = random_parser_ast(rng, d=2, depth=4, allow_inv=False)
        poly = to_free_poly(t, 2)
        x = random_graded(100 + trial, 2, 1 + trial % 3)
        np.testing.assert_allclose(
            eval_expr(t, x), eval_poly(poly, x), atol=1e-10
        )
        hits += 1
    assert hits == 200


# Trees this deep overflow any recursive walk, printing, evaluation and
# the nodes' ``==``, ``hash`` and ``repr`` included.
DEEP = 100_000
DEEP_X = GradedPoint([np.array([[0.5, 1j], [-0.25, 2.0]])])


@pytest.mark.parametrize(
    "src, text, scale",
    [
        ("x1" + "*1" * DEEP, "x1" + "*1" * DEEP, 1.0),
        ("x1" + " + x1" * DEEP, "x1" + " + x1" * DEEP, DEEP + 1.0),
        ("-" * DEEP + "x1", "-" * DEEP + "x1", 1.0),
        ("(" * DEEP + "x1" + ")" * DEEP, "x1", 1.0),
        ("-" * 1_200 + "x1", "-" * 1_200 + "x1", 1.0),
    ],
    ids=["product", "sum", "minus", "parentheses", "minus-1200"],
)
def test_deep_trees_parse_print_and_evaluate(src, text, scale):
    t = parse(src, 1)
    assert t == parse(text, 1) and hash(t) == hash(parse(text, 1))
    assert repr(t).count("Var(index=1)") == text.count("x1")
    assert print_expr(t) == text
    assert print_expr(parse(text, 1)) == text
    expected = scale * DEEP_X.mats[0]
    np.testing.assert_allclose(eval_expr(t, DEEP_X), expected, rtol=1e-12)
    poly = to_free_poly(t, 1)
    np.testing.assert_allclose(eval_poly(poly, DEEP_X), expected, rtol=1e-12)


def test_deep_inv_nesting():
    depth = 10_000
    src = "inv(" * depth + "x1" + ")" * depth
    t = parse(src, 1)
    assert print_expr(t) == src
    np.testing.assert_allclose(eval_expr(t, DEEP_X), DEEP_X.mats[0], rtol=1e-9)
    with pytest.raises(NotPolynomial):
        to_free_poly(t, 1)


def test_deep_singularity_path():
    depth = 2_000
    t = parse("inv(" * depth + "x1" + ")" * depth, 1)
    with pytest.raises(SingularityHit) as ei:
        eval_expr(t, GradedPoint.scalars([0.0]))
    assert ei.value.path == (0,) * (depth - 1)


# -- level stacks ----------------------------------------------------------------


def reference_inv(a):
    """The one-matrix SVD inverse, in the 2-d form of ``mat.inv``."""
    if not np.isfinite(a).all():
        return np.full(a.shape, np.nan, dtype=np.complex128)
    u, s, vh = np.linalg.svd(a)
    if s[-1] <= SINGULAR_RTOL * s[0]:
        raise SingularMatrix()
    return (vh.conj().T * (1.0 / s)) @ u.conj().T


def reference_eval(node, x):
    """A tests-only one-point evaluator on 2-d matrices: the fold over n-by-n
    values that ``eval_expr`` ran before it took stacks."""

    def leaf(node):
        if type(node) is Const:
            return node.value * np.eye(x.n, dtype=np.complex128)
        if node.index > x.d:
            raise ShapeMismatch(f"x{node.index} undefined for a {x.d}-variable point")
        return x.mats[node.index - 1].copy()

    ops = {Add: operator.add, Sub: operator.sub, Mul: operator.matmul,
           Neg: operator.neg, Inv: reference_inv}
    return Schedule(node).fold(leaf, ops)


def outcome(fn, *args):
    try:
        return fn(*args)
    except FreeholoError as exc:
        return exc


def same_outcome(got, want):
    """Bitwise the same value, or an error of the same type, text and path."""
    if isinstance(want, FreeholoError):
        return (type(got), str(got), getattr(got, "path", None)) == (
            type(want), str(want), getattr(want, "path", None))
    return (isinstance(got, np.ndarray) and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def mixed_points(rng, count):
    """Points at levels 1-4 in d = 1 or 2: regular, singular (all zero or a
    repeated scalar) and overflowing (x1*x1 is no longer finite) members."""
    points = []
    for _ in range(count):
        n, d = int(rng.integers(1, 5)), int(rng.choice([2, 2, 2, 1]))
        kind = rng.choice(["regular", "regular", "zero", "scalar", "huge"])
        if kind == "zero":
            mats = [np.zeros((n, n)) for _ in range(d)]
        elif kind == "scalar":
            mats = [float(np.round(rng.uniform(0, 4), 3)) * np.eye(n) for _ in range(d)]
        else:
            scale = 1e200 if kind == "huge" else 0.7
            mats = [scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                    for _ in range(d)]
        points.append(GradedPoint(mats))
    return points


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_stacked_evaluation_is_the_one_point_evaluation(seed, count):
    rng = np.random.default_rng(seed)
    tree = random_parser_ast(rng, 2, depth=int(rng.integers(1, 6)))
    steps = Schedule(tree)
    points = mixed_points(rng, count)
    with np.errstate(all="ignore"):
        want = [outcome(reference_eval, tree, x) for x in points]
        got = eval_expr_points(steps, points)
        assert len(got) == len(points)
        for x, g, w in zip(points, got, want):
            assert same_outcome(g, w)
            assert same_outcome(outcome(eval_expr, steps, x), w)
        # a level stack without a failing member is its members' values
        for idx, mats in level_stacks([x for x in points if x.d == 2], 2):
            members = [w for x, w in zip(points, want) if x.d == 2]
            members = [members[i] for i in idx]
            if not any(isinstance(w, FreeholoError) for w in members):
                stack = eval_expr_stack(steps, mats)
                assert stack.shape == (len(idx),) + members[0].shape
                assert all(same_outcome(v, w) for v, w in zip(stack, members))


def test_a_singular_member_keeps_its_own_path():
    # inv(x1) is singular at the zero point, inv(x1 - 1) at the identity
    tree = parse("inv(x1) + inv(x1 - 1)", 1)
    zero, one, fine = (GradedPoint([c * np.eye(2)]) for c in (0.0, 1.0, 0.5))
    with pytest.raises(SingularityHit):
        eval_expr_stack(tree, [np.stack([m for x in (fine, one) for m in x.mats])])
    got = eval_expr_points(tree, [fine, one, zero, fine])
    assert [getattr(g, "path", None) for g in got] == [None, (1,), (0,), None]
    np.testing.assert_array_equal(got[0], eval_expr(tree, fine))


def test_a_level_whose_fold_raises_is_evaluated_point_by_point(monkeypatch):
    # zero is singular at inv(x1), one at inv(x1 - 1): every member of levels
    # 2 and 3 is evaluated alone, and level 1, all regular, folds once
    from freeholo import exprlang

    tree = parse("inv(x1) + inv(x1 - 1)", 1)
    zero, one, fine, other = (GradedPoint([c * np.eye(2)]) for c in (0.0, 1.0, 0.5, 2.0))
    three = GradedPoint([np.eye(3)])
    small, big = GradedPoint.scalars([0.5]), GradedPoint.scalars([2.0])
    points = [fine, one, zero, other, small, one, three, big]
    want = [outcome(eval_expr, tree, x) for x in points]
    alone, folds = [], []
    one_point, stacked = exprlang.eval_expr, exprlang.eval_expr_stack
    monkeypatch.setattr(exprlang, "eval_expr", lambda t, x: alone.append(x) or one_point(t, x))
    monkeypatch.setattr(
        exprlang, "eval_expr_stack", lambda t, mats: folds.append(len(mats[0])) or stacked(t, mats)
    )
    got = eval_expr_points(tree, points)
    assert all(same_outcome(g, w) for g, w in zip(got, want))
    paths = [getattr(g, "path", None) for g in got]
    assert paths == [None, (1,), (0,), None, None, (1,), (1,), None]
    assert alone == [fine, one, zero, other, one, three]
    # each point alone is a fold of one
    assert folds == [5, 1, 1, 1, 1, 1, 2, 1, 1]


def test_a_tree_of_constants_gives_every_member_a_value():
    stack = eval_expr_stack(parse("2 + inv(4)", 1), [np.zeros((3, 2, 2))])
    assert stack.shape == (3, 2, 2)
    np.testing.assert_array_equal(stack, np.broadcast_to(2.25 * np.eye(2), (3, 2, 2)))
    stack[0, 0, 0] = 0.0  # each member its own array
    assert stack[1, 0, 0] == 2.25
