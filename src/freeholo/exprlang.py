"""A tiny expression language for free rational functions.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := number | 'x'INT | '(' expr ')' | 'inv' '(' expr ')' | '-' factor

Numbers are decimal literals with an optional exponent part and an optional
trailing ``i`` marking a pure imaginary value, e.g. ``2``, ``0.5``, ``2.5i``,
``1e-3``. Variables are ``x1 .. xd`` for a declared variable count d.
Digits are ASCII ``0-9`` only, and a literal must be finite: one that
overflows a float (``1e999``) is a syntax error.

The printer emits a canonical form: "+" and "*" chains left associated,
parentheses only where the grammar forces them, constants rendered as
nonnegative literals (a negative or mixed-complex constant prints through
unary minus or as a sum, so reparsing such a tree yields that normalized
shape instead of the original node). ``parse(print_expr(t)) == t`` holds
structurally for every tree the parser itself can produce.

No function here recurses: parsing, printing, evaluation and expansion,
and the nodes' ``==``, ``hash`` and ``repr``, each keep an explicit stack,
so any nesting depth is accepted.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExprSyntaxError,
    FreeholoError,
    NotPolynomial,
    ShapeMismatch,
    SingularMatrix,
    SingularityHit,
    UnknownVariable,
    outcome,
)
from .freepoly import FreePoly, GradedPoint, level_stacks
from . import mat


# -- AST -------------------------------------------------------------------


class _Node:
    """Structural ``==`` and ``hash`` over the :class:`Schedule` postorder
    (types, and leaf fields), which fixes the tree, and the dataclass
    ``repr`` built from one stack of pieces: none of them recurses."""

    def _postorder(self):
        s = Schedule(self)
        return [(type(n), *(() if k else vars(n).values())) for n, k in zip(s.nodes, s.arity)]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._postorder() == other._postorder()

    def __hash__(self):
        return hash(tuple(self._postorder()))

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces = [type(item).__qualname__ + "("]
            for k, (name, value) in enumerate(vars(item).items()):
                value = value if isinstance(value, _Node) else repr(value)
                pieces += [", " * bool(k) + name + "=", value]
            todo += reversed(pieces + [")"])
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    value: complex


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    index: int  # 1-based


@dataclass(frozen=True, eq=False, repr=False)
class Add(_Node):
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class Sub(_Node):
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class Mul(_Node):
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    operand: object


@dataclass(frozen=True, eq=False, repr=False)
class Inv(_Node):
    operand: object


# -- tokenizer ----------------------------------------------------------------

# One alternative per token kind; whitespace matches no group and is
# skipped, and any other character is "bad". Digits are ASCII only.
_TOKEN = re.compile(
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?i?)"
    r"|x(?P<var>[0-9]+)|(?P<inv>inv)|(?P<punct>[-+*()])|\s+|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(src: str):
    """Yield (kind, value, offset) triples; kinds: num, var, inv, punct."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind, text, i = m.lastgroup, m[0], m.start()
        if kind == "num":
            imaginary = text.endswith("i")
            value = float(text[:-1] if imaginary else text)
            if math.isinf(value):
                raise ExprSyntaxError(f"number literal {text!r} out of range", i)
            tokens.append(("num", value * 1j if imaginary else complex(value), i))
        elif kind == "var":
            tokens.append(("var", int(m["var"]), i))
        elif kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", i)
        elif kind is not None:
            tokens.append((kind, text, i))
    tokens.append(("end", None, len(src)))
    return tokens


# -- parser ----------------------------------------------------------------

_BINARY = {"+": Add, "-": Sub, "*": Mul}
_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2}


def parse(src: str, d: int):
    """Parse source text over variables ``x1..xd`` into an AST.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input and
    :class:`UnknownVariable` when a variable index falls outside ``1..d``.
    """
    if d < 1:
        raise ValueError("need at least one variable")
    # shunting-yard: ops holds pending binary operators, prefix minuses
    # (Neg) and open groups ("(" or "inv("), out the operands built so far
    tokens = iter(_tokenize(src))
    out, ops = [], []
    operand = True  # a factor comes next, not an operator
    for kind, value, offset in tokens:
        punct = value if kind == "punct" else None
        if operand:
            if kind == "num":
                out.append(Const(value))
            elif kind == "var":
                if not 1 <= value <= d:
                    raise UnknownVariable(value, d, offset)
                out.append(Var(value))
            elif punct in ("-", "("):
                ops.append(Neg if punct == "-" else "(")
                continue
            elif kind == "inv":
                kind, value, offset = next(tokens)
                if kind != "punct" or value != "(":
                    raise ExprSyntaxError("expected '('", offset)
                ops.append("inv(")
                continue
            else:
                raise ExprSyntaxError("expected a number, variable, '(' or 'inv'", offset)
            operand = False
        else:
            op = _BINARY.get(punct)
            # left association: pending operators binding at least as
            # tightly are applied first; a closer applies all in its group
            level = _PRECEDENCE.get(op, 0)
            while ops and _PRECEDENCE.get(ops[-1], -1) >= level:
                rhs = out.pop()
                out[-1] = ops.pop()(out[-1], rhs)
            if op is not None:
                ops.append(op)
                operand = True
                continue
            if punct == ")" and ops:
                if ops.pop() == "inv(":
                    out[-1] = Inv(out[-1])
            elif kind == "end" and not ops:
                return out[0]
            else:
                raise ExprSyntaxError("expected ')'" if ops else "trailing input", offset)
        # a finished factor takes the prefix minuses written before it
        while ops and ops[-1] is Neg:
            ops.pop()
            out[-1] = Neg(out[-1])


# -- printer ----------------------------------------------------------------


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_const(c: complex) -> str:
    real, im = c.real, c.imag
    if im == 0.0:
        return _fmt_float(real)
    if real == 0.0:
        return _fmt_float(im) + "i"
    # mixed constants have no literal form; render as a parenthesized sum
    lhs = _fmt_float(real)
    rhs = _fmt_float(abs(im)) + "i"
    op = "+" if im > 0 else "-"
    return f"({lhs} {op} {rhs})"


def _grouped(node, kinds):
    """Pieces of a child, in stack order, parenthesized if its type is in ``kinds``."""
    return (")", node, "(") if type(node) in kinds else (node,)


def print_expr(node) -> str:
    """Canonical text form; the parser maps it back to the same tree for
    every tree the parser itself can produce (see module docstring for the
    normalized cases: negative or mixed-complex constants).
    """
    # pieces and pending subtrees share one stack, each node's pushed
    # right to left; the pieces are joined once at the end
    out, todo = [], [node]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
        elif kind is Const:
            out.append(_fmt_const(item.value))
        elif kind is Var:
            out.append(f"x{item.index}")
        elif kind is Inv:
            todo += (")", item.operand, "inv(")
        elif kind is Neg:
            todo += _grouped(item.operand, (Add, Sub, Mul)) + ("-",)
        elif kind is Mul:
            # a right-nested product or a negation must keep its own grouping,
            # otherwise reparsing would left-associate it onto this node
            right = _grouped(item.right, (Add, Sub, Mul, Neg))
            todo += right + ("*",) + _grouped(item.left, (Add, Sub))
        elif kind is Add or kind is Sub:
            todo += _grouped(item.right, (Add, Sub)) + (" + " if kind is Add else " - ", item.left)
        else:
            raise TypeError(f"not an expression node: {item!r}")
    return "".join(out)


# -- evaluation ----------------------------------------------------------------

_ARITY = {Const: 0, Var: 0, Neg: 1, Inv: 1, Add: 2, Sub: 2, Mul: 2}
_POLY_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Neg: operator.neg}
_MATRIX_OPS = {**_POLY_OPS, Mul: operator.matmul, Inv: mat.inv}


class Schedule:
    """A tree's ``nodes`` in postorder (children first, left before right)
    with their ``arity``, built once; the evaluators and
    :func:`to_free_poly` take it in place of the tree, so an expression
    evaluated many times is scheduled once."""

    def __init__(self, root):
        # a root-right-left preorder, which reversed is the postorder
        nodes, arity, links = [], [], []
        todo = [(root, -1, 0)]
        while todo:
            node, up, slot = todo.pop()
            k = _ARITY.get(type(node))
            if k is None:
                raise TypeError(f"not an expression node: {node!r}")
            here = len(nodes)
            nodes.append(node)
            arity.append(k)
            links.append((up, slot))
            if k == 2:
                todo += ((node.left, here, 0), (node.right, here, 1))
            elif k:
                todo.append((node.operand, here, 0))
        self.nodes, self.arity = nodes[::-1], arity[::-1]
        self._links = links  # (parent, child index), by preorder position

    def path(self, i):
        """Child indices from the root down to ``nodes[i]``."""
        slots = []
        up, slot = self._links[len(self._links) - 1 - i]
        while up >= 0:
            slots.append(slot)
            up, slot = self._links[up]
        return tuple(reversed(slots))

    def fold(self, leaf, ops):
        """``leaf(node)`` at a leaf, ``ops[type(node)]`` of the children's
        values at an inner node; a :class:`SingularMatrix` at node i is
        raised as :class:`SingularityHit` at ``path(i)``."""
        values = []
        try:
            for i, (node, k) in enumerate(zip(self.nodes, self.arity)):
                if k == 2:
                    rhs = values.pop()
                    values[-1] = ops[type(node)](values[-1], rhs)
                elif k:
                    values[-1] = ops[type(node)](values[-1])
                else:
                    values.append(leaf(node))
        except SingularMatrix as exc:
            raise SingularityHit(self.path(i)) from exc
        return values[0]


def eval_expr_stack(node, mats) -> np.ndarray:
    """Evaluate a tree, or its :class:`Schedule`, at p points of one level at
    once; ``mats`` holds the points' coordinates as d ``(p, n, n)`` stacks
    (see :func:`freepoly.level_stacks`), and the result is the ``(p, n, n)``
    stack of their values.

    The one :meth:`Schedule.fold` of the evaluators: the arithmetic
    broadcasts over the leading axis and inversion nodes use
    :func:`mat.inv` of the stack, so each member is bitwise the one-point
    value. A singular member makes the fold raise :class:`SingularityHit`
    at the first inversion node, in postorder, where some member is
    singular; a member that is not finite inverts to all NaN.
    """
    p, n = mats[0].shape[:2]

    def leaf(node):
        if type(node) is Const:
            return node.value * np.eye(n, dtype=np.complex128)
        if not 1 <= node.index <= len(mats):
            raise ShapeMismatch(f"x{node.index} undefined for a {len(mats)}-variable point")
        return mats[node.index - 1].copy()

    steps = node if isinstance(node, Schedule) else Schedule(node)
    value = steps.fold(leaf, _MATRIX_OPS)
    # a tree of constants folds to one (n, n) matrix shared by every member
    return value if value.ndim == 3 else np.repeat(value[None], p, axis=0)


def eval_expr(node, x: GradedPoint) -> np.ndarray:
    """Evaluate a tree, or its :class:`Schedule`, at a graded point;
    n-by-n complex matrix: the one-member case of :func:`eval_expr_stack`.

    Inversion nodes use the SVD-floored inverse, and a singular operand
    raises :class:`SingularityHit` carrying the path of child indices from
    the root to the failing node.
    """
    return eval_expr_stack(node, [m[None] for m in x.mats])[0]


def eval_expr_points(node, points) -> list:
    """:func:`eval_expr` at each point: its value, or the
    :class:`FreeholoError` that :func:`eval_expr` raises there.

    Points are evaluated one level stack at a time (:func:`eval_expr_stack`
    on :func:`freepoly.level_stacks`). A level whose stacked fold raises is
    evaluated again member by member, so each singular point gets the path
    of its own first singular inversion.
    """
    steps = node if isinstance(node, Schedule) else Schedule(node)
    out = [None] * len(points)
    for d in dict.fromkeys(x.d for x in points):
        at = [i for i, x in enumerate(points) if x.d == d]
        for idx, mats in level_stacks([points[i] for i in at], d):
            try:
                values = eval_expr_stack(steps, mats)
            except FreeholoError:
                values = [outcome(eval_expr, steps, points[at[j]]) for j in idx]
            for j, value in zip(idx, values):
                out[at[j]] = value
    return out


def to_free_poly(node, d: int) -> FreePoly:
    """Expand an inversion-free tree, or its :class:`Schedule`, into a free
    polynomial.

    Raises :class:`NotPolynomial` on any ``inv`` node.
    """
    steps = node if isinstance(node, Schedule) else Schedule(node)
    if Inv in map(type, steps.nodes):
        raise NotPolynomial("expression contains inv(...)")

    def leaf(node):
        if type(node) is Const:
            return FreePoly.const(d, node.value)
        if not 1 <= node.index <= d:
            raise ShapeMismatch(f"x{node.index} undefined with d={d}")
        return FreePoly.letter(d, node.index)

    return steps.fold(leaf, _POLY_OPS)
