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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExprSyntaxError,
    NotPolynomial,
    ShapeMismatch,
    SingularMatrix,
    SingularityHit,
    UnknownVariable,
)
from .freepoly import FreePoly, GradedPoint
from . import mat


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class ScalarMul:
    # programmatic convenience node; the parser never produces it and the
    # printer renders it as Mul(Const, operand)
    scalar: complex
    operand: object


@dataclass(frozen=True)
class Inv:
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


class _Parser:
    def __init__(self, src: str, d: int):
        self.src = src
        self.d = d
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch):
        kind, value, offset = self.take()
        if kind != "punct" or value != ch:
            raise ExprSyntaxError(f"expected {ch!r}", offset)

    def parse(self):
        node = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", offset)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "punct" and value in "+-":
                self.take()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "punct" and value == "*":
                self.take()
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, offset = self.take()
        if kind == "num":
            return Const(value)
        if kind == "var":
            if not 1 <= value <= self.d:
                raise UnknownVariable(value, self.d, offset)
            return Var(value)
        if kind == "inv":
            self.expect_punct("(")
            inner = self.expr()
            self.expect_punct(")")
            return Inv(inner)
        if kind == "punct" and value == "(":
            inner = self.expr()
            self.expect_punct(")")
            return inner
        if kind == "punct" and value == "-":
            return Neg(self.factor())
        raise ExprSyntaxError("expected a number, variable, '(' or 'inv'", offset)


def parse(src: str, d: int):
    """Parse source text over variables ``x1..xd`` into an AST.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input and
    :class:`UnknownVariable` when a variable index falls outside ``1..d``.
    """
    if d < 1:
        raise ValueError("need at least one variable")
    return _Parser(src, d).parse()


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


def print_expr(node) -> str:
    """Canonical text form; the parser maps it back to the same tree for
    every tree the parser itself can produce (see module docstring for the
    normalized cases: ScalarMul and negative or mixed-complex constants)."""
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Add):
        rhs = print_expr(node.right)
        if isinstance(node.right, (Add, Sub)):
            rhs = f"({rhs})"
        return f"{print_expr(node.left)} + {rhs}"
    if isinstance(node, Sub):
        rhs = print_expr(node.right)
        if isinstance(node.right, (Add, Sub)):
            rhs = f"({rhs})"
        return f"{print_expr(node.left)} - {rhs}"
    if isinstance(node, Mul):
        lhs = print_expr(node.left)
        rhs = print_expr(node.right)
        if isinstance(node.left, (Add, Sub)):
            lhs = f"({lhs})"
        # a right-nested product or a negation must keep its own grouping,
        # otherwise reparsing would left-associate it onto this node
        if isinstance(node.right, (Add, Sub, Mul, ScalarMul, Neg)):
            rhs = f"({rhs})"
        return f"{lhs}*{rhs}"
    if isinstance(node, Neg):
        inner = print_expr(node.operand)
        if isinstance(node.operand, (Add, Sub, Mul, ScalarMul)):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, ScalarMul):
        return print_expr(Mul(Const(node.scalar), node.operand))
    if isinstance(node, Inv):
        return f"inv({print_expr(node.operand)})"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation ----------------------------------------------------------------


def eval_expr(node, x: GradedPoint) -> np.ndarray:
    """Evaluate at a graded point; n-by-n complex matrix.

    Inversion nodes use the SVD-floored inverse, and a singular operand
    raises :class:`SingularityHit` carrying the path of child indices from
    the root to the failing node.
    """
    return _eval(node, x, ())


def _eval(node, x: GradedPoint, path):
    n = x.n
    if isinstance(node, Const):
        return node.value * np.eye(n, dtype=np.complex128)
    if isinstance(node, Var):
        if not 1 <= node.index <= x.d:
            raise ShapeMismatch(f"x{node.index} undefined for a {x.d}-variable point")
        return x.mats[node.index - 1].copy()
    if isinstance(node, Add):
        return _eval(node.left, x, path + (0,)) + _eval(node.right, x, path + (1,))
    if isinstance(node, Sub):
        return _eval(node.left, x, path + (0,)) - _eval(node.right, x, path + (1,))
    if isinstance(node, Mul):
        return _eval(node.left, x, path + (0,)) @ _eval(node.right, x, path + (1,))
    if isinstance(node, Neg):
        return -_eval(node.operand, x, path + (0,))
    if isinstance(node, ScalarMul):
        return node.scalar * _eval(node.operand, x, path + (0,))
    if isinstance(node, Inv):
        inner = _eval(node.operand, x, path + (0,))
        try:
            return mat.inv(inner)
        except SingularMatrix as exc:
            raise SingularityHit(path) from exc
    raise TypeError(f"not an expression node: {node!r}")


def to_free_poly(node, d: int) -> FreePoly:
    """Expand an inversion-free tree into a free polynomial.

    Raises :class:`NotPolynomial` on any ``inv`` node.
    """
    if isinstance(node, Const):
        return FreePoly.const(d, node.value)
    if isinstance(node, Var):
        if not 1 <= node.index <= d:
            raise ShapeMismatch(f"x{node.index} undefined with d={d}")
        return FreePoly.letter(d, node.index)
    if isinstance(node, Add):
        return to_free_poly(node.left, d) + to_free_poly(node.right, d)
    if isinstance(node, Sub):
        return to_free_poly(node.left, d) - to_free_poly(node.right, d)
    if isinstance(node, Mul):
        return to_free_poly(node.left, d) * to_free_poly(node.right, d)
    if isinstance(node, Neg):
        return -to_free_poly(node.operand, d)
    if isinstance(node, ScalarMul):
        return to_free_poly(node.operand, d).scale(node.scalar)
    if isinstance(node, Inv):
        raise NotPolynomial("expression contains inv(...)")
    raise TypeError(f"not an expression node: {node!r}")


def expr_nodes(node):
    """Iterate over (path, node) pairs in preorder."""
    stack = [((), node)]
    while stack:
        path, cur = stack.pop()
        yield path, cur
        children = ()
        if isinstance(cur, (Add, Sub, Mul)):
            children = (cur.left, cur.right)
        elif isinstance(cur, (Neg, ScalarMul, Inv)):
            children = (cur.operand,)
        for idx in range(len(children) - 1, -1, -1):
            stack.append((path + (idx,), children[idx]))
