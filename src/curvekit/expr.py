"""Curve expression parsing, evaluation and symbolic differentiation.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Known functions: sin, cos, tan, sqrt, abs.  ``pi`` is a constant; ``t`` and
``theta`` both name the single free variable; every other identifier is a
named parameter bound at evaluation time.  ``+ - * /`` are left associative,
``^`` binds tighter than unary minus (so ``-2^2`` is ``-(2^2) = -4``) and its
exponent must reduce to a constant.  Expressions nested deeper than
``MAX_DEPTH`` levels are rejected.

Two evaluators share the AST: ``evaluate`` walks it at one point and raises
``EvalError`` on any singularity; ``compile_program`` builds a ``Program``,
nested numpy closures that evaluate it over an array with IEEE semantics.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


class ExprError(ValueError):
    """Base class for expression problems."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    """Singular or ill-posed evaluation (division by zero, tan pole, ...)."""


class DifferentiationError(ExprError):
    """Expression contains a node with no symbolic derivative (abs)."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The single free variable (written ``t`` or ``theta``)."""


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Call:
    func: str  # sin | cos | tan | sqrt | abs
    arg: "Node"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Param, Call, Neg, BinOp]

FUNCTIONS = ("sin", "cos", "tan", "sqrt", "abs")
VARIABLE_NAMES = ("t", "theta")

# Deepest expression the parser accepts.  Parsing, folding, printing,
# differentiation, substitution and both evaluators recurse once per level,
# derivatives are several times deeper than their source, and Python's
# recursion limit is 1,000 frames.
MAX_DEPTH = 100


def _fold(node: Node) -> Node | None:
    """Value of an all-constant subtree, or None if it has free symbols.

    Singular or non-finite constants are left symbolic so the error surfaces
    at evaluation time instead of during parsing.
    """
    try:
        if isinstance(node, Const):
            return node
        if isinstance(node, (Var, Param)):
            return None
        if isinstance(node, Neg):
            inner = _fold(node.arg)
            return Const(-inner.value) if inner is not None else None
        if isinstance(node, Call):
            inner = _fold(node.arg)
            if inner is None:
                return None
            folded = Const(_apply_function(node.func, inner.value))
        else:
            left = _fold(node.left)
            right = _fold(node.right)
            if left is None or right is None:
                return None
            folded = Const(_apply_binary(node.op, left.value, right.value))
    except EvalError:
        return None
    return folded if math.isfinite(folded.value) else None


def _contains(node: Node, kinds) -> bool:
    """Whether any node of the tree is an instance of kinds."""
    if isinstance(node, kinds):
        return True
    if isinstance(node, (Const, Var, Param)):
        return False
    if isinstance(node, (Neg, Call)):
        return _contains(node.arg, kinds)
    return _contains(node.left, kinds) or _contains(node.right, kinds)


def neg(a: Node) -> Node:
    folded = _fold(Neg(a))
    if folded is not None:
        return folded
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def add(a: Node, b: Node) -> Node:
    folded = _fold(BinOp("+", a, b))
    if folded is not None:
        return folded
    if a == Const(0.0):
        return b
    if b == Const(0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Node, b: Node) -> Node:
    folded = _fold(BinOp("-", a, b))
    if folded is not None:
        return folded
    if b == Const(0.0):
        return a
    if a == Const(0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Node, b: Node) -> Node:
    folded = _fold(BinOp("*", a, b))
    if folded is not None:
        return folded
    if a == Const(0.0) or b == Const(0.0):
        return Const(0.0)
    if a == Const(1.0):
        return b
    if b == Const(1.0):
        return a
    return BinOp("*", a, b)


def div(a: Node, b: Node) -> Node:
    folded = _fold(BinOp("/", a, b))
    if folded is not None:
        return folded
    if a == Const(0.0) and not (isinstance(b, Const) and b.value == 0.0):
        return Const(0.0)
    if b == Const(1.0):
        return a
    return BinOp("/", a, b)


def pow_(a: Node, b: Node) -> Node:
    exponent = _fold(b)
    if exponent is None:
        if _contains(b, (Var, Param)):
            raise ExprError("exponent of '^' must reduce to a constant")
        raise ExprError("constant exponent of '^' overflows or is undefined")
    b = exponent
    folded = _fold(BinOp("^", a, b))
    if folded is not None:
        return folded
    if b.value == 1.0:
        return a
    if b.value == 0.0:
        return Const(1.0)
    return BinOp("^", a, b)


def call(func: str, a: Node) -> Node:
    node = Call(func, a)
    folded = _fold(node)
    return folded if folded is not None else node


_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


def _capped(depth: int, pos: int) -> int:
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return depth


class _Parser:
    """Recursive descent.  Each method takes the nesting level of the text
    it parses and returns (node, height of its syntax tree), so neither the
    parser's recursion nor any tree it builds goes beyond MAX_DEPTH."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", pos)
        return self.take()

    def parse(self) -> Node:
        node, _ = self.expr(0)
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return node

    def expr(self, level: int):
        node, height = self.term(level)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs, rhs_height = self.term(level)
                height = _capped(max(height, rhs_height) + 1, pos)
                node = add(node, rhs) if value == "+" else sub(node, rhs)
            else:
                return node, height

    def term(self, level: int):
        node, height = self.factor(level)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs, rhs_height = self.factor(level)
                height = _capped(max(height, rhs_height) + 1, pos)
                node = mul(node, rhs) if value == "*" else div(node, rhs)
            else:
                return node, height

    def factor(self, level: int):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            arg, height = self.factor(_capped(level + 1, pos))
            return neg(arg), _capped(height + 1, pos)
        return self.power(level)

    def power(self, level: int):
        base, height = self.atom(level)
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            exponent, exponent_height = self.factor(_capped(level + 1, pos))
            height = _capped(max(height, exponent_height) + 1, pos)
            try:
                return pow_(base, exponent), height
            except ExprError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        return base, height

    def atom(self, level: int):
        kind, value, pos = self.take()
        if kind == "num":
            number = float(value)
            if math.isinf(number):
                raise ExprSyntaxError(f"numeric literal {value!r} overflows", pos)
            return Const(number), 0
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", pos)
                self.take()
                arg, height = self.expr(_capped(level + 1, pos))
                self.expect_op(")")
                return call(value, arg), _capped(height + 1, pos)
            if value == "pi":
                return Const(math.pi), 0
            if value in VARIABLE_NAMES:
                return Var(), 0
            return Param(value), 0
        if kind == "op" and value == "(":
            result = self.expr(_capped(level + 1, pos))
            self.expect_op(")")
            return result
        raise ExprSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse(text: str) -> Node:
    """Parse a curve expression into its AST."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def _format_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


# Precedence levels used when printing: higher binds tighter.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Const) and node.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def to_string(node: Node) -> str:
    """Render an AST; parsing the result reproduces the AST node for node."""
    if isinstance(node, Const):
        return _format_float(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_string(node.arg)})"
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    left, right = node.left, node.right
    ls = to_string(left)
    rs = to_string(right)
    # Left-associative ops: a same-precedence right child needs parentheses.
    if node.op in "+-":
        if _prec(left) < _PREC_ADD:
            ls = f"({ls})"
        if _prec(right) <= _PREC_ADD:
            rs = f"({rs})"
        return f"{ls} {node.op} {rs}"
    if node.op in "*/":
        if _prec(left) < _PREC_MUL:
            ls = f"({ls})"
        if _prec(right) <= _PREC_MUL:
            rs = f"({rs})"
        return f"{ls}{node.op}{rs}"
    # power: base must be an atom or call; exponent is a constant
    if _prec(left) < _PREC_ATOM:
        ls = f"({ls})"
    if _prec(right) < _PREC_ATOM:
        rs = f"({rs})"
    return f"{ls}^{rs}"


_TAN_POLE_TOL = 1e-12


def _apply_function(func: str, x: float) -> float:
    if func == "sin":
        return math.sin(x)
    if func == "cos":
        return math.cos(x)
    if func == "tan":
        if abs(math.cos(x)) < _TAN_POLE_TOL:
            raise EvalError(f"tangent pole near x = {x!r}")
        return math.tan(x)
    if func == "sqrt":
        if x < 0:
            raise EvalError(f"square root of negative value {x!r}")
        return math.sqrt(x)
    return abs(x)


def _apply_binary(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise EvalError("division by zero")
        return a / b
    # '^'
    if b != int(b) and a < 0:
        raise EvalError(f"negative base {a!r} with non-integer exponent {b!r}")
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"power evaluation failed: {exc}") from None


def evaluate(node: Node, value: float, params: dict[str, float] | None = None) -> float:
    """Evaluate at a point; raises EvalError instead of returning NaN/inf."""
    result = _evaluate(node, float(value), params or {})
    if not math.isfinite(result):
        raise EvalError("non-finite result")
    return result


def _evaluate(node: Node, value: float, params: dict[str, float]) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return value
    if isinstance(node, Param):
        try:
            return float(params[node.name])
        except KeyError:
            raise EvalError(f"unbound parameter {node.name!r}") from None
    if isinstance(node, Neg):
        return -_evaluate(node.arg, value, params)
    if isinstance(node, Call):
        return _apply_function(node.func, _evaluate(node.arg, value, params))
    return _apply_binary(
        node.op,
        _evaluate(node.left, value, params),
        _evaluate(node.right, value, params),
    )


def free_parameters(node: Node) -> set[str]:
    if isinstance(node, Param):
        return {node.name}
    if isinstance(node, (Const, Var)):
        return set()
    if isinstance(node, (Neg, Call)):
        return free_parameters(node.arg)
    return free_parameters(node.left) | free_parameters(node.right)


def substitute_var(node: Node, replacement: Node) -> Node:
    """Replace the free variable by another expression (smart-constructed)."""
    if isinstance(node, Var):
        return replacement
    if isinstance(node, (Const, Param)):
        return node
    if isinstance(node, Neg):
        return neg(substitute_var(node.arg, replacement))
    if isinstance(node, Call):
        return call(node.func, substitute_var(node.arg, replacement))
    left = substitute_var(node.left, replacement)
    right = substitute_var(node.right, replacement)
    if node.op == "+":
        return add(left, right)
    if node.op == "-":
        return sub(left, right)
    if node.op == "*":
        return mul(left, right)
    if node.op == "/":
        return div(left, right)
    return pow_(left, right)


def differentiate(node: Node) -> Node:
    """Symbolic derivative with respect to the free variable."""
    if isinstance(node, (Const, Param)):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Neg):
        return neg(differentiate(node.arg))
    if isinstance(node, Call):
        u, du = node.arg, differentiate(node.arg)
        if node.func == "sin":
            return mul(call("cos", u), du)
        if node.func == "cos":
            return neg(mul(call("sin", u), du))
        if node.func == "tan":
            return div(du, pow_(call("cos", u), Const(2.0)))
        if node.func == "sqrt":
            return div(du, mul(Const(2.0), call("sqrt", u)))
        raise DifferentiationError("abs(...) is not differentiable")
    u, v = node.left, node.right
    du = differentiate(u)
    if node.op == "^":
        # exponent is a constant by construction: d(u^c) = c * u^(c-1) * u'
        c = v.value
        return mul(mul(v, pow_(u, Const(c - 1.0))), du)
    dv = differentiate(v)
    if node.op == "+":
        return add(du, dv)
    if node.op == "-":
        return sub(du, dv)
    if node.op == "*":
        return add(mul(du, v), mul(u, dv))
    return div(sub(mul(du, v), mul(u, dv)), pow_(v, Const(2.0)))


@dataclass(frozen=True)
class Program:
    """Array evaluator of an expression: nested numpy closures, one per node.

    Calling it maps an array of variable values to a new float array of the
    same shape.  Evaluation follows IEEE semantics (poles give inf/nan,
    without warnings); callers that need strict error reporting use
    `evaluate`, the scalar AST walk.
    """

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            out = self.fn(xs)
        # Only the expression `t` returns xs itself, and only a constant
        # returns a scalar; every other result is already a fresh array.
        if out is xs or np.ndim(out) == 0:
            return np.full(xs.shape, out)
        return out


_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "sqrt": np.sqrt, "abs": np.abs}

# Integer exponents up to this size are evaluated by repeated multiplication,
# which is exact for small powers and defined for negative bases.
_MAX_MULTIPLIED_EXPONENT = 64


def compile_program(node: Node, params: dict[str, float] | None = None) -> Program:
    """Bind the parameters as constants and build the array evaluator."""
    return Program(_closure(node, params or {}))


def _closure(node: Node, params: dict[str, float]):
    """Function mapping xs to the node's values.

    A subtree without the variable gives a numpy scalar.  Arithmetic on it
    is exact, but a function or power of it is taken on an array of
    xs.shape, because numpy's array loops and scalar path may round apart.
    """
    if isinstance(node, Const):
        value = np.float64(node.value)
        return lambda xs: value
    if isinstance(node, Param):
        if node.name not in params:
            raise EvalError(f"unbound parameter {node.name!r}")
        value = np.float64(params[node.name])
        return lambda xs: value
    if isinstance(node, Var):
        return lambda xs: xs
    if isinstance(node, Neg):
        arg = _closure(node.arg, params)
        return lambda xs: -arg(xs)
    if isinstance(node, BinOp) and node.op != "^":
        left, right = _closure(node.left, params), _closure(node.right, params)
        if node.op == "+":
            return lambda xs: left(xs) + right(xs)
        if node.op == "-":
            return lambda xs: left(xs) - right(xs)
        if node.op == "*":
            return lambda xs: left(xs) * right(xs)
        return lambda xs: left(xs) / right(xs)
    operand = node.arg if isinstance(node, Call) else node.left
    arg = _closure(operand, params)
    if not _contains(operand, Var):
        scalar = arg
        arg = lambda xs: np.full(xs.shape, scalar(xs))
    if isinstance(node, Call):
        func = _UFUNCS[node.func]
        return lambda xs: func(arg(xs))
    exponent = node.right.value
    if exponent != int(exponent) or abs(exponent) > _MAX_MULTIPLIED_EXPONENT:
        exponent = np.float64(exponent)
        return lambda xs: arg(xs) ** exponent
    k = int(exponent)

    def power(xs):
        base = arg(xs)
        acc = np.ones(xs.shape)
        for _ in range(abs(k)):
            acc = acc * base
        return 1.0 / acc if k < 0 else acc

    return power
