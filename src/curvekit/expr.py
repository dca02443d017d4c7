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
A ``Program`` holds no values between calls: each call keeps the values of
its shared subexpressions to itself, so threads can share one without a lock.
"""

from __future__ import annotations

import functools
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

# How many distinct texts `parse` keeps the AST of, and how many distinct
# curves polar keeps a record of, dropping the least recently used.  A
# process that builds curves with ever new parameters then holds a bounded
# amount: 256 records of the benchmark's curves take about 0.8 MiB.  They
# serve 62.0 % of the curves its `library` ops build, and an unbounded store
# 62.7 %, since the curves that repeat are few.
CURVE_RECORDS = 256


_UNSET = object()


def _fold(node: Node) -> Node | None:
    """Value of an all-constant subtree, or None if it has free symbols.

    Singular or non-finite constants are left symbolic so the error surfaces
    at evaluation time instead of during parsing.  The answer is cached on
    the node, so a subtree shared by many parents (derivatives share theirs)
    is folded once instead of once per path to it.
    """
    if isinstance(node, Const):
        return node
    if isinstance(node, (Var, Param)):
        return None
    folded = node.__dict__.get("_folded", _UNSET)
    if folded is _UNSET:
        folded = node.__dict__["_folded"] = _fold_children(node)
    return folded


def _fold_children(node: Node) -> Node | None:
    try:
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
            right = _fold(node.right) if left is not None else None
            if right is None:
                return None
            folded = Const(_apply_binary(node.op, left.value, right.value))
    except EvalError:
        return None
    return folded if math.isfinite(folded.value) else None


def contains(node: Node, kinds) -> bool:
    """Whether any node of the tree is an instance of kinds."""
    if isinstance(node, kinds):
        return True
    if isinstance(node, (Const, Var, Param)):
        return False
    if isinstance(node, (Neg, Call)):
        return contains(node.arg, kinds)
    return contains(node.left, kinds) or contains(node.right, kinds)


def neg(a: Node) -> Node:
    node = Neg(a)
    folded = _fold(node)
    if folded is not None:
        return folded
    if isinstance(a, Neg):
        return a.arg
    return node


def add(a: Node, b: Node) -> Node:
    node = BinOp("+", a, b)
    folded = _fold(node)
    if folded is not None:
        return folded
    if a == Const(0.0):
        return b
    if b == Const(0.0):
        return a
    return node


def sub(a: Node, b: Node) -> Node:
    node = BinOp("-", a, b)
    folded = _fold(node)
    if folded is not None:
        return folded
    if b == Const(0.0):
        return a
    if a == Const(0.0):
        return neg(b)
    return node


def mul(a: Node, b: Node) -> Node:
    node = BinOp("*", a, b)
    folded = _fold(node)
    if folded is not None:
        return folded
    if a == Const(0.0) or b == Const(0.0):
        return Const(0.0)
    if a == Const(1.0):
        return b
    if b == Const(1.0):
        return a
    return node


def div(a: Node, b: Node) -> Node:
    node = BinOp("/", a, b)
    folded = _fold(node)
    if folded is not None:
        return folded
    if a == Const(0.0) and not (isinstance(b, Const) and b.value == 0.0):
        return Const(0.0)
    if b == Const(1.0):
        return a
    return node


def pow_(a: Node, b: Node) -> Node:
    exponent = _fold(b)
    if exponent is None:
        if contains(b, (Var, Param)):
            raise ExprError("exponent of '^' must reduce to a constant")
        raise ExprError("constant exponent of '^' overflows or is undefined")
    node = BinOp("^", a, exponent)
    folded = _fold(node)
    if folded is not None:
        return folded
    if exponent.value == 1.0:
        return a
    if exponent.value == 0.0:
        return Const(1.0)
    return node


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
    """Parse a curve expression into its AST.  ASTs are immutable, so one per
    text is kept and shared; a text that fails to parse raises every time."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _parse_text(text)


@functools.lru_cache(maxsize=CURVE_RECORDS)
def _parse_text(text: str) -> Node:
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
    """Symbolic derivative with respect to the free variable.

    Each node object is differentiated once, so the result shares its
    subtrees wherever the input does (derivatives of derivatives are DAGs
    far smaller than their trees)."""
    return _derivative(node, {})


def _derivative(node: Node, memo: dict[int, Node]) -> Node:
    # Keyed by id: every node of the input stays alive for the whole call.
    found = memo.get(id(node))
    if found is None:
        found = memo[id(node)] = _derivative_rule(node, memo)
    return found


def _derivative_rule(node: Node, memo: dict[int, Node]) -> Node:
    if isinstance(node, (Const, Param)):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Neg):
        return neg(_derivative(node.arg, memo))
    if isinstance(node, Call):
        u, du = node.arg, _derivative(node.arg, memo)
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
    du = _derivative(u, memo)
    if node.op == "^":
        # exponent is a constant by construction: d(u^c) = c * u^(c-1) * u'
        c = v.value
        return mul(mul(v, pow_(u, Const(c - 1.0))), du)
    dv = _derivative(v, memo)
    if node.op == "+":
        return add(du, dv)
    if node.op == "-":
        return sub(du, dv)
    if node.op == "*":
        return add(mul(du, v), mul(u, dv))
    return div(sub(mul(du, v), mul(u, dv)), pow_(v, Const(2.0)))


@dataclass(frozen=True)
class Program:
    """Array evaluator of one expression or of several.

    Calling it maps an array of variable values to a new float array of the
    same shape, or, for a program compiled from a sequence of nodes, to a
    tuple of such arrays, one per node; no result shares memory with the
    input or with another result.  Each call keeps its intermediate values
    to itself, so threads may share a program without a lock.  Evaluation
    follows IEEE semantics (poles give inf/nan, without warnings); callers
    that need strict error reporting use `evaluate`, the scalar AST walk.
    """

    fn: Callable[[np.ndarray], object]

    def __call__(self, xs: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            return self.fn(xs)


_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "sqrt": np.sqrt, "abs": np.abs}

# Integer exponents up to this size are evaluated by repeated multiplication,
# which is exact for small powers and defined for negative bases.
_MAX_MULTIPLIED_EXPONENT = 64


def compile_program(nodes, params: dict[str, float] | None = None) -> Program:
    """Bind the parameters as constants and build the array evaluator.

    `nodes` is one AST, or a sequence of ASTs evaluated together.  Each
    distinct subexpression is evaluated once per call, however many times
    it occurs in them.
    """
    several = isinstance(nodes, (list, tuple))
    dag = _Dag(params or {})
    roots = [dag.slot(node) for node in (nodes if several else [nodes])]
    return Program(dag.evaluator(roots, several))


class _Dag:
    """The distinct subexpressions of some ASTs, numbered children first.

    Structurally equal subtrees get one slot: each node is keyed by its
    type, its operator, function, name or value, and its children's slots,
    so no subtree is hashed twice, and node objects already seen are looked
    up by identity.  A slot used by more than one parent (or output) is a
    step: computed once per call into a dict that the call owns, held there
    until its last reader has run, then released.  Every other slot is a
    nested closure inside its one user, exactly as a tree without repeats
    compiles.  Every closure maps (xs, the call's step values) to values.
    """

    def __init__(self, params: dict[str, float]):
        self.params = params
        self.seen: dict[int, int] = {}   # id(node) -> slot; the roots keep nodes alive
        self.index: dict[tuple, int] = {}
        self.nodes: list[Node] = []
        self.children: list[tuple[int, ...]] = []
        self.has_var: list[bool] = []
        self.unread: dict[int, int] = {}  # step slot -> readers not yet built

    def slot(self, node: Node) -> int:
        found = self.seen.get(id(node))
        if found is not None:
            return found
        if isinstance(node, Const):
            # 0.0 and -0.0 are different constants; NaN keys never match
            children, key = (), (Const, node.value, math.copysign(1.0, node.value))
        elif isinstance(node, Var):
            children, key = (), (Var,)
        elif isinstance(node, Param):
            children, key = (), (Param, node.name)
        elif isinstance(node, Neg):
            children = (self.slot(node.arg),)
            key = (Neg, *children)
        elif isinstance(node, Call):
            children = (self.slot(node.arg),)
            key = (Call, node.func, *children)
        else:
            children = (self.slot(node.left), self.slot(node.right))
            key = (BinOp, node.op, *children)
        found = self.index.get(key)
        if found is None:
            found = self.index[key] = len(self.nodes)
            self.nodes.append(node)
            self.children.append(children)
            self.has_var.append(isinstance(node, Var) or any(self.has_var[c] for c in children))
        self.seen[id(node)] = found
        return found

    def evaluator(self, roots: list[int], several: bool):
        uses = [0] * len(self.nodes)
        for children in self.children:
            for c in children:
                uses[c] += 1
        for r in roots:
            uses[r] += 1
        # Slots are numbered children first, so this order is topological.
        # Closures are built in the order they run, so the reader built last
        # for a step is the one that runs last, and it releases the value.
        self.unread = {s: n for s, n in enumerate(uses)
                       if n > 1 and not isinstance(self.nodes[s], (Const, Var, Param))}
        steps = [(s, self._closure(s, inline=True)) for s in self.unread]
        outputs = []
        for i, r in enumerate(roots):
            out = self._closure(r)
            # xs itself, a scalar or constant array, or a slot listed twice
            if isinstance(self.nodes[r], Var) or not self.has_var[r] or r in roots[:i]:
                out = _filled(out)
            outputs.append(out)

        def run(xs):
            values = {}
            for s, step in steps:
                values[s] = step(xs, values)
            if not several:
                return outputs[0](xs, values)
            return tuple([out(xs, values) for out in outputs])

        return run

    def _reader(self, s: int):
        self.unread[s] -= 1
        if self.unread[s]:
            return lambda xs, values: values[s]
        return lambda xs, values: values.pop(s)

    def _closure(self, s: int, inline: bool = False):
        """Function mapping xs and the call's step values to the slot's values.

        A subtree without the variable gives a numpy scalar.  Arithmetic on
        it is exact, but a function or power of it is taken on an array of
        xs.shape, because numpy's array loops and scalar path may round apart.
        """
        if not inline and s in self.unread:
            return self._reader(s)
        node = self.nodes[s]
        if isinstance(node, Const):
            value = np.float64(node.value)
            return lambda xs, values: value
        if isinstance(node, Param):
            if node.name not in self.params:
                raise EvalError(f"unbound parameter {node.name!r}")
            value = np.float64(self.params[node.name])
            return lambda xs, values: value
        if isinstance(node, Var):
            return lambda xs, values: xs
        children = self.children[s]
        if isinstance(node, Neg):
            arg = self._closure(children[0])
            return lambda xs, values: -arg(xs, values)
        if isinstance(node, BinOp) and node.op != "^":
            left, right = self._closure(children[0]), self._closure(children[1])
            if node.op == "+":
                return lambda xs, values: left(xs, values) + right(xs, values)
            if node.op == "-":
                return lambda xs, values: left(xs, values) - right(xs, values)
            if node.op == "*":
                return lambda xs, values: left(xs, values) * right(xs, values)
            return lambda xs, values: left(xs, values) / right(xs, values)
        arg = self._closure(children[0])
        if not self.has_var[children[0]]:
            arg = _filled(arg)
        if isinstance(node, Call):
            func = _UFUNCS[node.func]
            return lambda xs, values: func(arg(xs, values))
        exponent = node.right.value
        if exponent != int(exponent) or abs(exponent) > _MAX_MULTIPLIED_EXPONENT:
            exponent = np.float64(exponent)
            return lambda xs, values: arg(xs, values) ** exponent
        k = int(exponent)

        def power(xs, values):
            base = arg(xs, values)
            acc = np.ones(xs.shape)
            for _ in range(abs(k)):
                acc = acc * base
            return 1.0 / acc if k < 0 else acc

        return power


def _filled(closure):
    """The closure's values copied into a new array of xs.shape."""
    return lambda xs, values: np.full(xs.shape, closure(xs, values))
