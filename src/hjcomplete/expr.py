"""Expression calculus on canonical phase space.

Scalar observables are written in a tiny expression language over the
coordinates q1..qs, p1..ps:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? power
    power  := atom ('^' factor)?
    atom   := number | ident | func '(' expr ')' | '(' expr ')'
    ident  := 'q' digits | 'p' digits
    func   := 'sin' | 'cos' | 'exp' | 'log' | 'sqrt'

'^' is right associative and numbers use the usual decimal or scientific
notation with a leading digit.  Parsing is by recursive descent, errors
carry the byte offset of the offending token.

Values come from a float walk over the tree.  Gradients and Hessians come
from generated kernels: on first use of an order the tree becomes one
straight-line Python function, forward mode over the structurally nonzero
entries with constants folded and the finiteness and domain checks
inline.  Its arithmetic is that of second order dual numbers term by term,
so derivatives are exact.  When a check fails the float walk reruns to
name the failing subexpression.  The field kernel's code also runs on
numpy rows (hamiltonian_rows) with one finiteness test per call, where
the float code's domain faults show as inf or NaN.  Kernel code comes
from the tree alone (literals by repr, variables by index, functions
from _FUNC_TABLE) and runs without builtins.  Finite differences appear
nowhere in this module; they are reserved for test oracles.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "ParseError",
    "EvaluationError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "serialize",
    "ScalarField",
    "ProceduralScalar",
    "MapField",
]

FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt")


class ParseError(ValueError):
    """Raised on malformed sources.  Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvaluationError(ArithmeticError):
    """Raised when evaluation leaves the domain or produces a non finite value."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # 'q' or 'p'
    index: int  # 1 based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = n - len(stripped)
            raise ParseError(
                f"invalid character {source[bad]!r}", _byte_offset(source, bad)
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


_VAR_RE = re.compile(r"^([qp])([0-9]+)$")


class _Parser:
    def __init__(self, source: str, dimension_s: int):
        self.source = source
        self.s = dimension_s
        self.tokens = _tokenize(source)
        self.pos = 0

    def _error(self, message: str, tok) -> ParseError:
        return ParseError(message, _byte_offset(self.source, tok[2]))

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise self._error(f"unexpected token {tok[1]!r}", tok)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def closed(self, node: Node) -> Node:
        closing = self.peek()
        if closing[:2] != ("op", ")"):
            raise self._error("expected ')'", closing)
        self.advance()
        return node

    def atom(self) -> Node:
        tok = self.peek()
        kind, text, _ = tok
        if kind == "num":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise self._error(f"literal {text!r} overflows", tok)
            return Num(value)
        if kind == "ident":
            self.advance()
            if text in FUNCTION_NAMES:
                opening = self.peek()
                if opening[:2] != ("op", "("):
                    raise self._error(
                        f"function {text!r} must be followed by '('", opening
                    )
                self.advance()
                return Call(text, self.closed(self.expr()))
            m = _VAR_RE.match(text)
            if m is None:
                raise self._error(f"unknown identifier {text!r}", tok)
            index = int(m.group(2))
            if not 1 <= index <= self.s:
                raise self._error(
                    f"variable {text!r} out of range for dimension s={self.s}", tok
                )
            return Var(m.group(1), index)
        if (kind, text) == ("op", "("):
            self.advance()
            return self.closed(self.expr())
        if kind == "eof":
            raise self._error("unexpected end of input", tok)
        raise self._error(f"unexpected token {text!r}", tok)


def parse(source: str, dimension_s: int) -> Node:
    """Parse a source string over q1..qs, p1..ps into a syntax tree."""
    if dimension_s < 1:
        raise ValueError("dimension_s must be at least 1")
    return _Parser(source, dimension_s).parse()


# precedence levels used by the serializer; parenthesization is minimal but
# guaranteed to reparse into a structurally identical tree
_PREC_SUM = 1
_PREC_PRODUCT = 2
_PREC_UNARY = 3
_PREC_POWER = 4
_PREC_ATOM = 6
# least precedence of the left and right operands, and the separator; a
# power's base is an atom and its exponent a factor
_OPERANDS = {
    "+": (_PREC_SUM, _PREC_PRODUCT, " + "),
    "-": (_PREC_SUM, _PREC_PRODUCT, " - "),
    "*": (_PREC_PRODUCT, _PREC_UNARY, "*"),
    "/": (_PREC_PRODUCT, _PREC_UNARY, "/"),
    "^": (_PREC_ATOM - 1, _PREC_UNARY, "^"),
}


def _node_prec(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_SUM
        if node.op in "*/":
            return _PREC_PRODUCT
        return _PREC_POWER
    if isinstance(node, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def _render(node: Node, min_prec: int) -> str:
    if isinstance(node, Num):
        if node.value < 0 or not math.isfinite(node.value):
            raise ValueError("literals must be finite and non negative")
        text = repr(node.value)
    elif isinstance(node, Var):
        text = f"{node.kind}{node.index}"
    elif isinstance(node, Call):
        text = f"{node.func}({_render(node.arg, _PREC_SUM)})"
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, _PREC_POWER)
    else:
        left, right, sep = _OPERANDS[node.op]
        text = _render(node.left, left) + sep + _render(node.right, right)
    if _node_prec(node) < min_prec:
        return "(" + text + ")"
    return text


def serialize(node: Node) -> str:
    """Render a tree back to source.  parse(serialize(t)) == t."""
    return _render(node, _PREC_SUM)


# ---------------------------------------------------------------------------
# float tree walk: values, and the error path of the derivative kernels

_FUNC_TABLE: dict[str, Callable[[float], float]] = {
    name: getattr(math, name) for name in FUNCTION_NAMES
}
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _has_var(node: Node, kinds: str = "qp") -> bool:
    if isinstance(node, (Num, Var)):
        return isinstance(node, Var) and node.kind in kinds
    return any(_has_var(c, kinds) for c in vars(node).values() if not isinstance(c, str))


def _integer_exponent(node: Node) -> int | None:
    """n when the exponent is a literal integer n or -n, else None."""
    sign, num = (-1, node.operand) if isinstance(node, Neg) else (1, node)
    if isinstance(num, Num) and float(num.value).is_integer():
        return sign * int(num.value)
    return None


def _square_and_multiply(base, n: int, mul: Callable):
    """base^n for n >= 1, left-to-right binary.  The tree walk and the
    kernels share it, so both take the same products in the same order."""
    out = base
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return out


def _apply_func(name: str, v: float, node: Node, order: int = 0) -> float:
    if (name == "log" and not v > 0.0) or (name == "sqrt" and not v >= 0.0):
        raise EvaluationError(f"domain error for {name}({v!r})", serialize(node))
    if name == "sqrt" and order and v == 0.0:
        raise EvaluationError("sqrt is not differentiable at 0.0", serialize(node))
    try:
        return _FUNC_TABLE[name](v)
    except (ValueError, OverflowError) as exc:
        raise EvaluationError(f"{name} failed: {exc}", serialize(node)) from exc


def _evaluate(node: Node, env: Sequence[float], s: int, order: int = 0) -> float:
    """Float value of a tree.  Raises EvaluationError naming the first
    failing subexpression; with order >= 1 a point where a derivative of
    that order does not exist (sqrt at 0) fails too."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.index - 1 if node.kind == "q" else s + node.index - 1]
    if isinstance(node, Neg):
        return -_evaluate(node.operand, env, s, order)
    if isinstance(node, Call):
        arg = _evaluate(node.arg, env, s, order)
        return _apply_func(node.func, arg, node, order and _has_var(node.arg))
    left = _evaluate(node.left, env, s, order)
    op = node.op
    n = _integer_exponent(node.right) if op == "^" else None
    if n is not None:
        out = _square_and_multiply(left, abs(n), operator.mul) if n else 1.0
        if n < 0:
            if out == 0.0:
                raise EvaluationError("zero raised to a negative power", serialize(node))
            out = 1.0 / out
    else:
        right = _evaluate(node.right, env, s, order)
        if op == "^":  # general power via exp(b log a); requires a positive base
            if left <= 0.0:
                raise EvaluationError("general power needs a positive base", serialize(node))
            out = _apply_func("exp", right * _apply_func("log", left, node), node)
        elif op != "/":
            out = _FOLD[op](left, right)
        elif right == 0.0:
            raise EvaluationError("division by zero", serialize(node))
        else:
            out = left / right
    if not math.isfinite(out):
        raise EvaluationError("non finite result", serialize(node))
    return out


# ---------------------------------------------------------------------------
# generated derivative kernels
#
# A quantity is a float (a folded constant) or code: a local's name or a
# parenthesized expression.  A derivative is sparse, a dict from a flat
# index (gradient) or an index pair i <= j (Hessian) to a quantity, and a
# missing key is a structural zero (None in the helpers below).  Every
# formula is second order dual arithmetic term by term, in the same order,
# minus the terms that are structurally zero; order 1 keeps the gradient.
# Orders 1 and 2 return the gradient and the Hessian; -1 and -2 compute
# as 1 and 2 and return X = J grad, then X and DX = J Hess: the same
# floats, the p rows first and the q rows negated in the code.
# A kernel fails when a binary operation's value or an output is not
# finite, and on a domain fault (ArithmeticError or ValueError).


def _code(q) -> str:
    if isinstance(q, float) and not math.isfinite(q):
        raise OverflowError("non finite constant")
    return q if isinstance(q, str) else repr(q)


def _neg(a):
    return a if a is None else -a if isinstance(a, float) else f"(-{a})"


def _op(a, op: str, b):
    """a op b for op in '+-*', where None is a structural zero."""
    if a is None or b is None:
        if op == "*" or b is None:
            return None if op == "*" else a
        return b if op == "+" else _neg(b)
    if isinstance(a, float) and isinstance(b, float):
        return _FOLD[op](a, b)
    if op == "*" and 1.0 in (a, b):
        return b if a == 1.0 else a
    return f"({_code(a)} {op} {_code(b)})"


def _mul(*factors):
    """Left-associated product."""
    return functools.reduce(lambda a, b: _op(a, "*", b), factors)


def _pairs(hessians, products=()) -> list:
    """Sorted pairs i <= j that the Hessians or gradient products touch."""
    keys = set().union(*hessians)
    for gi, gj in products:
        keys.update((min(i, j), max(i, j)) for i in gi for j in gj)
    return sorted(keys)


# f' and f'' of each function, from the argument {v} and the value {f}
_DERIVATIVE_CODE = {
    "sin": ("cos({v})", "(-{f})"),
    "cos": ("(-sin({v}))", "(-{f})"),
    "exp": ("{f}", "{f}"),
    "log": ("(1.0 / {v})", "(-1.0 / ({v} * {v}))"),
    "sqrt": ("(0.5 / {f})", "(-0.25 / ({v} * {f}))"),
}
_LOCAL_RE = re.compile(r"\b[tx]\d+\b")
_RAISES_RE = re.compile(r"/|[a-z]\(")  # a division or a function call


class _KernelWriter:
    """Source transformation of one tree into straight-line forward mode.
    emit() returns a node's (value, gradient, hessian); a float value marks
    a constant node, whose derivatives are empty."""

    def __init__(self, s: int, order: int):
        self.s, self.order, self.field = s, abs(order), order < 0
        self.lines, self.checked = [], []  # (name, code) and names to check

    def let(self, q):
        if isinstance(q, float) or q.isidentifier():
            return q
        self.lines.append((f"t{len(self.lines)}", q))
        return self.lines[-1][0]

    def node(self, v, g, h):
        let = self.let
        return let(v), {k: let(q) for k, q in g.items()}, {k: let(q) for k, q in h.items()}

    def emit(self, node: Node):
        if not _has_var(node):
            return float(_evaluate(node, (), self.s)), {}, {}
        if isinstance(node, Var):
            k = node.index - 1 + (self.s if node.kind == "p" else 0)
            return f"x{k}", {k: 1.0}, {}
        if isinstance(node, Neg):
            v, g, h = self.emit(node.operand)
            g, h = ({k: _neg(q) for k, q in d.items()} for d in (g, h))
            return self.node(_neg(v), g, h)
        if isinstance(node, Call):
            return self.call(node.func, self.emit(node.arg), node)
        a = self.emit(node.left)
        n = _integer_exponent(node.right) if node.op == "^" else None
        if n == 0:  # not folded, so sqrt(q1^0 - 1) fails as in the tree walk
            return "1.0", {}, {}
        if n is not None:
            out = _square_and_multiply(a, abs(n), self.mul)
            out = self.div((1.0, {}, {}), out) if n < 0 else out
        elif node.op == "^":
            log = self.call("log", a, node)
            out = self.call("exp", self.mul(self.emit(node.right), log), node)
        elif node.op in "+-":
            (av, ag, ah), (bv, bg, bh) = a, self.emit(node.right)
            out = self.node(
                _op(av, node.op, bv),
                {k: _op(ag.get(k), node.op, bg.get(k)) for k in sorted(ag.keys() | bg.keys())},
                {k: _op(ah.get(k), node.op, bh.get(k)) for k in _pairs((ah, bh))},
            )
        else:
            out = (self.mul if node.op == "*" else self.div)(a, self.emit(node.right))
        if isinstance(out[0], str):
            self.checked.append(out[0])
        return out

    def mul(self, a, b):
        (av, ag, ah), (bv, bg, bh) = a, b
        g = {
            i: _op(_mul(ag.get(i), bv), "+", _mul(av, bg.get(i)))
            for i in sorted(ag.keys() | bg.keys())
        }
        h = {}
        for i, j in _pairs((ah, bh), [(ag, bg)]) if self.order == 2 else ():
            ij = _op(_mul(ah.get((i, j)), bv), "+", _mul(ag.get(i), bg.get(j)))
            ij = _op(ij, "+", _mul(ag.get(j), bg.get(i)))
            h[i, j] = _op(ij, "+", _mul(av, bh.get((i, j))))
        return self.node(_mul(av, bv), g, h)

    def div(self, a, b):  # a times the inverse of b
        bv, bg, bh = b
        if isinstance(bv, float):
            return self.mul(a, (1.0 / bv, {}, {}))
        w = self.let(f"(1.0 / {bv})")
        w2 = self.let(_mul(w, w))
        h = {}
        for i, j in _pairs((bh,), [(bg, bg)]) if self.order == 2 else ():
            twice = _mul(2.0, bg.get(i), bg.get(j), w)
            h[i, j] = _mul(_op(twice, "-", bh.get((i, j))), w2)
        return self.mul(a, self.node(w, {i: _mul(_neg(q), w2) for i, q in bg.items()}, h))

    def call(self, name: str, a, node: Node):
        av, ag, ah = a
        if isinstance(av, float):
            return _apply_func(name, av, node), {}, {}
        f = self.let(f"{name}({av})")
        f1 = self.let(_DERIVATIVE_CODE[name][0].format(v=av, f=f))
        h = {}
        if self.order == 2:
            f2 = self.let(_DERIVATIVE_CODE[name][1].format(v=av, f=f))
            for i, j in _pairs((ah,), [(ag, ag)]):
                h[i, j] = _op(_mul(f1, ah.get((i, j))), "+", _mul(f2, ag.get(i), ag.get(j)))
        return self.node(f, {i: _mul(f1, q) for i, q in ag.items()}, h)

    def source(self, root: Node, stack: bool = False) -> str:
        _, g, h = self.emit(root)
        n = 2 * self.s
        grad = [g.get(i, 0.0) for i in range(n)] if self.field or self.order == 1 else []
        pairs = [(min(i, j), max(i, j)) for i in range(n) for j in range(n)]
        hess = [h.get(k, 0.0) for k in pairs] if self.order == 2 else []
        outputs = grad + hess
        checks = dict.fromkeys(q for q in self.checked + outputs if isinstance(q, str))
        if self.field:  # J times each block: its p rows, then its negated q rows
            outputs = []
            for rows, cut in ((grad, self.s), (hess, self.s * n)):
                outputs += rows[cut:] + [_neg(q) for q in rows[:cut]]
        live, body = set(checks), []
        for name, code in reversed(self.lines):
            # drop what no output or check reads, unless it can raise
            if name in live or _RAISES_RE.search(code):
                live.update(_LOCAL_RE.findall(code))
                body.insert(0, f"    {name} = {code}")
        head = f"    {', '.join(f'x{i}' for i in range(n))}, = x"
        if stack:  # numpy rows: what raises on floats gives inf or NaN, so it is
            # checked too, in one test; constants broadcast as z + c, z = -0.0
            checks.update((line.split()[0], None) for line in body if _RAISES_RE.search(line))
            wide = {f"x{i}" for i in range(n)}
            for name, code in self.lines:
                if wide.intersection(_LOCAL_RE.findall(code)):
                    wide.add(name)
            outputs, checks = ([
                q if isinstance(q, str) and wide.intersection(_LOCAL_RE.findall(q))
                else f"(z + {_code(q)})" for q in qs
            ] for qs in (outputs, checks))
            test = f"isfinite(({', '.join(checks)},))"
            lines = ["def kernel(x, z):", head, *body]
        else:
            test = " and ".join(f"isfinite({q})" for q in checks)
            lines = ["def kernel(x):", head, *body]
        if checks:
            lines += [f"    if not ({test}):", "        return None"]
        return "\n".join(lines + [f"    return ({', '.join(map(_code, outputs))},)\n"])


_FLOAT64 = np.dtype(float)
_KERNELS: dict[tuple, Callable] = {}  # (ast, dimension_s, order), oldest out past 1024


def _compile(ast: Node, s: int, order: int | str) -> Callable:
    """kernel([x0, .., x_{2s-1}]): the order's flat outputs, None on failure;
    order "rows" is order -1 on numpy rows, kernel(x (2s, P), z (P,) of -0.0)."""
    rows = order == "rows"
    try:
        code = _KernelWriter(s, -1 if rows else order).source(ast, stack=rows)
    except ArithmeticError:  # a constant subtree fails or overflows
        code = "def kernel(*x):\n    return None\n"
    table = {name: getattr(np, name) for name in FUNCTION_NAMES} if rows else _FUNC_TABLE
    isfinite = (lambda qs: bool(np.isfinite(qs).all())) if rows else math.isfinite
    namespace = {"__builtins__": {}, "isfinite": isfinite, **table}
    exec(compile(code, "<expr kernel>", "exec"), namespace)
    return namespace.pop("kernel")


def _as_floats(x, dim: int) -> list:
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected a point of dimension {dim}, got shape {x.shape}")
    return x.tolist()


@dataclass(frozen=True)
class ScalarField:
    """A parsed scalar observable on R^{2s}.

    Evaluation is pure: identical inputs give bitwise identical results.
    Any NaN or Inf met along the way aborts with an EvaluationError that
    names the offending sub expression.
    """

    source: str
    ast: Node
    dimension_s: int
    # kernels by derivative order: hashing the tree for the shared memo
    # costs more than a kernel call, so each instance looks them up once
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def parse(cls, source: str, dimension_s: int) -> "ScalarField":
        return cls(source, parse(source, dimension_s), dimension_s)

    @property
    def dim(self) -> int:
        return 2 * self.dimension_s

    def value(self, x) -> float:
        return float(_evaluate(self.ast, _as_floats(x, self.dim), self.dimension_s))

    # gradient, hessian and hamiltonian_field repeat their few lines: a
    # shared helper would add a call to every derivative and flow step
    def gradient(self, x) -> np.ndarray:
        vals = _as_floats(x, 2 * self.dimension_s)
        kernel = self._kernels.get(1) or self._kernel(1)
        try:
            out = kernel(vals)
        except (ArithmeticError, ValueError):
            out = None
        return self._fail(vals, 1) if out is None else np.array(out)

    def hessian(self, x) -> np.ndarray:
        n = 2 * self.dimension_s
        vals = _as_floats(x, n)
        kernel = self._kernels.get(2) or self._kernel(2)
        try:
            out = kernel(vals)
        except (ArithmeticError, ValueError):
            out = None
        return self._fail(vals, 2) if out is None else np.array(out).reshape(n, n)

    def hamiltonian_field(self, x, derivative: bool = False):
        """X = J grad f at x; with derivative the pair (X, DX = J Hess f).
        Either is one kernel call, bitwise J times gradient and hessian."""
        n, order = 2 * self.dimension_s, -2 if derivative else -1
        vals = _as_floats(x, n)
        kernel = self._kernels.get(order) or self._kernel(order)
        try:
            out = kernel(vals)
        except (ArithmeticError, ValueError):
            out = None
        if out is None:  # fails as gradient, then hessian, would
            self.gradient(vals)
            self._fail(vals, 2)
        out = np.array(out)
        return (out[:n], out[n:].reshape(n, n)) if derivative else out

    def hamiltonian_rows(self, X) -> np.ndarray:
        """hamiltonian_field at each row of a (P, 2s) stack by the X kernel's
        code on numpy rows: the same bits for + - * / and integer powers, a
        few ulp off for functions; a failing stack reruns row by row."""
        X = np.asarray(X, dtype=float)
        kernel = self._kernels.get("rows") or self._kernel("rows")
        with np.errstate(all="ignore"):
            out = kernel(np.ascontiguousarray(X.T), np.full(len(X), -0.0))
        if out is None:
            return np.array([self.hamiltonian_field(x) for x in X]).reshape(X.shape)
        return np.array(out).T

    def _fail(self, vals: list, order: int):
        """A kernel check failed: the tree walk names the subexpression."""
        _evaluate(self.ast, vals, self.dimension_s, order)
        raise EvaluationError(f"non finite {('gradient', 'hessian')[order - 1]}", self.source)

    def _kernel(self, order: int | str) -> Callable:
        key = (self.ast, self.dimension_s, order)
        kernel = _KERNELS.get(key)
        if kernel is None:
            if len(_KERNELS) >= 1024:
                del _KERNELS[next(iter(_KERNELS))]
            kernel = _KERNELS[key] = _compile(self.ast, self.dimension_s, order)
        self._kernels[order] = kernel
        return kernel


@dataclass(frozen=True)
class ProceduralScalar:
    """Scalar component defined by callables rather than a parsed source.

    Used for quantities that exist only through a numerical construction,
    for example flow box coordinates.  The gradient callable must return
    the exact covector of the same procedure that produces the value.
    """

    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    dimension_s: int

    def value(self, x) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.gradient_fn(np.asarray(x, dtype=float)), dtype=float)


Component = Union[ScalarField, ProceduralScalar]


@dataclass(frozen=True)
class MapField:
    """A map R^{2s} -> R^l given by an ordered tuple of scalar components."""

    components: tuple
    dimension_s: int

    def __post_init__(self):
        for c in self.components:
            if c.dimension_s != self.dimension_s:
                raise ValueError("all components must share dimension_s")

    @classmethod
    def from_sources(cls, sources: Sequence[str], dimension_s: int) -> "MapField":
        comps = tuple(ScalarField.parse(src, dimension_s) for src in sources)
        return cls(comps, dimension_s)

    @property
    def target_dim(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return 2 * self.dimension_s

    def value(self, x) -> np.ndarray:
        return np.array([c.value(x) for c in self.components], dtype=float)

    def jacobian(self, x) -> np.ndarray:
        if not self.components:
            return np.zeros((0, self.dim))
        return np.vstack([c.gradient(x) for c in self.components])
