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

Derivatives are exact: evaluation runs on dual numbers carrying a full
tangent vector (first order) or a tangent plus a symmetric matrix of
second order coefficients, so gradients and Hessians come out of a single
forward pass with no truncation error.  Finite differences appear nowhere
in this module; they are reserved for test oracles.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
    "Dual",
    "HessDual",
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
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
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

    def atom(self) -> Node:
        tok = self.peek()
        kind, text, _ = tok
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if text in FUNCTION_NAMES:
                opening = self.peek()
                if opening[:2] != ("op", "("):
                    raise self._error(
                        f"function {text!r} must be followed by '('", opening
                    )
                self.advance()
                arg = self.expr()
                closing = self.peek()
                if closing[:2] != ("op", ")"):
                    raise self._error("expected ')'", closing)
                self.advance()
                return Call(text, arg)
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
            node = self.expr()
            closing = self.peek()
            if closing[:2] != ("op", ")"):
                raise self._error("expected ')'", closing)
            self.advance()
            return node
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
    elif node.op in "+-":
        text = (
            _render(node.left, _PREC_SUM)
            + f" {node.op} "
            + _render(node.right, _PREC_PRODUCT)
        )
    elif node.op in "*/":
        text = (
            _render(node.left, _PREC_PRODUCT)
            + node.op
            + _render(node.right, _PREC_UNARY)
        )
    else:  # power: base is an atom, exponent a factor
        text = (
            _render(node.left, _PREC_ATOM - 1)
            + "^"
            + _render(node.right, _PREC_UNARY)
        )
    if _node_prec(node) < min_prec:
        return "(" + text + ")"
    return text


def serialize(node: Node) -> str:
    """Render a tree back to source.  parse(serialize(t)) == t."""
    return _render(node, _PREC_SUM)


# ---------------------------------------------------------------------------
# dual numbers


class Dual:
    """First order dual number: value plus a tangent vector.

    The tangent is a plain tuple of floats, one slot per phase space
    coordinate, so a single evaluation of an expression seeded with unit
    tangents yields the full gradient.
    """

    __slots__ = ("v", "d")

    def __init__(self, v: float, d: tuple):
        self.v = v
        self.d = d

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.v + other.v, tuple(a + b for a, b in zip(self.d, other.d)))
        return Dual(self.v + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.v - other.v, tuple(a - b for a, b in zip(self.d, other.d)))
        return Dual(self.v - other, self.d)

    def __rsub__(self, other):
        return Dual(other - self.v, tuple(-a for a in self.d))

    def __neg__(self):
        return Dual(-self.v, tuple(-a for a in self.d))

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.v * other.v,
                tuple(a * other.v + self.v * b for a, b in zip(self.d, other.d)),
            )
        return Dual(self.v * other, tuple(a * other for a in self.d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            w = 1.0 / other.v
            val = self.v * w
            return Dual(val, tuple((a - val * b) * w for a, b in zip(self.d, other.d)))
        w = 1.0 / other
        return Dual(self.v * w, tuple(a * w for a in self.d))

    def __rtruediv__(self, other):
        w = 1.0 / self.v
        val = other * w
        return Dual(val, tuple(-val * w * a for a in self.d))


class HessDual:
    """Second order dual number: value, gradient and symmetric Hessian."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v: float, g: tuple, h: tuple):
        self.v = v
        self.g = g  # tuple of floats
        self.h = h  # tuple of tuples, symmetric

    def __add__(self, other):
        if isinstance(other, HessDual):
            g = tuple(a + b for a, b in zip(self.g, other.g))
            h = tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.h, other.h)
            )
            return HessDual(self.v + other.v, g, h)
        return HessDual(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HessDual):
            g = tuple(a - b for a, b in zip(self.g, other.g))
            h = tuple(
                tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.h, other.h)
            )
            return HessDual(self.v - other.v, g, h)
        return HessDual(self.v - other, self.g, self.h)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return HessDual(
            -self.v,
            tuple(-a for a in self.g),
            tuple(tuple(-a for a in row) for row in self.h),
        )

    def __mul__(self, other):
        if isinstance(other, HessDual):
            av, bv = self.v, other.v
            ag, bg = self.g, other.g
            g = tuple(a * bv + av * b for a, b in zip(ag, bg))
            h = tuple(
                tuple(
                    ha * bv + ag[i] * bg[j] + ag[j] * bg[i] + av * hb
                    for j, (ha, hb) in enumerate(zip(rowa, rowb))
                )
                for i, (rowa, rowb) in enumerate(zip(self.h, other.h))
            )
            return HessDual(av * bv, g, h)
        return HessDual(
            self.v * other,
            tuple(a * other for a in self.g),
            tuple(tuple(a * other for a in row) for row in self.h),
        )

    __rmul__ = __mul__

    def _inv(self):
        w = 1.0 / self.v
        w2 = w * w
        g = tuple(-a * w2 for a in self.g)
        sg = self.g
        h = tuple(
            tuple((2.0 * sg[i] * sg[j] * w - hij) * w2 for j, hij in enumerate(row))
            for i, row in enumerate(self.h)
        )
        return HessDual(w, g, h)

    def __truediv__(self, other):
        if isinstance(other, HessDual):
            return self * other._inv()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._inv() * other


Number = Union[float, Dual, HessDual]

# value, first and second derivative of each function
_FUNC_TABLE: dict[str, tuple[Callable, Callable, Callable]] = {
    "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
    "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (
        math.sqrt,
        lambda v: 0.5 / math.sqrt(v),
        lambda v: -0.25 / (v * math.sqrt(v)),
    ),
}

_DOMAIN_CHECKS = {
    "log": lambda v: v > 0.0,
    "sqrt": lambda v: v >= 0.0,
}


def _value_of(u: Number) -> float:
    if isinstance(u, (Dual, HessDual)):
        return u.v
    return u


def _apply_func(name: str, u: Number, node: Node) -> Number:
    v = _value_of(u)
    check = _DOMAIN_CHECKS.get(name)
    if check is not None and not check(v):
        raise EvaluationError(f"domain error for {name}({v!r})", serialize(node))
    f, f1, f2 = _FUNC_TABLE[name]
    try:
        fv = f(v)
    except (ValueError, OverflowError) as exc:
        raise EvaluationError(f"{name} failed: {exc}", serialize(node)) from exc
    if isinstance(u, Dual):
        a = f1(v)
        return Dual(fv, tuple(a * di for di in u.d))
    if isinstance(u, HessDual):
        a = f1(v)
        b = f2(v)
        g = tuple(a * di for di in u.g)
        ug = u.g
        h = tuple(
            tuple(a * hij + b * ug[i] * ug[j] for j, hij in enumerate(row))
            for i, row in enumerate(u.h)
        )
        return HessDual(fv, g, h)
    return fv


def _int_power(base: Number, n: int, node: Node) -> Number:
    if n == 0:
        return 1.0
    if n < 0:
        if _value_of(base) == 0.0:
            raise EvaluationError("zero raised to a negative power", serialize(node))
        return 1.0 / _int_power(base, -n, node)
    result = base
    for _ in range(n - 1):
        result = result * base
    return result


def _evaluate(node: Node, env: tuple, s: int) -> Number:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        flat = node.index - 1 if node.kind == "q" else s + node.index - 1
        return env[flat]
    if isinstance(node, Neg):
        return -_evaluate(node.operand, env, s)
    if isinstance(node, Call):
        return _apply_func(node.func, _evaluate(node.arg, env, s), node)
    # BinOp
    left = _evaluate(node.left, env, s)
    op = node.op
    if op == "^":
        r = node.right
        if isinstance(r, Num) and float(r.value).is_integer():
            out = _int_power(left, int(r.value), node)
        elif isinstance(r, Neg) and isinstance(r.operand, Num) and float(
            r.operand.value
        ).is_integer():
            out = _int_power(left, -int(r.operand.value), node)
        else:
            # general power via exp(b log a); requires a positive base
            right = _evaluate(r, env, s)
            if _value_of(left) <= 0.0:
                raise EvaluationError(
                    "general power needs a positive base", serialize(node)
                )
            out = _apply_func("exp", right * _apply_func("log", left, node), node)
        if not math.isfinite(_value_of(out)):
            raise EvaluationError("non finite result", serialize(node))
        return out
    right = _evaluate(node.right, env, s)
    if op == "+":
        out = left + right
    elif op == "-":
        out = left - right
    elif op == "*":
        out = left * right
    else:
        if _value_of(right) == 0.0:
            raise EvaluationError("division by zero", serialize(node))
        out = left / right
    if not math.isfinite(_value_of(out)):
        raise EvaluationError("non finite result", serialize(node))
    return out


# unit tangent tuples, cached per dimension
_BASIS_CACHE: dict[int, tuple] = {}
_ZERO_HESS_CACHE: dict[int, tuple] = {}


def _basis(dim: int) -> tuple:
    cached = _BASIS_CACHE.get(dim)
    if cached is None:
        cached = tuple(
            tuple(1.0 if i == j else 0.0 for j in range(dim)) for i in range(dim)
        )
        _BASIS_CACHE[dim] = cached
    return cached


def _zero_hess(dim: int) -> tuple:
    cached = _ZERO_HESS_CACHE.get(dim)
    if cached is None:
        cached = tuple(tuple(0.0 for _ in range(dim)) for _ in range(dim))
        _ZERO_HESS_CACHE[dim] = cached
    return cached


def _as_floats(x, dim: int) -> tuple:
    vals = tuple(float(v) for v in x)
    if len(vals) != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {len(vals)}")
    return vals


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

    @classmethod
    def parse(cls, source: str, dimension_s: int) -> "ScalarField":
        return cls(source, parse(source, dimension_s), dimension_s)

    @property
    def dim(self) -> int:
        return 2 * self.dimension_s

    def value(self, x) -> float:
        env = _as_floats(x, self.dim)
        out = _evaluate(self.ast, env, self.dimension_s)
        return float(out)

    def gradient(self, x) -> np.ndarray:
        vals = _as_floats(x, self.dim)
        basis = _basis(self.dim)
        env = tuple(Dual(v, basis[i]) for i, v in enumerate(vals))
        out = _evaluate(self.ast, env, self.dimension_s)
        if isinstance(out, Dual):
            grad = np.array(out.d, dtype=float)
        else:  # expression without variables
            grad = np.zeros(self.dim)
        if not np.all(np.isfinite(grad)):
            raise EvaluationError("non finite gradient", self.source)
        return grad

    def hessian(self, x) -> np.ndarray:
        vals = _as_floats(x, self.dim)
        basis = _basis(self.dim)
        zero = _zero_hess(self.dim)
        env = tuple(HessDual(v, basis[i], zero) for i, v in enumerate(vals))
        out = _evaluate(self.ast, env, self.dimension_s)
        if isinstance(out, HessDual):
            hess = np.array(out.h, dtype=float)
        else:
            hess = np.zeros((self.dim, self.dim))
        if not np.all(np.isfinite(hess)):
            raise EvaluationError("non finite hessian", self.source)
        return hess

    def serialized(self) -> str:
        return serialize(self.ast)


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
    label: str = ""

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
