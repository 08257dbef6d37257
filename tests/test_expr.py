import math
import operator

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from hjcomplete.expr import (
    BinOp,
    Call,
    EvaluationError,
    MapField,
    Neg,
    Num,
    ParseError,
    ProceduralScalar,
    ScalarField,
    Var,
    parse,
    serialize,
)
from hjcomplete import expr
from hjcomplete.expr import FUNCTION_NAMES
from hjcomplete.symplectic import apply_structure, fd_jacobian, hamiltonian_vf

RNG_CASES = 1000


def _value(source, s, x):
    return ScalarField.parse(source, s).value(np.asarray(x, dtype=float))


def test_arithmetic_precedence():
    assert _value("2 + 3*4^2", 1, [0.0, 0.0]) == 50.0
    assert _value("2*3 - 4/2^2", 1, [0.0, 0.0]) == 5.0
    assert _value("-q1^2", 1, [3.0, 0.0]) == -9.0
    assert _value("(-q1)^2", 1, [3.0, 0.0]) == 9.0
    # exponentiation associates to the right: 2^(3^2), not (2^3)^2 = 64
    assert parse("2^3^2", 1) == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
    assert _value("2^3^2", 1, [0.0, 0.0]) == pytest.approx(512.0, rel=1e-12)


def test_variables_index_by_dimension():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert _value("q2", 2, x) == 2.0
    assert _value("p1", 2, x) == 3.0
    assert _value("p2", 2, x) == 4.0


def test_functions():
    x = np.array([0.5, 0.0])
    assert _value("sin(q1)^2 + cos(q1)^2", 1, x) == pytest.approx(1.0, abs=1e-15)
    assert _value("log(exp(q1))", 1, x) == pytest.approx(0.5, abs=1e-15)
    assert _value("sqrt(q1^2)", 1, x) == pytest.approx(0.5, abs=1e-15)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("q1 +", 1)
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("q3", 2)
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("sin[q1]", 1)
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse("q1 + foo(q1)", 1)
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse("", 1)
    with pytest.raises(ParseError) as err:
        parse("q1)", 1)
    assert err.value.offset == 2


def test_out_of_range_momentum():
    with pytest.raises(ParseError):
        parse("p3", 2)
    parse("p2", 2)  # boundary is inclusive


def _random_ast(rng, s, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Num(float(rng.integers(0, 5)) + round(rng.random(), 2))
        kind = "q" if rng.random() < 0.5 else "p"
        return Var(kind, int(rng.integers(1, s + 1)))
    if roll < 0.40:
        return Neg_safe(_random_ast(rng, s, depth - 1))
    if roll < 0.55:
        func = ("sin", "cos", "exp")[rng.integers(0, 3)]
        return Call(func, _random_ast(rng, s, depth - 1))
    op = "+-*/^"[rng.integers(0, 5)]
    left = _random_ast(rng, s, depth - 1)
    if op == "^":
        right = Num(float(rng.integers(2, 4)))
    else:
        right = _random_ast(rng, s, depth - 1)
    return BinOp(op, left, right)


def Neg_safe(node):
    # the grammar does not allow --x, so avoid stacking negations
    return node if isinstance(node, Neg) else Neg(node)


def test_serialize_parse_round_trip():
    """parse(serialize(t)) must reproduce the tree node for node."""
    rng = np.random.default_rng(11)
    for _ in range(RNG_CASES):
        s = int(rng.integers(1, 4))
        tree = _random_ast(rng, s, int(rng.integers(1, 7)))
        text = serialize(tree)
        assert parse(text, s) == tree, text


def _trees(s):
    leaves = st.one_of(
        st.builds(Num, st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)),
        st.builds(Var, st.sampled_from("qp"), st.integers(1, s)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Call, st.sampled_from(FUNCTION_NAMES), sub),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        ),
        max_leaves=12,
    )


@given(st.integers(1, 3).flatmap(lambda s: st.tuples(st.just(s), _trees(s))))
def test_serialize_parse_round_trip_property(case):
    s, tree = case
    text = serialize(tree)
    assert parse(text, s) == tree, text


def _polynomials(s):
    """(source, point, scale): a polynomial of degree <= 4 in 2s variables."""
    names = [f"q{i}" for i in range(1, s + 1)] + [f"p{i}" for i in range(1, s + 1)]
    monomial = st.lists(st.sampled_from(names), min_size=0, max_size=4)
    term = st.tuples(st.floats(-3.0, 3.0), monomial)
    point = st.lists(st.floats(-1.0, 1.0), min_size=2 * s, max_size=2 * s)

    def render(terms):
        return " + ".join(
            "*".join([f"({c!r})"] + [f"{v}^{m.count(v)}" for v in sorted(set(m))])
            for c, m in terms
        )

    return st.tuples(st.lists(term, min_size=1, max_size=6), point).map(
        lambda tp: (
            render(tp[0]),
            np.array(tp[1]),
            1.0 + sum(abs(c) for c, _ in tp[0]),
        )
    )


@given(st.integers(1, 3).flatmap(lambda s: st.tuples(st.just(s), _polynomials(s))))
def test_exact_derivatives_match_fd_oracle_on_polynomials(case):
    s, (source, x, scale) = case
    f = ScalarField.parse(source, s)
    grad_fd = fd_jacobian(lambda z: np.atleast_1d(f.value(z)), x, 1e-6)[0]
    npt.assert_allclose(f.gradient(x), grad_fd, rtol=1e-6, atol=1e-6 * scale)
    hess_fd = fd_jacobian(f.gradient, x, 1e-6)
    npt.assert_allclose(f.hessian(x), hess_fd, rtol=1e-6, atol=1e-6 * scale)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    sources = [
        ("sin(q1)*exp(p1) - q1^3/3", 1),
        ("q1*p2 + cos(q2)^2 - p1*p2/2", 2),
        ("exp(q1/4 + p1/5) + q1^2*p1", 1),
        ("sqrt(1 + q1^2 + q2^2)*p1", 2),
    ]
    for source, s in sources:
        f = ScalarField.parse(source, s)
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, 2 * s)
            g = f.gradient(x)
            h = 1e-6
            fd = np.array(
                [
                    (f.value(x + h * e) - f.value(x - h * e)) / (2 * h)
                    for e in np.eye(2 * s)
                ]
            )
            npt.assert_allclose(g, fd, rtol=2e-6, atol=1e-9)


def test_hessian_symmetric_and_matches_fd():
    f = ScalarField.parse("sin(q1*p1) + q1^2*p1^3", 1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-0.7, 0.7, 2)
        Hm = f.hessian(x)
        npt.assert_allclose(Hm, Hm.T, atol=1e-14)
        h = 1e-5
        fd = np.array(
            [
                (f.gradient(x + h * e) - f.gradient(x - h * e)) / (2 * h)
                for e in np.eye(2)
            ]
        )
        npt.assert_allclose(Hm, fd, rtol=5e-5, atol=1e-7)


def test_evaluation_is_pure():
    f = ScalarField.parse("exp(sin(q1) + p1^2)", 1)
    x = np.array([0.37, -0.91])
    first = f.value(x)
    grad_first = f.gradient(x).tobytes()
    for _ in range(5):
        assert f.value(x) == first
        assert f.gradient(x).tobytes() == grad_first


def test_domain_errors_name_subexpression():
    f = ScalarField.parse("log(q1) + p1", 1)
    with pytest.raises(EvaluationError) as err:
        f.value(np.array([-1.0, 0.0]))
    assert "log(q1)" in str(err.value)
    # no derivative reads log's value, yet its domain still holds
    g = ScalarField.parse("log(q1)", 1)
    for method in (g.gradient, g.hessian):
        with pytest.raises(EvaluationError, match="domain error") as err:
            method(np.array([-1.0, 0.0]))
        assert err.value.subexpression == "log(q1)"
    with pytest.raises(EvaluationError):
        ScalarField.parse("sqrt(q1)", 1).value(np.array([-0.5, 0.0]))
    with pytest.raises(EvaluationError):
        ScalarField.parse("1/q1", 1).value(np.array([0.0, 0.0]))
    with pytest.raises(EvaluationError):
        ScalarField.parse("q1^p1", 1).value(np.array([-2.0, 1.5]))


def test_overflow_aborts():
    f = ScalarField.parse("exp(exp(exp(q1)))", 1)
    with pytest.raises(EvaluationError):
        f.value(np.array([10.0, 0.0]))
    # exp(-inf) = 0 would hide this overflow from every derivative output
    g = ScalarField.parse("exp(-(q1*q1*q1))", 1)
    for method in (g.value, g.gradient, g.hessian):
        with pytest.raises(EvaluationError, match="non finite result") as err:
            method(np.array([1e110, 0.0]))
        assert err.value.subexpression == "q1*q1*q1"


def test_integer_exponents_allow_negative_base():
    assert _value("q1^3", 1, [-2.0, 0.0]) == -8.0
    assert _value("q1^-2", 1, [-2.0, 0.0]) == 0.25
    g = ScalarField.parse("q1^3", 1).gradient(np.array([-2.0, 0.0]))
    npt.assert_allclose(g, [12.0, 0.0])


def test_serialized_text_is_stable():
    f = ScalarField.parse("(q1 + p1)^2/2", 1)
    text = serialize(f.ast)
    assert text == "(q1 + p1)^2.0/2.0"
    assert parse(text, 1) == f.ast


def test_map_field():
    F = MapField.from_sources(("q1^2", "q1*p1"), 1)
    x = np.array([2.0, 3.0])
    npt.assert_allclose(F.value(x), [4.0, 6.0])
    npt.assert_allclose(F.jacobian(x), [[4.0, 0.0], [3.0, 2.0]])
    assert F.target_dim == 2
    with pytest.raises(ValueError):
        MapField(
            (ScalarField.parse("q1", 1), ScalarField.parse("q1", 2)), 1
        )


def test_procedural_scalar():
    f = ProceduralScalar(
        lambda x: float(x[0] ** 2), lambda x: np.array([2 * x[0], 0.0]), 1
    )
    x = np.array([3.0, 1.0])
    assert f.value(x) == 9.0
    npt.assert_allclose(f.gradient(x), [6.0, 0.0])
    F = MapField((f,), 1)
    npt.assert_allclose(F.jacobian(x), [[6.0, 0.0]])


# ---------------------------------------------------------------------------
# generated kernels against the second order dual numbers they replaced


class _HessDual:
    """Second order dual number of the former evaluator, kept as reference."""

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def _map(self, v, fg, fh):
        return _HessDual(
            v, tuple(fg(a) for a in self.g), tuple(tuple(fh(a) for a in r) for r in self.h)
        )

    def _zip(self, o, v, op):
        g = tuple(op(a, b) for a, b in zip(self.g, o.g))
        h = tuple(tuple(op(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.h, o.h))
        return _HessDual(v, g, h)

    def __add__(self, o):
        if isinstance(o, _HessDual):
            return self._zip(o, self.v + o.v, lambda a, b: a + b)
        return _HessDual(self.v + o, self.g, self.h)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _HessDual):
            return self._zip(o, self.v - o.v, lambda a, b: a - b)
        return _HessDual(self.v - o, self.g, self.h)

    def __rsub__(self, o):
        return (-self) + o

    def __neg__(self):
        return self._map(-self.v, lambda a: -a, lambda a: -a)

    def __mul__(self, o):
        if not isinstance(o, _HessDual):
            return self._map(self.v * o, lambda a: a * o, lambda a: a * o)
        av, bv, ag, bg = self.v, o.v, self.g, o.g
        g = tuple(a * bv + av * b for a, b in zip(ag, bg))
        h = tuple(
            tuple(
                ha * bv + ag[i] * bg[j] + ag[j] * bg[i] + av * hb
                for j, (ha, hb) in enumerate(zip(ra, rb))
            )
            for i, (ra, rb) in enumerate(zip(self.h, o.h))
        )
        return _HessDual(av * bv, g, h)

    __rmul__ = __mul__

    def _inv(self):
        w = 1.0 / self.v
        w2 = w * w
        sg = self.g
        h = tuple(
            tuple((2.0 * sg[i] * sg[j] * w - hij) * w2 for j, hij in enumerate(r))
            for i, r in enumerate(self.h)
        )
        return _HessDual(w, tuple(-a * w2 for a in sg), h)

    def __truediv__(self, o):
        if isinstance(o, _HessDual):
            return self * o._inv()
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        return self._inv() * o

    def apply(self, f, f1, f2):
        a, b, ug = f1(self.v), f2(self.v), self.g
        h = tuple(
            tuple(a * hij + b * ug[i] * ug[j] for j, hij in enumerate(r))
            for i, r in enumerate(self.h)
        )
        return _HessDual(f(self.v), tuple(a * di for di in ug), h)


_REFERENCE_FUNCS = {
    "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
    "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / (v * math.sqrt(v))),
}


def _reference(node, env, s):
    """Dual-number evaluation; integer powers take the kernels' product chain."""

    def call(name, u):
        funcs = _REFERENCE_FUNCS[name]
        return funcs[0](u) if isinstance(u, float) else u.apply(*funcs)

    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.index - 1 if node.kind == "q" else s + node.index - 1]
    if isinstance(node, Neg):
        return -_reference(node.operand, env, s)
    if isinstance(node, Call):
        return call(node.func, _reference(node.arg, env, s))
    left = _reference(node.left, env, s)
    if node.op == "^":
        n = expr._integer_exponent(node.right)
        if n == 0:
            return 1.0
        if n is not None:
            p = expr._square_and_multiply(left, abs(n), operator.mul)
            return p if n > 0 else 1.0 / p
        return call("exp", _reference(node.right, env, s) * call("log", left))
    right = _reference(node.right, env, s)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[
        node.op
    ](left, right)


def _reference_derivative(tree, x, s, order):
    n = 2 * s
    basis = [tuple(float(i == j) for j in range(n)) for i in range(n)]
    zero = tuple((0.0,) * n for _ in range(n))
    out = _reference(tree, [_HessDual(v, basis[i], zero) for i, v in enumerate(x)], s)
    if not isinstance(out, _HessDual):
        return np.zeros((n,) * order)
    if order == 1:
        return np.array(out.g)
    upper = np.triu(np.array(out.h))  # the upper triangle depends on upper entries only
    return upper + np.triu(upper, 1).T


def _kernel_cases(s):
    leaves = st.one_of(
        st.builds(Num, st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 4.0))),
        st.builds(Var, st.sampled_from("qp"), st.integers(1, s)),
    )
    exponents = st.one_of(
        st.builds(Num, st.integers(0, 5).map(float)),
        st.builds(Neg, st.builds(Num, st.integers(1, 3).map(float))),
        st.builds(Num, st.floats(0.1, 2.5)),
    )

    trees = st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Call, st.sampled_from(FUNCTION_NAMES), sub),
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            st.builds(BinOp, st.just("^"), sub, st.one_of(exponents, sub)),
        ),
        max_leaves=10,
    )
    coordinate = st.one_of(st.just(0.0), st.floats(0.05, 2.0), st.floats(-2.0, -0.05))
    point = st.lists(coordinate, min_size=2 * s, max_size=2 * s)
    return st.tuples(st.just(s), trees, point)


@given(st.integers(1, 3).flatmap(_kernel_cases))
def test_kernels_match_dual_numbers(case):
    """Kernel gradients and Hessians agree with the dual numbers to 1e-14
    relative, and where the tree walk fails the kernel path fails with the
    same message."""
    s, tree, x = case
    f = ScalarField(serialize(tree), tree, s)
    for order, method in ((1, f.gradient), (2, f.hessian)):
        try:
            expr._evaluate(tree, x, s, order)
        except EvaluationError as exc:
            with pytest.raises(EvaluationError) as err:
                method(x)
            assert str(err.value) == str(exc)
            continue
        try:
            ref = _reference_derivative(tree, x, s, order)
        except (ArithmeticError, ValueError):
            ref = np.array(np.nan)
        if not np.all(np.isfinite(ref)):
            with pytest.raises(EvaluationError, match="non finite"):
                method(x)
            continue
        npt.assert_allclose(method(x), ref, rtol=1e-14, atol=0)


def _bits(method, x):
    """The bits of every array method(x) returns, so that -0.0 differs
    from 0.0, or the message of its EvaluationError."""
    try:
        out = method(x)
    except EvaluationError as exc:
        return str(exc)
    return [a.view(np.int64).tolist() for a in (out if isinstance(out, tuple) else (out,))]


@given(st.integers(1, 3).flatmap(_kernel_cases))
def test_field_kernels_are_j_times_the_derivative_kernels_bitwise(case):
    """The field kernels return J grad and J Hess bitwise, and fail where
    gradient or hessian fails, with its message."""
    s, tree, x = case
    f = ScalarField(serialize(tree), tree, s)
    X = hamiltonian_vf(f)
    plain = _bits(X.evaluate, x)
    both = _bits(lambda z: X.evaluate(z, True), x)
    assert plain == _bits(lambda z: apply_structure(f.gradient(z)), x)
    assert both == _bits(
        lambda z: (apply_structure(f.gradient(z)), apply_structure(f.hessian(z))), x
    )
    if not isinstance(both, str):
        assert both[:1] == plain


def _exact_arithmetic(node) -> bool:
    """Whether a tree uses + - * / and integer powers only."""
    if isinstance(node, Call):
        return False
    if isinstance(node, BinOp) and node.op == "^" and expr._integer_exponent(node.right) is None:
        return False
    children = (c for c in vars(node).values() if not isinstance(c, (str, int, float)))
    return all(_exact_arithmetic(c) for c in children)


@given(st.integers(1, 3).flatmap(_kernel_cases))
def test_stacked_field_is_the_field_at_each_row(case):
    """On a stack of rows the field kernel gives the per-point field's bits
    for + - * / and integer powers, agrees within a few ulp with sin, cos,
    exp, log and sqrt, and fails with the first failing row's message."""
    s, tree, x = case
    f = ScalarField(serialize(tree), tree, s)
    points = np.array([x, np.multiply(x, 0.5), np.negative(x), np.add(x, 0.25)])
    want = [_bits(f.hamiltonian_field, point) for point in points]
    failure = next((w for w in want if isinstance(w, str)), None)
    if failure is not None:
        with pytest.raises(EvaluationError) as err:
            f.hamiltonian_rows(points)
        assert str(err.value) == failure
        return
    rows = f.hamiltonian_rows(points)
    if _exact_arithmetic(tree):
        assert [[row.view(np.int64).tolist()] for row in rows] == want
    else:
        # ulp of the terms that cancel: their size is that of f or its field
        fields = np.array([f.hamiltonian_field(point) for point in points])
        scale = 1.0 + np.max(np.abs(fields)) + max(abs(f.value(point)) for point in points)
        npt.assert_allclose(rows, fields, rtol=1e-13, atol=1e-13 * scale)


def test_field_with_jacobian_fails_as_the_first_failing_derivative():
    # the gradient already overflows: X with DX fails as gradient does
    X = hamiltonian_vf(ScalarField.parse("exp(2*q1)/2", 1))
    with pytest.raises(EvaluationError, match="non finite gradient"):
        X.evaluate([354.8, 0.0], True)
    # only the Hessian is not finite: X stands, X with DX fails as hessian does
    Y = hamiltonian_vf(ScalarField.parse("sqrt(q1)", 1))
    npt.assert_array_equal(Y([1e-310, 0.0]), [0.0, -0.5 / math.sqrt(1e-310)])
    with pytest.raises(EvaluationError, match="non finite hessian"):
        Y.evaluate([1e-310, 0.0], True)


def test_sqrt_derivative_at_zero_names_the_subexpression():
    f = ScalarField.parse("sqrt(q1) + p1", 1)
    x = np.array([0.0, 1.0])
    assert f.value(x) == 1.0
    for method in (f.gradient, f.hessian):
        with pytest.raises(EvaluationError, match="not differentiable") as err:
            method(x)
        assert err.value.subexpression == "sqrt(q1)"
    # a constant argument has no derivative to take
    npt.assert_array_equal(ScalarField.parse("sqrt(0)*q1", 1).gradient(x), [0.0, 0.0])


def test_overflowing_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="overflows") as err:
        parse("1e999", 1)
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("q1*1e999", 1)
    assert err.value.offset == 3
    assert parse("1e308", 1) == Num(1e308)


@pytest.mark.parametrize(
    "source", ["__import__('os')", "q1.real", "os.system(q1)", "(lambda: 0)()"]
)
def test_hostile_sources_fail_to_parse(source, monkeypatch):
    calls = []
    monkeypatch.setattr(expr, "_compile", lambda *a: calls.append(a))
    with pytest.raises(ParseError):
        ScalarField.parse(source, 1)
    assert calls == []


def test_kernels_run_without_builtins():
    f = ScalarField.parse("sin(q1)*exp(p1) + sqrt(1 + q1^2)/log(2 + p1^2)", 1)
    f.gradient([0.3, 0.4])
    f.hessian([0.3, 0.4])
    f.hamiltonian_field([0.3, 0.4])
    f.hamiltonian_field([0.3, 0.4], True)
    assert sorted(f._kernels) == [-2, -1, 1, 2]
    allowed = {"__builtins__", "isfinite", *FUNCTION_NAMES}
    for kernel in f._kernels.values():
        assert set(kernel.__globals__) == allowed
        assert kernel.__globals__["__builtins__"] == {}
        assert kernel.__globals__["isfinite"] is math.isfinite
        for name in FUNCTION_NAMES:
            assert kernel.__globals__[name] is getattr(math, name)


def test_field_kernels_compile_once_per_tree_and_dimension(monkeypatch):
    compiled = []
    real = expr._compile

    def counting(ast, s, order):
        compiled.append((s, order))
        return real(ast, s, order)

    monkeypatch.setattr(expr, "_KERNELS", {})
    monkeypatch.setattr(expr, "_compile", counting)
    x = np.array([0.3, 0.4])
    for _ in range(2):
        X = hamiltonian_vf(ScalarField.parse("q1^2*p1/2", 1))
        for _ in range(3):
            npt.assert_array_equal(X.evaluate(x), [0.045, -0.12])
            X.evaluate(x, True)
    assert compiled == [(1, -1), (1, -2)]
    Y = hamiltonian_vf(ScalarField.parse("q1^2*p1/2", 2))
    npt.assert_array_equal(Y([0.3, 0.0, 0.4, 0.0]), [0.045, 0.0, -0.12, -0.0])
    # the derivative kernels are their own entries in the memo
    ScalarField.parse("q1^2*p1/2", 1).gradient(x)
    assert compiled == [(1, -1), (1, -2), (2, -1), (1, 1)]


def test_kernels_compile_once_per_order_and_dimension(monkeypatch):
    compiled = []
    real = expr._compile

    def counting(ast, s, order):
        compiled.append((s, order))
        return real(ast, s, order)

    monkeypatch.setattr(expr, "_KERNELS", {})
    monkeypatch.setattr(expr, "_compile", counting)
    x = np.array([0.3, 0.4])
    for _ in range(2):
        f = ScalarField.parse("q1^2*p1/2", 1)
        for _ in range(3):
            f.gradient(x)
            f.hessian(x)
    assert compiled == [(1, 1), (1, 2)]
    g = ScalarField.parse("q1^2*p1/2", 2)
    assert g.ast == f.ast
    npt.assert_allclose(g.gradient([0.3, 0.0, 0.4, 0.0]), [0.12, 0.0, 0.045, 0.0])
    assert compiled == [(1, 1), (1, 2), (2, 1)]
