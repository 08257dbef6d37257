import math

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
from hjcomplete.expr import FUNCTION_NAMES
from hjcomplete.symplectic import fd_jacobian

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


def test_integer_exponents_allow_negative_base():
    assert _value("q1^3", 1, [-2.0, 0.0]) == -8.0
    assert _value("q1^-2", 1, [-2.0, 0.0]) == 0.25
    g = ScalarField.parse("q1^3", 1).gradient(np.array([-2.0, 0.0]))
    npt.assert_allclose(g, [12.0, 0.0])


def test_serialized_text_is_stable():
    f = ScalarField.parse("(q1 + p1)^2/2", 1)
    assert f.serialized() == serialize(f.ast)
    assert parse(f.serialized(), 1) == f.ast


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
