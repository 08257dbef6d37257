"""Trajectory integration and straightening charts."""

import numpy as np
import pytest
from scipy.linalg import expm

from hjcomplete import flows
from hjcomplete.config import Tolerances
from hjcomplete.expr import ScalarField
from hjcomplete.flows import (
    ChartError,
    FlowBoxChart,
    FlowError,
    IntegratorSettings,
    flow,
    flow_with_tangent,
)
from hjcomplete.symplectic import VectorField, hamiltonian_vf

TOL = Tolerances()


def _harmonic_field():
    # H = (q^2 + p^2)/2, X = (p, -q)
    return hamiltonian_vf(ScalarField.parse("(q1^2 + p1^2)/2", 1), TOL)


def _pendulum_field():
    # H = p^2/2 - cos q, X = (p, -sin q)
    return hamiltonian_vf(ScalarField.parse("p1^2/2 - cos(q1)", 1), TOL)


def test_harmonic_quarter_period():
    X = _harmonic_field()
    end = flow(X, np.array([1.0, 0.0]), np.pi / 2.0)
    assert np.max(np.abs(end - np.array([0.0, -1.0]))) < 1e-8


def test_zero_time_flow_is_identity():
    X = _harmonic_field()
    x0 = np.array([0.3, -0.7])
    assert np.array_equal(flow(X, x0, 0.0), x0)


def test_energy_conservation_long_run():
    X = _pendulum_field()
    H = ScalarField.parse("p1^2/2 - cos(q1)", 1)
    x0 = np.array([0.4, 1.1])
    end = flow(X, x0, 10.0)
    assert abs(H.value(end) - H.value(x0)) < 1e-7


def test_flow_reversibility():
    X = _pendulum_field()
    x0 = np.array([-0.2, 0.9])
    there = flow(X, x0, 2.5)
    back = flow(X, there, -2.5)
    assert np.max(np.abs(back - x0)) < 1e-8


def test_tangent_flow_matches_matrix_exponential():
    # the harmonic field is linear, so D Phi^t = expm(A t) exactly
    X = _harmonic_field()
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = 0.7
    end, M = flow_with_tangent(X, np.array([0.5, -0.1]), t)
    assert np.max(np.abs(M - expm(A * t))) < 1e-6
    assert abs(np.linalg.det(M) - 1.0) < 1e-8


def test_tangent_flow_matches_finite_differences():
    X = _pendulum_field()
    x0 = np.array([0.3, 0.8])
    t = 1.3
    _, M = flow_with_tangent(X, x0, t)
    assert abs(np.linalg.det(M) - 1.0) < 1e-7
    step = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        col = (flow(X, x0 + e, t) - flow(X, x0 - e, t)) / (2 * step)
        assert np.max(np.abs(M[:, j] - col)) < 5e-5


def test_fixed_step_integrator_agrees():
    X = _pendulum_field()
    x0 = np.array([0.1, 0.6])
    adaptive = flow(X, x0, 1.0)
    fixed = flow(
        X, x0, 1.0, IntegratorSettings(method="rk4-fixed", step=1e-3)
    )
    assert np.max(np.abs(adaptive - fixed)) < 1e-8


def test_flow_semigroup_property():
    X = _pendulum_field()
    x0 = np.array([0.25, -0.35])
    one = flow(X, flow(X, x0, 0.8), 1.4)
    direct = flow(X, x0, 2.2)
    assert np.max(np.abs(one - direct)) < 1e-8


def test_step_budget_enforced():
    X = _harmonic_field()
    with pytest.raises(FlowError):
        flow(X, np.array([1.0, 0.0]), 50.0, IntegratorSettings(max_steps=10))


def test_finished_trajectory_skips_fixed_step_fallback(monkeypatch):
    """A trajectory that reaches its end stops there; a tiny span alone
    must not trip the step-underflow test."""

    def refuse(*args):
        raise AssertionError("fixed-step fallback ran")

    monkeypatch.setattr(flows, "_rk4_fixed", refuse)
    X = _harmonic_field()
    x0 = np.array([0.3, -0.7])
    assert np.max(np.abs(flow(X, x0, 1e-18) - x0)) < 1e-15
    c, s = np.cos(0.3), np.sin(0.3)
    exact = np.array([0.3 * c - 0.7 * s, -0.3 * s - 0.7 * c])
    assert np.max(np.abs(flow(X, x0, 0.3) - exact)) < 1e-8


def test_step_underflow_raises(monkeypatch):
    """Adaptive step underflow is an error, not a silent fixed-step redo."""
    monkeypatch.setattr(flows, "_MIN_STEP_FRACTION", 0.5)
    with pytest.raises(FlowError, match="underflow.*t_end"):
        flow(_harmonic_field(), np.array([0.3, -0.7]), 1.0)


def test_rejected_step_reuses_its_slope():
    """A rejected step retries with the slope it already has at its start."""
    x0 = np.array([0.3])
    k0 = 0.01 * np.sin(1e4 * x0)
    args = []

    def rhs(x):
        args.append(x.copy())
        return 0.01 * np.sin(1e4 * x)

    flows._integrate(rhs, x0, 0.05, IntegratorSettings())
    assert sum(a.tobytes() == x0.tobytes() for a in args) == 1
    # the second stage sits at x0 + h/4 k0: the first step was rejected and
    # its retry from x0 took a shorter h
    first_h, retry_h = ((args[i] - x0) / (0.25 * k0) for i in (1, 6))
    assert 0.0 < retry_h[0] < first_h[0]


def test_non_finite_slope_at_start_raises():
    field = VectorField(lambda x: np.full_like(x, np.inf), 1)
    with pytest.raises(FlowError, match="non finite right hand side at start"):
        flow(field, np.array([0.3, -0.7]), 1.0)


def test_non_finite_stage_raises():
    # finite at the start, NaN once any stage moves past q = 1
    field = VectorField(
        lambda x: np.where(x[0] <= 1.0, np.array([1.0, 0.0]), np.nan), 1
    )
    with pytest.raises(FlowError, match="non finite state in adaptive integration"):
        flow(field, np.array([1.0, 0.0]), 1.0)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        IntegratorSettings(method="euler")


def _harmonic_chart():
    return FlowBoxChart.build(np.array([0.3, 1.1]), _harmonic_field())


def test_chart_round_trip():
    chart = _harmonic_chart()
    rng = np.random.default_rng(7)
    for _ in range(100):
        y = rng.uniform(-0.8, 0.8, size=2) * chart.domain_radius
        x = chart.forward(y)
        assert np.max(np.abs(chart.inverse(x) - y)) < 1e-8


def test_chart_centre():
    chart = _harmonic_chart()
    assert np.array_equal(chart.forward(np.zeros(2)), chart.basepoint)
    assert np.max(np.abs(chart.inverse(chart.basepoint))) < 1e-10


def test_chart_jacobian_columns():
    """Column 0 must be the flowed field at the image point; slice columns
    must match central differences of the forward map."""
    chart = _harmonic_chart()
    X = chart.field
    rng = np.random.default_rng(3)
    y = rng.uniform(-0.5, 0.5, size=2) * chart.domain_radius
    x, D = chart.forward_and_jacobian(y)
    assert np.max(np.abs(D[:, 0] - X(x))) < 1e-8
    step = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        col = (chart.forward(y + e) - chart.forward(y - e)) / (2 * step)
        assert np.max(np.abs(D[:, j] - col)) < 5e-5


def test_straightening_pushes_frame_to_unit_vector():
    """The defining property: inverse(flow along X for time t) moves only
    the first chart coordinate, at unit speed."""
    chart = _harmonic_chart()
    X = chart.field
    y0 = np.array([0.05, 0.1])
    x0 = chart.forward(y0)
    for t in (0.1, 0.25):
        yt = chart.inverse(flow(X, x0, t))
        assert np.max(np.abs(yt - (y0 + np.array([t, 0.0])))) < 1e-8


def test_chart_slice_deterministic():
    a = _harmonic_chart()
    b = _harmonic_chart()
    assert a.slice_basis.tobytes() == b.slice_basis.tobytes()
    assert a.domain_radius == b.domain_radius


def _constant(vector):
    v = np.asarray(vector, dtype=float)

    def evaluate(x, derivative=False):
        return (v.copy(), np.zeros((4, 4))) if derivative else v.copy()

    return VectorField(evaluate, 2)


def test_dependent_frame_rejected():
    # X(m) = e_0 + 2 e_1 lies in the span of the straightened e_0, e_1;
    # a field that vanishes at m is dependent at axis 0
    e = np.eye(4)
    with pytest.raises(ChartError, match="dependent"):
        FlowBoxChart.build(np.zeros(4), _constant(e[0] + 2.0 * e[1]), axis=2)
    with pytest.raises(ChartError, match="dependent"):
        FlowBoxChart.build(np.zeros(4), _constant(np.zeros(4)))

