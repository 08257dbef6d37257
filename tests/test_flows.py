"""Trajectory integration and straightening charts."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from hjcomplete import flows, symplectic
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
from hjcomplete.scenarios import REGISTRY
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


def _numpy_reduction_integrate(rhs, x0, t_end, settings):
    """The adaptive loop with numpy's reductions: np.all of np.isfinite for
    the finiteness test, np.sqrt of np.mean for the error norm and the
    stage rows sliced from the tableau at every stage."""
    A, B5, E = flows._A, flows._B5, flows._E
    sign = 1.0 if t_end > 0.0 else -1.0
    span = abs(t_end)
    x = x0.copy()
    K = np.empty((6, x.shape[0]))
    K[0] = rhs(x)
    scale0 = (1.0 + float(np.linalg.norm(x))) / (1.0 + float(np.linalg.norm(K[0])))
    h = sign * min(span, max(1e-6, 0.01 * scale0))
    t = 0.0
    for _ in range(settings.max_steps):
        if abs(h) > abs(t_end - t):
            h = t_end - t
        for i in range(1, 6):
            K[i] = rhs(x + h * (A[i, :i] @ K[:i]))
        x5 = x + h * (B5 @ K)
        delta = h * (E @ K)
        assert np.all(np.isfinite(x5)) and np.all(np.isfinite(delta))
        sc = settings.abs_tol + settings.rel_tol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.sqrt(np.mean((delta / sc) ** 2)))
        if err <= 1.0:
            t += h
            x = x5
            if abs(t - t_end) <= flows._MIN_STEP_FRACTION * span:
                return x
            K[0] = rhs(x)
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    raise AssertionError("step budget exceeded")


def _linear_s2_field():
    M = np.random.default_rng(4).normal(size=(4, 4))
    return VectorField(lambda x, derivative=False: (M @ x, M) if derivative else M @ x, 2)


def _harmonic_s2_field():
    H = ScalarField.parse(REGISTRY["harmonic_s2"]["hamiltonian"], 2)
    return hamiltonian_vf(H, TOL)


@pytest.mark.parametrize("field", [_linear_s2_field, _harmonic_s2_field])
@pytest.mark.parametrize("tangent", [False, True], ids=["n", "n + n^2"])
@pytest.mark.parametrize("t", [0.37, -1.3, 4.0])
def test_adaptive_step_matches_numpy_reductions_bitwise(field, tangent, t, monkeypatch):
    """Every trajectory of flow and flow_with_tangent ends on the bits of
    the loop written with numpy's reductions."""
    integrate, pairs = flows._integrate, []

    def both(rhs, x0, t_end, settings):
        want = _numpy_reduction_integrate(rhs, x0, t_end, settings)
        pairs.append((want, integrate(rhs, x0, t_end, settings)))
        return pairs[-1][1]

    monkeypatch.setattr(flows, "_integrate", both)
    x0 = np.array([0.3, 0.1, 1.0, 0.7])
    (flow_with_tangent if tangent else flow)(field(), x0, t)
    assert len(pairs) == 1 and pairs[0][1].shape == (4 + 16 * tangent,)
    want, got = pairs[0]
    assert np.array_equal(want.view(np.int64), got.view(np.int64))


def test_adaptive_step_calls_no_numpy_wrapper_or_apply_structure(monkeypatch):
    """An accepted step makes no np.all or np.mean call, and a parsed
    Hamiltonian field no apply_structure call."""
    counts = {}

    def spy(owner, name):
        method = getattr(owner, name)

        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return method(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    X = _harmonic_s2_field()
    x0 = np.array([0.3, 0.1, 1.0, 0.7])
    for owner, name in ((np, "all"), (np, "mean"), (symplectic, "apply_structure")):
        spy(owner, name)
    spy(flows, "_integrate")
    flow(X, x0, 2.0)
    flow_with_tangent(X, x0, 2.0)
    assert counts == {"_integrate": 2}


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


def test_chart_inverse_refuses_slice_times_past_its_reach(monkeypatch):
    # p lies 2.5 radii along the flow from the slice; the inversion raises
    # ChartError and never integrates to a slice time past 2 radii
    chart = _harmonic_chart()
    reach = FlowBoxChart.SLICE_TIME_REACH * chart.domain_radius
    p = flow(chart.field, chart.forward(np.array([0.0, 0.1])), 2.5 * chart.domain_radius)
    integrate = flows._integrate
    times = [0.0]

    def traced(rhs, x0, t_end, settings):
        times.append(times[-1] - t_end)  # the inverse flows back by -t_end
        assert abs(times[-1]) <= reach
        return integrate(rhs, x0, t_end, settings)

    monkeypatch.setattr(flows, "_integrate", traced)
    with pytest.raises(ChartError, match="passes 2 domain radii"):
        chart.inverse(p)


def test_chart_forward_refuses_slice_times_past_its_reach(monkeypatch):
    # forward and forward_and_jacobian keep the inverse's reach rule: they
    # flow up to 2 radii and refuse a slice time past it before integrating
    chart = _harmonic_chart()
    edge = np.array([-FlowBoxChart.SLICE_TIME_REACH * chart.domain_radius, 0.1])
    assert np.max(np.abs(chart.forward(edge) - chart.forward_and_jacobian(edge)[0])) < 1e-8
    far = np.array([2.5 * chart.domain_radius, 0.1])
    monkeypatch.setattr(flows, "_integrate", None)
    for chart_map in (chart.forward, chart.forward_and_jacobian):
        with pytest.raises(ChartError, match="slice time .* passes 2 domain radii"):
            chart_map(far)
        with pytest.raises(ChartError, match="passes 2 domain radii"):
            chart_map(-far)


def test_chart_inverts_what_it_maps_up_to_its_reach():
    # the slice-time Newton overshoots: from y_r = -2 radii its first step
    # lands past the reach, where it stops, so the point still inverts
    chart = _harmonic_chart()
    reach = FlowBoxChart.SLICE_TIME_REACH * chart.domain_radius
    for t in (-reach, -0.75 * reach, 0.75 * reach, reach):
        y = np.array([t, 0.1])
        assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-8


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


# ---------------------------------------------------------------------------
# lockstep rows and one field evaluation per inversion step


def _counted(rhs, counts, key):
    def call(z):
        counts[key] = counts.get(key, 0) + (len(z) if np.ndim(z) == 2 else 1)
        return rhs(z)

    return call


def test_each_row_is_its_batch_of_one_and_its_scalar_flow():
    # a mixed batch of zero, negative and unequal times on a cubic field:
    # each row ends on the bits of its batch of one, within 1e-12 of
    # _integrate and after as many right-hand sides
    X = hamiltonian_vf(ScalarField.parse("(q1^2 + p1^2)/2 + p2^2/2 + 0.1*q1*q2^3", 2), TOL)
    x0 = np.random.default_rng(5).uniform(-0.8, 0.8, size=(7, 4))
    times = np.array([0.37, 0.0, -1.3, 4.0, -0.0, 1e-3, -2.5])
    settings = IntegratorSettings()
    batch = flows._integrate_rows(X.rows, x0, times, settings)
    for i, t in enumerate(times):
        counts = {}
        rows = _counted(X.rows, counts, "row")
        alone = flows._integrate_rows(rows, x0[i : i + 1], times[i : i + 1], settings)
        assert np.array_equal(alone[0].view(np.int64), batch[i].view(np.int64))
        if t == 0.0:
            assert np.array_equal(alone[0], x0[i]) and counts == {}
            continue
        scalar = flows._integrate(_counted(X.evaluate, counts, "scalar"), x0[i], t, settings)
        assert np.max(np.abs(alone[0] - scalar)) <= 1e-12
        assert counts["row"] == counts["scalar"] > 0


def test_a_row_that_leaves_the_field_domain_fails_by_its_row():
    # X = (1, -log(q1) - 1) of p1 + q1*log(q1): row 1 flows back past q1 = 0
    X = hamiltonian_vf(ScalarField.parse("p1 + q1*log(q1)", 1), TOL)
    x0 = np.array([[0.5, 1.0], [0.2, 1.0], [0.9, 0.0]])
    with pytest.raises(FlowError, match=r"^row 1: field left its domain at t = .*log"):
        flows._integrate_rows(X.rows, x0, np.array([-0.3, -0.5, 0.4]), IntegratorSettings())
    ok = flows._integrate_rows(X.rows, x0[[0, 2]], np.array([-0.3, 0.4]), IntegratorSettings())
    assert np.max(np.abs(ok[:, 0] - [0.2, 1.3])) < 1e-9


def test_inversion_evaluates_no_point_twice():
    # each slice-time Newton step reads X(x) once, for c.X and as the first
    # stage of its flow back: in the scalar inverse and in the probe batch
    chart = _harmonic_chart()
    evaluate, seen = chart.field.evaluate, []

    def spy(x, derivative=False):
        seen.append(np.asarray(x).tobytes())
        return evaluate(x, derivative)

    def spy_rows(xs):
        seen.extend(x.tobytes() for x in xs)
        return chart.field.rows(xs)

    spied = dataclasses.replace(chart, field=VectorField(spy, 1, spy_rows))
    p = chart.forward(np.array([0.3, -0.2]) * chart.domain_radius)
    spied.inverse(p)
    assert len(seen) > 20 and len(seen) == len(set(seen))
    seen.clear()
    probes = np.random.default_rng(2).uniform(-1.0, 1.0, size=(12, 2)) * chart.domain_radius
    assert spied._probe_domain(probes)
    assert len(seen) > 20 * len(probes) and len(seen) == len(set(seen))
