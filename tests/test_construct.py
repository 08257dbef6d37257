"""Frame extension, first integrals, fibration choice, and the duality."""

import dataclasses
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import qr

from hjcomplete import construct, flows, newton, scenarios, symplectic, verify
from hjcomplete.config import DEFAULT_TOLERANCES, Tolerances
from hjcomplete.construct import (
    CompleteSolution,
    ConstructionError,
    DomainBoxError,
    DualityError,
    FibrationError,
    FrameExtensionError,
    HypothesisError,
    TransversalityError,
    TowerIndex,
    _canonical_poisson,
    _integral_components,
    _level_poisson,
    _lifted_x_field,
    _slice_inverse,
    build_fibration,
    build_first_integrals,
    check_assumptions,
    extend_frame,
    init_frame,
    integrals_from_solution,
    solution_from_integrals,
)
from hjcomplete.expr import EvaluationError, MapField, ProceduralScalar, ScalarField
from hjcomplete.flows import flow
from hjcomplete.newton import NewtonError
from hjcomplete.symplectic import (
    VectorField,
    apply_structure,
    fd_jacobian,
    hamiltonian_vf,
    numerical_rank,
    omega,
    structure_matrix,
)
from hjcomplete.verify import (
    first_integral_residual,
    hje_residual,
    isotropy_residual,
    submersion_checks,
)

TOL = Tolerances()

FREE_S1 = ScalarField.parse("p1^2/2", 1)
FREE_S2 = ScalarField.parse("(p1^2 + p2^2)/2", 2)
FREE_S3 = ScalarField.parse("(p1^2 + p2^2 + p3^2)/2", 3)


# ---------------------------------------------------------------------------
# hypotheses


def test_assumptions_pass_for_free_particle():
    report = check_assumptions(FREE_S1, MapField.from_sources(("q1",), 1), [0.0, 1.0])
    assert report.passed
    assert (report.k, report.l) == (1, 1)
    assert report.messages == ()


_SCALED_BASE = [0.1, -0.2, 1.0, 0.6]


def _scaled_free_s2(c: float) -> ScalarField:
    return ScalarField.parse(f"{c!r}*(p1^2 + p2^2)/2", 2)


@pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-9, 1.0, 1e8, 1e10])
def test_transversality_does_not_read_the_field_length(c):
    # X_H(m) = c (0, 0, -1, -0.6) leaves the momentum fibres at every c > 0;
    # the verdict reads the direction of X_H(m), not its length
    report = check_assumptions(
        _scaled_free_s2(c), MapField.from_sources(("q1", "q2"), 2), _SCALED_BASE
    )
    assert report.flow_transverse
    assert report.passed


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e10])
def test_tangent_flow_is_refused_at_every_scale(c):
    report = check_assumptions(
        _scaled_free_s2(c), MapField.from_sources(("p1", "p2"), 2), _SCALED_BASE
    )
    assert not report.flow_transverse
    assert not report.passed


def test_frame_rank_tests_do_not_read_the_field_length():
    # the frame, candidate and chart rank tests read unit columns: at
    # c = 1e10 the frame builds, and at c = 1e-6 the slow flow fails at
    # level 1's reach like any slow flow, not as a dependent field
    Pi = MapField.from_sources(("q1", "q2"), 2)
    F = build_first_integrals(_scaled_free_s2(1e10), Pi, _SCALED_BASE, probes=6, seed=0)
    assert F.diagnostics["b_history"] == (2,)
    with pytest.raises(flows.ChartError, match=r"level 1 chart forward: .* passes 2 domain radii"):
        build_first_integrals(_scaled_free_s2(1e-6), Pi, _SCALED_BASE, probes=6, seed=0)


def test_zero_field_is_tangent():
    H = ScalarField.parse("q1^2/2", 1)  # X_H vanishes where q1 = 0
    report = check_assumptions(H, MapField.from_sources(("q1",), 1), [0.0, 1.0])
    assert not report.flow_transverse


def test_assumptions_catch_tangent_flow():
    # fibres of p1 are flow lines of the free particle
    report = check_assumptions(FREE_S1, MapField.from_sources(("p1",), 1), [0.0, 1.0])
    assert not report.flow_transverse
    assert not report.passed
    assert any("tangent" in msg for msg in report.messages)


def test_assumptions_catch_non_coisotropic_kernel():
    # Ker d(q1, p1) = span(dq2, dp2) is symplectic, not coisotropic
    report = check_assumptions(
        FREE_S2, MapField.from_sources(("q1", "p1"), 2), [0.1, -0.2, 1.0, 0.6]
    )
    assert report.submersion_ok
    assert not report.kernel_coisotropic
    assert not report.passed


def test_assumptions_catch_rank_drop():
    report = check_assumptions(
        FREE_S2, MapField.from_sources(("q1", "2*q1"), 2), [0.1, -0.2, 1.0, 0.6]
    )
    assert not report.submersion_ok
    assert not report.passed


def test_init_frame_refuses_bad_hypotheses():
    with pytest.raises(HypothesisError):
        init_frame(FREE_S1, MapField.from_sources(("p1",), 1), [0.0, 1.0])


# ---------------------------------------------------------------------------
# frame extension


def _free_s3_state():
    Pi = MapField.from_sources(("q1", "q2", "q3"), 3)
    m = np.array([0.0, 0.0, 0.0, 1.0, 0.5, -0.3])
    return init_frame(FREE_S3, Pi, m)


def test_extend_requires_isotropic_frame():
    state = _free_s3_state()
    xq = hamiltonian_vf(ScalarField.parse("q1", 3), TOL)
    xp = hamiltonian_vf(ScalarField.parse("p1", 3), TOL)
    bad = dataclasses.replace(state, fields=(xq, xp))
    with pytest.raises(FrameExtensionError, match="isotropic"):
        extend_frame(bad)


def test_extend_requires_independent_frame():
    state = _free_s3_state()
    X = state.fields[0]
    double = dataclasses.replace(state, fields=(X, X))
    with pytest.raises(FrameExtensionError, match="dependent"):
        extend_frame(double)


def test_extend_requires_frame_clear_of_fibres():
    state = _free_s3_state()
    # X_{q1} = -d/dp1 lies inside the fibre tangent space of (q1, q2, q3)
    xq = hamiltonian_vf(ScalarField.parse("q1", 3), TOL)
    bad = dataclasses.replace(state, fields=(xq,))
    with pytest.raises(FrameExtensionError, match="fibre"):
        extend_frame(bad)


def test_extend_stops_at_k_fields(free_s1):
    _, _, _, F, _ = free_s1
    with pytest.raises(FrameExtensionError, match="already"):
        extend_frame(F.state)


def test_column_pivots_match_lapack_qr():
    # LAPACK's dgeqp3, through scipy, is the oracle; a Gaussian matrix has
    # no tied column norms, so both rules take the same argmax at each step.
    # Pivots and the trailing-block rank check see the matrix at every
    # scale alike: the cutoffs are relative
    rng = np.random.default_rng(29)
    for m in range(1, 7):
        for r in range(1, m + 1):
            for _ in range(10):
                C = rng.standard_normal((r, m))
                before = C.copy()
                expected = qr(C, mode="economic", pivoting=True)[2][:r]
                assert construct._column_pivots(C, r) == list(expected), C
                assert np.array_equal(C, before)
                chosen = sorted(expected)
                for c in (1e-12, 1e-6, 1e6, 1e12):
                    assert construct._column_pivots(c * C, r) == list(expected), (c, C)
                    assert numerical_rank(c * C[:, chosen], TOL.rank) == r, (c, C)


@pytest.mark.parametrize(
    "row, pivot",
    [([0.5, -2.0, 1.0], 1), ([3.0, -1.0, -3.0], 0), ([0.0, -1.5, 1.5, 1.0], 1), ([2.0], 0)],
)
def test_one_row_pivots_on_its_first_largest_entry(row, pivot):
    # r = 1 on every registry scenario: the pivot is the argmax of |c|
    assert construct._column_pivots(np.array([row]), 1) == [pivot]


def test_zero_coefficients_pivot_in_column_order():
    # as dgeqp3 does: no column is picked twice, and the rank check on the
    # chosen block, not the pivots, refuses the matrix
    assert construct._column_pivots(np.zeros((2, 4)), 2) == [0, 1]


def test_extended_frame_commutes(harmonic_s2):
    _, _, m, F, _ = harmonic_s2
    state = F.state
    assert state.r == 2
    X1, X2 = state.fields
    vals = np.column_stack([X1(m), X2(m)])
    assert abs(omega(vals[:, 0], vals[:, 1])) < 1e-8
    assert numerical_rank(vals, TOL.rank) == 2
    # the defining property of the extension: the fields commute; the
    # lifted field has no derivative, so the bracket is a central difference
    DX1, DX2 = (fd_jacobian(X, m, TOL.fd_step) for X in (X1, X2))
    assert np.max(np.abs(DX2 @ X1(m) - DX1 @ X2(m))) < 1e-6
    assert len(state.tower.columns) == 2 and state.tower.columns[0] is None


def test_tower_poisson_matches_pullback(harmonic_s2):
    """Dual route: the recursively assembled Poisson matrix of the final
    tower must equal the canonical structure pulled back through the
    integrated chart map."""
    _, _, _, F, _ = harmonic_s2
    tower = F.state.tower
    n = 4
    radius = 0.25 * min(c.domain_radius for c in tower.charts)
    rng = np.random.default_rng(41)
    J = structure_matrix(2)
    for _ in range(3):
        y = rng.uniform(-radius, radius, size=n)
        lam_recursive = tower.poissons[-1](y)
        _, D = tower.forward_and_jacobian(y)
        D_inv = np.linalg.inv(D)
        lam_integrated = D_inv @ J @ D_inv.T
        assert np.max(np.abs(lam_recursive - lam_integrated)) < 1e-6


def test_tower_inversion_round_trip(harmonic_s2):
    _, _, _, F, _ = harmonic_s2
    tower, index = F.state.tower, F.index
    radius = 0.25 * min(c.domain_radius for c in tower.charts)
    rng = np.random.default_rng(8)
    y = rng.uniform(-radius, radius, size=4)
    x = tower.forward(y)
    assert np.max(np.abs(index.solve(x).coords - y)) < 1e-8
    # repeated solves hit the memo, not a fresh Newton run
    assert index.solve(x) is index.solve(x)


class _RefusingChart:
    """A duck-typed chart whose inversion always fails with `error`."""

    def __init__(self, error):
        self.error = error

    def inverse(self, p, y0=None):
        raise self.error("point outside chart domain")


@pytest.mark.parametrize("error", [flows.ChartError, flows.FlowError])
def test_tower_inversion_failure_names_its_level(harmonic_s2, error):
    # a failing second chart keeps its error type, and the message gains
    # the level while the chart's own error stays chained as the cause
    _, _, m, F, _ = harmonic_s2
    tower = F.state.tower
    broken = dataclasses.replace(
        tower, charts=(tower.charts[0], _RefusingChart(error))
    )
    with pytest.raises(error, match="^level 2 chart inversion: point outside") as info:
        TowerIndex(broken).solve(m)
    assert type(info.value.__cause__) is error


def test_tower_coordinate_differential_is_inverse_jacobian_row(harmonic_s2):
    # dy_a at x = Psi(y), read off the tower inversion, pairs with DPsi(y)
    # to give the a-th unit row
    _, _, _, F, _ = harmonic_s2
    tower, index = F.state.tower, F.index
    radius = 0.25 * min(c.domain_radius for c in tower.charts)
    rng = np.random.default_rng(17)
    for _ in range(3):
        x, D = tower.forward_and_jacobian(rng.uniform(-radius, radius, size=4))
        dy = index.solve(x).jac_inv
        assert np.max(np.abs(dy @ D - np.eye(4))) < 1e-8


def test_lifted_field_is_hamiltonian_field_of_coordinate(harmonic_s2):
    # the lift of y_b, read off the tower's Poisson matrix, is J dy_b^T
    _, _, _, F, _ = harmonic_s2
    tower, index = F.state.tower, F.index
    for x in F.sample_points(3, seed=19):
        dy = index.solve(x).jac_inv
        for b in range(4):
            lifted = _lifted_x_field(tower, index, b, 2)
            assert np.max(np.abs(lifted(x) - apply_structure(dy[b]))) < 1e-8


def test_integrals_are_independent_of_query_order(harmonic_s2):
    # every tower solve is seeded from the chart origins, so F and dF at a
    # point do not depend on what was solved before it
    _, _, _, F, _ = harmonic_s2
    points = F.sample_points(8, seed=23)

    def evaluate(order):
        index = TowerIndex(F.state.tower)
        integrals = MapField(_integral_components(index.solve, F.k, 2), 2)
        return {i: (integrals.value(points[i]), integrals.jacobian(points[i]))
                for i in order}

    forward = evaluate(range(8))
    backward = evaluate(reversed(range(8)))
    for i in range(8):
        assert np.array_equal(forward[i][0], backward[i][0])
        assert np.array_equal(forward[i][1], backward[i][1])


# ---------------------------------------------------------------------------
# exact derivatives through the tower


@pytest.fixture(scope="module")
def oscillator_s3_tower():
    """Three-level chart tower of the s = 3 isotropic oscillator."""
    H = ScalarField.parse("(q1^2 + q2^2 + q3^2 + p1^2 + p2^2 + p3^2)/2", 3)
    Pi = MapField.from_sources(("q1", "q2", "q3"), 3)
    state = init_frame(H, Pi, [0.3, 0.1, 0.2, 1.0, 0.7, 0.5])
    while state.r < state.k:
        state = extend_frame(state)
    return state.tower


@pytest.mark.parametrize("pipeline", ["harmonic_s2", "oscillator_s3_tower"])
def test_poisson_derivative_matches_fd_at_every_level(pipeline, request):
    fixture = request.getfixturevalue(pipeline)
    tower = fixture[3].state.tower if pipeline == "harmonic_s2" else fixture
    n = 2 * tower.dimension_s
    assert len(tower.poissons) == n // 2 + 1
    radius = 0.25 * min(c.domain_radius for c in tower.charts)
    rng = np.random.default_rng(43)
    for lam in tower.poissons[1:]:  # poissons[0] is the constant canonical J
        y = rng.uniform(-radius, radius, size=n)
        value, dlam = lam(y, derivative=True)
        assert np.array_equal(value, lam(y))
        fd = fd_jacobian(lambda z: lam(z).ravel(), y, TOL.fd_step)
        assert np.max(np.abs(dlam - fd.reshape(n, n, n))) < 1e-8


def test_field_value_with_derivative_is_the_plain_value(harmonic_s2):
    # flows read X from evaluate(x, derivative=True); equal bits keep the
    # outputs independent of which call produced the value
    H, _, m, F, _ = harmonic_s2
    chart = F.state.tower.charts[1]
    procedural = symplectic.poisson_field(H, ScalarField.parse("q1*p1 + q2^2", 2))
    fields = [
        ("parsed", hamiltonian_vf(H, TOL), m),
        ("procedural", hamiltonian_vf(procedural, TOL), m),
        ("ghat", chart.field, chart.basepoint),
    ]
    rng = np.random.default_rng(47)
    for name, fld, center in fields:
        for _ in range(3):
            x = center + rng.uniform(-0.25, 0.25, size=4) * chart.domain_radius
            value, D = fld.evaluate(x, derivative=True)
            assert np.array_equal(value, fld.evaluate(x)), name
            assert D.shape == (4, 4), name


def test_lifted_field_flow_evaluates_the_parent_poisson_once_per_step(
    harmonic_s2, monkeypatch
):
    # every right-hand side of the level-2 variational flow takes ghat and
    # its Jacobian from one lambda_1(y, derivative=True); lambda_1 costs
    # one X_H with DX_H, so a second call would show as a second field
    # evaluation, and none goes through the gradient or Hessian methods
    H, _, _, F, _ = harmonic_s2
    chart = F.state.tower.charts[1]
    counts = {"rhs": 0}
    integrate = flows._integrate

    def counted_integrate(rhs, x0, t_end, settings):
        def counted_rhs(z):
            counts["rhs"] += 1
            return rhs(z)

        return integrate(counted_rhs, x0, t_end, settings)

    monkeypatch.setattr(flows, "_integrate", counted_integrate)
    _count_scalar_calls(monkeypatch, H, counts)
    y = np.array([0.0, 0.1, -0.05, 0.08]) * chart.domain_radius
    flows.flow_with_tangent(chart.field, y, 0.3 * chart.domain_radius)
    assert counts["rhs"] > 0
    assert counts == {"rhs": counts["rhs"], "X with DX": counts["rhs"]}


def _count_calls(monkeypatch, owner, name, counts):
    method = getattr(owner, name)

    def call(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, call)


def _count_scalar_calls(monkeypatch, H, counts):
    """Count gradient and hessian calls of every parsed scalar, and the
    calls of H's kernels by what they return: the gradient, the Hessian,
    X or X with DX."""
    for name in ("gradient", "hessian"):
        _count_calls(monkeypatch, ScalarField, name, counts)
    names = {1: "gradient kernel", 2: "hessian kernel", -1: "X", -2: "X with DX"}
    for order, name in names.items():
        kernel = H._kernels.get(order) or H._kernel(order)

        def call(vals, kernel=kernel, name=name):
            counts[name] = counts.get(name, 0) + 1
            return kernel(vals)

        monkeypatch.setitem(H._kernels, order, call)


def test_each_level_poisson_reads_its_parent_once(oscillator_s3_tower, monkeypatch):
    # lambda_j reads X and DX off its one parent call, so lambda_j with
    # dlambda costs one X_H with DX_H at every level, and no gradient or
    # Hessian call
    tower = oscillator_s3_tower
    H = tower.charts[0].field.evaluate.__self__  # the parsed H behind X_H
    y = 0.01 * np.ones(6)
    for lam in tower.poissons[1:]:
        counts = {}
        with monkeypatch.context() as patch:
            _count_scalar_calls(patch, H, counts)
            lam(y, derivative=True)
        assert counts == {"X with DX": 1}


def _defining_poisson(tower, level, y):
    """lam and dlam of one tower level straight from Q^{-1} L Q^{-T} and the
    product rule, with linear solves in place of any closed form."""
    chart, parent = tower.charts[level - 1], tower.poissons[level - 1]
    column = tower.columns[level - 1]
    B, r, n = chart.slice_basis, chart.axis, y.shape[0]
    S = B[:, r + 1 :]
    z = chart.basepoint + S @ y[r + 1 :]
    if level == 1:  # the canonical J is constant
        L, dL = parent(z), np.zeros((n, n, n))
    else:
        L, dL = parent(z, derivative=True)
    if column is None:
        X, DX = chart.field.evaluate(z, derivative=True)
    else:
        X, DX = L[:, column], dL[:, column, :]
    Q = B.copy()
    Q[:, r] = X

    def sandwich(M):  # Q^{-1} M Q^{-T}
        return np.linalg.solve(Q, np.linalg.solve(Q, M).T).T

    lam = sandwich(L)
    dlam = np.zeros((n, n, n))
    for t in range(S.shape[1]):
        dQ = np.zeros((n, n))
        dQ[:, r] = DX @ S[:, t]
        left = np.linalg.solve(Q, dQ @ lam)  # -d(Q^{-1}) L Q^{-T}
        right = np.linalg.solve(Q, dQ @ lam.T).T  # -Q^{-1} L d(Q^{-T})
        dlam[:, :, r + 1 + t] = sandwich(dL @ S[:, t]) - left - right
    return lam, dlam


@pytest.mark.parametrize("pipeline", ["harmonic_s2", "oscillator_s3_tower"])
def test_level_poisson_matches_the_defining_formula(pipeline, request, monkeypatch):
    # the Sherman-Morrison closed form agrees with Q^{-1} L Q^{-T} built by
    # linear solves, and evaluating it factorises nothing
    fixture = request.getfixturevalue(pipeline)
    tower = fixture[3].state.tower if pipeline == "harmonic_s2" else fixture
    n = 2 * tower.dimension_s
    radius = 0.25 * min(c.domain_radius for c in tower.charts)
    rng = np.random.default_rng(67)
    counts = {}
    for level, lam in enumerate(tower.poissons[1:], start=1):
        for _ in range(5):
            y = rng.uniform(-radius, radius, size=n)
            with monkeypatch.context() as patch:
                for owner, name in ((np.linalg, "inv"), (np, "moveaxis")):
                    _count_calls(patch, owner, name, counts)
                value, dlam = lam(y, derivative=True)
                plain = lam(y)
            assert counts == {}
            assert np.array_equal(value, plain)
            want, dwant = _defining_poisson(tower, level, y)
            assert np.max(np.abs(value - want)) < 1e-13
            assert np.max(np.abs(dlam - dwant)) < 1e-13


@settings(max_examples=50)
@given(
    s=st.integers(1, 3),
    axis=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    x=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
)
def test_slice_inverse_inverts_an_orthogonal_matrix_with_one_column_replaced(
    s, axis, seed, x
):
    n = 2 * s
    r = axis % n
    O, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    c, X = O[:, r], np.array(x[:n])
    assume(abs(c @ X) >= 0.1)
    Q = O.copy()
    Q[:, r] = X
    Qinv = _slice_inverse(O.T.copy(), c, r, X)
    assert np.linalg.norm(Q @ Qinv - np.eye(n)) <= 1e-12


@pytest.fixture(scope="module")
def free_particle_s2_tower():
    Pi = MapField.from_sources(("q1", "q2"), 2)
    return extend_frame(init_frame(FREE_S2, Pi, [0.1, -0.2, 1.0, 0.6])).tower


@pytest.mark.parametrize(
    "pipeline", ["harmonic_s2", "free_particle_s2_tower", "oscillator_s3_tower"]
)
def test_slice_basis_columns_are_orthonormal_but_the_flowed_one(pipeline, request):
    # the closed-form level Poisson matrix rests on B^T B = I - e_r e_r^T,
    # also after the deepest chart's tail is permuted
    fixture = request.getfixturevalue(pipeline)
    tower = fixture[3].state.tower if pipeline == "harmonic_s2" else fixture
    n = 2 * tower.dimension_s
    head = tower.charts[-1].axis + 1
    permuted = tower.with_permuted_tail(list(reversed(range(n - head))))
    for chart in tower.charts + permuted.charts[-1:]:
        B, r = chart.slice_basis, chart.axis
        assert not B[:, r].any()
        e_r = np.eye(n)[r]
        assert np.max(np.abs(B.T @ B - np.eye(n) + np.outer(e_r, e_r))) <= 1e-14


def _slice_level(field_value):
    """A duck-typed level-1 chart over the slice z_0 = 0 that flows
    field_value(z), with a zero Jacobian."""
    B = np.eye(4)
    B[:, 0] = 0.0

    def evaluate(z, derivative=False):
        v = field_value(z)
        return (v, np.zeros((4, 4))) if derivative else v

    field = VectorField(evaluate, 2)
    chart = SimpleNamespace(
        basepoint=np.zeros(4), slice_basis=B, slice_normal=np.eye(4)[0], axis=0,
        field=field,
    )
    return _level_poisson(chart, _canonical_poisson(2), None)


@pytest.mark.parametrize(
    "value, shown", [(np.eye(4)[1], r"0\.0"), (np.full(4, np.nan), "nan")]
)
def test_level_poisson_names_a_field_tangent_to_its_slice(value, shown):
    # w_r = c.X(z) is the one divisor; where it vanishes or is not finite
    # lam raises a FlowError naming the level and w_r, with no numpy warning
    lam = _slice_level(lambda z: value)
    for derivative in (False, True):
        with pytest.raises(
            flows.FlowError, match=rf"^level 1 Poisson matrix: .* w_r = {shown}$"
        ):
            lam(np.zeros(4), derivative)


def test_chart_over_a_level_turning_tangent_shrinks_its_radius():
    # level 1 flows (1, 1, 0, 0) inside |z| < 0.3 and e_1, tangent to its
    # slice, outside; a level-2 chart whose probes flow out there fails
    # those probes and halves its radius instead of crashing the build
    lam = _slice_level(
        lambda z: np.array([float(np.linalg.norm(z) < 0.3), 1.0, 0.0, 0.0])
    )

    def ghat(y, derivative=False):
        out = lam(y, derivative)
        return (out[0][:, 2], out[1][:, 2, :]) if derivative else out[:, 2]

    chart = flows.FlowBoxChart.build(np.zeros(4), VectorField(ghat, 2), 1)
    assert 0.1 < chart.domain_radius < 0.5


def test_level_two_chart_flows_one_field(harmonic_s2, monkeypatch):
    # the straightened e_0 is a translation of the slice point: one
    # trajectory per chart map, and the head column of D is e_0 bitwise
    H, _, _, F, _ = harmonic_s2
    chart = F.state.tower.charts[1]
    r = chart.axis
    assert r == 1
    y = np.array([0.2, 0.3, -0.1, 0.15]) * chart.domain_radius
    counts = {}
    _count_calls(monkeypatch, flows, "_integrate", counts)
    chart.forward(y)
    assert counts == {"_integrate": 1}
    _, D = chart.forward_and_jacobian(y)
    assert counts == {"_integrate": 2}
    assert np.array_equal(D[:, :r], np.eye(4)[:, :r])


def test_extend_rejects_coordinates_paired_with_the_frame():
    # a level Poisson matrix whose inverse pairs the two frame coordinates
    state = extend_frame(_free_s3_state())
    assert state.r == 2
    omega_pairs = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    lam = np.linalg.inv(omega_pairs)
    tower = state.tower
    bad = dataclasses.replace(
        tower, poissons=tower.poissons[:-1] + (lambda y, derivative=False: lam,)
    )
    with pytest.raises(FrameExtensionError, match="not orthogonal to the frame"):
        extend_frame(dataclasses.replace(state, tower=bad))


def test_frame_rank_tests_use_the_relative_cutoff(monkeypatch):
    # every rank decision goes through numerical_rank's relative cutoff;
    # np.linalg.matrix_rank would read Tolerances.rank as absolute
    counts = {}
    _count_calls(monkeypatch, np.linalg, "matrix_rank", counts)
    assert extend_frame(_free_s3_state()).r == 2
    H = ScalarField.parse("(q1^2 + q2^2 + p1^2 + p2^2)/2", 2)
    Pi = MapField.from_sources(("q1", "q2"), 2)
    build_first_integrals(H, Pi, [0.3, 0.1, 1.0, 0.7], probes=3, seed=0)
    assert counts == {}


def test_level_two_chart_jacobian_matches_fd_of_forward(harmonic_s2):
    # the variational flow of the lifted field runs on its exact Jacobian
    H, _, _, F, _ = harmonic_s2
    chart = F.state.tower.charts[1]
    rng = np.random.default_rng(53)
    for _ in range(2):
        y = rng.uniform(-0.5, 0.5, size=4) * chart.domain_radius
        _, D = chart.forward_and_jacobian(y)
        assert np.max(np.abs(D - fd_jacobian(chart.forward, y, TOL.fd_step))) < 1e-7


def test_solution_queries_make_no_finite_differences(harmonic_s2, monkeypatch):
    # S and DS run the chart flows on exact frame Jacobians; the Frobenius
    # check stays an independent finite-difference oracle, and construction
    # does not even import the central difference
    _, Pi, _, F, solution = harmonic_s2
    calls = []
    fd = symplectic.fd_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return fd(*args, **kwargs)

    assert not hasattr(construct, "fd_jacobian")
    for module in (symplectic, verify):
        monkeypatch.setattr(module, "fd_jacobian", counted)
    ns, lams = solution.sample_domain(3, seed=59, margin=0.8)
    for n, lam in zip(ns, lams):
        assert np.max(np.abs(solution(n, lam)[:2] - n)) < 1e-8
        assert solution.jacobian(n, lam).shape == (4, 4)
    assert calls == []
    assert submersion_checks(F, F.sample_points(2, seed=61), fibration=Pi).passed
    assert calls


@settings(max_examples=20)
@given(
    level=st.sampled_from([0, 1]),
    v=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
)
def test_chart_round_trip_property(harmonic_s2, level, v):
    # inverse(forward(y)) = y anywhere in the validated ball
    _, _, _, F, _ = harmonic_s2
    chart = F.state.tower.charts[level]
    v = np.array(v)
    y = chart.domain_radius * v / max(1.0, float(np.linalg.norm(v)))
    assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-8


@pytest.fixture(scope="module")
def anisotropic_s2():
    cfg = scenarios.parse_config({"scenario": "anisotropic_s2", "probes": 6})
    F = build_first_integrals(
        cfg.hamiltonian(), cfg.fibration(), cfg.base_point, cfg.tolerances,
        cfg.integrator_settings(), cfg.domain_radius, probes=cfg.probes,
        seed=cfg.seed,
    )
    return cfg.hamiltonian(), cfg.fibration(), np.array(cfg.base_point), F


def test_chart_round_trips_at_box_corners(anisotropic_s2):
    # callers sample the whole box of half-edge domain_radius, not only
    # the ball, so every corner of each chart box must invert
    F = anisotropic_s2[3]
    corners = 1.0 - 2.0 * (np.arange(16)[:, None] >> np.arange(4) & 1)
    for chart in F.state.tower.charts:
        for y in corners * chart.domain_radius:
            assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-8


def test_integrals_run_no_newton_solve(harmonic_s2, monkeypatch):
    # each chart inverts by flowing its query back to its slice
    _, _, _, F, _ = harmonic_s2
    assert not any(
        getattr(v, "__module__", None) == "hjcomplete.newton"
        for v in vars(flows).values()
    )
    counts = {}
    for owner in (newton, construct):
        _count_calls(monkeypatch, owner, "newton_solve", counts)
    integrals = MapField(_integral_components(TowerIndex(F.state.tower).solve, F.k, 2), 2)
    for x in F.sample_points(4, seed=71):
        integrals.value(x)
        integrals.jacobian(x)
    assert counts == {}


@pytest.mark.parametrize("method", ["forward", "forward_and_jacobian", "leaf"])
def test_tower_forward_failure_names_its_level(harmonic_s2, monkeypatch, method):
    # level 2 flows first; its step underflow keeps its type and text
    # behind the level prefix, with the chart's error chained as the cause
    _, _, _, F, _ = harmonic_s2
    tower = F.state.tower
    y = np.array([0.0, 0.2, 0.0, 0.0]) * tower.charts[1].domain_radius
    call = getattr(tower, method)
    if method == "leaf":  # the deepest chart's leaf map, on the leaf of y
        call = lambda y: tower.leaf(y[F.k :])(y[: F.k])  # noqa: E731
    monkeypatch.setattr(flows, "_MIN_STEP_FRACTION", 0.5)
    with pytest.raises(
        flows.FlowError, match="^level 2 chart forward: adaptive step underflow"
    ) as info:
        call(y)
    assert type(info.value.__cause__) is flows.FlowError


def test_sample_point_failure_names_its_sample(harmonic_s2, monkeypatch):
    # a tower forward pass inside sample_points names the sample it served
    _, _, _, F, _ = harmonic_s2
    forward, calls = construct.ChartTower.forward, []

    def failing_second(self, y):
        calls.append(y)
        if len(calls) == 2:
            raise flows.ChartError("level 2 chart forward: point outside chart domain")
        return forward(self, y)

    monkeypatch.setattr(construct.ChartTower, "forward", failing_second)
    with pytest.raises(
        flows.ChartError, match="^sample point 2 of 3: level 2 chart forward: point outside"
    ) as info:
        F.sample_points(3, seed=1)
    assert type(info.value.__cause__) is flows.ChartError


def _tower_of(fixture):
    return fixture if isinstance(fixture, construct.ChartTower) else fixture[3].state.tower


@pytest.mark.parametrize(
    "pipeline", ["harmonic_s1", "harmonic_s2", "anisotropic_s2", "oscillator_s3_tower"]
)
def test_leaf_map_continues_one_trajectory(pipeline, request, monkeypatch):
    # tower.leaf(lam) agrees with a fresh one-shot pass at every head of a
    # walk forward, backward and across t = 0, while the deepest chart
    # flows each stretch of slice time once: every flow after the first
    # starts where the last one ended and spans only the increment, an
    # unchanged slice time flows nothing, and a failed flow keeps the state
    tower = _tower_of(request.getfixturevalue(pipeline))
    deep, k, n = tower.charts[-1], len(tower.charts), 2 * tower.dimension_s
    r = 0.5 * min(c.domain_radius for c in tower.charts)
    rng = np.random.default_rng(61)
    lam = rng.uniform(-r, r, size=n - k)
    times = r * np.array([0.3, 0.7, 0.7, -0.2, -0.6, 0.0, 0.0, 0.5, -0.4])
    heads = [np.append(rng.uniform(-r, r, size=k - 1), t) for t in times]

    flowed, fail = [], []
    tangent_flow = flows.flow_with_tangent

    def recorded(field, x0, t, settings):
        if fail:
            raise flows.FlowError(fail.pop())
        x, M = tangent_flow(field, x0, t, settings)
        if field is deep.field:
            flowed.append((np.array(x0), t, x))
        return x, M

    with monkeypatch.context() as patch:
        patch.setattr(flows, "flow_with_tangent", recorded)
        at, walk, flows_per_step = tower.leaf(lam), [], []
        for head in heads:
            before = len(flowed)
            walk.append(at(head))
            flows_per_step.append(len(flowed) - before)
        fail.append("injected underflow")
        with pytest.raises(flows.FlowError, match="injected underflow"):
            at(np.append(heads[-1][:-1], 0.1 * r))
        again = at(heads[-1])

    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, walk[-1]))
    assert flows_per_step == [int(t != prev) for t, prev in zip(times, [0.0, *times])]
    y_first = np.concatenate([heads[0], lam])
    assert np.array_equal(flowed[0][0], deep.basepoint + deep.slice_basis @ y_first)
    assert flowed[0][1] == times[0]
    moves = [(t, prev) for t, prev in zip(times[1:], times) if t != prev]
    assert len(flowed) == len(moves) + 1
    for (t, prev), last, now in zip(moves, flowed, flowed[1:]):
        assert np.array_equal(now[0], last[2]) and now[1] == t - prev

    chart_at = deep.leaf(lam)
    for head, (x, D) in zip(heads, walk):
        x_fresh, D_fresh = tower.forward_and_jacobian(np.concatenate([head, lam]))
        assert np.max(np.abs(x - x_fresh)) < 1e-10
        assert np.max(np.abs(D - D_fresh)) < 1e-9
        # M fixes the straightened directions bitwise along the walk
        assert np.array_equal(chart_at(head)[1][:, : k - 1], np.eye(n)[:, : k - 1])


# ---------------------------------------------------------------------------
# first integrals


def test_free_particle_integral_is_momentum_offset(free_s1):
    """Closed form check: the single integral must equal p1 - 1."""
    _, _, _, F, _ = free_s1
    pts = F.sample_points(20, seed=1)
    for x in pts:
        assert F.integrals.value(x)[0] == pytest.approx(x[1] - 1.0, abs=1e-8)
        grad = F.integrals.jacobian(x)[0]
        assert np.max(np.abs(grad - np.array([0.0, 1.0]))) < 1e-6


def test_integrals_annihilate_the_flow():
    H = ScalarField.parse("(q1^2 + p1^2)/2", 1)
    Pi = MapField.from_sources(("q1",), 1)
    m = np.array([0.0, 1.0])
    F = build_first_integrals(H, Pi, m, probes=15, seed=0)
    x0 = F.sample_points(1, seed=4)[0]
    X = hamiltonian_vf(H, TOL)
    baseline = F.integrals.value(x0)
    for t in (0.05, 0.1, 0.2):
        moved = F.integrals.value(flow(X, x0, t))
        assert np.max(np.abs(moved - baseline)) < 1e-6


def test_build_diagnostics_recorded(harmonic_s2):
    _, _, _, F, _ = harmonic_s2
    d = F.diagnostics
    assert d["flow_drift"] <= TOL.residual
    assert d["transversality"] is True
    assert d["kernel_gram"] <= TOL.residual
    assert len(d["chart_radii"]) == 2


def test_integral_gradient_matches_finite_differences(harmonic_s2):
    _, _, _, F, _ = harmonic_s2
    x = F.sample_points(1, seed=9)[0]
    grad = F.integrals.jacobian(x)
    step = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = step
        col = (F.integrals.value(x + e) - F.integrals.value(x - e)) / (2 * step)
        assert np.max(np.abs(grad[:, j] - col)) < 5e-5


# ---------------------------------------------------------------------------
# fibration choice


def test_fibration_prefers_positions():
    X = hamiltonian_vf(FREE_S2, TOL)
    plan = build_fibration(X, [0.1, -0.2, 1.0, 0.6], 2)
    assert not plan.swap_applied
    assert plan.sources == ("q1", "q2")


def test_fibration_swaps_when_direction_is_vertical():
    # at (1, 0) the oscillator field is (0, -1): no q-component at all
    X = hamiltonian_vf(ScalarField.parse("(q1^2 + p1^2)/2", 1), TOL)
    plan = build_fibration(X, [1.0, 0.0], 1)
    assert plan.swap_applied
    assert plan.sources == ("-p1",)
    assert plan.pi.value([1.0, 0.25])[0] == -0.25


def test_fibration_relabels_strongest_direction():
    X = hamiltonian_vf(FREE_S2, TOL)
    plan = build_fibration(X, [0.0, 0.0, 1e-14, 0.8], 1)
    assert plan.q_order[0] == 1
    assert plan.sources == ("q2",)


def test_fibration_rejects_vanishing_direction():
    X = hamiltonian_vf(ScalarField.parse("(q1^2 + p1^2)/2", 1), TOL)
    with pytest.raises(FibrationError, match="vanishes"):
        build_fibration(X, [0.0, 0.0], 1)


def test_fibration_rejects_bad_codimension():
    X = hamiltonian_vf(FREE_S2, TOL)
    with pytest.raises(FibrationError):
        build_fibration(X, [0.1, -0.2, 1.0, 0.6], 0)
    with pytest.raises(FibrationError):
        build_fibration(X, [0.1, -0.2, 1.0, 0.6], 3)


def test_fibration_dodges_random_directions():
    rng = np.random.default_rng(6)
    s = 3
    H = FREE_S3  # only dimension bookkeeping matters here

    for _ in range(30):
        v = rng.standard_normal(2 * s)
        if rng.random() < 0.3:
            v[:s] = 0.0  # force the swap branch
        from hjcomplete.symplectic import VectorField

        X = VectorField(lambda x, v=v: v, s)
        m = rng.uniform(-1.0, 1.0, size=2 * s)
        k = int(rng.integers(1, s + 1))
        plan = build_fibration(X, m, k)
        DPi = plan.pi.jacobian(m)
        assert numerical_rank(DPi, TOL.rank) == k
        # the direction must leave the fibres
        assert np.max(np.abs(DPi @ v)) > 1e-10


# ---------------------------------------------------------------------------
# duality


def test_duality_round_trip(free_s1, harmonic_s2):
    for H, Pi, m, F, solution in (free_s1, harmonic_s2):
        ns, lams = solution.sample_domain(30, seed=12, margin=0.8)
        for n, lam in zip(ns, lams):
            x = solution(n, lam)
            assert np.max(np.abs(Pi.value(x) - n)) < 1e-8
            assert np.max(np.abs(F.integrals.value(x) - lam)) < 1e-8


@pytest.mark.parametrize("pipeline", ["free_s1", "harmonic_s2"])
def test_solution_is_independent_of_query_order(pipeline, request):
    *_, solution = request.getfixturevalue(pipeline)
    ns, lams = solution.sample_domain(12, seed=31)

    def evaluate(order):
        return {i: (solution(ns[i], lams[i]), solution.jacobian(ns[i], lams[i]))
                for i in order}

    forward = evaluate(range(12))
    backward = evaluate(reversed(range(12)))
    for i in range(12):
        assert np.array_equal(forward[i][0], backward[i][0])
        assert np.array_equal(forward[i][1], backward[i][1])


def test_solution_queries_make_one_newton_solve_and_no_inversion(
    harmonic_s2, monkeypatch
):
    _, _, _, F, solution = harmonic_s2
    inversions = []
    for cls, name in (
        (construct.TowerIndex, "solve"),
        (construct.ChartTower, "solve_stack"),
        (flows.FlowBoxChart, "inverse"),
    ):
        def counted(self, *args, _fn=getattr(cls, name), _name=name, **kwargs):
            inversions.append(_name)
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    solves = []
    newton = construct.newton_solve

    def counted_newton(residual, jacobian, x0, **kwargs):
        solves.append(len(x0))
        return newton(residual, jacobian, x0, **kwargs)

    monkeypatch.setattr(construct, "newton_solve", counted_newton)
    ns, lams = solution.sample_domain(3, seed=33, margin=0.8)
    for n, lam in zip(ns, lams):
        x = solution(n, lam)
        DS = solution.jacobian(n, lam)
        assert np.max(np.abs(x[:2] - n)) < 1e-8
        assert DS.shape == (4, 4)
    assert inversions == []
    assert solves == [F.k] * 3


@pytest.fixture(scope="module")
def nonflat_cometric_s2():
    cfg = scenarios.parse_config({"scenario": "nonflat_cometric_s2", "probes": 6})
    F = build_first_integrals(
        cfg.hamiltonian(), cfg.fibration(), cfg.base_point, cfg.tolerances,
        cfg.integrator_settings(), cfg.domain_radius, probes=cfg.probes,
        seed=cfg.seed,
    )
    return cfg.hamiltonian(), cfg.fibration(), np.array(cfg.base_point), F


@pytest.mark.parametrize("pipeline", ["harmonic_s2", "anisotropic_s2", "nonflat_cometric_s2"])
def test_solution_returns_across_its_whole_box(pipeline, request):
    # S is validated at 20 probes, but callers sample its whole box: at 60
    # samples with margin 1 and at every corner, S returns a point that Pi
    # and F map back to (n, lam) within criterion 1's round-trip tolerance.
    # The registry builds at 6 probes have the boxes of the 50-probe builds.
    _, Pi, m, F = request.getfixturevalue(pipeline)[:4]
    solution = solution_from_integrals(Pi, F, m, seed=0)
    ns, lams = solution.sample_domain(60, seed=0, margin=1.0)
    corners = np.array(list(itertools.product(*solution.n_box, *solution.lambda_box)))
    ns = np.vstack([ns, corners[:, : solution.k]])
    lams = np.vstack([lams, corners[:, solution.k :]])
    for n, lam in zip(ns, lams):
        x = solution(n, lam)
        assert np.max(np.abs(Pi.value(x) - n)) <= 1e-8, (n, lam)
        assert np.max(np.abs(F.integrals.value(x) - lam)) <= 1e-8, (n, lam)


@pytest.mark.parametrize(
    "name, build, total",
    [
        ("harmonic_s1", (122, 4290), (187, 5118)),
        ("free_particle_s2", (180, 3630), (260, 4710)),
        ("harmonic_s2", (323, 9662), (463, 12374)),
    ],
)
def test_construction_work_is_pinned(name, build, total, monkeypatch):
    # trajectories and right-hand sides of the build at 6 probes and of S's
    # validation do not depend on the machine, so extra work fails here; a
    # lockstep batch counts one trajectory per flowed row and one right-hand
    # side per active row of each call
    counts = {"trajectories": 0, "rhs": 0}
    integrate, integrate_rows = flows._integrate, flows._integrate_rows

    def counted_rhs(rhs):
        def call(z):
            counts["rhs"] += len(z) if z.ndim == 2 else 1
            return rhs(z)

        return call

    def counted_integrate(rhs, x0, t_end, settings):
        counts["trajectories"] += 1
        return integrate(counted_rhs(rhs), x0, t_end, settings)

    def counted_rows(rhs, X0, T, settings):
        counts["trajectories"] += np.count_nonzero(T)
        return integrate_rows(counted_rhs(rhs), X0, T, settings)

    monkeypatch.setattr(flows, "_integrate", counted_integrate)
    monkeypatch.setattr(flows, "_integrate_rows", counted_rows)
    cfg = scenarios.parse_config({"scenario": name})
    Pi = cfg.fibration()
    F = build_first_integrals(
        cfg.hamiltonian(), Pi, cfg.base_point, cfg.tolerances,
        cfg.integrator_settings(), cfg.domain_radius, probes=6, seed=0,
    )
    assert (counts["trajectories"], counts["rhs"]) == build
    solution_from_integrals(Pi, F, cfg.base_point, cfg.tolerances, seed=0)
    assert (counts["trajectories"], counts["rhs"]) == total


def _scalar_verdict(chart, probes) -> bool:
    """The per-probe loop that the lockstep batch replaced, as an oracle."""
    for y in probes:
        try:
            if np.linalg.norm(chart.inverse(chart.forward(y)) - y) > 1e-6:
                return False
        except (flows.FlowError, flows.ChartError):
            return False
    return True


@pytest.mark.parametrize("name", list(scenarios.REGISTRY))
def test_batched_probe_verdict_is_the_scalar_loop(name, monkeypatch):
    # every radius round of every registry chart, and each final chart at
    # twice its radius, where anisotropic_s2 fails at both levels
    rounds, probe_domain = [], flows.FlowBoxChart._probe_domain

    def recorded(chart, probes):
        rounds.append((chart, probes, probe_domain(chart, probes)))
        return rounds[-1][2]

    monkeypatch.setattr(flows.FlowBoxChart, "_probe_domain", recorded)
    cfg = scenarios.parse_config({"scenario": name})
    build_first_integrals(
        cfg.hamiltonian(), cfg.fibration(), cfg.base_point, cfg.tolerances,
        cfg.integrator_settings(), cfg.domain_radius, probes=6, seed=0,
    )
    for chart, probes, verdict in list(rounds):
        assert verdict == _scalar_verdict(chart, probes)
        if verdict:
            wide = dataclasses.replace(chart, domain_radius=2.0 * chart.domain_radius)
            doubled = probe_domain(wide, 2.0 * probes)
            assert doubled == _scalar_verdict(wide, 2.0 * probes)
            assert not (doubled and name == "anisotropic_s2")


def test_stacked_lifted_fields_are_the_fields_at_each_row(harmonic_s2, oscillator_s3_tower):
    # the level Poisson matrices on a stack, and the lifted field a chart
    # above them flows, against their value at each row
    towers = (harmonic_s2[3].state.tower, oscillator_s3_tower)
    for tower in towers:
        n = 2 * tower.dimension_s
        ys = np.random.default_rng(1).uniform(-0.2, 0.2, size=(7, n))
        for lam in tower.poissons[1:]:
            stacked = lam.rows(ys)
            for y, L in zip(ys, stacked):
                assert np.max(np.abs(L - lam(y))) <= 1e-13 * np.max(np.abs(L))
        for chart in tower.charts[1:]:
            stacked = chart.field.rows(ys)
            for y, X in zip(ys, stacked):
                assert np.max(np.abs(X - chart.field(y))) <= 1e-13 * np.max(np.abs(X))


def test_isotropy_check_reuses_the_hje_solves(harmonic_s2, monkeypatch):
    # both checks draw the same seeded probes; the solution memo already
    # holds every (S, DS) the residual check solved
    H, Pi, _, _, solution = harmonic_s2
    assert hje_residual(solution, H, Pi, probes=6, seed=29).passed
    solves = []
    newton = construct.newton_solve

    def counted_newton(*args, **kwargs):
        solves.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(construct, "newton_solve", counted_newton)
    assert isotropy_residual(solution, probes=6, seed=29).passed
    assert solves == []


def test_head_solve_halves_a_step_the_chart_cannot_flow_to(harmonic_s2, monkeypatch):
    # S's head Newton: a trial point whose leaf map raises FlowError, or
    # ChartError for a slice time past the reach, is a failed trial, so
    # the step halves; a start the chart cannot reach still raises, named
    # by its query
    _, Pi, m, F, solution = harmonic_s2
    solve = construct._tower_inverse(Pi, F, m, DEFAULT_TOLERANCES)[0]
    n, lam = (c[0] for c in solution.sample_domain(1, seed=5, margin=0.8))
    expected = solve(n, lam)[0]
    leaf = construct.ChartTower.leaf
    for error in (
        flows.FlowError("adaptive step underflow at t = -990.9"),
        flows.ChartError("point outside chart domain: slice time 1.3e+00 passes 2 domain radii"),
    ):
        heads = []

        def failing_full_step(self, lam):
            at = leaf(self, lam)

            def step(head):
                heads.append(tuple(head))
                if len(heads) == 2:  # h0, then the first full Newton step
                    raise error
                return at(head)

            return step

        monkeypatch.setattr(construct.ChartTower, "leaf", failing_full_step)
        x = solve(n, lam)[0]
        assert len(set(heads)) == len(heads) > 2
        assert np.max(np.abs(Pi.value(x) - n)) < 1e-8
        assert np.max(np.abs(x - expected)) < 1e-8

        def failing_start(self, lam):
            def step(head):
                raise error

            return step

        monkeypatch.setattr(construct.ChartTower, "leaf", failing_start)
        with pytest.raises(type(error), match=str(error)[:20]) as info:
            solve(n, lam)
        where = f"S start at n={n.tolist()}, lambda={lam.tolist()}: "
        assert str(info.value) == where + str(error)
        assert info.value.__cause__ is error


def test_tower_solve_is_a_pure_function_of_its_query(harmonic_s2, harmonic_s1):
    # each solve continues its own leaf map, so (x, DS) at a query is the
    # same bits fresh and after solves on the same leaf and on another one
    for _, Pi, m, F, *_ in (harmonic_s2, harmonic_s1):
        solution = solution_from_integrals(Pi, F, m, seed=0)
        ns, lams = solution.sample_domain(3, seed=67, margin=0.8)
        fresh = construct._tower_inverse(Pi, F, m, DEFAULT_TOLERANCES)[0](ns[0], lams[0])
        solve = construct._tower_inverse(Pi, F, m, DEFAULT_TOLERANCES)[0]
        for n, lam in ((ns[1], lams[0]), (ns[2], lams[0]), (ns[1], lams[1]), (ns[0], lams[0])):
            again = solve(n, lam)
        for a, b in zip(fresh, again):
            assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def harmonic_s1():
    H = ScalarField.parse("(q1^2 + p1^2)/2", 1)
    Pi = MapField.from_sources(("q1",), 1)
    m = np.array([0.0, 1.0])
    return H, Pi, m, build_first_integrals(H, Pi, m, probes=15, seed=0)


def _linearized_boxes(Pi, F, m) -> np.ndarray:
    # (Pi(m), 0) +- rho (|A0| + |B0|) 1 for n and +- rho for lam, with
    # [A0 | B0] = DPi(m) DPsi(0) and rho = 0.4 x the least chart radius
    tower, dim = F.state.tower, 2 * F.dimension_s
    AB = Pi.jacobian(m) @ tower.forward_and_jacobian(np.zeros(dim))[1]
    rho = 0.4 * min(c.domain_radius for c in tower.charts)
    half = rho * np.concatenate([np.abs(AB).sum(axis=1), np.ones(dim - F.k)])
    center = np.concatenate([Pi.value(m), np.zeros(dim - F.k)])
    return np.column_stack([center - half, center + half])


@pytest.mark.parametrize("pipeline", ["harmonic_s1", "harmonic_s2"])
def test_solution_boxes_are_the_linearized_reach_at_every_seed(
    pipeline, request, monkeypatch
):
    # S is sized by [A0 | B0] and the chart radius, not by sampling the
    # tower: no forward pass, and the boxes do not move with the seed
    _, Pi, m, F, *_ = request.getfixturevalue(pipeline)
    expected = _linearized_boxes(Pi, F, m)
    passes = []
    forward = construct.ChartTower.forward

    def counted(self, y):
        passes.append(y)
        return forward(self, y)

    monkeypatch.setattr(construct.ChartTower, "forward", counted)
    for seed in (0, 3):
        solution = solution_from_integrals(Pi, F, m, seed=seed)
        boxes = np.vstack([solution.n_box, solution.lambda_box])
        assert boxes.tobytes() == expected.tobytes()
    assert passes == []


def test_validation_probes_keep_their_sign(harmonic_s2, monkeypatch):
    # no probe coordinate lies within a quarter edge of the box centre, and
    # each keeps the sign of its uniform draw: both faces are probed
    _, Pi, m, F, _ = harmonic_s2
    targets = []
    tower_inverse = construct._tower_inverse

    def recorded(*args):
        solve, J0, center, half = tower_inverse(*args)

        def probe(n, lam):
            targets.append(np.concatenate([n, lam]))
            return solve(n, lam)

        return probe, J0, center, half

    monkeypatch.setattr(construct, "_tower_inverse", recorded)
    solution = solution_from_integrals(Pi, F, m, seed=4)
    boxes = np.vstack([solution.n_box, solution.lambda_box])
    d = (np.array(targets) - boxes.mean(axis=1)) / (np.diff(boxes, axis=1)[:, 0] / 2)
    draws = np.random.default_rng(4).uniform(-1.0, 1.0, size=d.shape)
    assert d.shape == (20, 4)
    assert np.all(np.abs(d) >= 0.25 - 1e-12)
    assert np.array_equal(np.sign(d), np.sign(draws))
    assert np.any(np.abs(draws) < 0.25)


def test_duality_requires_transversality():
    Pi = MapField.from_sources(("q1",), 1)
    with pytest.raises(TransversalityError):
        solution_from_integrals(Pi, MapField.from_sources(("q1",), 1), [0.0, 1.0])


def test_solution_domain_is_enforced(free_s1):
    _, _, _, _, solution = free_s1
    n_out = solution.n_box[:, 1] + 1.0
    lam_mid = solution.lambda_box.mean(axis=1)
    with pytest.raises(DomainBoxError):
        solution(n_out, lam_mid)


def test_sample_domain_is_seeded(free_s1):
    _, _, _, _, solution = free_s1
    a = solution.sample_domain(5, seed=3)
    b = solution.sample_domain(5, seed=3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = solution.sample_domain(5, seed=4)
    assert not np.array_equal(a[0], c[0])


def _analytic_oscillator_solution():
    """Sigma(n, lam) = (n, sqrt(2 lam - n^2)): graphs of constant energy."""

    def evaluator(n, lam):
        return np.array([n[0], np.sqrt(2.0 * lam[0] - n[0] ** 2)])

    def jacobian(n, lam):
        p = np.sqrt(2.0 * lam[0] - n[0] ** 2)
        return np.array([[1.0, 0.0], [-n[0] / p, 1.0 / p]])

    return CompleteSolution.from_callables(
        evaluator, jacobian, 1, [[-0.5, 0.5]], [[1.0, 2.0]]
    )


def test_integrals_from_solution_recover_energy():
    solution = _analytic_oscillator_solution()
    F = integrals_from_solution(solution)
    assert F.target_dim == 1
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = rng.uniform(-0.5, 0.5, size=1)
        lam = rng.uniform(1.0, 2.0, size=1)
        x = solution(n, lam)
        assert F.value(x)[0] == pytest.approx((x[0] ** 2 + x[1] ** 2) / 2.0, abs=1e-8)
        grad = F.jacobian(x)[0]
        assert np.max(np.abs(grad - x)) < 1e-6  # dH = (q, p)


def _parent_integrals_from_solution(solution):
    """The inversion integrals_from_solution made before it shared
    _newton_inverse: newton_solve from the box midpoint, then the inverse
    of the solution Jacobian at the root."""
    k = solution.k
    mid = np.vstack([solution.n_box, solution.lambda_box]).mean(axis=1)

    def invert(x):
        y = newton.newton_solve(
            lambda y: solution._evaluator(y[:k], y[k:]) - x,
            lambda y: solution._jacobian(y[:k], y[k:]),
            mid,
            tol=TOL.newton,
        )
        return y[k:], np.linalg.inv(solution._jacobian(y[:k], y[k:]))[k:]

    return invert


def _oscillator_points(count, seed):
    solution = _analytic_oscillator_solution()
    ns, lams = solution.sample_domain(count, seed=seed, margin=0.9)
    return [solution(n, lam) for n, lam in zip(ns, lams)]


def test_integrals_from_solution_match_the_parent_inversion_bitwise():
    solution = _analytic_oscillator_solution()
    F = integrals_from_solution(solution)
    oracle = _parent_integrals_from_solution(solution)
    for x in _oscillator_points(8, seed=41):
        value, gradient = oracle(x)
        assert np.array_equal(F.value(x), value)
        assert np.array_equal(F.jacobian(x), gradient)


def test_integrals_from_solution_are_independent_of_query_order():
    solution = _analytic_oscillator_solution()
    points = _oscillator_points(8, seed=43)

    def evaluate(order):
        F = integrals_from_solution(solution)
        return {i: (F.value(points[i]), F.jacobian(points[i])) for i in order}

    forward = evaluate(range(8))
    backward = evaluate(reversed(range(8)))
    for i in range(8):
        assert np.array_equal(forward[i][0], backward[i][0])
        assert np.array_equal(forward[i][1], backward[i][1])


def test_integrals_from_solution_make_one_newton_solve_per_point(monkeypatch):
    # the value and the gradient at a point share one memoized inversion
    F = integrals_from_solution(_analytic_oscillator_solution())
    counts = {}
    _count_calls(monkeypatch, construct, "newton_solve", counts)
    points = _oscillator_points(3, seed=47)
    for x in points:
        F.value(x)
        F.jacobian(x)
        F.value(x)
    assert counts == {"newton_solve": len(points)}


def _build_with_gradients(monkeypatch, gradients):
    """free_particle_s2 built with integrals whose gradients are the given
    fields of x = (q1, q2, p1, p2); the build checks dF only."""
    monkeypatch.setattr(
        construct,
        "_integral_components",
        lambda solve, k, dim_s: tuple(
            ProceduralScalar(lambda x: 0.0, g, dim_s) for g in gradients
        ),
    )
    with pytest.raises(ConstructionError) as info:
        build_first_integrals(
            FREE_S2, MapField.from_sources(("q1", "q2"), 2), [0.1, -0.2, 1.0, 0.6],
            probes=6, seed=0,
        )
    return info.value


def test_build_reports_a_transversality_failure(monkeypatch):
    # dF = (dH, p1 dq2 - p2 dq1) annihilates X_H = (p, 0) and has the
    # Lagrangian kernel span{X_H, (0, 0, -p2, p1)}, which meets the fibre
    # of (q1, q2): only the rank of (dPi, dF) fails
    error = _build_with_gradients(monkeypatch, (
        lambda x: np.array([0.0, 0.0, x[2], x[3]]),
        lambda x: np.array([-x[3], x[2], 0.0, 0.0]),
    ))
    assert str(error) == (
        "constructed integrals failed verification: "
        "transversality rank failed at a probe"
    )
    assert error.diagnostics["transversality"] is False
    assert error.diagnostics["flow_drift"] == 0.0
    assert error.diagnostics["kernel_gram"] < 1e-12


def test_build_reports_a_non_isotropic_kernel(monkeypatch):
    # dF = (dp1, p2 dq1 - p1 dq2 + dp2) annihilates X_H and is transverse to
    # (q1, q2), but its kernel holds X_H and (1, 0, 0, -p2), which pair to
    # -p2^2 under omega: only the kernel isotropy gram fails
    error = _build_with_gradients(monkeypatch, (
        lambda x: np.array([0.0, 0.0, 1.0, 0.0]),
        lambda x: np.array([x[3], -x[2], 0.0, 1.0]),
    ))
    gram = error.diagnostics["kernel_gram"]
    assert str(error) == (
        f"constructed integrals failed verification: kernel isotropy gram {gram:.3e}"
    )
    assert gram > 0.1
    assert error.diagnostics["transversality"] is True
    assert error.diagnostics["flow_drift"] == 0.0


def test_analytic_integrals_invert_to_a_solution():
    # start from closed-form data instead of a constructed submersion
    Pi = MapField.from_sources(("q1",), 1)
    F = MapField.from_sources(("(q1^2 + p1^2)/2",), 1)
    m = np.array([0.3, 1.5])
    solution = solution_from_integrals(Pi, F, m)
    ns, lams = solution.sample_domain(20, seed=5, margin=0.9)
    for n, lam in zip(ns, lams):
        x = solution(n, lam)
        assert x[0] == pytest.approx(n[0], abs=1e-8)
        assert (x[0] ** 2 + x[1] ** 2) / 2.0 == pytest.approx(lam[0], abs=1e-8)
        # Jacobian columns invert the stacked differential
        D = solution.jacobian(n, lam)
        stacked = np.vstack([Pi.jacobian(x), F.jacobian(x)])
        assert np.max(np.abs(stacked @ D - np.eye(2))) < 1e-7


def test_duality_refuses_unreachable_boxes():
    # sin(p1) is invertible at the base point but capped at 1, and the
    # base value sits so close to the cap that no box of the minimum edge
    # fits inside the range; validation must shrink and then refuse
    Pi = MapField.from_sources(("q1",), 1)
    F = MapField.from_sources(("sin(p1)",), 1)
    with pytest.raises(
        DualityError, match=r"shrank.*validation probe \d+ of 20: NewtonError"
    ) as info:
        solution_from_integrals(Pi, F, [0.0, 1.5698])
    assert isinstance(info.value.__cause__, NewtonError)


def test_random_quartic_hamiltonian_near_the_hypotheses_edge_constructs():
    # trial 0 of the random sweep (margin 0.017): while S's boxes were sized
    # by sampling the tower, the hje check's S head Newton stalled at a
    # probe the 20 validation probes never met
    H = ScalarField.parse("-0.003*q1^2*q1 + -1.718*q1^2*p1^2 + p1^2/2", 1)
    Pi = MapField.from_sources(("q1",), 1)
    m = np.array([-0.26201375254041803, 0.022780043606525302])
    F = build_first_integrals(H, Pi, m, probes=20, seed=0)
    solution = solution_from_integrals(Pi, F, m, seed=0)
    assert hje_residual(solution, H, Pi, probes=20, seed=0).passed
    assert isotropy_residual(solution, probes=20, seed=0).passed


def test_solution_returns_no_point_that_its_integrals_refuse():
    # trial 1 of the random sweep: S flowed a chart past the slice time its
    # inverse refuses, so F raised ChartError at a box corner of S; S may
    # refuse a point, but a point it returns inverts to its lam
    H = ScalarField.parse("-0.899*p1*p1 + 1.267*p1^2*q1^2 + 0.215*q1*p1^2 + p1^2/2", 1)
    Pi = MapField.from_sources(("q1",), 1)
    m = np.array([0.6044053675569669, 0.7346671036848293])
    F = build_first_integrals(H, Pi, m, initial_radius=0.25, probes=20, seed=0)
    solution = solution_from_integrals(Pi, F, m, seed=0)
    corners = np.array(list(itertools.product(*solution.n_box, *solution.lambda_box)))
    ns, lams = solution.sample_domain(200, seed=0, margin=1.0)
    returned = 0
    for n, lam in zip(np.vstack([corners[:, :1], ns]), np.vstack([corners[:, 1:], lams])):
        try:
            x = solution(n, lam)
        except (NewtonError, flows.ChartError, flows.FlowError):
            continue
        returned += 1
        assert np.max(np.abs(F.integrals.value(x) - lam)) < 1e-7
    assert returned > 150


@st.composite
def _random_hamiltonians(draw):
    # the random sweep's generator: a polynomial in the style of
    # test_acceptance._random_polynomial plus p1^2/2, at m in [-1, 1]^2s
    s = draw(st.integers(1, 2))
    factor = st.tuples(st.sampled_from("qp"), st.integers(1, s), st.integers(1, 2))
    terms = []
    for _ in range(draw(st.integers(2, 4))):
        factors = draw(st.lists(factor, min_size=1, max_size=2))
        terms.append(f"{draw(st.integers(-2000, 2000)) / 1000}*" + "*".join(
            f"{kind}{i}" + (f"^{power}" if power > 1 else "") for kind, i, power in factors
        ))
    m = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * s, max_size=2 * s))
    return s, " + ".join(terms) + " + p1^2/2", tuple(m)


# a typed error names the stage that failed: a level, a probe or a solver
_STAGE = r"hypotheses|frame|level \d+ chart|probe \d+ of \d+|Newton|verification|base point"


@settings(max_examples=8, derandomize=True)
@given(_random_hamiltonians())
@example((1, "-0.003*q1^2*q1 + -1.718*q1^2*p1^2 + p1^2/2",
          (-0.26201375254041803, 0.022780043606525302)))
@example((1, "-0.899*p1*p1 + 1.267*p1^2*q1^2 + 0.215*q1*p1^2 + p1^2/2",
          (0.6044053675569669, 0.7346671036848293)))
def test_random_hamiltonians_construct_or_fail_by_name(case):
    # the paper's existence claim on random H with the position fibration:
    # with the flow transverse to the fibres by margin >= 0.1 the four
    # construct checks pass and F(S(n, lam)) = lam; below that the run
    # passes or ends in one of the package's typed errors, named by stage
    s, source, m = case
    H = ScalarField.parse(source, s)
    Pi = MapField.from_sources(tuple(f"q{i + 1}" for i in range(s)), s)
    m = np.array(m)
    fibres = np.vstack([np.zeros((s, s)), np.eye(s)])
    frame = np.column_stack([fibres, hamiltonian_vf(H, TOL)(m)])
    margin = np.linalg.svd(frame, compute_uv=False)[-1]
    try:
        F = build_first_integrals(H, Pi, m, probes=6, seed=0)
        solution = solution_from_integrals(Pi, F, m, seed=0)
        reports = [
            hje_residual(solution, H, Pi, probes=6, seed=0),
            isotropy_residual(solution, probes=6, seed=0),
            first_integral_residual(F, H, F.points),
            submersion_checks(F, F.points, fibration=Pi),
        ]
        ns, lams = solution.sample_domain(6, seed=0, margin=verify._PROBE_MARGIN)
        values = [F.integrals.value(solution(n, lam)) for n, lam in zip(ns, lams)]
    except Exception as exc:
        assert margin < 0.1, f"margin {margin:.3f}: {type(exc).__name__}: {exc}"
        assert type(exc).__module__.startswith("hjcomplete."), repr(exc)
        assert re.search(_STAGE, str(exc)), repr(exc)
        return
    assert all(report.passed for report in reports), [str(r) for r in reports]
    assert np.max(np.abs(np.array(values) - lams)) < 1e-7


@settings(max_examples=10, derandomize=True)
@given(_random_hamiltonians())
def test_stacked_hamiltonian_field_is_the_field_at_each_row_bitwise(case):
    s, source, m = case
    X = hamiltonian_vf(ScalarField.parse(source, s), TOL)
    points = np.array(m) + np.random.default_rng(0).uniform(-0.5, 0.5, size=(9, 2 * s))
    rows = X.rows(points)
    for point, row in zip(points, rows):
        assert np.array_equal(X.evaluate(point).view(np.int64), row.view(np.int64))


def test_random_cubic_hamiltonian_inverts_at_every_probe():
    # a case of the random sweep over polynomial H: the chord Newton chart
    # inverse stalled here at residual 1.5e-10 against 1e-10 after 50
    # iterations, so build_first_integrals raised a level 1 ChartError
    H = ScalarField.parse(
        "-0.805*p2*p1 + -1.387*p2^2*p2 + -0.209*p1*p2^2 + 0.822*q2*q2^2"
        " + p1^2/2",
        2,
    )
    Pi = MapField.from_sources(("q1", "q2"), 2)
    m = np.array([
        -0.25745701052428704, -0.8180749365681097,
        0.23866603698040234, -0.09021478984116493,
    ])
    F = build_first_integrals(H, Pi, m, probes=6, seed=0)
    solution = solution_from_integrals(Pi, F, m, seed=0)
    assert hje_residual(solution, H, Pi, probes=6, seed=0).passed
    assert submersion_checks(F, F.sample_points(6, seed=0), fibration=Pi).passed


# ---------------------------------------------------------------------------
# fields with a bounded domain: a flow that leaves it is a failed probe


def _bounded_field(theta, log, plain_only=False):
    """X(q, p) = ((1 + p)(1 + q), 0), which raises EvaluationError past
    q = theta (only without derivative=True if plain_only), logging q."""

    def evaluate(x, derivative=False):
        q, p = x
        if q > theta and not (plain_only and derivative):
            log.append(q)
            raise EvaluationError(f"domain error past q1 = {theta}", "q1")
        X = np.array([(1.0 + p) * (1.0 + q), 0.0])
        return (X, np.array([[1.0 + p, 1.0 + q], [0.0, 0.0]])) if derivative else X

    return VectorField(evaluate, 1)


def test_chart_probes_that_leave_the_field_domain_halve_its_radius():
    # probes at radius 0.5 and 0.25 flow past q = 0.305, 0.125 stays short
    log = []
    chart = flows.FlowBoxChart.build(np.zeros(2), _bounded_field(0.305, log))
    assert chart.domain_radius == 0.125
    assert log and min(log) > 0.305


@pytest.mark.parametrize("plain_only", [False, True], ids=["flow", "end point"])
def test_head_solve_halves_a_step_that_leaves_the_field_domain(plain_only):
    # on the leaf p = -0.5, q(t) = exp(t/2) - 1 is convex: from the linear
    # start h0 = 0.3 the full Newton step reaches q = 0.3073 in the flow,
    # and its end point column reads X at q = 0.3086 (plain_only), both
    # past 0.305, so the step halves and S still solves q = 0.3
    m, log = np.zeros(2), []
    wide = flows.FlowBoxChart.build(m, _bounded_field(np.inf, []))
    deep = dataclasses.replace(wide, field=_bounded_field(0.305, log, plain_only))
    tower = construct.ChartTower((), (_canonical_poisson(1),), (), 1).extended(deep)
    F = SimpleNamespace(state=SimpleNamespace(tower=tower), k=1, dimension_s=1)
    Pi = MapField.from_sources(("q1",), 1)
    solve = construct._tower_inverse(Pi, F, m, DEFAULT_TOLERANCES)[0]
    x, DS = solve(np.array([0.3]), np.array([-0.5]))
    assert len(log) == 1 and log[0] > 0.305
    assert np.max(np.abs(x - [0.3, -0.5])) < 1e-10
    assert np.isfinite(DS).all()


@pytest.mark.parametrize(
    "source, m, radius, radii",
    [
        ("p1^2/2 + log(q1)", (0.05, 1.0), 0.5, (0.015625,)),
        ("p1^2/2 + sqrt(q1)", (0.1, 1.0), 0.125, (0.03125,)),
        ("p1^2/2 + p2^2/2 + log(q1)", (0.1, 0.2, 1.0, 0.5), 0.5, (0.03125, 0.0625)),
    ],
)
def test_hamiltonian_with_a_bounded_domain_constructs(source, m, radius, radii):
    # flows from q1(m) > 0 towards q1 = 0 leave the domain of log or sqrt
    # (sqrt(q1) at radius 0.125 reaches q1 = -2.3e-13): chart radii halve
    s = len(m) // 2
    H = ScalarField.parse(source, s)
    Pi = MapField.from_sources(tuple(f"q{i + 1}" for i in range(s)), s)
    F = build_first_integrals(H, Pi, m, initial_radius=radius, probes=10, seed=0)
    assert F.diagnostics["chart_radii"] == radii
    solution = solution_from_integrals(Pi, F, m, seed=0)
    report = hje_residual(solution, H, Pi, probes=10, seed=0)
    assert report.passed and report.max_residual < 1e-9


@st.composite
def _log_hamiltonians(draw):
    # the random sweep's polynomial plus c*log(q1 + a), q1(m) + a >= 0.05
    s, source, m = draw(_random_hamiltonians())
    c = draw(st.integers(-2000, 2000)) / 1000
    a = draw(st.integers(50, 1000)) / 1000 - m[0]
    return s, f"{source} + {c}*log(q1 + {a!r})", m


@settings(max_examples=4, derandomize=True)
@given(_log_hamiltonians())
@example((1, "p1^2/2 + log(q1)", (0.3, 1.0)))
def test_random_log_hamiltonians_construct_or_fail_by_name(case):
    # a flow that leaves the log's domain fails as a probe: the run passes,
    # or ends in a typed error named by its stage, never in a raw domain error
    s, source, m = case
    H = ScalarField.parse(source, s)
    Pi = MapField.from_sources(tuple(f"q{i + 1}" for i in range(s)), s)
    try:
        F = build_first_integrals(H, Pi, m, probes=6, seed=0)
        solution = solution_from_integrals(Pi, F, m, seed=0)
        reports = [
            hje_residual(solution, H, Pi, probes=6, seed=0),
            isotropy_residual(solution, probes=6, seed=0),
            first_integral_residual(F, H, F.points),
            submersion_checks(F, F.points, fibration=Pi),
        ]
    except Exception as exc:
        assert type(exc).__module__.startswith("hjcomplete."), repr(exc)
        assert re.search(_STAGE, str(exc)), repr(exc)
        return
    assert all(report.passed for report in reports), [str(r) for r in reports]


def test_jacobian_stack_names_the_failing_probe():
    # dF at a point outside log's domain: the level 1 chart inversion reads
    # X there, fails its flow, and the stack names probe 2
    H = ScalarField.parse("p1^2/2 + log(q1)", 1)
    Pi = MapField.from_sources(("q1",), 1)
    F = build_first_integrals(H, Pi, (0.3, 1.0), probes=6, seed=0)
    points = np.array([F.points[0], [-0.1, 1.0], F.points[1]])
    with pytest.raises(flows.FlowError) as info:
        construct._jacobian_stack(F, points)
    assert re.match(
        r"dF probe 2 of 3: level 1 chart inversion: field left its domain: "
        r"domain error for log\(-0\.1\) in 'log\(q1\)'$", str(info.value)
    ), str(info.value)
    assert type(info.value.__cause__) is flows.FlowError
