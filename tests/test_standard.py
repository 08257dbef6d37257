"""Characteristic functions and simple kinetic-plus-potential systems."""

import numpy as np
import pytest
from scipy.integrate import quad

from hjcomplete import scenarios, standard
from hjcomplete.construct import (
    CompleteSolution,
    DomainBoxError,
    build_first_integrals,
    solution_from_integrals,
)
from hjcomplete.expr import ScalarField
from hjcomplete.newton import NewtonError
from hjcomplete.standard import (
    CharacteristicFunction,
    QuadratureError,
    characteristic_family,
    characteristic_function,
    simple_hamiltonian,
    verify_characteristic,
)


def _momentum_graph_solution():
    """Sigma(q, lam) = (q, lam): section identically lam."""

    def evaluator(n, lam):
        return np.array([n[0], lam[0]])

    return CompleteSolution.from_callables(
        evaluator, lambda n, lam: np.eye(2), 1, [[-1.0, 1.0]], [[0.5, 1.5]]
    )


def _oscillator_solution(scale=1.0):
    """Constant-energy graphs p = scale * sqrt(2 lam - q^2)."""

    def evaluator(n, lam):
        return np.array([n[0], scale * np.sqrt(2.0 * lam[0] - n[0] ** 2)])

    def jacobian(n, lam):
        p = np.sqrt(2.0 * lam[0] - n[0] ** 2)
        return np.array([[1.0, 0.0], [-scale * n[0] / p, scale / p]])

    return CompleteSolution.from_callables(
        evaluator, jacobian, 1, [[-0.5, 0.5]], [[1.0, 2.0]]
    )


def test_linear_section_integrates_exactly():
    solution = _momentum_graph_solution()
    W = characteristic_function(solution, [1.2], [0.3])
    for q in (-0.8, -0.1, 0.3, 0.95):
        assert W.value([q]) == pytest.approx(1.2 * (q - 0.3), abs=1e-12)
    assert W.value([0.3]) == 0.0
    assert np.array_equal(W.section([0.7]), np.array([1.2]))


def test_oscillator_matches_closed_form():
    lam = 1.3
    q0 = -0.2
    W = characteristic_function(_oscillator_solution(), [lam], [q0])

    def antiderivative(t):
        return 0.5 * t * np.sqrt(2 * lam - t * t) + lam * np.arcsin(
            t / np.sqrt(2 * lam)
        )

    for q in (-0.45, 0.0, 0.2, 0.48):
        expected = antiderivative(q) - antiderivative(q0)
        assert W.value([q]) == pytest.approx(expected, abs=1e-10)


def test_energy_constancy_passes_and_catches_scaling():
    H = ScalarField.parse("(q1^2 + p1^2)/2", 1)
    good = characteristic_function(_oscillator_solution(), [1.3], [0.0])
    report = verify_characteristic(good, H, probes=40, seed=0)
    assert report.passed
    assert report.max_residual < 1e-12

    # a 2 percent scaling of the section leaves dW exact for the wrong
    # momentum field: the energy now varies with q
    bad = characteristic_function(_oscillator_solution(1.02), [1.3], [0.0])
    report = verify_characteristic(bad, H, probes=40, seed=0)
    assert not report.passed
    assert report.max_residual > 1e-4


def test_anchor_shift_changes_value_by_a_constant():
    solution = _oscillator_solution()
    Wa = characteristic_function(solution, [1.5], [-0.3])
    Wb = characteristic_function(solution, [1.5], [0.2])
    qs = np.linspace(-0.45, 0.45, 7)
    offsets = [Wa.value([q]) - Wb.value([q]) for q in qs]
    assert np.max(np.abs(np.diff(offsets))) < 1e-10


def test_family_covers_the_parameter_box():
    solution = _oscillator_solution()
    family = characteristic_family(solution, grid=4)
    assert len(family) == 4
    lams = sorted(W.lam[0] for W in family)
    assert lams[0] >= 1.0 and lams[-1] <= 2.0
    assert all(np.array_equal(W.q0, solution.n_box.mean(axis=1)) for W in family)


def _section_graph(momentum):
    """Sigma(q, lam) = (q, momentum(q)) over q in [-1, 1]."""
    return CompleteSolution.from_callables(
        lambda n, lam: np.array([n[0], momentum(n[0])]),
        lambda n, lam: np.eye(2),
        1,
        [[-1.0, 1.0]],
        [[0.0, 1.0]],
    )


def _count_sections(monkeypatch) -> list:
    """Record every section evaluation W.value makes."""
    calls = []
    section = CharacteristicFunction.section

    def counted(self, q):
        calls.append(np.array(q))
        return section(self, q)

    monkeypatch.setattr(CharacteristicFunction, "section", counted)
    return calls


# QK15 as printed in QUADPACK: nodes x_0 > ... > x_7 = 0 and their K15
# weights; x_1, x_3, x_5 and x_7 are the G7 nodes.
_QK15_NODES = [
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
]
_QK15_WEIGHTS = [
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
]


def test_rule_is_quadpack_qk15():
    nodes, weights = standard._K15_NODES, standard._K15_WEIGHTS
    assert np.max(np.abs(nodes[7:][::-1] - _QK15_NODES)) < 1e-15
    assert np.max(np.abs(nodes[:8] + _QK15_NODES)) < 1e-15
    assert np.max(np.abs(weights[7:][::-1] - _QK15_WEIGHTS)) < 1e-15
    assert np.max(np.abs(weights[:8] - _QK15_WEIGHTS)) < 1e-15


@pytest.mark.parametrize("rule, degree", [(0, 23), (1, 13)], ids=["K15", "G7"])
def test_rule_exactness_degree(rule, degree):
    # on [-1, 1] the integral of t^d is 2/(d + 1) for even d and 0 for odd d;
    # a mistyped node or weight breaks exactness below the nominal degree
    def error(d):
        estimate = standard._kronrod_panel(lambda t: t**d, -1.0, 1.0)[rule]
        return abs(estimate - (2.0 / (d + 1) if d % 2 == 0 else 0.0))

    assert max(error(d) for d in range(degree + 1)) < 1e-14
    assert error(degree + 1) > 1e-10


def test_smooth_section_settles_in_one_panel(monkeypatch):
    # a settled segment is one K15 panel: 15 section evaluations per W value
    calls = _count_sections(monkeypatch)
    W = characteristic_function(_oscillator_solution(), [1.3], [-0.2])
    W.value([0.45])
    assert len(calls) == 15


def test_kinked_section_bisects_to_its_closed_form(monkeypatch):
    # p = |q - 1/4| on the segment -1/2 -> 1/2 kinks at t = 3/4: the whole
    # segment and [1/2, 1] fail the K15-G7 test, [0, 1/2], [1/2, 3/4] and
    # [3/4, 1] are linear and settle, and no node is evaluated twice
    calls = _count_sections(monkeypatch)
    W = characteristic_function(_section_graph(lambda q: abs(q - 0.25)), [0.5], [-0.5])
    value = W.value([0.5])
    assert value == pytest.approx((0.75**2 + 0.25**2) / 2.0, abs=1e-10)
    assert len(calls) == 5 * 15
    assert len({float(q[0]) for q in calls}) == len(calls)


def test_jump_in_the_section_raises_quadrature_error():
    W = characteristic_function(_section_graph(lambda q: float(q > 0.2)), [0.5], [-0.8])
    with pytest.raises(
        QuadratureError,
        match=r"did not settle on \[0\.\d+, 0\.\d+\]: K15 and G7 differ by \d",
    ):
        W.value([0.9])


def test_failing_section_names_the_constancy_probe():
    # S fails on q > 0.8; verify.py's checks name their probe the same way
    def evaluator(n, lam):
        if n[0] > 0.8:
            raise NewtonError("S head Newton: iteration stalled", 1e-3, 6)
        return np.array([n[0], lam[0]])

    solution = CompleteSolution.from_callables(
        evaluator, lambda n, lam: np.eye(2), 1, [[-1.0, 1.0]], [[0.5, 1.5]]
    )
    W = characteristic_function(solution, [1.2], [0.0])
    qs = 0.0 + np.random.default_rng(4).uniform(-1.0, 1.0, size=(10, 1)) * 0.9
    first = int(np.flatnonzero(qs[:, 0] > 0.8)[0])
    with pytest.raises(NewtonError) as info:
        verify_characteristic(W, ScalarField.parse("p1^2/2", 1), probes=10, seed=4)
    assert str(info.value) == (
        f"characteristic_constancy probe {first + 1} of 10 at "
        f"q={qs[first].tolist()}, lambda=[1.2]: S head Newton: iteration "
        "stalled (residual 1.000e-03 after 6 iterations)"
    )
    assert info.value.iterations == 6  # re-raised as itself


def test_characteristic_requires_position_projection():
    # k = 1 < s = 2 leaves q2 unaccounted for
    partial = CompleteSolution.from_callables(
        lambda n, lam: np.zeros(4),
        lambda n, lam: np.eye(4),
        2,
        [[-1.0, 1.0]],
        [[-1.0, 1.0]] * 3,
    )
    with pytest.raises(ValueError, match="position projection"):
        characteristic_function(partial, [0.0, 0.0, 0.0], [0.0])


def test_characteristic_respects_domain_boxes():
    solution = _oscillator_solution()
    with pytest.raises(ValueError):
        characteristic_function(solution, [5.0], [0.0])  # lam outside
    W = characteristic_function(solution, [1.3], [0.0])
    with pytest.raises(DomainBoxError):
        W.value([0.9])  # q outside the position box


def test_constructed_section_is_a_gradient(harmonic_s2):
    """Path independence: integrating the section along two different
    edge paths of a rectangle gives the same value as the straight
    segment the characteristic function uses."""
    _, _, _, _, solution = harmonic_s2
    lam = solution.lambda_box.mean(axis=1)
    lo = solution.n_box[:, 0]
    hi = solution.n_box[:, 1]
    q0 = lo + 0.3 * (hi - lo)
    q1 = lo + 0.8 * (hi - lo)
    W = characteristic_function(solution, lam, q0)

    def edge(a, b):
        d = b - a
        val, err = quad(
            lambda t: float(W.section(a + t * d) @ d), 0.0, 1.0, epsabs=1e-11
        )
        return val

    corner = np.array([q1[0], q0[1]])
    around = edge(q0, corner) + edge(corner, q1)
    assert W.value(q1) == pytest.approx(around, abs=1e-8)


# ---------------------------------------------------------------------------
# simple Hamiltonians


def test_simple_hamiltonian_assembles():
    H = simple_hamiltonian([["1", "0"], ["0", "1"]], "(q1^2 + q2^2)/2", 2)
    x = np.array([0.3, -0.4, 1.1, 0.2])
    expected = (1.1**2 + 0.2**2) / 2.0 + (0.3**2 + 0.4**2) / 2.0
    assert H.value(x) == pytest.approx(expected, rel=1e-14)


def test_cometric_shape_is_checked():
    with pytest.raises(ValueError, match="matrix"):
        simple_hamiltonian([["1", "0"]], "0", 2)


def test_cometric_symmetry_is_syntactic():
    # q1 and q1 + 0 are equal pointwise but not as syntax trees
    with pytest.raises(ValueError, match="symmetric"):
        simple_hamiltonian([["1", "q1"], ["q1 + 0", "1"]], "0", 2)
    simple_hamiltonian([["1", "q1"], ["q1", "1"]], "0", 2)  # fine


def test_momenta_are_rejected():
    with pytest.raises(ValueError, match="positions only"):
        simple_hamiltonian([["p1"]], "0", 1)
    with pytest.raises(ValueError, match="positions only"):
        simple_hamiltonian([["1"]], "q1 + p1^2", 1)


def _loop_integral(section, rectangle):
    """The integral of p.dq counter-clockwise around a rectangle in q,
    (rows [lo, hi] of q1 and q2), each side by _adaptive_segment over
    values of the section alone."""
    (a, b), (c, d) = rectangle
    corners = np.array([(a, c), (b, c), (b, d), (a, d), (a, c)])
    total = 0.0
    for start, dq in zip(corners[:-1], np.diff(corners, axis=0)):
        total += standard._adaptive_segment(
            lambda t: float(section(start + t * dq) @ dq), 0.0, 1.0, standard._MAX_BISECTIONS
        )
    return total


@pytest.mark.parametrize("name", ["harmonic_s2", "anisotropic_s2", "free_particle_s2"])
def test_leaves_are_lagrangian_by_stokes(name, request):
    # a black-box check of isotropy from S's values: by Stokes the loop
    # integral of p.dq on a leaf F = lam is the integral of S*omega over
    # the enclosed rectangle, zero iff the leaf is Lagrangian; adding
    # eps q1 to p2 reads eps x area
    if name == "harmonic_s2":  # the session fixture builds this scenario
        solution = request.getfixturevalue(name)[-1]
    else:
        cfg = scenarios.parse_config({"scenario": name})
        Pi, m = cfg.fibration(), np.array(cfg.base_point)
        F = build_first_integrals(cfg.hamiltonian(), Pi, m, probes=6, seed=0)
        solution = solution_from_integrals(Pi, F, m, seed=0)
    mid = solution.n_box.mean(axis=1)
    half = 0.9 * (solution.n_box[:, 1] - solution.n_box[:, 0]) / 2.0
    rectangle = np.column_stack([mid - half, mid + half])
    area, eps = float(np.prod(2.0 * half)), 1e-3
    for lam in (np.zeros(2), 0.8 * solution.lambda_box[:, 1]):
        def section(q, lam=lam):
            return solution(q, lam)[2:]

        assert abs(_loop_integral(section, rectangle)) <= 1e-9
        bent = _loop_integral(lambda q: section(q) + [0.0, eps * q[0]], rectangle)
        assert abs(bent - eps * area) <= 0.1 * eps * area
