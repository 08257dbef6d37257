"""Residual reports, submersion geometry, and integrability labels."""

import dataclasses

import numpy as np
import pytest

from hjcomplete import symplectic, verify
from hjcomplete.config import Tolerances
from hjcomplete.construct import (
    ChartTower,
    CompleteSolution,
    TowerIndex,
    _integral_components,
    build_first_integrals,
)
from hjcomplete.scenarios import parse_config
from hjcomplete.expr import MapField, ScalarField
from hjcomplete.symplectic import fd_jacobian, hamiltonian_vf
from hjcomplete.verify import (
    first_integral_residual,
    hje_residual,
    integrability_report,
    isotropy_residual,
    sample_cube,
    submersion_checks,
)

TOL = Tolerances()

FREE_S1 = ScalarField.parse("p1^2/2", 1)
FREE_S2 = ScalarField.parse("(p1^2 + p2^2)/2", 2)
HARMONIC_S1 = ScalarField.parse("(q1^2 + p1^2)/2", 1)


def _free_solution(perturbation=0.0):
    """Sigma(n, lam) = (n, 1 + lam [+ eps sin n]): exact for eps = 0."""

    def evaluator(n, lam):
        return np.array([n[0], 1.0 + lam[0] + perturbation * np.sin(n[0])])

    def jacobian(n, lam):
        return np.array([[1.0, 0.0], [perturbation * np.cos(n[0]), 1.0]])

    return CompleteSolution.from_callables(
        evaluator, jacobian, 1, [[-0.5, 0.5]], [[-0.3, 0.3]]
    )


def test_exact_solution_has_zero_residual():
    Pi = MapField.from_sources(("q1",), 1)
    report = hje_residual(_free_solution(), FREE_S1, Pi, probes=40, seed=0)
    assert report.passed
    assert report.max_residual < 1e-12
    assert report.probe_count == 40
    assert report.failures == ()


def test_perturbed_solution_fails():
    Pi = MapField.from_sources(("q1",), 1)
    report = hje_residual(_free_solution(0.1), FREE_S1, Pi, probes=40, seed=0)
    assert not report.passed
    assert report.max_residual > 1e-3
    assert 0 < len(report.failures) <= 5
    point, value = report.failures[0]
    assert len(point) == 2 and value > TOL.residual
    assert "FAIL" in str(report)


def test_isotropy_detects_crossing_directions():
    # second leaf direction picks up a symplectic partner of the first
    def evaluator(n, lam):
        return np.array([n[0], n[1], n[1] + lam[0], lam[1]])

    def jacobian(n, lam):
        D = np.eye(4)
        D[2, 1] = 1.0
        return D

    bad = CompleteSolution.from_callables(
        evaluator, jacobian, 2, [[-0.5, 0.5]] * 2, [[-0.5, 0.5]] * 2
    )
    report = isotropy_residual(bad, probes=10, seed=0)
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0, abs=1e-12)


def test_single_leaf_direction_is_trivially_isotropic():
    report = isotropy_residual(_free_solution(0.3), probes=10, seed=0)
    assert report.passed
    assert report.max_residual == 0.0


def test_momentum_is_conserved_position_is_not():
    pts = sample_cube([0.0, 1.0], 0.3, 25, seed=2)
    good = first_integral_residual(
        MapField.from_sources(("p1",), 1), FREE_S1, pts
    )
    assert good.passed and good.max_residual < 1e-14
    bad = first_integral_residual(
        MapField.from_sources(("q1",), 1), FREE_S1, pts
    )
    assert not bad.passed
    # the drift of q1 along the free flow is exactly |p1|
    assert bad.max_residual == pytest.approx(
        float(np.max(np.abs(pts[:, 1]))), abs=1e-12
    )


def test_submersion_checks_flag_symplectic_kernel():
    # Ker d(q1, p1) = span(dq2, dp2) pairs to 1; the frame itself
    # consists of commuting constant fields, so only the gram fails
    F = MapField.from_sources(("q1", "p1"), 2)
    pts = sample_cube([0.1, -0.2, 1.0, 0.6], 0.3, 10, seed=3)
    report = submersion_checks(F, pts)
    assert report.rank.passed
    assert not report.kernel_gram.passed
    assert report.kernel_gram.max_residual == pytest.approx(1.0, abs=1e-9)
    assert report.frobenius.passed
    assert not report.passed


def test_submersion_checks_flag_rank_drop():
    F = MapField.from_sources(("q1", "q1^2"), 1)
    pts = sample_cube([0.5, 1.0], 0.2, 10, seed=4)
    report = submersion_checks(F, pts)
    assert not report.rank.passed


def test_submersion_checks_flag_non_integrable_complement():
    # [X_{p1}, X_{q1 p2}] = d/dq1 field = (0,1,0,0), outside the span
    F = MapField.from_sources(("p1", "q1*p2"), 2)
    pts = sample_cube([0.3, 0.0, 0.5, 0.8], 0.1, 10, seed=5)
    report = submersion_checks(F, pts)
    assert not report.frobenius.passed
    assert report.frobenius.max_residual > 0.1


def test_submersion_checks_accept_full_rank_map():
    # l = 2s leaves a trivial kernel: isotropy holds vacuously
    F = MapField.from_sources(("q1", "p1"), 1)
    pts = sample_cube([0.2, 1.0], 0.2, 10, seed=6)
    report = submersion_checks(F, pts)
    assert report.kernel_gram.max_residual == 0.0
    assert report.passed


def test_single_integral_skips_bracket_jacobians(free_s1, monkeypatch):
    # with l = 1 there is no bracket pair, so no field Jacobian is needed
    _, Pi, _, F, _ = free_s1
    calls = []
    fd = verify.fd_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return fd(*args, **kwargs)

    monkeypatch.setattr(verify, "fd_jacobian", counted)
    assert submersion_checks(F, F.sample_points(5, seed=3), fibration=Pi).passed
    assert calls == []


def test_stacked_rank_uses_the_fibration():
    # F alone is a fine submersion but never transverse to itself
    F = MapField.from_sources(("p1",), 1)
    pts = sample_cube([0.0, 1.0], 0.2, 10, seed=7)
    alone = submersion_checks(F, pts)
    assert alone.rank.passed
    stacked = submersion_checks(F, pts, fibration=MapField.from_sources(("p1",), 1))
    assert not stacked.rank.passed


def test_classification_commutative():
    F = MapField.from_sources(("(q1^2 + p1^2)/2",), 1)
    pts = sample_cube([0.0, 1.0], 0.25, 15, seed=8)
    report = integrability_report(HARMONIC_S1, F, pts)
    assert report.first_integrals.passed
    assert report.kernel_lagrangian
    assert report.non_commutative
    assert report.commutative


def test_classification_non_commutative_only():
    # l = 3 > s rules out the commutative label even though the geometry
    # passes; conservation is reported on the side and fails here
    F = MapField.from_sources(("p1", "p2", "q2"), 2)
    pts = sample_cube([0.1, -0.2, 1.0, 0.6], 0.2, 15, seed=9)
    report = integrability_report(FREE_S2, F, pts)
    assert report.non_commutative
    assert not report.commutative
    assert not report.kernel_lagrangian
    assert report.l == 3
    assert not report.first_integrals.passed


def test_classification_rejects_symplectic_kernel():
    F = MapField.from_sources(("q1", "p1"), 2)
    pts = sample_cube([0.1, -0.2, 1.0, 0.6], 0.2, 10, seed=10)
    report = integrability_report(FREE_S2, F, pts)
    assert not report.non_commutative
    assert not report.commutative


def test_reports_are_deterministic():
    Pi = MapField.from_sources(("q1",), 1)
    a = hje_residual(_free_solution(0.05), FREE_S1, Pi, probes=20, seed=13)
    b = hje_residual(_free_solution(0.05), FREE_S1, Pi, probes=20, seed=13)
    assert a.max_residual == b.max_residual
    assert a.failures == b.failures


def test_constructed_pipeline_passes_all_checks(harmonic_s2):
    H, Pi, m, F, solution = harmonic_s2
    assert hje_residual(solution, H, Pi, probes=25, seed=1).passed
    assert isotropy_residual(solution, probes=25, seed=1).passed
    pts = F.sample_points(20, seed=1)
    sub = submersion_checks(F, pts, fibration=Pi)
    assert sub.passed
    report = integrability_report(H, F, pts)
    assert report.first_integrals.passed
    assert report.commutative


def test_chart_stencil_matches_phase_space_fd(harmonic_s2):
    # DX_i = DG_i(y) DPsi(y)^-1 from the chart side against a central
    # difference of X_i = J dF_i in phase space, which solves the tower
    # at every stencil point
    _, _, _, F, _ = harmonic_s2
    jacobians = verify._field_jacobians(F, TOL)
    for x in F.sample_points(3, seed=83):
        for comp, DX in zip(F.integrals.components, jacobians(x)):
            fd = fd_jacobian(hamiltonian_vf(comp, TOL), x, TOL.fd_step)
            assert np.max(np.abs(DX - fd)) / max(1.0, np.max(np.abs(DX))) < 1e-5


def test_submersion_checks_solve_the_tower_once_per_probe(harmonic_s2, monkeypatch):
    # the Frobenius stencil runs forward passes only; the one solve per
    # probe is the memoized inversion behind dF
    _, Pi, _, F, _ = harmonic_s2
    calls = []
    solve_stack = ChartTower.solve_stack

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve_stack(self, *args, **kwargs)

    monkeypatch.setattr(ChartTower, "solve_stack", counted)
    pts = F.sample_points(4, seed=89)
    assert submersion_checks(F, pts, fibration=Pi).passed
    assert 0 < len(calls) <= len(pts)


@dataclasses.dataclass(frozen=True)
class _Shear:
    """The chart y -> y + y_a y_b e_c (c not in {a, b}), inverse in closed form."""

    a: int
    b: int
    c: int
    domain_radius: float

    def forward(self, y):
        z = np.array(y, dtype=float)
        z[self.c] += z[self.a] * z[self.b]
        return z

    def forward_and_jacobian(self, y):
        D = np.eye(len(y))
        D[self.c, self.a] += y[self.b]
        D[self.c, self.b] += y[self.a]
        return self.forward(y), D

    def inverse(self, x, y0=None):
        y = np.array(x, dtype=float)
        y[self.c] -= y[self.a] * y[self.b]
        return y


def test_tower_frobenius_control_fails_on_a_sheared_chart():
    # A constructed F is integrable by construction, so the chart-side
    # stencil needs a tower that is not.  With l = 3 > s the kernel is a
    # line, always isotropic, so Frobenius must fail alone.  Appending
    # y -> y + y0 y1 e2 turns F_2 into y2 - y0 y1, which mixes in the head;
    # y -> y + y2 y3 e1 only relabels the level sets of F and must pass.
    cfg = parse_config({"scenario": "nonflat_cometric_s2", "probes": 10})
    m, Pi = np.array(cfg.base_point), cfg.fibration()
    F = build_first_integrals(
        cfg.hamiltonian(), Pi, m, cfg.tolerances, cfg.integrator_settings(),
        cfg.domain_radius, probes=cfg.probes, seed=cfg.seed,
    )
    assert (F.k, F.l) == (1, 3)
    tower = F.state.tower
    radius = min(c.domain_radius for c in tower.charts)

    def sheared(a, b, c):
        sheared_tower = dataclasses.replace(
            tower, charts=tower.charts + (_Shear(a, b, c, radius),)
        )
        index = TowerIndex(sheared_tower)
        integrals = MapField(_integral_components(index, F.k, 2), 2)
        state = dataclasses.replace(F.state, tower=sheared_tower)
        G = dataclasses.replace(F, integrals=integrals, state=state, index=index)
        return submersion_checks(G, F.points, fibration=Pi)

    bad = sheared(0, 1, 2)
    assert bad.rank.passed and bad.kernel_gram.passed
    assert not bad.frobenius.passed
    assert bad.frobenius.max_residual > 0.1

    relabelled = sheared(2, 3, 1)
    assert relabelled.passed
    assert relabelled.frobenius.max_residual < 1e-8


def test_parsed_pairs_make_no_finite_differences(monkeypatch):
    # parsed components get DX_i = J Hess F_i, so no central difference
    # runs, and the non-integrable control still fails
    calls = []
    fd = symplectic.fd_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return fd(*args, **kwargs)

    for module in (verify, symplectic):
        monkeypatch.setattr(module, "fd_jacobian", counted)
    bad = MapField.from_sources(("p1", "q1*p2"), 2)
    pts = sample_cube([0.3, 0.0, 0.5, 0.8], 0.1, 10, seed=5)
    report = submersion_checks(bad, pts)
    assert not report.frobenius.passed
    assert report.frobenius.max_residual > 0.1

    iso = "(q1^2 + q2^2 + p1^2 + p2^2)/2"
    H = ScalarField.parse(iso, 2)
    F = MapField.from_sources((iso, "q1*p2 - q2*p1"), 2)
    pts = sample_cube([0.3, 0.1, 1.0, 0.7], 0.2, 10, seed=11)
    assert submersion_checks(F, pts).passed
    assert integrability_report(H, F, pts).commutative
    assert calls == []
