"""Residual reports, submersion geometry, and integrability labels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjcomplete import construct, symplectic, verify
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
from hjcomplete.newton import NewtonError
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


@pytest.fixture(scope="module")
def nonflat_s2():
    """nonflat_cometric_s2 at 10 probes: k = 1 and l = 3 > s, so the kernel
    is a line, always isotropic, and Frobenius is the check left to fail."""
    cfg = parse_config({"scenario": "nonflat_cometric_s2", "probes": 10})
    m, Pi = np.array(cfg.base_point), cfg.fibration()
    F = build_first_integrals(
        cfg.hamiltonian(), Pi, m, cfg.tolerances, cfg.integrator_settings(),
        cfg.domain_radius, probes=cfg.probes, seed=cfg.seed,
    )
    assert (F.k, F.l) == (1, 3)
    return F, Pi


def test_stencil_makes_2k_forward_passes_per_probe(harmonic_s2, nonflat_s2, monkeypatch):
    # once dF is built (one memoized solve and forward pass per probe), the
    # Frobenius stencil differences the bracket matrix along the k heads
    # only: 2k forward passes per probe, not 2n = 8
    counts = {}
    _count_calls(monkeypatch, ChartTower, "forward_and_jacobian", counts)
    cases = [(harmonic_s2[3], harmonic_s2[1], 4), (nonflat_s2[0], nonflat_s2[1], 2)]
    for F, Pi, per_probe in cases:
        assert per_probe == 2 * F.k
        pts = F.sample_points(5, seed=97)
        for x in pts:
            F.integrals.jacobian(x)
        counts.clear()
        assert submersion_checks(F, pts, fibration=Pi).passed
        assert counts == {"forward_and_jacobian": per_probe * len(pts)}


@dataclasses.dataclass(frozen=True)
class _Shear:
    """The chart y -> y + eps y_a y_b e_c (c not in {a, b}), inverse in
    closed form."""

    a: int
    b: int
    c: int
    domain_radius: float
    eps: float = 1.0

    def forward(self, y):
        z = np.array(y, dtype=float)
        z[self.c] += self.eps * z[self.a] * z[self.b]
        return z

    def forward_and_jacobian(self, y):
        D = np.eye(len(y))
        D[self.c, self.a] += self.eps * y[self.b]
        D[self.c, self.b] += self.eps * y[self.a]
        return self.forward(y), D

    def inverse(self, x, y0=None):
        y = np.array(x, dtype=float)
        y[self.c] -= self.eps * y[self.a] * y[self.b]
        return y


def _sheared(F, a, b, c, eps=1.0):
    """F rebuilt on its tower with _Shear(a, b, c, eps) appended."""
    tower = F.state.tower
    radius = min(chart.domain_radius for chart in tower.charts)
    sheared_tower = dataclasses.replace(
        tower, charts=tower.charts + (_Shear(a, b, c, radius, eps),)
    )
    index = TowerIndex(sheared_tower)
    integrals = MapField(_integral_components(index, F.k, 2), 2)
    state = dataclasses.replace(F.state, tower=sheared_tower)
    return dataclasses.replace(F, integrals=integrals, state=state, index=index)


def test_tower_frobenius_control_fails_on_a_sheared_chart(nonflat_s2):
    # A constructed F is integrable by construction, so the chart-side
    # stencil needs a tower that is not.  With l = 3 > s the kernel is a
    # line, always isotropic, so Frobenius must fail alone.  Appending
    # y -> y + y0 y1 e2 turns F_2 into y2 - y0 y1, which mixes in the head;
    # y -> y + y2 y3 e1 only relabels the level sets of F and must pass.
    F, Pi = nonflat_s2

    def sheared(a, b, c):
        return submersion_checks(_sheared(F, a, b, c), F.points, fibration=Pi)

    bad = sheared(0, 1, 2)
    assert bad.rank.passed and bad.kernel_gram.passed
    assert not bad.frobenius.passed
    assert bad.frobenius.max_residual > 0.1

    relabelled = sheared(2, 3, 1)
    assert relabelled.passed
    assert relabelled.frobenius.max_residual < 1e-8


def _chart_stencil_defect(F, points):
    """The Frobenius bracket defect of a constructed F as the checks took
    it before the head stencil, as (worst gap, worst gap / max(1, |bracket|)).

    DX_i = DG_i(y) DPsi(y)^-1 with G_i(y) = J (DPsi(y)^-1)[k + i], G
    differenced over all 2s chart coordinates (4s forward passes per
    probe); each full bracket [X_i, X_j] is held against the frame
    X_i = J dF_i by lstsq, its residual the gap."""
    tower, k, n = F.state.tower, F.k, 2 * F.dimension_s

    def stacked(y):
        rows = np.linalg.inv(tower.forward_and_jacobian(y)[1])[k:]
        return np.concatenate([symplectic.apply_structure(r) for r in rows])

    worst_gap, worst = 0.0, 0.0
    for x in points:
        entry = F.index.solve(x, need_jacobian=True)
        DG = fd_jacobian(stacked, entry.coords, TOL.fd_step)
        DX = [d @ entry.jac_inv for d in DG.reshape(-1, n, n)]
        vals = symplectic.apply_structure(F.integrals.jacobian(x).T)
        for i in range(F.l):
            for j in range(i + 1, F.l):
                bracket = DX[j] @ vals[:, i] - DX[i] @ vals[:, j]
                coeff, *_ = np.linalg.lstsq(vals, bracket, rcond=None)
                gap = np.linalg.norm(vals @ coeff - bracket)
                worst_gap = max(worst_gap, gap)
                worst = max(worst, gap / max(1.0, np.linalg.norm(bracket)))
    return worst_gap, worst


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
def test_head_stencil_matches_the_chart_stencil_on_a_scaled_shear(nonflat_s2, eps):
    # y -> y + eps y0 y1 e2 breaks integrability by O(eps).  The head
    # stencil drops only frame columns, so its gap is the full bracket's;
    # its scale max(1, |head term|) is 1 here, where the full bracket's
    # frame part can exceed 1, so the check reads the gap at least as
    # strictly as the chart stencil did
    F, Pi = nonflat_s2
    G = _sheared(F, 0, 1, 2, eps)
    head = submersion_checks(G, F.points, fibration=Pi).frobenius.max_residual
    gap, defect = _chart_stencil_defect(G, F.points)
    assert defect > 0.1 * eps
    assert abs(head - gap) <= 0.1 * gap
    assert head >= 0.9 * defect


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


# ---------------------------------------------------------------------------
# the stacked probe checks against the per-probe loop they replaced


def _oracle_rank(sv, rank_tol):
    return int(np.sum(sv > rank_tol * sv[0])) if sv.size and sv[0] > 0.0 else 0


def _oracle_kernel(A, rank_tol):
    _, sv, vh = np.linalg.svd(A)
    return vh[_oracle_rank(sv, rank_tol):].T.copy()


def _oracle_rank_of(A, rank_tol):
    return _oracle_rank(np.linalg.svd(A, compute_uv=False), rank_tol)


def _per_probe_oracle(H, F, points, tol=TOL):
    """One probe at a time, as the checks ran before they were stacked:
    per-probe SVDs, lstsq for each bracket, and the Lagrangian label from
    two containment ranks."""
    n = 2 * F.dimension_s
    l = F.target_dim
    J = symplectic.structure_matrix(F.dimension_s)
    xh = hamiltonian_vf(H, tol)
    drift, rank, gram, frob, lagrangian = [], [], [], [], True
    for x in points:
        dF = F.jacobian(x)
        drift.append(float(np.max(np.abs(dF @ xh(x)))))
        rank.append(float(l - _oracle_rank_of(dF, tol.rank)))
        K = _oracle_kernel(dF, tol.rank)
        gram.append(float(np.max(np.abs(K.T @ J @ K), initial=0.0)))
        vals = J @ dF.T
        W = _oracle_kernel((J @ K).T, tol.rank) if K.shape[1] else np.eye(n)
        worst = np.max(np.abs(vals - W @ (W.T @ vals))) / max(1.0, np.max(np.abs(vals)))
        jacs = [J @ c.hessian(x) for c in F.components]
        for i in range(l):
            for j in range(i + 1, l):
                bracket = jacs[j] @ vals[:, i] - jacs[i] @ vals[:, j]
                coeff, *_ = np.linalg.lstsq(vals, bracket, rcond=None)
                gap = np.linalg.norm(vals @ coeff - bracket)
                worst = max(worst, gap / max(1.0, np.linalg.norm(bracket)))
        frob.append(float(worst))
        iso = _oracle_rank_of(np.hstack([W, K]), tol.rank) == W.shape[1]
        coiso = _oracle_rank_of(np.hstack([K, W]), tol.rank) == K.shape[1]
        lagrangian = lagrangian and iso and coiso
    return {
        "first_integral_residual": drift,
        "submersion_rank": rank,
        "kernel_gram": gram,
        "frobenius_span": frob,
    }, lagrangian


def _stacked(H, F, points, monkeypatch):
    """integrability_report with the per-probe residual arrays it collects."""
    seen = {}
    collect = verify._collect

    def recording(name, residuals, *args):
        seen[name] = np.asarray(residuals, dtype=float)
        return collect(name, residuals, *args)

    monkeypatch.setattr(verify, "_collect", recording)
    return integrability_report(H, F, points), seen


def _assert_matches_oracle(H, F, points, monkeypatch):
    report, seen = _stacked(H, F, points, monkeypatch)
    want, lagrangian = _per_probe_oracle(H, F, points)
    for name, values in want.items():
        assert seen[name].shape == (len(points),), name
        assert np.all(np.abs(seen[name] - values) <= 1e-15), name
    assert report.kernel_lagrangian == lagrangian
    sub = report.submersion
    assert report.non_commutative == (
        len(points) > 0
        and max(want["submersion_rank"]) <= 0.0
        and max(want["kernel_gram"]) <= TOL.residual
        and max(want["frobenius_span"]) <= TOL.frobenius
    ) == sub.passed
    assert report.commutative == (
        sub.passed and F.target_dim == F.dimension_s and lagrangian
    )
    return report


_MONOMIAL = st.tuples(
    st.sampled_from([-2, -1, 1, 2]),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
_POLYNOMIAL = st.lists(_MONOMIAL, min_size=1, max_size=3)


def _polynomial(terms, s):
    names = [f"q{i + 1}" for i in range(s)] + [f"p{i + 1}" for i in range(s)]
    parts = []
    for coefficient, powers in terms:
        factors = [f"{v}^{e}" for v, e in zip(names, powers[: 2 * s]) if e]
        parts.append(" * ".join([str(coefficient)] + factors))
    return " + ".join(parts)


@settings(max_examples=25, derandomize=True)
@given(
    s=st.integers(1, 2),
    components=st.lists(_POLYNOMIAL, min_size=1, max_size=3),
    probes=st.sampled_from([0, 1, 6]),
    seed=st.integers(0, 2**16),
)
def test_stacked_checks_match_the_per_probe_loop(s, components, probes, seed):
    # drawn polynomial maps; every other probe sits on q1 = 0 exactly, so
    # maps with a q1 factor mix kernel dimensions within one probe set
    components = components[: 2 * s]
    F = MapField.from_sources(tuple(_polynomial(c, s) for c in components), s)
    H = HARMONIC_S1 if s == 1 else ScalarField.parse("(q1^2 + p1^2 + p2^2)/2", 2)
    points = sample_cube(np.full(2 * s, 0.3), 0.5, probes, seed)
    points[::2, 0] = 0.0
    with pytest.MonkeyPatch.context() as monkeypatch:
        report = _assert_matches_oracle(H, F, points, monkeypatch)
    assert report.first_integrals.probe_count == probes


def test_stacked_checks_group_probes_by_kernel_dimension(monkeypatch):
    # dF = (2 q1, 0) has rank 0 at q1 = 0 and rank 1 elsewhere; both
    # groups in one stack give what each probe gives on its own
    F = MapField.from_sources(("q1^2",), 1)
    H = ScalarField.parse("p1^2/2", 1)
    points = sample_cube([0.0, 0.5], 0.3, 8, seed=41)
    points[[1, 4, 5], 0] = 0.0
    report = _assert_matches_oracle(H, F, points, monkeypatch)
    assert report.submersion.rank.max_residual == 1.0
    assert len(report.submersion.rank.failures) == 3
    assert not report.non_commutative
    for x in points:
        alone = submersion_checks(F, x[None])
        assert alone.rank.max_residual == (1.0 if x[0] == 0.0 else 0.0)


def test_frobenius_defect_cuts_the_frame_as_lstsq_does(monkeypatch):
    # at q1 = p2 = 0 the frame X_i = J dF_i is (e_q1, e_q1) exactly, and
    # the bracket X_{-p2} = -e_q2 lies outside it: the defect is 1, as
    # lstsq gives it, and a singular vector kept past the cut would lower it
    F = MapField.from_sources(("p1", "p1 + q1*p2"), 2)
    points = sample_cube([0.0, 0.2, 0.5, 0.0], 0.1, 4, seed=43)
    points[:2, [0, 3]] = 0.0
    _assert_matches_oracle(FREE_S2, F, points, monkeypatch)
    _, seen = _stacked(FREE_S2, F, points, monkeypatch)
    assert seen["frobenius_span"][:2].tolist() == [1.0, 1.0]
    # tilted by 1e-12 along e_q2 the frame has rank 2 under lstsq's cut
    # eps max(2s, l) sv_0, so the bracket lies in its span; lstsq's own
    # residual there is 1.2e-4 of cancellation in vals @ coeff
    tilted = MapField.from_sources(("p1", "p1 + 0.000000000001*p2 + q1*p2"), 2)
    _, seen = _stacked(FREE_S2, tilted, points, monkeypatch)
    assert np.all(seen["frobenius_span"][:2] < 1e-11)


def test_stacked_checks_on_one_and_no_probes(monkeypatch):
    F = MapField.from_sources(("p1", "q1*p2"), 2)
    H = FREE_S2
    one = sample_cube([0.3, 0.0, 0.5, 0.8], 0.1, 1)
    report = _assert_matches_oracle(H, F, one, monkeypatch)
    assert report.submersion.frobenius.probe_count == 1
    none = _assert_matches_oracle(H, F, np.zeros((0, 4)), monkeypatch)
    sub = none.submersion
    for r in (none.first_integrals, sub.rank, sub.kernel_gram, sub.frobenius):
        assert r.probe_count == 0 and not r.passed
    assert not none.non_commutative and not none.commutative


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("probes", [10, 100])
def test_integrability_report_work_does_not_grow_per_probe(probes, monkeypatch):
    # one dF per probe, and a fixed number of stacked SVDs and no lstsq
    # whatever the probe count
    iso = "(q1^2 + q2^2 + p1^2 + p2^2)/2"
    H = ScalarField.parse(iso, 2)
    F = MapField.from_sources((iso, "q1*p2 - q2*p1"), 2)
    points = sample_cube([0.3, 0.1, 1.0, 0.7], 0.2, probes, seed=11)
    counts = {}
    _count_calls(monkeypatch, MapField, "jacobian", counts)
    for name in ("svd", "lstsq"):
        _count_calls(monkeypatch, np.linalg, name, counts)
    assert integrability_report(H, F, points).commutative
    assert counts.pop("jacobian") == probes
    assert counts == {"svd": 4}


class _FailingSolution:
    """A CompleteSolution stand-in whose S solve fails at one probe."""

    k, l = 1, 1

    def __init__(self, bad):
        self.bad = bad

    def sample_domain(self, count, seed=0, margin=1.0):
        grid = np.linspace(-0.5, 0.5, count)[:, None]
        return grid, 1.0 + grid

    def _solve(self, n, lam):
        if n[0] == self.bad:
            raise NewtonError("S head Newton: iteration stalled", 4.407e-3, 6)
        return np.array([n[0], lam[0]]), np.eye(2)

    def __call__(self, n, lam):
        return self._solve(n, lam)[0]

    def jacobian(self, n, lam):
        return self._solve(n, lam)[1]


@pytest.mark.parametrize("check", ["hje_residual", "isotropy_residual"])
def test_a_failing_solve_names_the_check_and_the_probe(check):
    solution = _FailingSolution(bad=0.0)
    Pi = MapField.from_sources(("q1",), 1)
    args = (FREE_S1, Pi) if check == "hje_residual" else ()
    with pytest.raises(NewtonError) as info:
        getattr(verify, check)(solution, *args, probes=5)
    assert str(info.value) == (
        f"{check} probe 3 of 5 at n=[0.0], lambda=[1.0]: S head Newton: "
        "iteration stalled (residual 4.407e-03 after 6 iterations)"
    )
    assert (info.value.residual_norm, info.value.iterations) == (4.407e-3, 6)


def test_a_failing_head_solve_names_its_solver(harmonic_s2, monkeypatch):
    # no Newton step allowed: the first S solve at a fresh probe must fail,
    # and the error carries the check, the probe and the solve
    H, Pi, _, _, solution = harmonic_s2
    newton = construct.newton_solve

    def no_steps(*args, **kwargs):
        return newton(*args, **{**kwargs, "max_iter": 0})

    monkeypatch.setattr(construct, "newton_solve", no_steps)
    with pytest.raises(
        NewtonError,
        match=r"^hje_residual probe 1 of 3 at n=\[.*\], lambda=\[.*\]: S head "
        r"Newton: maximum iterations exceeded \(residual .* after 0 iterations\)$",
    ) as info:
        hje_residual(solution, H, Pi, probes=3, seed=2**20)
    assert info.value.iterations == 0 and info.value.residual_norm > 0.0
