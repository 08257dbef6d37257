"""Acceptance gate: the ten shipping criteria.

Each test prints one verdict line (run with -s to see them all):

    criterion N: PASS - <measurement>

The six registry scenarios are constructed once at module scope with
their explicit fibrations and shared across criteria; criterion 8 runs
the command-line pipeline separately with fibration "auto".
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from hjcomplete.cli import main
from hjcomplete.config import Tolerances
from hjcomplete.construct import (
    CompleteSolution,
    build_fibration,
    build_first_integrals,
    solution_from_integrals,
)
from hjcomplete.expr import MapField, ScalarField
from hjcomplete.scenarios import REGISTRY, parse_config
from hjcomplete.standard import characteristic_function, verify_characteristic
from hjcomplete.symplectic import (
    Subspace,
    VectorField,
    classify,
    hamiltonian_vf,
    lie_bracket,
    nullspace,
    numerical_rank,
    poisson_field,
    symp_orth,
)
from hjcomplete.verify import (
    first_integral_residual,
    hje_residual,
    integrability_report,
    isotropy_residual,
    sample_cube,
    submersion_checks,
)

TOL = Tolerances()


def _verdict(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def built():
    """All registry scenarios, constructed with their explicit fibrations."""
    out = {}
    for name in REGISTRY:
        cfg = parse_config({"scenario": name})
        H = cfg.hamiltonian()
        Pi = cfg.fibration()
        m = np.array(cfg.base_point)
        F = build_first_integrals(H, Pi, m, cfg.tolerances, probes=50, seed=0)
        solution = solution_from_integrals(Pi, F, m, cfg.tolerances, seed=0)
        out[name] = SimpleNamespace(
            cfg=cfg, H=H, Pi=Pi, m=m, F=F, solution=solution
        )
    return out


def test_criterion_01_duality_round_trip(built):
    """Sigma and (Pi, F) invert each other within 1e-8, 100 samples each way."""
    worst = 0.0
    escaped = 0
    for b in built.values():
        ns, lams = b.solution.sample_domain(100, seed=101, margin=0.8)
        for n, lam in zip(ns, lams):
            x = b.solution(n, lam)
            worst = max(
                worst,
                float(np.max(np.abs(b.Pi.value(x) - n))),
                float(np.max(np.abs(b.F.integrals.value(x) - lam))),
            )
        for x in b.F.sample_points(100, seed=77, margin=0.2):
            n, lam = b.Pi.value(x), b.F.integrals.value(x)
            if not b.solution.in_domain(n, lam):
                escaped += 1
                continue
            worst = max(worst, float(np.max(np.abs(b.solution(n, lam) - x))))
    _verdict(
        1,
        worst <= 1e-8 and escaped == 0,
        f"max round-trip defect {worst:.3e} (tol 1e-8) over "
        f"{len(built)} scenarios x 100 samples each way, {escaped} escaped",
    )


def test_criterion_02_pipeline_soundness(built):
    """Constructed integrals and solutions for both s=2 oscillators."""
    ok = True
    parts = []
    for name in ("harmonic_s2", "anisotropic_s2"):
        b = built[name]
        pts = b.F.sample_points(50, seed=11)
        drift = first_integral_residual(b.F, b.H, pts).max_residual
        sub = submersion_checks(b.F, pts, fibration=b.Pi)
        hje = hje_residual(b.solution, b.H, b.Pi, probes=50, seed=11).max_residual
        iso = isotropy_residual(b.solution, probes=50, seed=11).max_residual
        ok = ok and (
            drift <= 1e-6
            and sub.rank.max_residual == 0.0
            and sub.kernel_gram.max_residual <= 1e-5
            and hje <= 1e-5
            and iso <= 1e-5
        )
        parts.append(
            f"{name}: drift {drift:.1e}, gram {sub.kernel_gram.max_residual:.1e}, "
            f"hje {hje:.1e}, iso {iso:.1e}"
        )
    _verdict(2, ok, "; ".join(parts))


def test_criterion_03_rectification(built):
    """Frame fields push forward to standard basis vectors in the chart."""
    worst = 0.0
    for b in built.values():
        tower = b.F.state.tower
        n = 2 * b.cfg.dimension_s
        radius = 0.5 * min(c.domain_radius for c in tower.charts)
        eye = np.eye(n)
        rng = np.random.default_rng(13)
        for _ in range(50):
            y = rng.uniform(-radius, radius, size=n)
            x, D = tower.forward_and_jacobian(y)
            D_inv = np.linalg.inv(D)
            for i, fld in enumerate(b.F.state.fields):
                push = D_inv @ fld(x)
                worst = max(worst, float(np.max(np.abs(push - eye[:, i]))))
    _verdict(
        3,
        worst <= 1e-5,
        f"max pushforward defect {worst:.3e} (tol 1e-5) at 50 probes "
        f"per scenario",
    )


def _random_polynomial(rng, s: int) -> ScalarField:
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        c = round(float(rng.uniform(-2.0, 2.0)), 3)
        factors = []
        for _ in range(int(rng.integers(1, 3))):
            kind = "q" if rng.random() < 0.5 else "p"
            idx = int(rng.integers(1, s + 1))
            power = int(rng.integers(1, 3))
            factors.append(f"{kind}{idx}" + (f"^{power}" if power > 1 else ""))
        terms.append(f"{c}*" + "*".join(factors))
    return ScalarField.parse(" + ".join(terms), s)


def test_criterion_04_bracket_identity():
    """[X_f, X_g] + X_{f,g} vanishes for 50 random polynomial pairs."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        s = int(rng.integers(1, 4))
        f = _random_polynomial(rng, s)
        g = _random_polynomial(rng, s)
        Xf = hamiltonian_vf(f, TOL)
        Xg = hamiltonian_vf(g, TOL)
        Xfg = hamiltonian_vf(poisson_field(f, g), TOL)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, size=2 * s)
            defect = lie_bracket(Xf, Xg, x) + Xfg(x)
            worst = max(worst, float(np.max(np.abs(defect))))
    _verdict(
        4, worst <= 1e-5, f"max identity defect {worst:.3e} (tol 1e-5, 50 pairs)"
    )


def test_criterion_05_complement_algebra():
    """Dimension count is exact and double complements reproduce V."""
    rng = np.random.default_rng(5)
    dims_exact = True
    worst_angle = 0.0
    for _ in range(200):
        s = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 2 * s + 1))
        V = Subspace.span(
            np.zeros(2 * s), rng.standard_normal((2 * s, dim)), TOL.rank
        )
        W = symp_orth(V)
        if V.dim + W.dim != 2 * s:
            dims_exact = False
        WW = symp_orth(W)
        # spectral distance of the orthogonal projectors bounds the
        # sine of the largest principal angle between V and (V-perp)-perp
        PV = V.basis @ V.basis.T
        PW = WW.basis @ WW.basis.T
        gap = float(np.linalg.norm(PV - PW, ord=2))
        worst_angle = max(worst_angle, gap)
    _verdict(
        5,
        dims_exact and worst_angle <= 1e-9,
        f"dims exact: {dims_exact}, max principal-angle gap {worst_angle:.3e} "
        f"(tol 1e-9, 200 subspaces)",
    )


def test_criterion_06_characteristic_functions(built):
    """Energy constancy on every k = s fixture; the free particle in
    closed form to 1e-12."""
    worst_constancy = 0.0
    for name in (
        "free_particle_s1",
        "harmonic_s1",
        "free_particle_s2",
        "harmonic_s2",
        "anisotropic_s2",
    ):
        b = built[name]
        solution = b.solution
        lam_axes = [
            np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 3)
            for lo, hi in solution.lambda_box
        ]
        q_axes = [
            np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 3)
            for lo, hi in solution.n_box
        ]
        lam_grid = np.column_stack(
            [g.ravel() for g in np.meshgrid(*lam_axes, indexing="ij")]
        )
        q_grid = np.column_stack(
            [g.ravel() for g in np.meshgrid(*q_axes, indexing="ij")]
        )
        q0 = solution.n_box.mean(axis=1)
        for lam in lam_grid:
            W = characteristic_function(solution, lam, q0)
            ref = b.H.value(np.concatenate([q0, W.section(q0)]))
            for q in q_grid:
                energy = b.H.value(np.concatenate([q, W.section(q)]))
                worst_constancy = max(worst_constancy, abs(energy - ref))

    # closed form: the momentum graph Sigma(q, lam) = (q, lam) generates
    # W_lam(q) = lam (q - q0) exactly
    graph = CompleteSolution.from_callables(
        lambda n, lam: np.array([n[0], lam[0]]),
        lambda n, lam: np.eye(2),
        1,
        [[-1.0, 1.0]],
        [[0.5, 1.5]],
    )
    worst_free = 0.0
    q0 = -0.3
    for lam in (0.6, 1.0, 1.4):
        W = characteristic_function(graph, [lam], [q0])
        for q in np.linspace(-0.9, 0.9, 7):
            worst_free = max(worst_free, abs(W.value([q]) - lam * (q - q0)))
    _verdict(
        6,
        worst_constancy <= 1e-6 and worst_free <= 1e-12,
        f"max energy drift {worst_constancy:.3e} (tol 1e-6) over 5 fixtures; "
        f"free-particle closed-form defect {worst_free:.3e} (tol 1e-12)",
    )


def test_criterion_07_fibration_builder():
    """100 seeded directions: the built projection always dodges them."""
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(100):
        s = int(rng.integers(1, 4))
        v = rng.standard_normal(2 * s)
        if rng.random() < 0.3:
            v[:s] = 0.0  # exercise the canonical swap
        X = VectorField(lambda x, v=v: v, s)
        m = rng.uniform(-1.0, 1.0, size=2 * s)
        k = int(rng.integers(1, s + 1))
        plan = build_fibration(X, m, k)
        DPi = plan.pi.jacobian(m)
        kernel = nullspace(DPi, TOL.rank)
        coiso = classify(
            Subspace(m, kernel, TOL.rank)
        ).coisotropic
        stacked = np.hstack([kernel, v[:, None]])
        outside = numerical_rank(stacked, TOL.rank) == kernel.shape[1] + 1
        if not (coiso and outside):
            failures += 1
    _verdict(7, failures == 0, f"{failures} failures over 100 seeded (X(m), k)")


def _collect_residuals(node, out):
    if isinstance(node, dict):
        if "max_residual" in node:
            out.append(float(node["max_residual"]))
        for v in node.values():
            _collect_residuals(v, out)


def test_criterion_08_auto_fibration_end_to_end(tmp_path):
    """`construct` with fibration "auto" exits 0 on every scenario."""
    worst = 0.0
    ok = True
    for name in REGISTRY:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(
            json.dumps({"scenario": name, "fibration": "auto", "probes": 25})
        )
        out = tmp_path / name
        code = main(["construct", "--config", str(cfg_path), "--out", str(out)])
        if code != 0:
            ok = False
            continue
        report = json.loads((out / "report.json").read_text())
        residuals = []
        _collect_residuals(report["checks"], residuals)
        worst = max(worst, max(residuals))
    _verdict(
        8,
        ok and worst <= 1e-5,
        f"all scenarios exit 0: {ok}; max verification residual {worst:.3e} "
        f"(tol 1e-5)",
    )


def test_criterion_09_classification():
    """Structural labels for the two reference pairs."""
    harmonic = ScalarField.parse("(q1^2 + p1^2)/2", 1)
    pts = sample_cube([0.0, 1.0], 0.25, 25, seed=15)
    comm = integrability_report(
        harmonic, MapField.from_sources(("(q1^2 + p1^2)/2",), 1), pts
    )

    free = ScalarField.parse("(p1^2 + p2^2)/2", 2)
    pts2 = sample_cube([0.1, -0.2, 1.0, 0.6], 0.2, 25, seed=16)
    nc = integrability_report(
        free, MapField.from_sources(("p1", "p2", "q2"), 2), pts2
    )

    frob = max(
        comm.submersion.frobenius.max_residual,
        nc.submersion.frobenius.max_residual,
    )
    ok = (
        comm.commutative
        and nc.non_commutative
        and not nc.commutative
        and frob <= 1e-4
    )
    _verdict(
        9,
        ok,
        f"(H, H) commutative: {comm.commutative}; (free, (p1,p2,q2)) "
        f"non-commutative: {nc.non_commutative}, commutative: {nc.commutative}; "
        f"max frobenius {frob:.3e} (tol 1e-4)",
    )


def test_criterion_10_negative_controls():
    """Corrupted inputs must be flagged, with failures recorded."""
    free = ScalarField.parse("p1^2/2", 1)
    Pi = MapField.from_sources(("q1",), 1)

    # solution perturbed off the leaf family
    def bad_eval(n, lam):
        return np.array([n[0], 1.0 + lam[0] + 0.1 * np.sin(n[0])])

    def bad_jac(n, lam):
        return np.array([[1.0, 0.0], [0.1 * np.cos(n[0]), 1.0]])

    perturbed = CompleteSolution.from_callables(
        bad_eval, bad_jac, 1, [[-0.5, 0.5]], [[-0.3, 0.3]]
    )
    hje = hje_residual(perturbed, free, Pi, probes=40, seed=0)

    # momentum section scaled by 2 percent
    harmonic = ScalarField.parse("(q1^2 + p1^2)/2", 1)

    def scaled_eval(n, lam):
        return np.array([n[0], 1.02 * np.sqrt(2.0 * lam[0] - n[0] ** 2)])

    def scaled_jac(n, lam):
        p = np.sqrt(2.0 * lam[0] - n[0] ** 2)
        return np.array([[1.0, 0.0], [-1.02 * n[0] / p, 1.02 / p]])

    scaled = CompleteSolution.from_callables(
        scaled_eval, scaled_jac, 1, [[-0.5, 0.5]], [[1.0, 2.0]]
    )
    constancy = verify_characteristic(
        characteristic_function(scaled, [1.3], [0.0]), harmonic, probes=40, seed=0
    )

    # a coordinate posing as a conserved quantity
    pts = sample_cube([0.0, 1.0], 0.3, 25, seed=2)
    drift = first_integral_residual(
        MapField.from_sources(("q1",), 1), free, pts
    )

    flagged = (
        not hje.passed
        and len(hje.failures) > 0
        and not constancy.passed
        and len(constancy.failures) > 0
        and not drift.passed
        and len(drift.failures) > 0
    )
    _verdict(
        10,
        flagged,
        f"all three controls flagged (hje {hje.max_residual:.1e}, "
        f"constancy {constancy.max_residual:.1e}, drift {drift.max_residual:.1e})",
    )
