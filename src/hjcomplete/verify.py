"""Residual checks for complete solutions and first-integral submersions.

Every check reports the worst residual over a probe set together with the
tolerance it was held to, so a report is meaningful on its own.  Probe
sets are seeded and recorded; identical inputs give identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .construct import CompleteSolution, FirstIntegralSubmersion, _integrals_map
from .expr import MapField, ScalarField
from .symplectic import (
    Subspace,
    apply_structure,
    classify,
    fd_jacobian,
    hamiltonian_jacobian,
    hamiltonian_vf,
    isotropy_defect,
    nullspace,
    numerical_rank,
    symp_orth,
)

MapLike = Union[MapField, FirstIntegralSubmersion]


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case residual of one check over a probe set."""

    name: str
    max_residual: float
    tolerance: float
    probe_count: int
    failures: tuple[tuple[tuple[float, ...], float], ...]  # (point, residual)
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.probe_count > 0 and self.max_residual <= self.tolerance

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} (max {self.max_residual:.3e} vs "
            f"tol {self.tolerance:.1e} over {self.probe_count} probes)"
        )


_MAX_RECORDED_FAILURES = 5
_PROBE_MARGIN = 0.9  # solution probes keep to the central 90% of each box


def _collect(name, residuals, points, tolerance, seed=None) -> ResidualReport:
    residuals = np.asarray(residuals, dtype=float)
    failures = []
    for val, pt in zip(residuals, points):
        if val > tolerance and len(failures) < _MAX_RECORDED_FAILURES:
            failures.append((tuple(np.asarray(pt, dtype=float)), float(val)))
    worst = float(np.max(residuals)) if residuals.size else np.inf
    return ResidualReport(
        name, worst, tolerance, int(residuals.size), tuple(failures), seed
    )


def sample_cube(center, radius: float, count: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform probes in an axis-aligned cube around center."""
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    return center + rng.uniform(-radius, radius, size=(count, center.shape[0]))


def hje_residual(
    solution: CompleteSolution,
    hamiltonian: ScalarField,
    fibration: MapField,
    probes: int = 50,
    seed: int = 0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ResidualReport:
    """Residual of the generalized Hamilton-Jacobi equation.

    At each (n, lam) the pulled-back form contracted with the projected
    Hamiltonian direction must match the pulled-back differential of the
    Hamiltonian: with A = DS^T J DS and X = (DPi(x) X_H(x), 0), the
    covector X^T A - (grad H)(x)^T DS must vanish.  The projection
    defect |fibration(solution) - n| is folded into the same residual.
    """
    xh = hamiltonian_vf(hamiltonian, tolerances)
    ns, lams = solution.sample_domain(probes, seed=seed, margin=_PROBE_MARGIN)
    residuals, points = [], []
    for n, lam in zip(ns, lams):
        x = solution(n, lam)
        DS = solution.jacobian(n, lam)
        A = DS.T @ apply_structure(DS)
        X = np.concatenate([fibration.jacobian(x) @ xh(x), np.zeros(solution.l)])
        covector = X @ A - hamiltonian.gradient(x) @ DS
        defect = np.max(np.abs(fibration.value(x) - n))
        residuals.append(max(float(np.max(np.abs(covector))), float(defect)))
        points.append(np.concatenate([n, lam]))
    return _collect("hje_residual", residuals, points, tolerances.residual, seed)


def isotropy_residual(
    solution: CompleteSolution,
    probes: int = 50,
    seed: int = 0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ResidualReport:
    """Worst symplectic pairing among the parameter directions.

    The columns of the solution Jacobian along n span the tangent space
    of the leaf through each probe; isotropy demands all their pairings
    vanish.  A single column passes trivially.
    """
    ns, lams = solution.sample_domain(probes, seed=seed, margin=_PROBE_MARGIN)
    residuals, points = [], []
    for n, lam in zip(ns, lams):
        residuals.append(isotropy_defect(solution.jacobian(n, lam)[:, : solution.k]))
        points.append(np.concatenate([n, lam]))
    return _collect("isotropy_residual", residuals, points, tolerances.residual, seed)


def first_integral_residual(
    F: MapLike,
    hamiltonian: ScalarField,
    points: np.ndarray,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    seed: Optional[int] = None,
) -> ResidualReport:
    """Drift of the candidate integrals along the Hamiltonian field."""
    integrals = _integrals_map(F)
    xh = hamiltonian_vf(hamiltonian, tolerances)
    residuals = [
        float(np.max(np.abs(integrals.jacobian(x) @ xh(x)))) for x in points
    ]
    return _collect(
        "first_integral_residual", residuals, points, tolerances.residual, seed
    )


@dataclass(frozen=True)
class SubmersionReport:
    """Level-set geometry of a candidate submersion at probes."""

    rank: ResidualReport  # rank deficit of dF (stacked with the fibration if given)
    kernel_gram: ResidualReport
    frobenius: ResidualReport

    @property
    def passed(self) -> bool:
        return self.rank.passed and self.kernel_gram.passed and self.frobenius.passed


def _field_jacobians(F: MapLike, tolerances: Tolerances):
    """x -> [DX_i(x)] for the complement fields X_i = J dF_i.

    On the tower Psi of a constructed F, F(Psi(y)) = y_tail, so X_i(Psi(y))
    = J (DPsi(y)^-1)[k + i] =: G_i(y) and DX_i(x) = DG_i(y) DPsi(y)^-1 at
    y = Psi^-1(x).  DG is one central difference over forward passes in
    chart coordinates, shared by the l fields: no tower solve, no exact dlam.
    Other maps take hamiltonian_jacobian of each component, which skips
    the value: the caller already has X_i from dF.
    """
    if not isinstance(F, FirstIntegralSubmersion):
        step = tolerances.fd_step
        return lambda x: [hamiltonian_jacobian(c, x, step) for c in F.components]
    tower, k, n = F.state.tower, F.k, 2 * F.dimension_s

    def stacked(y: np.ndarray) -> np.ndarray:
        rows = np.linalg.inv(tower.forward_and_jacobian(y)[1])[k:]
        return np.concatenate([apply_structure(r) for r in rows])

    def jacobians(x: np.ndarray) -> list[np.ndarray]:
        entry = F.index.solve(x, need_jacobian=True)
        DG = fd_jacobian(stacked, entry.coords, tolerances.fd_step)
        return [d @ entry.jac_inv for d in DG.reshape(-1, n, n)]

    return jacobians


def submersion_checks(
    F: MapLike,
    points: np.ndarray,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    fibration: Optional[MapField] = None,
    seed: Optional[int] = None,
) -> SubmersionReport:
    """Rank, kernel isotropy, and integrability of the complement.

    The rank check asserts dF has full rank at every probe, and when a
    fibration is supplied, that the stacked Jacobian reaches rank 2s.
    The Gram check measures isotropy of Ker dF.  The Frobenius check
    takes X_i = J dF_i, a smooth frame of the symplectic complement, and
    measures the relative least-squares defect of their pairwise Lie
    brackets against the frame, cross-checking the frame against the
    algebraic complement of the kernel.  The bracket Jacobians DX_i come
    from a chart-side stencil for a FirstIntegralSubmersion, the exact
    J Hess F_i for a parsed component, and a phase-space central
    difference for any other procedural component (_field_jacobians).
    """
    integrals = _integrals_map(F)
    s = integrals.dimension_s
    l = integrals.target_dim
    rank_resid, gram_resid, frob_resid = [], [], []
    field_jacobians = _field_jacobians(F, tolerances)

    for x in points:
        dF = integrals.jacobian(x)
        deficit = l - numerical_rank(dF, tolerances.rank)
        if fibration is not None:
            stacked = np.vstack([fibration.jacobian(x), dF])
            deficit = max(deficit, 2 * s - numerical_rank(stacked, tolerances.rank))
        rank_resid.append(float(deficit))

        kernel = nullspace(dF, tolerances.rank)
        gram_resid.append(isotropy_defect(kernel))

        vals = np.column_stack([apply_structure(g) for g in dF])
        comp = symp_orth(Subspace(np.asarray(x, float), kernel, tolerances.rank))
        span_gap = np.max(
            np.abs(vals - comp.basis @ (comp.basis.T @ vals))
        ) / max(1.0, float(np.max(np.abs(vals))))
        worst = float(span_gap)
        jacs = field_jacobians(x) if l > 1 else []  # brackets only
        for i in range(l):
            for j in range(i + 1, l):
                bracket = jacs[j] @ vals[:, i] - jacs[i] @ vals[:, j]
                coeff, *_ = np.linalg.lstsq(vals, bracket, rcond=None)
                gap = np.linalg.norm(vals @ coeff - bracket)
                worst = max(
                    worst, float(gap / max(1.0, np.linalg.norm(bracket)))
                )
        frob_resid.append(worst)

    return SubmersionReport(
        _collect("submersion_rank", rank_resid, points, 0.0, seed),
        _collect("kernel_gram", gram_resid, points, tolerances.residual, seed),
        _collect("frobenius_span", frob_resid, points, tolerances.frobenius, seed),
    )


@dataclass(frozen=True)
class IntegrabilityReport:
    """Structural classification of a Hamiltonian with candidate integrals.

    The labels follow the geometry: isotropic kernels plus an integrable
    symplectic complement make the pair non-commutative integrable, and
    a Lagrangian kernel with l = s upgrades it to commutative.  Whether
    the components are actually conserved is reported alongside and does
    not move the labels.
    """

    first_integrals: ResidualReport
    submersion: SubmersionReport
    dimension_s: int
    l: int
    kernel_lagrangian: bool
    non_commutative: bool
    commutative: bool


def integrability_report(
    hamiltonian: ScalarField,
    F: MapLike,
    points: np.ndarray,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    seed: Optional[int] = None,
) -> IntegrabilityReport:
    """Classify the pair (hamiltonian, integrals) at the given probes."""
    integrals = _integrals_map(F)
    s = integrals.dimension_s
    l = integrals.target_dim
    fi = first_integral_residual(F, hamiltonian, points, tolerances, seed)
    sub = submersion_checks(F, points, tolerances, seed=seed)

    lagrangian = True
    for x in points:
        kernel = nullspace(integrals.jacobian(x), tolerances.rank)
        cls = classify(Subspace(np.asarray(x, float), kernel, tolerances.rank))
        if not cls.lagrangian:
            lagrangian = False
            break

    comm = sub.passed and l == s and lagrangian
    return IntegrabilityReport(fi, sub, s, l, lagrangian, sub.passed, comm)
