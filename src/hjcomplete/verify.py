"""Residual checks for complete solutions and first-integral submersions.

Every check reports the worst residual over a probe set together with the
tolerance it was held to, so a report is meaningful on its own.  Probe
sets are seeded and recorded; identical inputs give identical reports.

The checks on F run on stacks over the probes: one dF per probe, and one
stacked SVD per kernel or complement dimension serves every probe.  On a
constructed F the Frobenius check differences {F_i, F_j} o Psi along the
k head chart coordinates only: its tail derivatives multiply frame
columns J dF_m, which the check projects off exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .construct import CompleteSolution, FirstIntegralSubmersion, _jacobian_stack, _named
from .expr import MapField, ScalarField
from .symplectic import (
    _classes,
    _kernels,
    _rank,
    apply_structure,
    fd_jacobian,
    hamiltonian_jacobian,
    hamiltonian_vf,
    isotropy_defect,
    numerical_rank,
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
    failures = tuple(
        (tuple(np.asarray(points[i], dtype=float)), float(residuals[i]))
        for i in np.flatnonzero(residuals > tolerance)[:_MAX_RECORDED_FAILURES]
    )
    worst = float(np.max(residuals)) if residuals.size else np.inf
    return ResidualReport(name, worst, tolerance, int(residuals.size), failures, seed)


def sample_cube(center, radius: float, count: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform probes in an axis-aligned cube around center."""
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    return center + rng.uniform(-radius, radius, size=(count, center.shape[0]))


def _solution_probes(check: str, solution, probes: int, seed: int):
    """(n, lam, S, DS) at seeded probes; a failure of S is named (_named)
    by the check and the probe."""
    ns, lams = solution.sample_domain(probes, seed=seed, margin=_PROBE_MARGIN)
    for i, (n, lam) in enumerate(zip(ns, lams)):
        where = f"{check} probe {i + 1} of {probes} at n={n.tolist()}, lambda={lam.tolist()}"
        yield n, lam, _named(where, solution, n, lam), _named(where, solution.jacobian, n, lam)


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
    residuals, points = [], []
    for n, lam, x, DS in _solution_probes("hje_residual", solution, probes, seed):
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
    residuals, points = [], []
    for n, lam, _, DS in _solution_probes("isotropy_residual", solution, probes, seed):
        residuals.append(isotropy_defect(DS[:, : solution.k]))
        points.append(np.concatenate([n, lam]))
    return _collect("isotropy_residual", residuals, points, tolerances.residual, seed)


def _drift(dF, hamiltonian, points, tolerances, seed) -> ResidualReport:
    xh = hamiltonian_vf(hamiltonian, tolerances)
    X = np.array([xh(x) for x in points]).reshape(dF.shape[0], dF.shape[2], 1)
    drift = np.max(np.abs(dF @ X), axis=(1, 2), initial=0.0)
    return _collect("first_integral_residual", drift, points, tolerances.residual, seed)


def first_integral_residual(
    F: MapLike,
    hamiltonian: ScalarField,
    points: np.ndarray,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    seed: Optional[int] = None,
) -> ResidualReport:
    """Drift of the candidate integrals along the Hamiltonian field."""
    return _drift(_jacobian_stack(F, points), hamiltonian, points, tolerances, seed)


@dataclass(frozen=True)
class SubmersionReport:
    """Level-set geometry of a candidate submersion at probes."""

    rank: ResidualReport  # rank deficit of dF (stacked with the fibration if given)
    kernel_gram: ResidualReport
    frobenius: ResidualReport

    @property
    def passed(self) -> bool:
        return self.rank.passed and self.kernel_gram.passed and self.frobenius.passed


def _head_terms(F: FirstIntegralSubmersion, x, tolerances: Tolerances) -> np.ndarray:
    """J sum_{a<k} d_a P_ij (DPsi^-1)[a] at x as (n, l * l), P the bracket
    matrix {F_i, F_j} o Psi = (DPsi^-1)_tail J (DPsi^-1)_tail^T: the head
    part of the bracket [X_i, X_j], its tail part being frame columns.
    d_a P is a central difference over 2k forward passes at x's memoized
    chart coordinates, DPsi read off each pass (submersion_checks)."""
    tower, k = F.state.tower, F.k
    entry = F.index.solve(x)

    def brackets(head: np.ndarray) -> np.ndarray:
        y = np.concatenate([head, entry.coords[k:]])
        rows = np.linalg.inv(tower.forward_and_jacobian(y)[1])[k:]
        return (rows @ apply_structure(rows.T)).ravel()

    dP = fd_jacobian(brackets, entry.coords[:k], tolerances.fd_step)
    return apply_structure(entry.jac_inv[:k].T @ dP.T)


def _geometry(F, dF, points, tolerances, fibration, seed):
    """The submersion checks on the dF stack and whether every kernel is
    Lagrangian, probes grouped by the dimensions of Ker dF and its complement."""
    P, l, n = dF.shape
    tol = tolerances.rank
    deficit, gram, frob, lagrangian = np.zeros(P), np.zeros(P), np.zeros(P), True
    vals = apply_structure(dF.mT)  # columns X_i = J dF_i
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=(1, 2), initial=0.0))
    for idx, K in _kernels(dF, tol):
        deficit[idx] = l - (n - K.shape[2])  # l minus the rank of dF
        gram[idx] = isotropy_defect(K)
        for sub, C in _kernels(apply_structure(K).mT, tol):
            at = idx[sub]
            gap = vals[at] - C @ (C.mT @ vals[at])
            frob[at] = np.max(np.abs(gap), axis=(1, 2), initial=0.0) / scale[at]
            iso, coiso, _ = _classes(K[sub], C, tol)
            lagrangian &= bool(np.all(iso & coiso))
    if fibration is not None:
        both = np.concatenate([_jacobian_stack(fibration, points), dF], axis=1)
        deficit = np.maximum(deficit, n - numerical_rank(both, tol))
    if l > 1:
        pairs = list(itertools.combinations(range(l), 2))
        if isinstance(F, FirstIntegralSubmersion):  # the brackets up to frame columns
            T = np.reshape([_head_terms(F, x, tolerances) for x in points], (P, n, l, l))
            terms = [T[:, :, i, j, None] for i, j in pairs]
        else:  # DX_i = J Hess F_i, exact if parsed, a central difference if not
            DX = np.array([[hamiltonian_jacobian(c, x, tolerances.fd_step)
                            for c in F.components] for x in points]).reshape(P, l, n, n)
            terms = [DX[:, j] @ vals[:, :, i, None] - DX[:, i] @ vals[:, :, j, None]
                     for i, j in pairs]
        # the frame's left singular vectors, cut as lstsq cuts by default
        U, sv, _ = np.linalg.svd(vals, full_matrices=False)
        cut = _rank(sv, np.finfo(float).eps * max(n, l))
        U = U * (np.arange(sv.shape[1]) < cut[:, None])[:, None, :]
        for term in terms:
            gap = term - U @ (U.mT @ term)
            size = np.maximum(1.0, np.linalg.norm(term, axis=(1, 2)))
            frob = np.maximum(frob, np.linalg.norm(gap, axis=(1, 2)) / size)
    return SubmersionReport(
        _collect("submersion_rank", deficit, points, 0.0, seed),
        _collect("kernel_gram", gram, points, tolerances.residual, seed),
        _collect("frobenius_span", frob, points, tolerances.frobenius, seed),
    ), lagrangian


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
    algebraic complement of the kernel.  A map with components gives the
    brackets from DX_i = J Hess F_i, exact if parsed, a phase-space central
    difference if procedural.  A FirstIntegralSubmersion has F o Psi =
    y_tail on its tower Psi, so [X_i, X_j] = +-J d{F_i, F_j}^T with
    d{F_i, F_j} = sum_a d_a P_ij (DPsi^-1)[a], P = {F_i, F_j} o Psi.  The
    tail rows of DPsi^-1 are the dF_m, so the tail terms are frame columns
    J dF_m, which the projection removes exactly: only the k head
    directions are differenced (_head_terms), 2k forward passes per probe
    and no tower solve, never reading lam, which is head-invariant by
    construction.  Probes are checked as stacks; a bracket's defect is its
    residual off the frame's left singular vectors, cut as lstsq cuts them
    by default, over max(1, its norm), the head part's for a constructed F.
    """
    dF = _jacobian_stack(F, points)
    return _geometry(F, dF, points, tolerances, fibration, seed)[0]


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
    """Classify the pair (hamiltonian, integrals) at the given probes.

    One dF stack, one evaluation per probe, serves every check; Lagrangian
    is decided by classify's rank rule on the submersion checks' kernels.
    """
    dF = _jacobian_stack(F, points)
    fi = _drift(dF, hamiltonian, points, tolerances, seed)
    sub, lagrangian = _geometry(F, dF, points, tolerances, None, seed)
    s, l = dF.shape[2] // 2, dF.shape[1]
    comm = sub.passed and l == s and lagrangian
    return IntegrabilityReport(fi, sub, s, l, lagrangian, sub.passed, comm)
