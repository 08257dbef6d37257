"""Classical Hamilton-Jacobi specializations on cotangent coordinates.

When the fibration is the position projection (k = s), each parameter
value of a complete solution carries a generating function: the line
integral of the momentum section.  This module recovers those
characteristic functions by G7/K15 Gauss-Kronrod quadrature (one section
solve per node, 15 per settled segment), verifies the classical equation
through energy constancy, and builds kinetic-plus-potential Hamiltonians
from a cometric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .construct import CompleteSolution, _named
from .expr import ScalarField, _has_var, parse, serialize
from .verify import _PROBE_MARGIN, ResidualReport, _collect


class QuadratureError(RuntimeError):
    """The adaptive line integral failed to settle."""


# QK15 (Piessens et al., QUADPACK, 1983): 7 Gauss-Legendre nodes, 8 Kronrod added
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(7)
_KRONROD = np.array([0.991455371120812639, 0.864864423359769073,
                     0.586087235467691130, 0.207784955007898468])
_K15_NODES = np.sort(np.concatenate([_GAUSS_NODES, _KRONROD, -_KRONROD]))
_K15_WEIGHTS = np.linalg.solve(  # 15 nodes fix the weights: exact on P_0..P_14
    np.polynomial.legendre.legvander(_K15_NODES, 14).T, 2.0 * np.eye(15)[0]
)
_MAX_BISECTIONS = 12
_QUAD_TOL = 1e-10
_CONSTANCY_TOL = 1e-6  # energy drift accepted by verify_characteristic


@dataclass(frozen=True)
class CharacteristicFunction:
    """A generating function W with dW = momentum section at fixed lam.

    Values come from integrating the momentum section along straight
    segments from the anchor q0 (the domain box is convex); the gradient
    is the section itself, no differentiation involved.
    """

    solution: CompleteSolution
    lam: np.ndarray
    q0: np.ndarray

    def __post_init__(self):
        if self.solution.k != self.solution.dimension_s:
            raise ValueError(
                "characteristic functions need the position projection (k = s)"
            )

    def section(self, q) -> np.ndarray:
        """Momentum section: the p-part of the solution at (q, lam)."""
        q = np.asarray(q, dtype=float)
        return self.solution(q, self.lam)[self.solution.dimension_s:]

    def gradient(self, q) -> np.ndarray:
        return self.section(q)

    def value(self, q) -> float:
        """W(q): K15 along the segment from q0, bisected until G7 agrees;
        15 section evaluations per settled segment, 15 more per half."""
        q = np.asarray(q, dtype=float)
        dq = q - self.q0
        if not np.any(dq):
            return 0.0

        def integrand(t: float) -> float:
            return float(self.section(self.q0 + t * dq) @ dq)

        return _adaptive_segment(integrand, 0.0, 1.0, _MAX_BISECTIONS)


def _kronrod_panel(f, a: float, b: float) -> tuple[float, float]:
    """K15 and G7 of f over [a, b]; G7 reads every second of the 15 values."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.array([f(mid + half * t) for t in _K15_NODES])
    return half * (_K15_WEIGHTS @ values), half * (_GAUSS_WEIGHTS @ values[1::2])


def _adaptive_segment(f, a: float, b: float, depth: int) -> float:
    kronrod, gauss = _kronrod_panel(f, a, b)
    if abs(kronrod - gauss) <= _QUAD_TOL * (1.0 + abs(kronrod)):
        return kronrod
    if depth == 0:
        raise QuadratureError(
            f"line integral did not settle on [{a}, {b}]: "
            f"K15 and G7 differ by {abs(kronrod - gauss):.3e}"
        )
    mid = 0.5 * (a + b)
    return _adaptive_segment(f, a, mid, depth - 1) + _adaptive_segment(
        f, mid, b, depth - 1
    )


def characteristic_function(
    solution: CompleteSolution, lam, q0
) -> CharacteristicFunction:
    """Anchor a characteristic function at q0 for one parameter value."""
    lam = np.asarray(lam, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    if not solution.in_domain(q0, lam):
        raise ValueError("(q0, lam) must lie in the validated domain boxes")
    return CharacteristicFunction(solution, lam, q0)


def inset_grid(box: np.ndarray, count: int) -> np.ndarray:
    """Rows of a regular grid over box, count points per axis, inset from
    each edge by 5% of its length."""
    axes = [
        np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), count)
        for lo, hi in box
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def characteristic_family(
    solution: CompleteSolution, grid: int
) -> list[CharacteristicFunction]:
    """Characteristic functions on inset_grid(lambda_box, grid), each
    anchored at the center of the position box."""
    q0 = solution.n_box.mean(axis=1)
    return [
        characteristic_function(solution, lam, q0)
        for lam in inset_grid(solution.lambda_box, grid)
    ]


def verify_characteristic(
    W: CharacteristicFunction,
    hamiltonian: ScalarField,
    probes: int = 50,
    seed: int = 0,
) -> ResidualReport:
    """Energy constancy along the section: H(q, dW(q)) must not move.

    The classical equation asks H composed with the gradient to be
    constant in q; the report carries the worst drift from the value at
    the anchor point over probes in the central 90% of the position box.
    A failure of S at a probe is named (_named) by the check, the probe,
    q and lam.
    """
    box = W.solution.n_box
    mid = box.mean(axis=1)
    half = _PROBE_MARGIN * (box[:, 1] - box[:, 0]) / 2.0
    rng = np.random.default_rng(seed)
    qs = mid + rng.uniform(-1.0, 1.0, size=(probes, box.shape[0])) * half

    ref = hamiltonian.value(np.concatenate([W.q0, W.section(W.q0)]))
    residuals = []
    for i, q in enumerate(qs):
        at = f"q={q.tolist()}, lambda={W.lam.tolist()}"
        p = _named(f"characteristic_constancy probe {i + 1} of {probes} at {at}", W.section, q)
        residuals.append(abs(hamiltonian.value(np.concatenate([q, p])) - ref))
    return _collect("characteristic_constancy", residuals, qs, _CONSTANCY_TOL, seed)


# ---------------------------------------------------------------------------
# simple Hamiltonians


def _reject_momenta(node, what: str) -> None:
    if _has_var(node, "p"):
        raise ValueError(f"{what} must depend on positions only")


@dataclass(frozen=True)
class SimpleHamiltonian:
    """Kinetic energy of a position-dependent cometric plus a potential.

    Symmetry of the cometric is structural: entries across the diagonal
    must parse to identical syntax trees.  Positive definiteness is a
    pointwise property and is checked on demand.
    """

    cometric_sources: tuple[tuple[str, ...], ...]
    potential_source: str
    dimension_s: int

    @cached_property
    def hamiltonian(self) -> ScalarField:
        s = self.dimension_s
        terms = []
        for i in range(s):
            for j in range(s):
                terms.append(f"({self.cometric_sources[i][j]})*p{i + 1}*p{j + 1}")
        source = "(" + " + ".join(terms) + f")/2 + ({self.potential_source})"
        return ScalarField.parse(source, s)

    @cached_property
    def _cometric_fields(self) -> tuple[tuple[ScalarField, ...], ...]:
        s = self.dimension_s
        return tuple(
            tuple(ScalarField.parse(src, s) for src in row)
            for row in self.cometric_sources
        )

    def cometric_value(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        x = np.concatenate([q, np.zeros(self.dimension_s)])
        return np.array(
            [[f.value(x) for f in row] for row in self._cometric_fields]
        )

    def check_positive_definite(self, q_points) -> None:
        """Raise if the cometric loses positive definiteness at a point."""
        for q in np.atleast_2d(np.asarray(q_points, dtype=float)):
            G = self.cometric_value(q)
            if np.min(np.linalg.eigvalsh(G)) <= 0.0:
                raise ValueError(
                    f"cometric is not positive definite at q = {tuple(q)}"
                )

    def projection_test(self, m) -> np.ndarray:
        """Position components of the Hamiltonian field at m.

        For a simple Hamiltonian these must equal the cometric applied to
        the momentum, vanishing exactly on the zero section.
        """
        m = np.asarray(m, dtype=float)
        return self.hamiltonian.gradient(m)[self.dimension_s:]


def simple_hamiltonian(
    cometric: Sequence[Sequence[str]],
    potential: str,
    dimension_s: int,
) -> SimpleHamiltonian:
    """Assemble and validate a simple Hamiltonian from source texts."""
    s = dimension_s
    rows = tuple(tuple(str(e) for e in row) for row in cometric)
    if len(rows) != s or any(len(row) != s for row in rows):
        raise ValueError(f"cometric must be a {s}x{s} matrix of expressions")
    asts = [[parse(entry, s) for entry in row] for row in rows]
    for i in range(s):
        for j in range(s):
            _reject_momenta(asts[i][j], "cometric entries")
            if asts[i][j] != asts[j][i]:
                raise ValueError(
                    f"cometric is not symmetric: entry ({i + 1},{j + 1}) is "
                    f"{serialize(asts[i][j])!r} but ({j + 1},{i + 1}) is "
                    f"{serialize(asts[j][i])!r}"
                )
    _reject_momenta(parse(potential, s), "the potential")
    return SimpleHamiltonian(rows, str(potential), s)
