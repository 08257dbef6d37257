"""Flows of vector fields and flow box charts.

The integrator is the embedded Runge-Kutta-Fehlberg 4(5) pair on one
(6, n) stage array: the fifth order solution propagates, the per step
error test applies b5 - b4 to the stages, and a rejected step keeps its
first stage.  When adaptive step control underflows it raises FlowError
rather than trade the tolerance for a coarser answer; a fixed step
classical RK4 is available only on request (method "rk4-fixed").  The
tangent variant integrates the variational equation alongside the state
and returns the flow differential.

A FlowBoxChart realizes the straightening map of an ordered, commuting,
form orthogonal frame X_1..X_r near a base point m:

    psi(y) = Phi^{y_1}_{X_1} ( ... Phi^{y_r}_{X_r}(m + S y_tail) ... )

with S a slice basis transverse to the frame.  In chart coordinates every
frame field becomes a coordinate shift, which is what the rest of the
package builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .newton import NewtonError, newton_solve
from .symplectic import VectorField, numerical_rank, structure_matrix

__all__ = [
    "FlowError",
    "ChartError",
    "IntegratorSettings",
    "flow",
    "flow_with_tangent",
    "FlowBoxChart",
]


class FlowError(RuntimeError):
    pass


class ChartError(RuntimeError):
    pass


@dataclass(frozen=True)
class IntegratorSettings:
    """Integration policy for every trajectory in a run."""

    method: str = "rkf45-adaptive"  # or "rk4-fixed"
    step: float = 1e-3  # step size of the rk4-fixed method
    abs_tol: float = DEFAULT_TOLERANCES.ode_abs
    rel_tol: float = DEFAULT_TOLERANCES.ode_rel
    max_steps: int = 100_000

    def __post_init__(self):
        if self.method not in ("rkf45-adaptive", "rk4-fixed"):
            raise ValueError(f"unknown integrator method {self.method!r}")


# Fehlberg tableau: the lower triangular stage matrix, the fifth order
# weights, and their difference from the embedded fourth order weights
_A = np.zeros((6, 6))
_A[1, :1] = (1 / 4,)
_A[2, :2] = (3 / 32, 9 / 32)
_A[3, :3] = (1932 / 2197, -7200 / 2197, 7296 / 2197)
_A[4, :4] = (439 / 216, -8, 3680 / 513, -845 / 4104)
_A[5, :5] = (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40)
_B5 = np.array((16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55))
_E = _B5 - np.array((25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0))

_MIN_STEP_FRACTION = 1e-14


def _rk4_fixed(rhs, x0: np.ndarray, t_end: float, h: float, max_steps: int) -> np.ndarray:
    n_steps = max(1, int(np.ceil(abs(t_end) / h)))
    if n_steps > max_steps:
        raise FlowError("step count exceeded in fixed step integration")
    dt = t_end / n_steps
    x = x0.copy()
    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FlowError("non finite state in fixed step integration")
    return x


def _integrate(rhs, x0: np.ndarray, t_end: float, settings: IntegratorSettings) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if t_end == 0.0:
        return x0.copy()
    if settings.method == "rk4-fixed":
        return _rk4_fixed(rhs, x0, t_end, settings.step, settings.max_steps)

    sign = 1.0 if t_end > 0.0 else -1.0
    span = abs(t_end)
    x = x0.copy()
    K = np.empty((6, x.shape[0]))
    K[0] = rhs(x)
    if not np.all(np.isfinite(K[0])):
        raise FlowError("non finite right hand side at start")
    scale0 = (1.0 + float(np.linalg.norm(x))) / (1.0 + float(np.linalg.norm(K[0])))
    h = sign * min(span, max(1e-6, 0.01 * scale0))
    t = 0.0
    for _ in range(settings.max_steps):
        if abs(h) > abs(t_end - t):
            h = t_end - t
        for i in range(1, 6):
            K[i] = rhs(x + h * (_A[i, :i] @ K[:i]))
        x5 = x + h * (_B5 @ K)
        delta = h * (_E @ K)
        if not (np.all(np.isfinite(x5)) and np.all(np.isfinite(delta))):
            raise FlowError("non finite state in adaptive integration")
        sc = settings.abs_tol + settings.rel_tol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.sqrt(np.mean((delta / sc) ** 2)))
        if err <= 1.0:
            t += h
            x = x5
            if abs(t - t_end) <= _MIN_STEP_FRACTION * span:
                return x
            K[0] = rhs(x)  # a rejected step keeps the slope at its start
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if abs(h) < _MIN_STEP_FRACTION * max(1.0, span):
            raise FlowError(
                f"adaptive step underflow at t = {t:.6e}: h = {h:.3e}, "
                f"t_end = {t_end:.6e}"
            )
    raise FlowError("step count exceeded in adaptive integration")


def flow(
    field: VectorField,
    x0,
    t: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> np.ndarray:
    """Value of the time t flow of the field from x0."""
    return _integrate(field.evaluator, np.asarray(x0, dtype=float), float(t), settings)


def flow_with_tangent(
    field: VectorField,
    x0,
    t: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> tuple[np.ndarray, np.ndarray]:
    """Flow value together with its differential D Phi^t(x0).

    Integrates the variational equation dM/dt = DX(x(t)) M, M(0) = I as an
    augmented system with the state.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    evaluate = field.evaluator
    jacobian = field.jacobian_evaluator

    def rhs(z: np.ndarray) -> np.ndarray:
        x = z[:n]
        M = z[n:].reshape(n, n)
        return np.concatenate([evaluate(x), (jacobian(x) @ M).ravel()])

    z0 = np.concatenate([x0, np.eye(n).ravel()])
    z = _integrate(rhs, z0, float(t), settings)
    return z[:n], z[n:].reshape(n, n)


def _canonicalize_columns(B: np.ndarray) -> np.ndarray:
    """Fix singular vector sign ambiguity: largest entry of each column > 0."""
    B = B.copy()
    for j in range(B.shape[1]):
        i = int(np.argmax(np.abs(B[:, j])))
        if B[i, j] < 0.0:
            B[:, j] = -B[:, j]
    return B


@dataclass
class FlowBoxChart:
    """Straightening chart of a commuting frame around a base point.

    basepoint and the frame live in the ambient coordinates; slice_basis
    columns span a transversal through the base point.  domain_radius is
    the validated radius of the coordinate box.
    """

    basepoint: np.ndarray
    frame: tuple
    slice_basis: np.ndarray
    domain_radius: float
    settings: IntegratorSettings = dc_field(default_factory=IntegratorSettings)
    tolerances: Tolerances = DEFAULT_TOLERANCES

    PROBE_COUNT = 20
    MIN_RADIUS = 1e-3

    @property
    def dim(self) -> int:
        return self.basepoint.shape[0]

    @property
    def rank(self) -> int:
        return len(self.frame)

    @classmethod
    def build(
        cls,
        basepoint,
        frame,
        settings: IntegratorSettings = IntegratorSettings(),
        tolerances: Tolerances = DEFAULT_TOLERANCES,
        initial_radius: float = 0.5,
        poisson: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "FlowBoxChart":
        """Build and validate a chart: slice from the SVD complement of the
        frame at the base point, radius shrunk until Newton inversion
        succeeds at PROBE_COUNT boundary points.

        The frame must pair to zero under the form omega = -lambda^-1 at
        the base point, where lambda is the ambient Poisson matrix field
        poisson (the canonical one when None).
        """
        basepoint = np.asarray(basepoint, dtype=float)
        frame = tuple(frame)
        n = basepoint.shape[0]
        r = len(frame)
        if r > n:
            raise ChartError("frame larger than the ambient dimension")
        if r:
            F = np.column_stack([X(basepoint) for X in frame])
            if numerical_rank(F, tolerances.rank) < r:
                raise ChartError("frame fields are dependent at the base point")
            lam = structure_matrix(n // 2) if poisson is None else poisson(basepoint)
            W = -F.T @ np.linalg.solve(lam, F)
            for i, j in zip(*np.triu_indices(r, 1)):
                if abs(W[i, j]) > tolerances.residual:
                    raise ChartError(
                        f"frame fields {i} and {j} are not form orthogonal "
                        f"at the base point: omega = {W[i, j]:.3e}"
                    )
            U, _, _ = np.linalg.svd(F)
            slice_basis = _canonicalize_columns(U[:, r:])
        else:
            slice_basis = np.eye(n)

        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(cls.PROBE_COUNT, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radius = float(initial_radius)
        while radius >= cls.MIN_RADIUS:
            chart = cls(basepoint, frame, slice_basis, radius, settings, tolerances)
            if chart._probe_domain(dirs * radius):
                return chart
            radius *= 0.5
        raise ChartError(
            f"domain radius shrank below {cls.MIN_RADIUS} without Newton convergence"
        )

    def _probe_domain(self, probes: np.ndarray) -> bool:
        for y in probes:
            try:
                x = self.forward(y)
                y_back = self.inverse(x)
            except (FlowError, ChartError, NewtonError):
                return False
            if np.linalg.norm(y_back - y) > 1e-6:
                return False
        return True

    def forward(self, y) -> np.ndarray:
        """psi(y): flows applied innermost last field first."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.dim:
            raise ValueError("chart coordinates have the ambient dimension")
        r = self.rank
        x = self.basepoint + self.slice_basis @ y[r:]
        for i in reversed(range(r)):
            if y[i] != 0.0:
                x = _integrate(self.frame[i].evaluator, x, float(y[i]), self.settings)
        return x

    def forward_and_jacobian(self, y) -> tuple[np.ndarray, np.ndarray]:
        """psi(y) and D psi(y) in one pass of tangent flows.

        Column i <= r is the i-th frame field at the partially flowed
        point pushed through the remaining flows; slice columns ride the
        full composition.
        """
        y = np.asarray(y, dtype=float)
        r = self.rank
        n = self.dim
        x = self.basepoint + self.slice_basis @ y[r:]
        D = np.zeros((n, n))
        D[:, r:] = self.slice_basis
        for i in reversed(range(r)):
            fld = self.frame[i]
            if y[i] != 0.0:
                x, M = flow_with_tangent(fld, x, float(y[i]), self.settings)
                D = M @ D
            D[:, i] = fld(x)
        return x, D

    def inverse(self, p, y0=None) -> np.ndarray:
        """Newton inversion of the chart map, query-seeded from the chart
        origin unless a start y0 is given."""
        p = np.asarray(p, dtype=float)
        start = np.zeros(self.dim) if y0 is None else np.asarray(y0, dtype=float)

        def residual(y: np.ndarray) -> np.ndarray:
            return self.forward(y) - p

        def jacobian(y: np.ndarray) -> np.ndarray:
            return self.forward_and_jacobian(y)[1]

        try:
            return newton_solve(
                residual,
                jacobian,
                start,
                tol=self.tolerances.newton,
                max_iter=50,
                chord_after=2,
            )
        except NewtonError as exc:
            raise ChartError(f"point outside chart domain: {exc}") from exc
