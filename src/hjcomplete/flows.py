"""Flows of vector fields and flow box charts.

The integrator is the embedded Runge-Kutta-Fehlberg 4(5) pair on one
(6, n) stage array: the fifth order solution propagates, the per step
error test applies b5 - b4 to the stages with no numpy wrapper call, and
a rejected step keeps its first stage.  When adaptive step control
underflows it raises FlowError rather than trade the tolerance for a
coarser answer; a fixed step classical RK4 is available only on request
(method "rk4-fixed").  The tangent variant integrates the variational
equation alongside the state and returns the flow differential.  A field
that leaves its domain (log(q1) at q1 <= 0) fails its flow with FlowError,
so a chart probe whose flow leaves the domain is a failed probe.

A FlowBoxChart straightens one field X near a base point m:

    psi(y) = Phi^{y_r}_X(m + B y)

with B a square slice matrix whose column r is zero.  Its first r columns
are the unit vectors e_0..e_{r-1}, directions along which X is already
invariant (an earlier chart straightened them), so they enter as plain
translations; its last columns span a transversal to them and to X(m).
In chart coordinates X becomes the shift along y_r, which is what the
rest of the package builds on.  A point inverts by flowing back along X
to the slice hyperplane: Newton in the one slice time (event location).
leaf(tail) maps a sequence of heads (a Newton solve on one leaf) to psi
and D psi by continuing one flow, so it integrates each stretch once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .symplectic import VectorField, numerical_rank

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
_ROWS = [_A[i, :i] for i in range(6)]

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
        if not np.isfinite(x).all():
            raise FlowError("non finite state in fixed step integration")
    return x


def _integrate(rhs, x0: np.ndarray, t_end: float, settings: IntegratorSettings) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if t_end == 0.0:
        return x0.copy()
    sign = 1.0 if t_end > 0.0 else -1.0
    span = abs(t_end)
    x, n = x0.copy(), x0.shape[0]
    K = np.empty((6, n))
    t = 0.0
    try:  # a field evaluation that raises (X left its domain) fails the flow
        if settings.method == "rk4-fixed":
            return _rk4_fixed(rhs, x0, t_end, settings.step, settings.max_steps)
        K[0] = rhs(x)
        if not np.isfinite(K[0]).all():
            raise FlowError("non finite right hand side at start")
        scale0 = (1.0 + float(np.linalg.norm(x))) / (1.0 + float(np.linalg.norm(K[0])))
        h = sign * min(span, max(1e-6, 0.01 * scale0))
        for _ in range(settings.max_steps):
            if abs(h) > abs(t_end - t):
                h = t_end - t
            for i in range(1, 6):
                K[i] = rhs(x + h * (_ROWS[i] @ K[:i]))
            x5 = x + h * (_B5 @ K)
            delta = h * (_E @ K)
            if not (np.isfinite(x5).all() and np.isfinite(delta).all()):
                raise FlowError("non finite state in adaptive integration")
            sc = settings.abs_tol + settings.rel_tol * np.maximum(np.abs(x), np.abs(x5))
            q = delta / sc  # err is the root mean square of q, summed as np.mean does
            err = math.sqrt(float(np.add.reduce(q * q)) / n)
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
    except ArithmeticError as exc:
        raise FlowError(f"field left its domain at t = {t:.6e}: {exc}") from exc
    raise FlowError("step count exceeded in adaptive integration")


def flow(
    field: VectorField,
    x0,
    t: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> np.ndarray:
    """Value of the time t flow of the field from x0."""
    return _integrate(field.evaluate, np.asarray(x0, dtype=float), float(t), settings)


def flow_with_tangent(
    field: VectorField,
    x0,
    t: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> tuple[np.ndarray, np.ndarray]:
    """Flow value together with its differential D Phi^t(x0).

    Integrates the variational equation dM/dt = DX(x(t)) M, M(0) = I as an
    augmented system with the state; each right-hand side takes X and DX
    from one evaluation of the field.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    evaluate = field.evaluate

    def rhs(z: np.ndarray) -> np.ndarray:
        X, DX = evaluate(z[:n], derivative=True)
        return np.concatenate([X, (DX @ z[n:].reshape(n, n)).ravel()])

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
    """Straightening chart of one field around a base point.

    basepoint and field live in the ambient coordinates; axis is the
    flowed coordinate r, and slice_basis the n x n matrix B of
    psi(y) = Phi^{y_r}_X(m + B y), whose column r is zero; slice_normal is
    the unit normal c of the slice {m + B y}.  domain_radius is the
    validated half-edge of the coordinate box.
    """

    basepoint: np.ndarray
    field: VectorField
    axis: int
    slice_basis: np.ndarray
    slice_normal: np.ndarray
    domain_radius: float
    settings: IntegratorSettings = dc_field(default_factory=IntegratorSettings)
    tolerances: Tolerances = DEFAULT_TOLERANCES

    PROBE_COUNT = 20
    MIN_RADIUS = 1e-3
    SLICE_TIME_REACH = 2.0  # bound on a chart map's |slice time|, in radii

    @classmethod
    def build(
        cls,
        basepoint,
        field: VectorField,
        axis: int = 0,
        settings: IntegratorSettings = IntegratorSettings(),
        tolerances: Tolerances = DEFAULT_TOLERANCES,
        initial_radius: float = 0.5,
    ) -> "FlowBoxChart":
        """Build and validate a chart that flows field along coordinate
        axis: B holds e_0..e_{axis-1}, a zero column, and the SVD complement
        of [e_0..e_{axis-1}, X(m)]; the radius is halved until PROBE_COUNT
        points on its sphere and the box corners round-trip (all 2^n, or a
        seeded PROBE_COUNT of them for n > 4): callers sample the box.

        field must be invariant under translation along e_0..e_{axis-1},
        as a lifted field is in the coordinates of the chart below it.
        """
        basepoint = np.asarray(basepoint, dtype=float)
        n = basepoint.shape[0]
        F = np.eye(n)[:, : axis + 1]
        F[:, axis] = field(basepoint)
        if numerical_rank(F, tolerances.rank) <= axis:
            raise ChartError(
                "field is zero or dependent on the straightened directions "
                "at the base point"
            )
        U, _, _ = np.linalg.svd(F)
        slice_basis = np.zeros((n, n))
        slice_basis[:, :axis] = F[:, :axis]
        slice_basis[:, axis + 1 :] = _canonicalize_columns(U[:, axis + 1 :])
        c = np.zeros(n)  # the part of X(m) normal to e_0..e_{axis-1}
        c[axis:] = F[axis:, axis] / np.linalg.norm(F[axis:, axis])

        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(cls.PROBE_COUNT, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        corners = 1.0 - 2.0 * (np.arange(2**n)[:, None] >> np.arange(n) & 1)
        if n > 4:
            corners = corners[rng.choice(2**n, cls.PROBE_COUNT, replace=False)]
        radius = float(initial_radius)
        while radius >= cls.MIN_RADIUS:
            chart = cls(
                basepoint, field, axis, slice_basis, c, radius, settings, tolerances
            )
            if chart._probe_domain(np.vstack([dirs, corners]) * radius):
                return chart
            radius *= 0.5
        raise ChartError(
            f"domain radius shrank below {cls.MIN_RADIUS}: a probe did not round-trip"
        )

    def _probe_domain(self, probes: np.ndarray) -> bool:
        for y in probes:
            try:
                if np.linalg.norm(self.inverse(self.forward(y)) - y) > 1e-6:
                    return False
            except (FlowError, ChartError):
                return False
        return True

    def _field_at(self, x: np.ndarray) -> np.ndarray:
        try:
            return self.field(x)
        except ArithmeticError as exc:  # as in _integrate: the chart map fails
            raise FlowError(f"field left its domain: {exc}") from exc

    def _within_reach(self, t: float, detail: str = "") -> float:
        """The slice time t, unless |t| passes SLICE_TIME_REACH radii: one rule
        for forward, forward_and_jacobian and every step of inverse, so no
        chart flows further from its slice than its inverse may flow back."""
        if not abs(t) <= self.SLICE_TIME_REACH * self.domain_radius:
            reach = f"passes {self.SLICE_TIME_REACH:g} domain radii{detail}"
            raise ChartError(f"point outside chart domain: slice time {t:.6e} {reach}")
        return t

    def forward(self, y) -> np.ndarray:
        """psi(y): one flow of the field from the slice point m + B y."""
        y = np.asarray(y, dtype=float)
        if y.shape != self.basepoint.shape:
            raise ValueError("chart coordinates have the ambient dimension")
        x = self.basepoint + self.slice_basis @ y
        t = self._within_reach(float(y[self.axis]))
        return _integrate(self.field.evaluate, x, t, self.settings) if t else x

    def forward_and_jacobian(self, y) -> tuple[np.ndarray, np.ndarray]:
        """psi(y) and D psi(y): the first call of a fresh leaf map."""
        y = np.asarray(y, dtype=float)
        return self.leaf(y[self.axis + 1 :])(y[: self.axis + 1])

    def leaf(self, tail):
        """head -> (psi(y), D psi(y) = M B with column r replaced by X) at
        y = (head, tail), M the tangent of one flow from the first call's
        slice point.  A new slice time flows only the increment from the
        kept (slice time, point, M), M <- M_step M; a failed flow keeps them.
        DX has zero columns along e_0..e_{r-1}, so M fixes those bitwise and
        the head below the axis moves x by a translation."""
        r, m, B, kept = self.axis, self.basepoint, self.slice_basis, None

        def at(head) -> tuple[np.ndarray, np.ndarray]:
            nonlocal kept
            t = self._within_reach(float(head[r]))
            if kept is None:
                kept = head[:r].copy(), 0.0, m + B @ np.concatenate([head, tail]), None
            first, t0, x, M = kept
            if t != t0:
                x, step = flow_with_tangent(self.field, x, t - t0, self.settings)
                M = step if M is None else step @ M
                kept = first, t, x, M
            D = B.copy() if M is None else M @ B
            x = np.concatenate([x[:r] + (head[:r] - first), x[r:]])
            D[:, r] = self._field_at(x)
            return x, D

        return at

    def inverse(self, p) -> np.ndarray:
        """Chart coordinates of p, a pure function of p.

        Newton in the slice time t flows p back along X to the slice:
        g = c.(x - m) has derivative w = c.X(x) along X, so each step flows
        x back by g / w, cut back to the reach of _within_reach; a step from
        the reach outward is refused.
        Once |g| meets the Newton tolerance, y = B^T (x - m) with y_r = t.
        """
        x, m, c = np.asarray(p, dtype=float), self.basepoint, self.slice_normal
        t, reach = 0.0, self.SLICE_TIME_REACH * self.domain_radius
        for _ in range(50):
            g = float(c @ (x - m))
            if abs(g) <= self.tolerances.newton:
                y = self.slice_basis.T @ (x - m)
                y[self.axis] = t
                return y
            w = float(c @ self._field_at(x))
            step = g / w if w else math.inf
            if abs(t) < reach < abs(t + step) < math.inf:  # an overshoot stops at the reach
                step = math.copysign(reach, t + step) - t
            self._within_reach(t + step, f" (c.X = {w:.3e})")
            x = _integrate(self.field.evaluate, x, -step, self.settings)
            t += step
        raise ChartError(f"point outside chart domain: |g| {abs(g):.3e} after 50 steps")
