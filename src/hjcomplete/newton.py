"""Damped Newton iteration for the duality solves: the head of S(n, lam),
the stacked map (Pi, F), and the integrals read off a complete solution."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["NewtonError", "newton_solve"]


class NewtonError(RuntimeError):
    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(
            f"{message} (residual {residual_norm:.3e} after {iterations} iterations)"
        )
        self.residual_norm = residual_norm
        self.iterations = iterations


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> np.ndarray:
    """Solve residual(x) = 0 by full Newton steps with Armijo backtracking."""
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    nr = float(np.linalg.norm(r))
    for it in range(max_iter):
        if nr <= tol:
            return x
        J = np.asarray(jacobian(x), dtype=float)
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonError("singular jacobian", nr, it) from exc
        t = 1.0
        best = None
        while t >= 1.0 / 1024.0:
            xn = x + t * delta
            rn = np.asarray(residual(xn), dtype=float)
            nn = float(np.linalg.norm(rn))
            if np.isfinite(nn) and nn <= (1.0 - 1e-4 * t) * nr:
                best = (xn, rn, nn)
                break
            if np.isfinite(nn) and (best is None or nn < best[2]):
                best = (xn, rn, nn)
            t *= 0.5
        if best is None:
            raise NewtonError("non finite residuals along the step", nr, it)
        xn, rn, nn = best
        if nn >= nr:
            if nn <= tol:
                return xn
            raise NewtonError("iteration stalled", nn, it)
        x, r, nr = xn, rn, nn
    if nr <= tol:
        return x
    raise NewtonError("maximum iterations exceeded", nr, max_iter)
