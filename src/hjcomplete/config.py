"""Shared numerical tolerances.

Every rank test, Newton solve and residual check in the package reads its
threshold from a Tolerances instance instead of a literal at the call site,
so a single object controls the numerical policy of a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds threaded through the toolkit.

    rank        relative singular value cutoff for all rank decisions
    newton      residual norm at which Newton iterations stop
    ode_abs     absolute error target of the adaptive integrator
    ode_rel     relative error target of the adaptive integrator
    residual    default acceptance threshold for verification residuals
    frobenius   span threshold of the bracket closure oracle, looser since
                procedural components get FD brackets: in chart coordinates
                for a constructed F, in phase space for any other
    fd_step     step of every central-difference verification oracle;
                construction is exact
    """

    rank: float = 1e-9
    newton: float = 1e-10
    ode_abs: float = 1e-10
    ode_rel: float = 1e-10
    residual: float = 1e-5
    frobenius: float = 1e-4
    fd_step: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()
