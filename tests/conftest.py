import numpy as np
import pytest
from hypothesis import settings

from hjcomplete import (
    MapField,
    ScalarField,
    build_first_integrals,
    solution_from_integrals,
)

# One profile for every property test: derandomized and deadline-free, so
# tier-1 runs the same examples every time.  Costly tests lower
# max_examples with their own @settings, which inherit the rest.
settings.register_profile("tier1", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def free_s1():
    """Free particle pipeline: the everything-in-closed-form case."""
    H = ScalarField.parse("p1^2/2", 1)
    Pi = MapField.from_sources(("q1",), 1)
    m = np.array([0.0, 1.0])
    F = build_first_integrals(H, Pi, m, probes=15, seed=0)
    solution = solution_from_integrals(Pi, F, m, seed=0)
    return H, Pi, m, F, solution


@pytest.fixture(scope="session")
def harmonic_s2():
    """Isotropic oscillator with a genuine two-level construction."""
    H = ScalarField.parse("(q1^2 + q2^2 + p1^2 + p2^2)/2", 2)
    Pi = MapField.from_sources(("q1", "q2"), 2)
    m = np.array([0.3, 0.1, 1.0, 0.7])
    F = build_first_integrals(H, Pi, m, probes=15, seed=0)
    solution = solution_from_integrals(Pi, F, m, seed=0)
    return H, Pi, m, F, solution
