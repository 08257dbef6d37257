"""Root finding behaviour: convergence, damping, and failure reporting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hjcomplete.newton import NewtonError, newton_solve


def test_scalar_quadratic_root():
    root = newton_solve(
        lambda x: np.array([x[0] ** 2 - 2.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        np.array([1.0]),
    )
    # the stopping rule bounds the residual, not the root error
    assert abs(root[0] ** 2 - 2.0) <= 1e-10
    assert root[0] == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_two_dimensional_system():
    # intersect the unit circle with the line y = x, start off axis
    def res(v):
        return np.array([v[0] ** 2 + v[1] ** 2 - 1.0, v[1] - v[0]])

    def jac(v):
        return np.array([[2.0 * v[0], 2.0 * v[1]], [-1.0, 1.0]])

    sol = newton_solve(res, jac, np.array([0.9, 0.3]))
    assert np.allclose(sol, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_singular_jacobian_raises():
    with pytest.raises(NewtonError, match="singular"):
        newton_solve(
            lambda x: np.array([x[0] ** 2 + 1.0]),
            lambda x: np.array([[0.0]]),
            np.array([1.0]),
        )


def test_max_iterations_reported():
    # arctan(x) = 2 has no real solution, so the iteration cannot finish
    with pytest.raises(NewtonError) as err:
        newton_solve(
            lambda x: np.array([np.arctan(x[0]) - 2.0]),
            lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]),
            np.array([0.0]),
            max_iter=8,
        )
    assert err.value.iterations <= 8
    assert err.value.residual_norm > 0.0


def test_damping_handles_overshoot():
    # undamped Newton on x^3 = 8 from far away oscillates badly; the
    # backtracking line search must still reach the root
    root = newton_solve(
        lambda x: np.array([x[0] ** 3 - 8.0]),
        lambda x: np.array([[3.0 * x[0] ** 2]]),
        np.array([50.0]),
        max_iter=80,
    )
    assert root[0] == pytest.approx(2.0, abs=1e-10)


def test_tolerance_is_honoured():
    loose = newton_solve(
        lambda x: np.array([x[0] ** 2 - 2.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        np.array([1.0]),
        tol=1e-3,
    )
    assert abs(loose[0] ** 2 - 2.0) <= 1e-3


def test_start_at_solution():
    x0 = np.array([np.sqrt(2.0)])
    root = newton_solve(
        lambda x: np.array([x[0] ** 2 - 2.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        x0,
    )
    assert root[0] == x0[0]


def _systems(n):
    """(A, b, eps): A x + eps sin(x) = b with A = I + E / n."""
    entries = st.floats(-0.5, 0.5)
    return st.tuples(
        arrays(float, (n, n), elements=entries).map(lambda E: np.eye(n) + E / n),
        arrays(float, n, elements=st.floats(-2.0, 2.0)),
        st.sampled_from([0.0, 0.1, 0.3]),
    )


@settings(max_examples=25)
@given(st.integers(1, 5).flatmap(_systems))
def test_newton_contract_property(case):
    # the contract: a returned root meets tol, anything else is a NewtonError;
    # these systems are well conditioned, so the linear ones always converge
    A, b, eps = case

    def residual(x):
        return A @ x + eps * np.sin(x) - b

    def jacobian(x):
        return A + eps * np.diag(np.cos(x))

    try:
        x = newton_solve(residual, jacobian, np.zeros(len(b)), tol=1e-10)
    except NewtonError:
        assert eps > 0.0
        return
    assert np.linalg.norm(residual(x)) <= 1e-10
