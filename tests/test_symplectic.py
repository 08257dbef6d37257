"""Canonical structure, Poisson calculus, and subspace classification."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from hjcomplete.config import Tolerances
from hjcomplete.expr import ScalarField
from hjcomplete.symplectic import (
    Subspace,
    VectorField,
    _rank,
    classify,
    contains,
    fd_jacobian,
    hamiltonian_vf,
    isotropy_defect,
    lie_bracket,
    nullspace,
    numerical_rank,
    omega,
    poisson,
    poisson_field,
    structure_matrix,
    symp_orth,
)

TOL = Tolerances()


def _field(text, s):
    return ScalarField.parse(text, s)


def test_structure_matrix_blocks():
    J = structure_matrix(2)
    expected = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(J, expected)
    assert np.array_equal(J.T, -J)
    assert np.array_equal(J @ J, -np.eye(4))


def test_hamiltonian_field_sign():
    # the generator of q1 must push p1 downward: X_{q1} = (0, -1)
    X = hamiltonian_vf(_field("q1", 1), TOL)
    assert np.allclose(X(np.array([0.3, -0.8])), [0.0, -1.0])
    Y = hamiltonian_vf(_field("p1", 1), TOL)
    assert np.allclose(Y(np.array([0.3, -0.8])), [1.0, 0.0])


def test_canonical_bracket():
    q1 = _field("q1", 2)
    p1 = _field("p1", 2)
    p2 = _field("p2", 2)
    x = np.array([0.4, -0.2, 1.1, 0.7])
    assert poisson(q1, p1, x) == pytest.approx(1.0, abs=1e-14)
    assert poisson(q1, p2, x) == pytest.approx(0.0, abs=1e-14)
    assert poisson(p1, p2, x) == pytest.approx(0.0, abs=1e-14)
    assert poisson(p1, q1, x) == pytest.approx(-1.0, abs=1e-14)


def test_omega_pairing():
    J = structure_matrix(2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert omega(u, v) == pytest.approx(u @ J @ v, rel=1e-14, abs=1e-14)
        assert omega(u, v) == pytest.approx(-omega(v, u), rel=1e-14, abs=1e-14)


_POLY_POOL = [
    "q1^2 + p1*p2",
    "q1*q2 - p2^2",
    "sin(q1) + p1",
    "q2*p1*p2",
    "exp(q1/4) * p2",
    "p1^2/2 + p2^2/2 + q1^2",
    "q1*p1 + q2*p2",
    "cos(q2)*p1",
]


def test_bracket_of_hamiltonian_fields():
    """[X_f, X_g] agrees with -X_{{f,g}} on random smooth pairs."""
    rng = np.random.default_rng(17)
    fields = [_field(t, 2) for t in _POLY_POOL]
    for _ in range(20):
        i, j = rng.integers(0, len(fields), size=2)
        f, g = fields[i], fields[j]
        x = rng.uniform(-1.0, 1.0, size=4)
        lhs = lie_bracket(hamiltonian_vf(f, TOL), hamiltonian_vf(g, TOL), x)
        rhs = -hamiltonian_vf(poisson_field(f, g), TOL)(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_poisson_field_gradient():
    f = _field("q1^2 + p1*p2", 2)
    g = _field("sin(q1) + p1*q2", 2)
    h = poisson_field(f, g)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=4)
        grad = h.gradient(x)
        step = 1e-6
        for a in range(4):
            e = np.zeros(4)
            e[a] = step
            fd = (h.value(x + e) - h.value(x - e)) / (2 * step)
            assert grad[a] == pytest.approx(fd, rel=5e-5, abs=5e-7)


def test_bracket_algebra_identities():
    f = _field("q1^2 + p2", 2)
    g = _field("p1*q2", 2)
    h = _field("sin(q2) + p1^2/2", 2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=4)
        # antisymmetry
        assert poisson(f, g, x) == pytest.approx(-poisson(g, f, x), abs=1e-12)
        # Jacobi: {f,{g,h}} + {g,{h,f}} + {h,{f,g}} = 0
        total = (
            poisson(f, poisson_field(g, h), x)
            + poisson(g, poisson_field(h, f), x)
            + poisson(h, poisson_field(f, g), x)
        )
        assert abs(total) < 1e-9


def test_numerical_rank_relative_cutoff():
    M = np.diag([1.0, 1e-10])
    assert numerical_rank(M, TOL.rank) == 1
    assert numerical_rank(np.diag([1.0, 1e-6]), TOL.rank) == 2
    assert numerical_rank(np.zeros((3, 3)), TOL.rank) == 0
    assert numerical_rank(np.zeros((4, 0)), TOL.rank) == 0


def test_rank_cutoff_of_empty_and_zero_spectra():
    assert _rank(np.zeros(0), TOL.rank) == 0
    assert _rank(np.zeros(3), TOL.rank) == 0
    assert _rank(np.array([2.0, 1.0, 1e-12]), TOL.rank) == 2


def test_isotropy_defect_of_no_columns_is_zero():
    assert isotropy_defect(np.zeros((4, 0))) == 0.0


def test_isotropy_defect_vanishes_on_a_lagrangian_graph():
    # the columns of [I; S] span a Lagrangian subspace when S is symmetric
    A = np.random.default_rng(5).standard_normal((3, 3))
    V = np.vstack([np.eye(3), A + A.T])
    assert isotropy_defect(V) <= 1e-14
    assert classify(Subspace.span(np.zeros(6), V, TOL.rank)).lagrangian


_FRAMES = st.tuples(st.integers(1, 3), st.integers(0, 4)).flatmap(
    lambda sr: arrays(float, (2 * sr[0], sr[1]), elements=st.floats(-1.0, 1.0))
)


@given(_FRAMES)
def test_isotropy_defect_is_the_largest_pairwise_omega(V):
    r = V.shape[1]
    pairs = [abs(omega(V[:, i], V[:, j])) for i in range(r) for j in range(i + 1, r)]
    assert isotropy_defect(V) == pytest.approx(max(pairs, default=0.0), abs=1e-12)


def test_nullspace_orthonormal():
    M = np.array([[1.0, 2.0, 0.0, 0.0]])
    K = nullspace(M, TOL.rank)
    assert K.shape == (4, 3)
    assert np.max(np.abs(M @ K)) < 1e-12
    assert np.allclose(K.T @ K, np.eye(3), atol=1e-12)


def test_span_rejects_dependent_vectors():
    base = np.zeros(4)
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="rank deficient"):
        Subspace.span(base, np.column_stack([v1, 2.0 * v1]), TOL.rank)


def test_symplectic_complement_dimensions():
    rng = np.random.default_rng(23)
    base = np.zeros(6)
    for _ in range(30):
        dim = int(rng.integers(1, 6))
        V = Subspace.span(base, rng.standard_normal((6, dim)), TOL.rank)
        W = symp_orth(V)
        assert V.dim + W.dim == 6
        WW = symp_orth(W)
        assert WW.dim == V.dim
        # double complement reproduces the original space
        assert contains(WW, V) and contains(V, WW)


def test_classify_four_kinds():
    base = np.zeros(4)
    e = np.eye(4)

    def flags(cols):
        c = classify(Subspace.span(base, np.column_stack(cols), TOL.rank))
        return (c.isotropic, c.coisotropic, c.lagrangian, c.symplectic)

    assert flags([e[0]]) == (True, False, False, False)
    assert flags([e[0], e[1]]) == (True, True, True, False)
    assert flags([e[0], e[2]]) == (False, False, False, True)
    assert flags([e[0], e[1], e[2]]) == (False, True, False, False)


def test_degenerate_subspaces():
    # no vectors span the zero subspace; it and the whole space are the
    # trivially isotropic and the trivially coisotropic extremes
    base = np.zeros(4)
    zero = Subspace.span(base, np.zeros((4, 0)), TOL.rank)
    whole = Subspace.span(base, np.eye(4), TOL.rank)
    assert zero.basis.shape == (4, 0)
    assert symp_orth(zero).dim == 4 and symp_orth(whole).dim == 0
    assert contains(whole, zero) and contains(zero, zero)
    assert not contains(zero, whole)

    def flags(V):
        c = classify(V)
        return (c.isotropic, c.coisotropic, c.lagrangian, c.symplectic)

    assert flags(zero) == (True, False, False, True)
    assert flags(whole) == (False, True, False, True)


def test_contains():
    base = np.zeros(4)
    v = np.array([1.0, 1.0, 0.0, 0.0])
    V = Subspace.span(base, v, TOL.rank)
    inside = Subspace.span(base, 2.0 * v, TOL.rank)
    outside = Subspace.span(base, np.array([1.0, 0.0, 0.0, 0.0]), TOL.rank)
    assert contains(V, inside)
    assert not contains(V, outside)


def test_lie_bracket_linear_fields():
    # [Ax, Bx] = (BA - AB)x for linear fields
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, -1.0]])

    def linear(M):
        def evaluate(x, derivative=False):
            return (M @ x, M) if derivative else M @ x

        return VectorField(evaluate, 1)

    X, Y = linear(A), linear(B)
    x = np.array([0.7, -0.4])
    expected = (B @ A - A @ B) @ x
    assert np.max(np.abs(lie_bracket(X, Y, x) - expected)) < 1e-6


def test_fd_jacobian_quadratic_map():
    def fun(x):
        return np.array([x[0] ** 2, x[0] * x[1]])

    x = np.array([1.5, -0.5])
    J = fd_jacobian(fun, x)
    expected = np.array([[3.0, 0.0], [-0.5, 1.5]])
    assert np.max(np.abs(J - expected)) < 1e-6
