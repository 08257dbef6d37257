"""Canonical symplectic structure on R^{2s} and pointwise subspace algebra.

Coordinates are ordered (q1..qs, p1..ps).  The structure matrix is

    J = [[0, I], [-I, 0]],    omega(u, v) = u^T J v,

and the sign convention is fixed by i_{X_f} omega = df, which in these
coordinates gives X_f = (df/dp, -df/dq).  Every rank decision in this
module runs through one singular value cutoff relative to the largest
singular value; the cutoff comes from a shared Tolerances instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .expr import ProceduralScalar, ScalarField

__all__ = [
    "structure_matrix",
    "omega",
    "apply_structure",
    "isotropy_defect",
    "numerical_rank",
    "unit_columns",
    "nullspace",
    "Subspace",
    "SubspaceClass",
    "symp_orth",
    "classify",
    "VectorField",
    "fd_jacobian",
    "hamiltonian_jacobian",
    "hamiltonian_vf",
    "poisson",
    "poisson_field",
    "lie_bracket",
]


def structure_matrix(dimension_s: int) -> np.ndarray:
    s = dimension_s
    J = np.zeros((2 * s, 2 * s))
    J[:s, s:] = np.eye(s)
    J[s:, :s] = -np.eye(s)
    return J


def apply_structure(u: np.ndarray) -> np.ndarray:
    """J u without forming J; u is a vector, a matrix of columns or a stack
    (..., 2s, c) of such matrices, its rows ordered (q block, p block)."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        s = u.shape[0] // 2
        return np.concatenate([u[s:], -u[:s]])
    s = u.shape[-2] // 2
    return np.concatenate([u[..., s:, :], -u[..., :s, :]], axis=-2)


def omega(u, v) -> float:
    """Canonical two form on vectors of even length."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.shape[0] % 2:
        raise ValueError("omega expects two vectors of equal even length")
    s = u.shape[0] // 2
    return float(u[:s] @ v[s:] - u[s:] @ v[:s])


def isotropy_defect(V: np.ndarray):
    """max |omega(v_i, v_j)| over the columns of V: 0 exactly on an
    isotropic set and for no columns; a stack (P, 2s, d) gives P maxima."""
    V = np.asarray(V, dtype=float)
    worst = np.max(np.abs(V.mT @ apply_structure(V)), axis=(-2, -1), initial=0.0)
    return float(worst) if V.ndim == 2 else worst


def _rank(sv: np.ndarray, rank_tol: float):
    """The rank cutoff: singular values above rank_tol times the largest,
    along the last axis, so a stack of spectra gives an array of ranks."""
    ranks = np.sum(sv > rank_tol * sv[..., :1], axis=-1)
    return int(ranks) if np.ndim(sv) == 1 else ranks


def numerical_rank(A: np.ndarray, rank_tol: float = DEFAULT_TOLERANCES.rank):
    """Rank of a matrix, or the ranks of a stack (P, m, n) as an array."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return _rank(np.linalg.svd(A, compute_uv=False), rank_tol)


def unit_columns(V: np.ndarray) -> np.ndarray:
    """V with each nonzero column scaled to length 1, so that the relative
    rank cutoff reads directions only, not lengths."""
    norms = np.linalg.norm(V, axis=0)
    return V / np.where(norms > 0.0, norms, 1.0)


def _kernels(A: np.ndarray, rank_tol: float) -> list:
    """Kernels of a stack (P, m, n) from one SVD, grouped by dimension:
    a list of (stack indices, orthonormal bases (G, n, d) as columns)."""
    _, sv, vh = np.linalg.svd(A)
    ranks = _rank(sv, rank_tol)
    groups = [(np.flatnonzero(ranks == r), r) for r in np.unique(ranks)]
    return [(idx, vh[idx, r:].mT.copy()) for idx, r in groups]


def nullspace(A: np.ndarray, rank_tol: float = DEFAULT_TOLERANCES.rank) -> np.ndarray:
    """Orthonormal basis of the kernel, as columns."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return _kernels(A[None], rank_tol)[0][1][0]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of the tangent space at a point of R^{2s}.

    The stored basis is orthonormal; the constructor rejects spanning sets
    whose numerical rank falls short of the number of vectors supplied.
    """

    basepoint: np.ndarray
    basis: np.ndarray  # (2s, r), orthonormal columns
    rank_tol: float = field(default=DEFAULT_TOLERANCES.rank)

    @classmethod
    def span(
        cls,
        basepoint,
        vectors,
        rank_tol: float = DEFAULT_TOLERANCES.rank,
    ) -> "Subspace":
        basepoint = np.asarray(basepoint, dtype=float)
        V = np.asarray(vectors, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
        if V.shape[0] != basepoint.shape[0]:
            raise ValueError("vectors must live in the tangent space at basepoint")
        U, sv, _ = np.linalg.svd(V, full_matrices=False)
        rank = _rank(sv, rank_tol)
        if rank < V.shape[1]:
            raise ValueError(
                f"spanning set is rank deficient: rank {rank} from {V.shape[1]} vectors"
            )
        return cls(basepoint, U[:, :rank], rank_tol)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _classes(V: np.ndarray, W: np.ndarray, rank_tol: float):
    """(isotropic, coisotropic, symplectic) flags of stacked subspaces V
    (P, 2s, d) against their complements W (P, 2s, c), by one rank each."""
    rank = numerical_rank(np.concatenate([V, W], axis=-1), rank_tol)
    d, c = V.shape[-1], W.shape[-1]
    return rank == c, rank == d, rank == d + c


def symp_orth(V: Subspace) -> Subspace:
    """Symplectic orthogonal complement at the same basepoint.

    w lies in the complement iff omega(b, w) = 0 for every basis vector b,
    i.e. w is in the kernel of (J B)^T.
    """
    if V.basis.shape[0] % 2:
        raise ValueError("ambient dimension must be even")
    kernel = nullspace(apply_structure(V.basis).T, V.rank_tol)
    return Subspace(V.basepoint, kernel, V.rank_tol)


@dataclass(frozen=True)
class SubspaceClass:
    isotropic: bool
    coisotropic: bool
    lagrangian: bool
    symplectic: bool


def classify(V: Subspace) -> SubspaceClass:
    """Each flag is read off the one rank of [V W], as in the stacked checks."""
    W = symp_orth(V)
    flags = _classes(V.basis[None], W.basis[None], V.rank_tol)
    iso, coiso, transverse = (bool(f[0]) for f in flags)
    return SubspaceClass(
        isotropic=iso,
        coisotropic=coiso,
        lagrangian=iso and coiso,
        symplectic=transverse,
    )


# ---------------------------------------------------------------------------
# vector fields


@dataclass(frozen=True)
class VectorField:
    """A vector field X on R^{2s}, given by one evaluation callable.

    evaluate(x) returns X(x).  A field with a derivative, as every
    hamiltonian_vf is, returns the pair (X(x), DX(x)) for derivative=True
    from one evaluation, its value bitwise the plain one; a parsed scalar's
    field makes one generated kernel call either way.  Calling gives X(x).
    stacked, if given, maps a (P, 2s) stack of points to its (P, 2s) values.
    """

    evaluate: Callable[..., np.ndarray]
    dimension_s: int
    stacked: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.evaluate(np.asarray(x, dtype=float)), dtype=float)

    def rows(self, X: np.ndarray) -> np.ndarray:
        """X at each row of a (P, 2s) stack: stacked, else evaluate per row."""
        if self.stacked is not None:
            return self.stacked(X)
        return np.array([self.evaluate(x) for x in X], dtype=float).reshape(X.shape)


def fd_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float = DEFAULT_TOLERANCES.fd_step,
) -> np.ndarray:
    """Central difference Jacobian, the fallback for procedural fields."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * step))
    return np.column_stack(cols)


ScalarLike = Union[ScalarField, ProceduralScalar]


def hamiltonian_jacobian(
    f: ScalarLike, x, fd_step: float = DEFAULT_TOLERANCES.fd_step
) -> np.ndarray:
    """DX_f(x) = J Hess f(x): exact from the generated Hessian kernel of a
    parsed scalar, a central difference of X_f for a procedural one."""
    if isinstance(f, ScalarField):
        return apply_structure(f.hessian(x))
    return fd_jacobian(lambda z: apply_structure(f.gradient(z)), x, fd_step)


def hamiltonian_vf(
    f: ScalarLike,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VectorField:
    """Hamiltonian vector field of a scalar: X_f = J grad f.

    In block form X_f = (df/dp, -df/dq), so for example the field of 'q1'
    is the constant vector with -1 in the p1 slot.  A parsed scalar makes
    one kernel call per evaluation, the exact DX_f = J Hess f included; a
    procedural one takes its gradient, and for DX_f central differences.
    """
    if isinstance(f, ScalarField):
        return VectorField(f.hamiltonian_field, f.dimension_s, f.hamiltonian_rows)

    def evaluate(x: np.ndarray, derivative: bool = False):
        value = apply_structure(f.gradient(x))
        if not derivative:
            return value
        return value, hamiltonian_jacobian(f, x, tolerances.fd_step)

    return VectorField(evaluate, f.dimension_s)


def poisson(f: ScalarLike, g: ScalarLike, x) -> float:
    """Poisson bracket {f, g}(x) = omega(X_f, X_g)(x) = grad f . J grad g."""
    gf = f.gradient(x)
    gg = g.gradient(x)
    return omega(apply_structure(gf), apply_structure(gg))


def poisson_field(f: ScalarField, g: ScalarField) -> ProceduralScalar:
    """The bracket {f, g} as a scalar with an exact gradient.

    grad {f,g} = Hf J grad g - Hg J grad f, assembled from the exact
    gradients and Hessians of f and g.
    """
    if f.dimension_s != g.dimension_s:
        raise ValueError("fields must share dimension_s")

    def value_fn(x: np.ndarray) -> float:
        return poisson(f, g, x)

    def gradient_fn(x: np.ndarray) -> np.ndarray:
        Hf = f.hessian(x)
        Hg = g.hessian(x)
        return Hf @ apply_structure(g.gradient(x)) - Hg @ apply_structure(f.gradient(x))

    return ProceduralScalar(value_fn, gradient_fn, f.dimension_s)


def lie_bracket(X: VectorField, Y: VectorField, x) -> np.ndarray:
    """[X, Y](x) = DY(x) X(x) - DX(x) Y(x)."""
    x = np.asarray(x, dtype=float)
    X_x, DX = X.evaluate(x, derivative=True)
    Y_x, DY = Y.evaluate(x, derivative=True)
    return DY @ X_x - DX @ Y_x
