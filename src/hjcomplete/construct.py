"""Construction of commuting isotropic frames and complete solutions.

The central algorithm extends the frame {X_H} one Hamiltonian field at a
time until it has k members, each new field pulled from the coordinate
differentials of a flow-box chart over the current frame.  The resulting
chart coordinates y_{k+1}..y_{2s} restrict to a submersion F whose level
sets are tangent to the flow.  Inverting (fibration, F) yields a complete
solution: S(n, lam) = Psi(h, lam), with Psi the chart tower and h the
head coordinates solving Pi(Psi(h, lam)) = n by one query-seeded Newton
solve, whose iterates continue one deepest-chart flow on the leaf F = lam
(ChartTower.leaf); F flows its query back to each chart's slice.  Every
inversion here (the tower for F, (Pi, F) for S, and S for its integrals)
starts from its query alone and is memoized on the query's exact bytes
(_memo), so each map is a pure function and the memo only saves time.

Charts are stacked: level 1 rectifies X_H in phase space, level j >= 2
flows the lifted field lam_{j-1}[:, b] in level j-1 coordinates, where
the earlier frame fields are the translations e_0..e_{j-2}.  As the frame
fields are Hamiltonian and commute, each level's Poisson matrix
Q^{-1} L Q^{-T} is algebraic in its slice data and one parent call
(_level_poisson): Q is orthogonal but for one column, so it inverts by a
Sherman-Morrison correction, and at level 1 the canonical L has dL = 0.
Lifted fields and their Jacobians need no integration and no finite
difference; integration enters only through chart flows and domains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .expr import MapField, ProceduralScalar, ScalarField
from .flows import ChartError, FlowBoxChart, FlowError, IntegratorSettings
from .newton import NewtonError, newton_solve
from .symplectic import (
    Subspace,
    VectorField,
    _kernels,
    _rank,
    classify,
    hamiltonian_vf,
    isotropy_defect,
    nullspace,
    numerical_rank,
    structure_matrix,
    unit_columns,
)


class HypothesisError(RuntimeError):
    """A construction hypothesis failed at the base point."""


class _DiagnosedError(RuntimeError):
    """A failure that carries its diagnostics into the report."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FrameExtensionError(_DiagnosedError):
    """No admissible index b was found, or a precondition broke."""


class ConstructionError(_DiagnosedError):
    """A constructed object failed its own verification."""


class FibrationError(RuntimeError):
    """The direction supplied to the fibration builder is unusable."""


class TransversalityError(RuntimeError):
    """The stacked Jacobian of (fibration, integrals) is singular."""


class DualityError(RuntimeError):
    """Complete-solution domain validation could not be satisfied."""


class DomainBoxError(ValueError):
    """Evaluation requested outside a validated domain box."""


# ---------------------------------------------------------------------------
# chart tower


def _slice_inverse(Ot, c, r: int, X: np.ndarray) -> np.ndarray:
    """Q^{-1} = O^T - (w - e_r) c^T / w_r, w = O^T X, for Q = B + X e_r^T
    with Ot = O^T and O = B + c e_r^T orthogonal (Sherman-Morrison)."""
    w = Ot @ X
    wr = float(w[r])
    if not 0.0 < abs(wr) < np.inf:  # level r + 1: r frame fields lie below
        raise FlowError(
            f"level {r + 1} Poisson matrix: the flowed field is tangent to "
            f"the chart slice, w_r = {wr!r}"
        )
    w[r] = wr - 1.0
    return Ot - (w / wr)[:, None] * c


def _level_poisson(chart: FlowBoxChart, parent: Callable, column: Optional[int]):
    """Poisson matrix field in the coordinates of `chart`.

    The chart flows one Hamiltonian field X from the slice point m + B y,
    so Dpsi(y) = M Q with M the flow tangent and Q = B with X(m + B y) in
    column r.  M preserves the parent Poisson matrix L, so the pullback
    collapses to lam = Q^{-1} L Q^{-T}.  L and X are invariant along the
    head directions e_0..e_{r-1}, so both are read at the tail slice point
    z = m + S y_tail (S = B[:, r+1:]): lam depends on the tail coordinates
    only.  At level 1 X is the chart's field and L canonical; at level
    j >= 2 X is the parent's column L[:, column], so one parent call
    gives both.

    Q is never factorised: B's nonzero columns are orthonormal, so with c
    their unit normal (the chart's slice_normal), O = B + c e_r^T is
    orthogonal and Q^{-1} is a Sherman-Morrison correction of O^T by rank one
    (_slice_inverse).  Its divisor w_r = c.X(z) is the transversality of X
    to the slice; where it vanishes lam raises FlowError, which a chart
    probe reads as a failure, so the chart radius shrinks.

    lam(y, derivative=True) also returns dlam[:, :, a] = d lam / d y_a:
    zero for a <= r, and for a = r + 1 + t, with u = Q^{-1} DX(z) S[:, t],
    dlam_a = Q^{-1} (dL(z) S[:, t]) Q^{-T} - u lam[r] - lam[:, r] u^T.
    At level 1 dL = 0, so the first term is skipped.  DX is exact at every
    level (the Hessian of H at level 1, then the parent's dL[:, column, :]),
    so the recursion needs no finite difference.
    """
    base, B, r = chart.basepoint, chart.slice_basis, chart.axis
    S = np.ascontiguousarray(B[:, r + 1 :])
    Ot = B.T.copy()
    Ot[r] = c = chart.slice_normal
    n = base.shape[0]

    def lam(y: np.ndarray, derivative: bool = False):
        z = base + S @ np.asarray(y, dtype=float)[r + 1 :]
        if not derivative:
            L = parent(z)
            X = chart.field.evaluate(z) if column is None else L[:, column]
            Qinv = _slice_inverse(Ot, c, r, X)
            return Qinv @ L @ Qinv.T
        if column is None:
            (X, DX), L, dL = chart.field.evaluate(z, True), parent(z), None
        else:
            L, dL = parent(z, True)
            X, DX = L[:, column], dL[:, column, :]
        Qinv = _slice_inverse(Ot, c, r, X)
        out = Qinv @ L @ Qinv.T
        # lam^T = -lam: -u lam[r] - lam[:, r] u^T = P - P^T, P_ijt = lam_ri u_tj
        P = np.multiply.outer(out[r], Qinv @ (DX @ S))
        tail = P - P.transpose(1, 0, 2)
        if dL is not None:  # Q^{-1} (dL S) Q^{-T}: a tensordot, then matmul
            tail += Qinv @ (Qinv @ (dL @ S).reshape(n, -1)).reshape(tail.shape)
        dlam = np.zeros((n, n, n))
        dlam[:, :, r + 1 :] = tail
        return out, dlam

    def rows(Y: np.ndarray) -> np.ndarray:
        """lam's value at each row of a (P, n) stack, by broadcasting."""
        Z = base + Y[:, r + 1 :] @ S.T
        L = getattr(parent, "rows", parent)(Z)  # the canonical J broadcasts
        X = chart.field.rows(Z) if column is None else L[:, :, column]
        w = X @ Ot.T
        wr = w[:, r].copy()
        if not np.all((0.0 < np.abs(wr)) & (np.abs(wr) < np.inf)):
            for Xi in X:  # the first failing row raises as lam would
                _slice_inverse(Ot, c, r, Xi)
        w[:, r] = wr - 1.0
        Qinv = Ot - (w / wr[:, None])[:, :, None] * c
        return Qinv @ L @ Qinv.mT

    lam.rows = rows
    return lam


def _canonical_poisson(dim_s: int) -> Callable:
    J = structure_matrix(dim_s)
    return lambda z: J  # level 1 reads its value only: dL = 0


@dataclass(frozen=True)
class ChartTower:
    """A stack of flow-box charts, each living in the coordinates of the
    previous one.  charts[0] maps its coordinates into phase space;
    charts[j] maps into the coordinate space of charts[j-1].  poissons
    has one extra entry: poissons[j] is the Poisson matrix field of the
    level-j coordinate space (poissons[0] is canonical).  columns[j] is the
    column b of poissons[j] that charts[j] flows, None for charts[0],
    which flows X_H."""

    charts: tuple[FlowBoxChart, ...]
    poissons: tuple[Callable, ...]
    columns: tuple[Optional[int], ...]
    dimension_s: int

    def extended(self, chart: FlowBoxChart, b: Optional[int] = None) -> "ChartTower":
        lam = _level_poisson(chart, self.poissons[-1], b)
        charts, columns = self.charts + (chart,), self.columns + (b,)
        return ChartTower(charts, self.poissons + (lam,), columns, self.dimension_s)

    def with_permuted_tail(self, perm: Sequence[int]) -> "ChartTower":
        """Permute the tail coordinates of the deepest chart.

        perm lists old tail-column indices in their new order.  The chart
        image and its validated radius are unchanged; only the labelling
        of the slice directions moves.
        """
        deep = self.charts[-1]
        head = deep.axis + 1
        order = list(range(head)) + [head + p for p in perm]
        new_chart = replace(deep, slice_basis=deep.slice_basis[:, order])
        lam = _level_poisson(new_chart, self.poissons[-2], self.columns[-1])
        return replace(
            self,
            charts=self.charts[:-1] + (new_chart,),
            poissons=self.poissons[:-1] + (lam,),
        )

    def forward(self, y: np.ndarray) -> np.ndarray:
        eta = np.asarray(y, dtype=float)
        for j in reversed(range(len(self.charts))):
            eta = _at_level(j, "forward", self.charts[j].forward, eta)
        return eta

    def forward_and_jacobian(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._up(len(self.charts), np.asarray(y, dtype=float), None)

    def leaf(self, lam: np.ndarray) -> Callable:
        """head -> forward_and_jacobian((head, lam)) on the leaf F = lam: the
        deepest chart's FlowBoxChart.leaf(lam), then the upper levels."""
        deep, at = len(self.charts) - 1, self.charts[-1].leaf(lam)
        return lambda head: self._up(deep, *_at_level(deep, "forward", at, head))

    def _up(self, level: int, eta: np.ndarray, D) -> tuple[np.ndarray, np.ndarray]:
        """(eta, D) mapped by charts[level-1] up to charts[0]; D None: I."""
        for j in reversed(range(level)):
            eta, Dj = _at_level(j, "forward", self.charts[j].forward_and_jacobian, eta)
            D = Dj if D is None else Dj @ D
        return eta, D

    # guesses is ignored; bench/spans.py still passes it
    def solve_stack(self, x: np.ndarray, guesses=None) -> np.ndarray:
        """Deepest-level coordinates of x, inverted one chart at a time."""
        eta = np.asarray(x, dtype=float)
        for j, chart in enumerate(self.charts):
            eta = _at_level(j, "inversion", chart.inverse, eta)
        return eta


def _at_level(j: int, stage: str, call: Callable, *args):
    """call(*args), a chart map of charts[j], named by its level j + 1."""
    return _named(f"level {j + 1} chart {stage}", call, *args)


def _named(where: str, call: Callable, *args):
    """call(*args); a failure is re-raised as a copy of itself (type and
    attributes) whose message starts with where, chained to the original."""
    try:
        return call(*args)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        named = type(exc).__new__(type(exc), f"{where}: {exc}")  # __init__ signatures vary
        named.__dict__.update(vars(exc))
        raise named from exc


_MEMO_LIMIT = 50_000


def _memo(fn: Callable) -> Callable:
    """fn of float arrays, memoized on the exact bytes of its arguments.

    fn must be pure, so a hit returns what a fresh call would; the memo
    only saves time.  It is cleared whole when it reaches _MEMO_LIMIT.
    """
    memo: dict = {}

    def call(*args):
        args = [np.asarray(a, dtype=float) for a in args]
        key = b"|".join(a.tobytes() for a in args)
        if key not in memo:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = fn(*args)
        return memo[key]

    return call


@dataclass
class _Inverse:
    """The coordinates z of a point under an inverted map G; DG(z) and
    its inverse, whose rows are the coordinate gradients, on first use."""

    coords: np.ndarray
    jacobian: Callable  # DG

    @cached_property
    def jac(self) -> np.ndarray:
        return self.jacobian(self.coords)

    @cached_property
    def jac_inv(self) -> np.ndarray:
        return np.linalg.inv(self.jac)


class TowerIndex:
    """Memoized inversion of a chart tower: solve(x) is the _Inverse of x
    under Psi, so coords are its deepest-level coordinates.

    Every chart inverts by flowing its query back to its slice, so the
    coordinates of x depend on x alone.  Solutions are memoized on the
    exact bytes of x, so the value and gradient of all integral components
    at one probe cost a single solve.  Each chart was validated over the
    box of its domain radius, where its inversion converges.
    """

    def __init__(self, tower: ChartTower):
        self.tower = tower
        self._solved = _memo(lambda x: self._solve_fresh(x))
        self._jacobian = lambda y: tower.forward_and_jacobian(y)[1]

    def solve(self, x: np.ndarray) -> _Inverse:
        return self._solved(x)

    # kept apart from solve: bench/spans.py counts the tower solves here
    def _solve_fresh(self, x: np.ndarray) -> _Inverse:
        return _Inverse(self.tower.solve_stack(x), self._jacobian)


# ---------------------------------------------------------------------------
# hypothesis checks


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the two construction hypotheses at a base point."""

    dimension_s: int
    k: int
    l: int
    submersion_ok: bool
    flow_transverse: bool  # X_H(m) not in Ker DPi(m)
    kernel_coisotropic: bool
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.submersion_ok and self.flow_transverse and self.kernel_coisotropic


def check_assumptions(
    hamiltonian: ScalarField,
    fibration: MapField,
    basepoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> AssumptionReport:
    """Check the two hypotheses the construction rests on at basepoint.

    (i) the Hamiltonian field must leave the fibres (X_H(m) outside the
    kernel of the fibration differential) and (ii) that kernel must be
    coisotropic.  The fibration itself must be a submersion at m.
    """
    m = np.asarray(basepoint, dtype=float)
    s = fibration.dimension_s
    if m.shape != (2 * s,):
        raise ValueError(f"basepoint must have length {2 * s}")
    if hamiltonian.dimension_s != s:
        raise ValueError("hamiltonian and fibration dimensions disagree")
    k = fibration.target_dim
    l = 2 * s - k
    messages = []

    DPi = fibration.jacobian(m)
    rank = numerical_rank(DPi, tolerances.rank)
    submersion_ok = rank == k
    if not submersion_ok:
        messages.append(f"fibration rank {rank} < {k} at base point")
        return AssumptionReport(s, k, l, False, False, False, tuple(messages))

    kernel = nullspace(DPi, tolerances.rank)
    ker = Subspace(m, kernel, tolerances.rank)
    xh = hamiltonian_vf(hamiltonian, tolerances)(m)
    stacked = unit_columns(np.hstack([kernel, xh[:, None]]))  # a zero field stays tangent
    flow_transverse = numerical_rank(stacked, tolerances.rank) == kernel.shape[1] + 1
    if not flow_transverse:
        messages.append("Hamiltonian field at the base point is tangent to the fibre")

    cls = classify(ker)
    if not cls.coisotropic:
        messages.append("fibre tangent space is not coisotropic at the base point")

    return AssumptionReport(
        s, k, l, True, flow_transverse, cls.coisotropic, tuple(messages)
    )


# ---------------------------------------------------------------------------
# frame state and extension


@dataclass(frozen=True)
class FrameState:
    """Current commuting frame together with its chart tower.

    fields hold the frame as phase-space vector fields, each the
    hamiltonian_vf of a scalar: X_H, then X_{y_b} of each chosen tower
    coordinate y_b.  Their derivative would be a finite difference, but
    nothing asks for one: they serve the checks, and the charts do not
    flow them.  charts[j] (j >= 1) flows the column tower.columns[j] of the
    parent level's Poisson matrix, with its exact Jacobian.  tower holds
    one chart per field, and assumptions the passed hypothesis check at
    the base point.
    """

    fibration: MapField
    basepoint: np.ndarray
    assumptions: AssumptionReport
    fields: tuple[VectorField, ...]
    tower: ChartTower
    kernel_basis: np.ndarray
    tolerances: Tolerances
    settings: IntegratorSettings
    initial_radius: float

    @property
    def r(self) -> int:
        return len(self.fields)

    @property
    def k(self) -> int:
        return self.fibration.target_dim

    @property
    def dimension_s(self) -> int:
        return self.fibration.dimension_s


def init_frame(
    hamiltonian: ScalarField,
    fibration: MapField,
    basepoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    settings: Optional[IntegratorSettings] = None,
    initial_radius: float = 0.5,
) -> FrameState:
    """Start the frame at {X_H} with its rectifying chart."""
    settings = settings or IntegratorSettings(
        abs_tol=tolerances.ode_abs, rel_tol=tolerances.ode_rel
    )
    report = check_assumptions(hamiltonian, fibration, basepoint, tolerances)
    if not report.passed:
        raise HypothesisError(
            "construction hypotheses fail at the base point: "
            + "; ".join(report.messages)
        )
    m = np.asarray(basepoint, dtype=float)
    s = fibration.dimension_s
    xh = hamiltonian_vf(hamiltonian, tolerances)
    chart = FlowBoxChart.build(
        m, xh, settings=settings, tolerances=tolerances, initial_radius=initial_radius
    )
    tower = ChartTower((), (_canonical_poisson(s),), (), s).extended(chart)
    kernel = nullspace(fibration.jacobian(m), tolerances.rank)
    return FrameState(
        fibration=fibration,
        basepoint=m,
        assumptions=report,
        fields=(xh,),
        tower=tower,
        kernel_basis=kernel,
        tolerances=tolerances,
        settings=settings,
        initial_radius=initial_radius,
    )


def _validate_frame_invariants(state: FrameState) -> np.ndarray:
    m = state.basepoint
    vals = np.column_stack([fld(m) for fld in state.fields])
    r = state.r
    tol = state.tolerances
    worst = isotropy_defect(vals)
    if worst > tol.residual:
        raise FrameExtensionError(
            f"frame is not isotropic at the base point: |omega| = {worst:.3e}",
            {"pairwise_omega": worst},
        )
    if numerical_rank(unit_columns(vals), tol.rank) != r:
        raise FrameExtensionError("frame fields are dependent at the base point")
    stacked = unit_columns(np.hstack([vals, state.kernel_basis]))
    want = r + state.kernel_basis.shape[1]
    got = numerical_rank(stacked, tol.rank)
    if got != want:
        raise FrameExtensionError(
            f"frame span meets the fibre tangent space: rank {got} < {want}"
        )
    return vals


def _column_pivots(c: np.ndarray, r: int) -> list[int]:
    """LAPACK dgeqp3's first r QR column pivots (Businger & Golub 1965): r times,
    take the first unpivoted column of largest norm, project every column off it."""
    pivots: list[int] = []
    for _ in range(r):
        norms = np.linalg.norm(c, axis=0)
        norms[pivots] = -1.0
        pivots.append(j := int(np.argmax(norms)))
        c = c - np.outer(c[:, j], c[:, j] @ c) / (norms[j] ** 2 or 1.0)
    return pivots


def extend_frame(state: FrameState) -> FrameState:
    """Append one commuting Hamiltonian field to the frame.

    Rectifies the current frame (the tower already holds the charts),
    reorders the tail coordinates so the coefficient matrix of the frame
    against the coordinate fields has an invertible trailing block, then
    scans the admissible tail coordinates for one whose lifted field is
    transverse to both the frame and the fibre, preferring the best
    conditioned choice.
    """
    r, k, n = state.r, state.k, 2 * state.dimension_s
    if r >= k:
        raise FrameExtensionError(f"frame already has {r} >= k = {k} fields")
    frame_vals = _validate_frame_invariants(state)
    tol = state.tolerances

    # Coefficients of the constant frame directions against the lifted
    # coordinate fields, read from the inverse Poisson matrix at the
    # chart origin: e_i = sum_a c_i^a L e_a with c_i = L^{-1} e_i.
    lam0_inv = np.linalg.inv(state.tower.poissons[-1](np.zeros(n)))
    head = lam0_inv[:r, :r]
    if np.max(np.abs(head)) > tol.residual:
        raise FrameExtensionError(
            "chart coordinate fields are not orthogonal to the frame: "
            f"head coefficient {np.max(np.abs(head)):.3e}",
            {"head_coefficients": head},
        )
    coeff = lam0_inv[r:, :r].T  # (r, n - r): c_i^a over tail coordinates a

    # QR column pivoting (Businger-Golub) picks r well-conditioned tail
    # columns; they move to the rear so the trailing r x r block is
    # invertible and the scan below ranges over the surviving leading columns.
    chosen = sorted(_column_pivots(coeff, r))
    leading = [a for a in range(n - r) if a not in set(chosen)]
    perm = leading + chosen
    if numerical_rank(coeff[:, chosen], tol.rank) < r:
        raise FrameExtensionError("coefficient matrix has no invertible trailing block")
    tower = state.tower.with_permuted_tail(perm)
    # the lift of tail coordinate y_b is X_{y_b}; one memoized solve at m reads all
    coords = _integral_components(TowerIndex(tower).solve, 0, state.dimension_s)

    best_b, best_score = None, -np.inf
    deficits: dict[int, int] = {}
    want = r + 1 + state.kernel_basis.shape[1]
    for b in range(r, n - r):
        candidate = hamiltonian_vf(coords[b], tol)(state.basepoint)
        stacked = np.column_stack([frame_vals, candidate, state.kernel_basis])
        sv = np.linalg.svd(unit_columns(stacked), compute_uv=False)
        rank = _rank(sv, tol.rank)
        if rank == want:
            score = sv[want - 1]
            if score > best_score:
                best_score = score
                best_b = b
        else:
            deficits[b] = want - rank
    if best_b is None:
        raise FrameExtensionError(
            "no admissible lifted field: every candidate is tangent to the "
            "span of the frame and the fibre",
            {"rank_deficits": deficits, "target_rank": want},
        )

    # Next chart lives in the current tower coordinates, where the old
    # frame is the translations e_0..e_{r-1} and the new field is a column
    # of the Poisson matrix, invariant along them.  Isotropy of the
    # enlarged frame is automatic there.
    lam_fn = tower.poissons[-1]

    def ghat(y: np.ndarray, derivative: bool = False):
        out = lam_fn(y, derivative)
        if derivative:
            return out[0][:, best_b], out[1][:, best_b, :]
        return out[:, best_b]

    lifted = VectorField(ghat, state.dimension_s, lambda Y: lam_fn.rows(Y)[:, :, best_b])
    try:
        new_chart = FlowBoxChart.build(
            np.zeros(n), lifted, r, state.settings, tol, state.initial_radius
        )
    except ChartError as exc:
        message = f"level {r + 1} chart construction failed: {exc}"
        raise FrameExtensionError(message) from exc

    return replace(
        state,
        fields=state.fields + (hamiltonian_vf(coords[best_b], tol),),
        tower=tower.extended(new_chart, best_b),
    )


# ---------------------------------------------------------------------------
# first integrals


@dataclass(frozen=True)
class FirstIntegralSubmersion:
    """A submersion whose level sets absorb the Hamiltonian flow.

    integrals is a map with l = 2s - k procedural components: the tail
    coordinates of the final chart tower.  Component values and gradients
    share one query-seeded, memoized tower inversion, so they depend on
    the point alone and evaluating all of them at a point costs a single
    tower solve.  points are the probes the build verified at,
    sample_points(probes, seed).
    """

    integrals: MapField
    state: FrameState
    index: TowerIndex
    diagnostics: dict
    points: np.ndarray

    @property
    def dimension_s(self) -> int:
        return self.state.dimension_s

    @property
    def k(self) -> int:
        return self.state.k

    @property
    def l(self) -> int:
        return 2 * self.dimension_s - self.k

    def sample_points(
        self, count: int, seed: int = 0, margin: float = 0.5
    ) -> np.ndarray:
        """Phase-space probes inside the validated chart domain."""
        n = 2 * self.dimension_s
        radius = margin * min(c.domain_radius for c in self.state.tower.charts)
        rng = np.random.default_rng(seed)
        ys = enumerate(rng.uniform(-radius, radius, size=(count, n)), 1)
        at = self.state.tower.forward
        return np.array([_named(f"sample point {i} of {count}", at, y) for i, y in ys])


def _integral_components(solve: Callable, k: int, dim_s: int) -> tuple[ProceduralScalar, ...]:
    """Components x -> coords[i], i >= k, of the _Inverse solve(x), with
    gradients the rows of its jac_inv; solve is a memoized inversion, such
    as TowerIndex.solve or a _newton_inverse (integrals_from_solution)."""
    comps = []
    for i in range(k, 2 * dim_s):
        def value(x, i=i):
            return float(solve(x).coords[i])

        def gradient(x, i=i):
            return solve(x).jac_inv[i].copy()

        comps.append(ProceduralScalar(value, gradient, dim_s))
    return tuple(comps)


def _jacobian_stack(F: Union[MapField, FirstIntegralSubmersion], points) -> np.ndarray:
    """dF at every probe, one evaluation each, as a (P, l, 2s) stack."""
    integrals, P = _integrals_map(F), len(points)
    dF = [_named(f"dF probe {i} of {P}", integrals.jacobian, x) for i, x in enumerate(points, 1)]
    return np.array(dF).reshape(len(dF), integrals.target_dim, integrals.dim)


def build_first_integrals(
    hamiltonian: ScalarField,
    fibration: MapField,
    basepoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    settings: Optional[IntegratorSettings] = None,
    initial_radius: float = 0.5,
    probes: int = 50,
    seed: int = 0,
) -> FirstIntegralSubmersion:
    """Run the frame extension to completion and verify the result.

    Extends from {X_H} to k fields, takes the final chart's tail
    coordinates as integral components, and checks at seeded probes that
    the components annihilate the Hamiltonian field, stay jointly
    transverse to the fibration, and cut out isotropic kernels.
    """
    state = init_frame(
        hamiltonian, fibration, basepoint, tolerances, settings, initial_radius
    )
    while state.r < state.k:
        state = extend_frame(state)

    index = TowerIndex(state.tower)
    comps = _integral_components(index.solve, state.k, state.dimension_s)
    integrals = MapField(comps, state.dimension_s)

    xh = state.fields[0]
    F = FirstIntegralSubmersion(integrals, state, index, {}, np.empty(0))
    points = F.sample_points(probes, seed)

    # the stacked checks of verify on one dF per probe
    n, rank_tol = 2 * state.dimension_s, tolerances.rank
    dF = _jacobian_stack(integrals, points)
    X = np.array([xh(x) for x in points]).reshape(len(points), n, 1)
    drift = float(np.max(np.abs(dF @ X), initial=0.0))
    both = np.concatenate([_jacobian_stack(fibration, points), dF], axis=1)
    transverse = bool(np.all(numerical_rank(both, rank_tol) == n))
    kernels = _kernels(dF, rank_tol)
    gram = max([float(np.max(isotropy_defect(K))) for _, K in kernels], default=0.0)

    diagnostics = {
        "flow_drift": drift,
        "transversality": transverse,
        "kernel_gram": gram,
        "probes": probes,
        "seed": seed,
        "b_history": state.tower.columns[1:],
        "chart_radii": tuple(c.domain_radius for c in state.tower.charts),
    }
    failures = []
    if drift > tolerances.residual:
        failures.append(f"flow drift {drift:.3e}")
    if not transverse:
        failures.append("transversality rank failed at a probe")
    if gram > tolerances.residual:
        failures.append(f"kernel isotropy gram {gram:.3e}")
    if failures:
        raise ConstructionError(
            "constructed integrals failed verification: " + "; ".join(failures),
            diagnostics,
        )
    return replace(F, diagnostics=diagnostics, points=points)


# ---------------------------------------------------------------------------
# fibration builder


@dataclass(frozen=True)
class FibrationPlan:
    """A coisotropic fibration adapted to a flow direction.

    pi projects onto k Darboux position coordinates, after an optional
    canonical swap (q, p) -> (-p, q) and a swap of coordinate 1 with the
    strongest direction.  sources carry the component expressions in the
    original coordinates.
    """

    pi: MapField
    swap_applied: bool
    q_order: tuple[int, ...]  # 0-based original q-indices, new order
    sources: tuple[str, ...]


def build_fibration(X: VectorField, basepoint, k: int) -> FibrationPlan:
    """Choose Darboux positions whose fibres dodge the given direction.

    If the direction at the base point has no q-component, the canonical
    swap turns momenta into positions first; the strongest remaining
    component is relabelled to the front so the first k positions always
    work.
    """
    m = np.asarray(basepoint, dtype=float)
    s = X.dimension_s
    if not 1 <= k <= s:
        raise FibrationError(f"fibre codimension k = {k} must satisfy 1 <= k <= {s}")
    v = X(m)
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        raise FibrationError("direction vanishes at the base point")

    a = v[:s]
    swap = bool(np.max(np.abs(a)) <= 1e-12 * scale)
    if swap:
        a = -v[s:]
    j = int(np.argmax(np.abs(a)))
    order = list(range(s))
    order[0], order[j] = order[j], order[0]

    sources = tuple(
        (f"-p{idx + 1}" if swap else f"q{idx + 1}") for idx in order[:k]
    )
    pi = MapField.from_sources(sources, s)
    return FibrationPlan(pi, swap, tuple(order), sources)


# ---------------------------------------------------------------------------
# complete solutions and the duality


@dataclass
class CompleteSolution:
    """A parametrized family of isotropic submanifolds, given procedurally.

    Maps (n, lam) in validated axis-aligned boxes to phase-space points.
    The Jacobian evaluator returns the full square matrix with the n
    columns first.
    """

    dimension_s: int
    n_box: np.ndarray  # (k, 2) rows of [lo, hi]
    lambda_box: np.ndarray  # (l, 2)
    _evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""  # read by nothing; bench/workloads.py perturb() still sets it

    @property
    def k(self) -> int:
        return self.n_box.shape[0]

    @property
    def l(self) -> int:
        return self.lambda_box.shape[0]

    def in_domain(self, n, lam) -> bool:
        n = np.asarray(n, dtype=float)
        lam = np.asarray(lam, dtype=float)
        return bool(
            np.all(n >= self.n_box[:, 0]) and np.all(n <= self.n_box[:, 1])
            and np.all(lam >= self.lambda_box[:, 0])
            and np.all(lam <= self.lambda_box[:, 1])
        )

    def __call__(self, n, lam) -> np.ndarray:
        return self._evaluator(*self._checked(n, lam))

    def jacobian(self, n, lam) -> np.ndarray:
        return self._jacobian(*self._checked(n, lam))

    def _checked(self, n, lam) -> tuple[np.ndarray, np.ndarray]:
        n, lam = np.asarray(n, dtype=float), np.asarray(lam, dtype=float)
        if n.shape != (self.k,) or lam.shape != (self.l,):
            raise ValueError(
                f"S takes n of shape ({self.k},) and lambda of shape ({self.l},), "
                f"got {n.shape} and {lam.shape}"
            )
        if not self.in_domain(n, lam):
            raise DomainBoxError("(n, lambda) outside the validated domain boxes")
        return n, lam

    def sample_domain(self, count: int, seed: int = 0, margin: float = 1.0):
        """Seeded (n, lam) samples across the boxes; margin < 1 shrinks
        towards the centers."""
        rng = np.random.default_rng(seed)
        boxes = np.vstack([self.n_box, self.lambda_box])
        mid = boxes.mean(axis=1)
        half = margin * (boxes[:, 1] - boxes[:, 0]) / 2.0
        pts = mid + rng.uniform(-1.0, 1.0, size=(count, boxes.shape[0])) * half
        return pts[:, : self.k], pts[:, self.k:]

    @classmethod
    def from_callables(
        cls, evaluator, jacobian, dimension_s: int, n_box, lambda_box
    ) -> "CompleteSolution":
        n_box = np.asarray(n_box, dtype=float).reshape(-1, 2)
        lambda_box = np.asarray(lambda_box, dtype=float).reshape(-1, 2)
        return cls(dimension_s, n_box, lambda_box, evaluator, jacobian)


_MIN_BOX_EDGE = 1e-3
_VALIDATION_PROBES = 20


def _integrals_map(F: Union[MapField, FirstIntegralSubmersion]) -> MapField:
    return F.integrals if isinstance(F, FirstIntegralSubmersion) else F


def _tower_inverse(fibration: MapField, F: FirstIntegralSubmersion, m, tol):
    """S(n, lam) = Psi(h, lam), where the head h solves Pi(Psi(h, lam)) = n.

    [A0 | B0] = DPi(m) DPsi(0) starts, gates and sizes S: the start h0 =
    A0^{-1} (n - Pi(m) - B0 lam) depends on the query alone, A0 must be
    regular, and the half-edges, rho sum_j |[A0 | B0]_ij| for n_i and rho
    for lam_j with rho = 0.4 x the least chart radius r, are half the corner
    bound of the linearized reach of (Pi o Psi, y_tail) over |y| <= 0.8 r.
    Each solve continues its own tower.leaf(lam), so S stays pure.
    DS = DPsi M^{-1}, M = [DPi DPsi ; 0 | I].  Returns solve(n, lam) ->
    (S, DS), A0, the box centre (Pi(m), 0) and the half-edges.
    """
    tower, k, dim = F.state.tower, F.k, 2 * F.dimension_s
    AB = fibration.jacobian(m) @ tower.forward_and_jacobian(np.zeros(dim))[1]
    pi_m = fibration.value(m)
    rho = 0.4 * min(c.domain_radius for c in tower.charts)
    half = rho * np.concatenate([np.abs(AB).sum(axis=1), np.ones(dim - k)])

    def solve(n: np.ndarray, lam: np.ndarray):
        # one leaf pass per iterate serves both the residual and the Jacobian
        chart = _memo(tower.leaf(lam))

        def jacobian(h: np.ndarray) -> np.ndarray:
            x, D = chart(h)
            return fibration.jacobian(x) @ D[:, :k]

        def residual(h: np.ndarray) -> np.ndarray:
            try:
                return fibration.value(chart(h)[0]) - n
            except (ChartError, FlowError):  # Newton halves a step the chart refuses
                return np.full(k, np.nan)

        h0 = np.linalg.solve(AB[:, :k], n - pi_m - AB[:, k:] @ lam)
        # an unreachable start raises, named by its query
        _named(f"S start at n={n.tolist()}, lambda={lam.tolist()}", chart, h0)
        h = newton_solve(residual, jacobian, h0, tol=tol.newton, role="S head Newton")
        x, D = chart(h)
        M = np.vstack([fibration.jacobian(x) @ D, np.eye(dim)[k:]])
        return x, D @ np.linalg.inv(M)

    return solve, AB[:, :k], np.concatenate([pi_m, np.zeros(dim - k)]), half


def _newton_inverse(G: Callable, DG: Callable, start, tol: float, role: str) -> Callable:
    """target -> the _Inverse of z solving G(z) = target by newton_solve
    from start: a pure function of the target, for _memo to wrap.  The
    Newton inversion of the duality, S from analytic (Pi, F) and F from S."""

    def invert(target: np.ndarray) -> _Inverse:
        z = newton_solve(lambda z: G(z) - target, DG, start, tol=tol, role=role)
        return _Inverse(z, DG)

    return invert


def _stacked_inverse(fibration: MapField, integrals: MapField, m, tol):
    """Newton on the stacked map (Pi, F) from m; returns as _tower_inverse."""
    G = MapField((*fibration.components, *integrals.components), fibration.dimension_s)
    invert = _newton_inverse(G.value, G.jacobian, m, tol.newton, "S stacked Newton")

    def solve(n: np.ndarray, lam: np.ndarray):
        entry = invert(np.concatenate([n, lam]))
        return entry.coords, entry.jac_inv

    center = G.value(m)
    return solve, G.jacobian(m), center, 0.15 * (1.0 + np.abs(center))


def solution_from_integrals(
    fibration: MapField,
    F: Union[MapField, FirstIntegralSubmersion],
    basepoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> CompleteSolution:
    """Invert (fibration, integrals) into a complete solution.

    A constructed submersion's integrals are the tail coordinates of its
    chart tower Psi, so S(n, lam) = Psi(h, lam) takes one k-dimensional
    Newton solve for the head h and no tower inversion.  An analytic map
    is inverted by Newton iteration on the stacked map.  Every solve is
    query-seeded, so S is a pure function of (n, lam).  A constructed F's
    boxes start at (Pi(m), 0) +- rho (|A0| + |B0|) 1 for n, +- rho for lam
    (_tower_inverse); analytic ones at a unit-scale default.  Boxes halve
    until S converges at every validation probe, which seed alone picks;
    shrinking below the minimum edge is an error.
    """
    m = np.asarray(basepoint, dtype=float)
    integrals = _integrals_map(F)
    s, k = integrals.dimension_s, fibration.target_dim
    if k + integrals.target_dim != 2 * s:
        raise ValueError("fibration and integrals must jointly have 2s components")
    if isinstance(F, FirstIntegralSubmersion):
        solve, J0, center, half = _tower_inverse(fibration, F, m, tolerances)
    else:
        solve, J0, center, half = _stacked_inverse(fibration, integrals, m, tolerances)
    if numerical_rank(J0, tolerances.rank) != J0.shape[0]:
        raise TransversalityError(
            "stacked Jacobian of (fibration, integrals) is singular at the base point"
        )
    half = np.maximum(half, _MIN_BOX_EDGE / 2.0)

    # Validate at probes with no coordinate within a quarter edge of the centre
    # of the box; halve on any failure.
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, (_VALIDATION_PROBES, 2 * s))
    probe_dirs = np.copysign(np.maximum(np.abs(u), 0.25), u)
    while True:
        try:
            for probe, d in enumerate(probe_dirs):
                target = center + d * half
                solve(target[:k], target[k:])
            break
        except (NewtonError, ChartError, FlowError) as exc:
            half = half / 2.0
            if np.min(2.0 * half) < _MIN_BOX_EDGE:
                raise DualityError(
                    "solution domain shrank below the minimum box edge during "
                    f"validation; validation probe {probe + 1} of {len(probe_dirs)}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

    solved = _memo(solve)  # S and DS at one point share a solve
    box = np.column_stack([center - half, center + half])
    return CompleteSolution(
        s, box[:k], box[k:],
        lambda n, lam: solved(n, lam)[0].copy(),
        lambda n, lam: solved(n, lam)[1].copy(),
    )


def integrals_from_solution(
    solution: CompleteSolution,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> MapField:
    """Read first integrals off a complete solution: F(x) is the lam part
    of (n, lam) = S^{-1}(x), dF the lam rows of DS^{-1}, by the tower's
    _integral_components over a memoized _newton_inverse of S from the box
    midpoint.  F is a pure function of x; one Newton solve serves every
    component's value and gradient at a point.  Its Newton stays, though on a
    constructed S it nests S's head Newton: no command or benchmark calls it."""
    s, k = solution.dimension_s, solution.k
    mid = np.vstack([solution.n_box, solution.lambda_box]).mean(axis=1)
    # Newton trial steps may leave the validated boxes briefly, so the
    # box-checked public interface is bypassed here.
    solve = _memo(_newton_inverse(
        lambda y: solution._evaluator(y[:k], y[k:]),
        lambda y: solution._jacobian(y[:k], y[k:]),
        mid, tolerances.newton, "F from S Newton",
    ))
    return MapField(_integral_components(solve, k, s), s)
