"""The benchmark's workloads and their independent output checks.

Each workload is a sequence of identical rounds.  A round builds what the
workload needs from its inputs (set-up), runs the verification layer
once, then makes the point queries.  Every call into the program is timed
on its own, and every output is checked against a computation made apart
from the program: closed forms in numpy for the oscillators, Python's own
arithmetic for the analytic pairs, and central differences.  Checks use
tolerances, never equality with stored output, because today's results
move by about 1e-10 with query order.

The query points come from a shifted Kronecker sequence: consecutive
points are far apart (scattered, so a warm start from the previous query
does not help), each step jumps by about the same distance, and the
seed shifts the whole sequence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from hjcomplete import construct, scenarios, standard, symplectic, verify
from hjcomplete.expr import MapField, ScalarField

# Tolerances of the independent checks.  Observed residuals are about
# 1e-10; a real fault moves them by far more than these bounds.
TOL_ROUND_TRIP = 1e-7  # |Pi(S) - n|, |F(S) - lambda|
TOL_ENERGY = 1e-7  # spread of H(S(n, lambda)) over n on one leaf
TOL_ISOTROPY = 1e-7  # |DS_n^T J DS_n|
TOL_CONSERVED = 1e-7  # |F(Phi_t x) - F(x)| and |dF X_H|
TOL_FD = 1e-5  # |DS - central FD of S|, relative to max(1, |DS|)
TOL_W = 1e-8  # |W - closed form|
TOL_ANALYTIC = 1e-9  # |F - Python arithmetic|, relative
TOL_ANALYTIC_GRAD = 1e-6  # |dF - central FD|, relative


@dataclass
class RoundLog:
    """Timings and outcomes of one round."""

    setup_s: float = math.nan
    verify_s: float = math.nan
    query_s: list = field(default_factory=list)  # the workload's point query
    other_s: dict = field(default_factory=dict)  # kind -> [seconds]
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # operations whose output failed a check
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str, *, raised: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not raised:
                self.wrong += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def add_time(self, kind: str, seconds: float) -> None:
        self.other_s.setdefault(kind, []).append(seconds)

    @property
    def queries_s(self) -> float:
        return sum(self.query_s) + sum(sum(v) for v in self.other_s.values())


def kronecker(count: int, dim: int, seed: int) -> np.ndarray:
    """Shifted R_d sequence in [0, 1)^dim (Roberts' generalised golden ratio)."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(j + 1) for j in range(dim)])
    shift = np.random.default_rng(seed).uniform(size=dim)
    return (shift + np.arange(1, count + 1)[:, None] * alpha) % 1.0


def in_box(u: np.ndarray, box: np.ndarray, margin: float) -> np.ndarray:
    mid = box.mean(axis=1)
    half = margin * (box[:, 1] - box[:, 0]) / 2.0
    return mid + (2.0 * u - 1.0) * half


def _pt(a) -> str:
    return "(" + ", ".join(f"{float(v):.4f}" for v in np.atleast_1d(a)) + ")"


# ---------------------------------------------------------------------------
# harmonic oscillators: build, verify, query


def oscillator_energy(x: np.ndarray) -> float:
    """H = |q|^2/2 + |p|^2/2, the Hamiltonian of both harmonic scenarios."""
    return 0.5 * float(x @ x)


def oscillator_field(x: np.ndarray) -> np.ndarray:
    s = x.shape[0] // 2
    return np.concatenate([x[s:], -x[:s]])


def oscillator_flow(x: np.ndarray, t: float) -> np.ndarray:
    """Closed-form time-t flow of the unit-frequency oscillator."""
    s = x.shape[0] // 2
    q, p = x[:s], x[s:]
    c, sn = math.cos(t), math.sin(t)
    return np.concatenate([q * c + p * sn, -q * sn + p * c])


def symplectic_gram(cols: np.ndarray) -> np.ndarray:
    s = cols.shape[0] // 2
    return cols[:s].T @ cols[s:] - cols[s:].T @ cols[:s]


def half_disc_area(q: float, energy: float) -> float:
    """Antiderivative of sqrt(2E - q^2)."""
    r2 = 2.0 * energy
    return 0.5 * q * math.sqrt(r2 - q * q) + energy * math.asin(q / math.sqrt(r2))


@dataclass(frozen=True)
class HarmonicSpec:
    scenario: str
    probes: int  # construction and verification probes
    integral_pairs: int  # F with dF at x and at its closed-form flow image
    characteristic_grid: tuple[int, int]  # (lambda values, q values) for W
    fd_points: int  # solution queries whose DS is checked by central FD


HARMONIC = {
    "harmonic_s2": HarmonicSpec("harmonic_s2", 6, 5, (0, 0), 1),
    "harmonic_s1": HarmonicSpec("harmonic_s1", 20, 50, (2, 2), 0),
}

SOLUTION_QUERIES = 100  # S(n, lambda) with DS at scattered points, per round
LEAVES = 10  # distinct lambda among them

INTEGRAL_RADIUS = 0.1  # phase-space offsets around the base point
FLOW_TIME = 0.15  # flow times drawn from [-FLOW_TIME, FLOW_TIME]
FLOW_STEP = 0.05  # the partner point is FLOW_STEP further along the flow
FD_STEP = 1e-5


def perturb(solution: construct.CompleteSolution) -> construct.CompleteSolution:
    """Negative control: move the momentum off the leaf family by 1e-3."""
    s = solution.dimension_s
    evaluate, jacobian = solution._evaluator, solution._jacobian

    def bad_eval(n, lam):
        x = evaluate(n, lam).copy()
        x[s] += 1e-3 * math.sin(3.0 * n[0])
        return x

    def bad_jac(n, lam):
        D = jacobian(n, lam).copy()
        D[s, 0] += 3e-3 * math.cos(3.0 * n[0])
        return D

    return construct.CompleteSolution(
        s, solution.n_box, solution.lambda_box, bad_eval, bad_jac, "perturbed"
    )


def harmonic_round(spec: HarmonicSpec, seed: int, control: Optional[str]) -> RoundLog:
    log = RoundLog()
    planned = (
        2
        + SOLUTION_QUERIES
        + 2 * spec.integral_pairs
        + spec.characteristic_grid[0] * spec.characteristic_grid[1]
    )

    try:
        start = time.perf_counter()
        cfg = scenarios.parse_config({"scenario": spec.scenario, "probes": spec.probes})
        m = np.array(cfg.base_point)
        H = cfg.hamiltonian()
        Pi = cfg.fibration()
        F = construct.build_first_integrals(
            H, Pi, m, cfg.tolerances, cfg.integrator_settings(),
            cfg.domain_radius, probes=cfg.probes, seed=cfg.seed,
        )
        solution = construct.solution_from_integrals(
            Pi, F, m, cfg.tolerances, seed=cfg.seed
        )
        log.setup_s = time.perf_counter() - start
    except Exception as exc:  # the round cannot go on without a solution
        for _ in range(planned):
            log.record(False, f"set-up raised {exc!r}", raised=True)
        return log
    log.record(True, "set-up")

    # The four checks `hjcomplete construct` runs.
    try:
        start = time.perf_counter()
        reports = [
            verify.hje_residual(solution, H, Pi, cfg.probes, cfg.seed, cfg.tolerances),
            verify.isotropy_residual(solution, cfg.probes, cfg.seed, cfg.tolerances),
        ]
        points = F.sample_points(cfg.probes, cfg.seed)
        reports.append(
            verify.first_integral_residual(F, H, points, cfg.tolerances, cfg.seed)
        )
        sub = verify.submersion_checks(
            F, points, cfg.tolerances, fibration=Pi, seed=cfg.seed
        )
        log.verify_s = time.perf_counter() - start
        failing = [r.name for r in reports if not r.passed]
        if not sub.passed:
            failing.append("submersion")
        log.record(not failing, f"verification failed: {failing}")
    except Exception as exc:
        log.record(False, f"verification raised {exc!r}", raised=True)

    if control == "perturbed":
        solution = perturb(solution)

    _solution_queries(spec, seed, solution, F.integrals, log)
    _integral_queries(spec, seed, m, F.integrals, log)
    if spec.characteristic_grid[0]:
        _characteristic_queries(spec, seed, solution, log)
    return log


def solution_inputs(solution, seed: int):
    """Scattered (n, lambda) on LEAVES distinct lambda, visited in turn."""
    lams = in_box(kronecker(LEAVES, solution.l, seed + 101), solution.lambda_box, 0.9)
    ns = in_box(kronecker(SOLUTION_QUERIES, solution.k, seed + 202), solution.n_box, 0.9)
    leaf = [(3 * i) % LEAVES for i in range(SOLUTION_QUERIES)]
    return [(ns[i], lams[leaf[i]], leaf[i]) for i in range(SOLUTION_QUERIES)]


def _solution_queries(spec, seed, solution, integrals, log: RoundLog) -> None:
    k = solution.k
    queries = solution_inputs(solution, seed)
    energies: dict[int, list] = {}
    outcomes = []  # [ok, message, leaf, raised] per query
    solved = []
    for n, lam, leaf in queries:
        try:
            start = time.perf_counter()
            x = solution(n, lam)
            DS = solution.jacobian(n, lam)
            log.query_s.append(time.perf_counter() - start)
        except Exception as exc:
            outcomes.append([False, f"S at n={_pt(n)}, lambda={_pt(lam)} raised {exc!r}", leaf, True])
            continue
        try:
            back = integrals.value(x)
        except Exception as exc:
            outcomes.append([False, f"F(S) at n={_pt(n)} raised {exc!r}", leaf, False])
            continue
        trip = max(float(np.max(np.abs(x[:k] - n))), float(np.max(np.abs(back - lam))))
        iso = float(np.max(np.abs(symplectic_gram(DS[:, :k]))))
        ok = trip <= TOL_ROUND_TRIP and iso <= TOL_ISOTROPY
        outcomes.append(
            [ok, f"S at n={_pt(n)}: round trip {trip:.1e}, isotropy {iso:.1e}", leaf, False]
        )
        energies.setdefault(leaf, []).append(oscillator_energy(x))
        solved.append((n, lam, DS, len(outcomes) - 1))

    for leaf, values in energies.items():
        spread = max(values) - min(values)
        if spread > TOL_ENERGY:
            for out in outcomes:
                if out[2] == leaf and out[0]:
                    out[0] = False
                    out[1] = f"energy on leaf {leaf} spreads by {spread:.1e}"

    # Central differences of S in every parameter, after the timed queries
    # so their evaluations do not change the warm starts those queries see.
    for n, lam, DS, idx in solved[: spec.fd_points]:
        y = np.concatenate([n, lam])
        fd = np.empty_like(DS)
        try:
            for j in range(y.shape[0]):
                e = np.zeros_like(y)
                e[j] = FD_STEP
                hi, lo = y + e, y - e
                fd[:, j] = (solution(hi[:k], hi[k:]) - solution(lo[:k], lo[k:])) / (2 * FD_STEP)
            gap = float(np.max(np.abs(fd - DS))) / max(1.0, float(np.max(np.abs(DS))))
            message = f"DS differs from central FD of S by {gap:.1e}"
        except Exception as exc:
            gap, message = math.inf, f"central FD of S raised {exc!r}"
        if gap > TOL_FD and outcomes[idx][0]:
            outcomes[idx][0] = False
            outcomes[idx][1] = message

    for ok, message, _, raised in outcomes:
        log.record(ok, message, raised=raised)


def _integral_queries(spec, seed, m, integrals, log: RoundLog) -> None:
    n_pairs = spec.integral_pairs
    u = kronecker(n_pairs, m.shape[0] + 1, seed + 303)
    for row in u:
        z = m + INTEGRAL_RADIUS * (2.0 * row[:-1] - 1.0)
        t = FLOW_TIME * (2.0 * row[-1] - 1.0)
        values, results = [], []
        for x in (oscillator_flow(z, t), oscillator_flow(z, t + FLOW_STEP)):
            try:
                start = time.perf_counter()
                v = integrals.value(x)
                dF = integrals.jacobian(x)
                log.add_time("integrals", time.perf_counter() - start)
            except Exception as exc:
                results.append((False, f"F at x={_pt(x)} raised {exc!r}", True))
                continue
            drift = float(np.max(np.abs(dF @ oscillator_field(x))))
            results.append((drift <= TOL_CONSERVED, f"|dF X_H| = {drift:.1e}", False))
            values.append(v)
        if len(values) == 2:
            moved = float(np.max(np.abs(values[0] - values[1])))
            if moved > TOL_CONSERVED:
                results = [(False, f"F moved by {moved:.1e} along the flow", False)] * 2
        for ok, message, raised in results:
            log.record(ok, message, raised=raised)


def _characteristic_queries(spec, seed, solution, log: RoundLog) -> None:
    n_lam, n_q = spec.characteristic_grid
    lams = in_box(kronecker(n_lam, solution.l, seed + 404), solution.lambda_box, 0.8)
    qs = in_box(kronecker(n_q, solution.k, seed + 505), solution.n_box, 0.8)
    q0 = solution.n_box.mean(axis=1)
    for lam in lams:
        W = standard.characteristic_function(solution, lam, q0)
        values = []
        for q in qs:
            try:
                start = time.perf_counter()
                w = W.value(q)
                log.add_time("characteristic", time.perf_counter() - start)
            except Exception as exc:
                values.append((None, q, exc))
                continue
            values.append((w, q, None))
        # W = integral of p dq along the leaf p = sign * sqrt(2E - q^2),
        # with E read from the solution at the anchor.
        try:
            x0 = solution(q0, lam)
        except Exception as exc:
            x0, anchor_error = None, exc
        for w, q, exc in values:
            if exc is not None:
                log.record(False, f"W at q={_pt(q)} raised {exc!r}", raised=True)
            elif x0 is None:
                log.record(False, f"S at the anchor raised {anchor_error!r}")
            else:
                energy = oscillator_energy(x0)
                sign = math.copysign(1.0, x0[1])
                exact = sign * (half_disc_area(q[0], energy) - half_disc_area(q0[0], energy))
                gap = abs(w - exact)
                log.record(gap <= TOL_W, f"W at q={q[0]:.3f}: off the closed form by {gap:.1e}")


# ---------------------------------------------------------------------------
# analytic classification


@dataclass(frozen=True)
class Pair:
    """An analytic (H, F) pair with the labels known from theory."""

    s: int
    hamiltonian: str
    integrals: tuple[str, ...]
    base: tuple[float, ...]
    non_commutative: bool
    commutative: bool


_OSC3 = "(p1^2 + q1^2)/2 + (p2^2 + 4*q2^2)/2 + (p3^2 + 9*q3^2)/2"
_FREE2 = "(p1^2 + p2^2)/2"
_FREE3 = "(p1^2 + p2^2 + p3^2)/2"
_ISO2 = "(p1^2 + p2^2 + q1^2 + q2^2)/2"
_ISO3 = "(p1^2 + p2^2 + p3^2 + q1^2 + q2^2 + q3^2)/2"
_B2 = (0.3, 0.1, 1.0, 0.7)
_B3 = (0.3, 0.1, -0.2, 1.0, 0.7, 0.5)

PAIRS = (
    # a single oscillator and an anharmonic one, each with its energy
    Pair(1, "(q1^2 + p1^2)/2", ("(q1^2 + p1^2)/2",), (0.0, 1.0), True, True),
    Pair(1, "p1^2/2 + q1^4/4", ("p1^2/2 + q1^4/4",), (0.3, 0.8), True, True),
    # separable oscillators with their partial energies
    Pair(2, "(p1^2 + q1^2)/2 + (p2^2 + 4*q2^2)/2",
         ("(p1^2 + q1^2)/2", "(p2^2 + 4*q2^2)/2"), _B2, True, True),
    Pair(3, _OSC3, ("(p1^2 + q1^2)/2", "(p2^2 + 4*q2^2)/2", "(p3^2 + 9*q3^2)/2"),
         _B3, True, True),
    # rotation-invariant oscillators with energy and angular momentum
    Pair(2, _ISO2, (_ISO2, "q1*p2 - q2*p1"), _B2, True, True),
    Pair(3, _ISO3, (_ISO3, "q1*p2 - q2*p1", "(p3^2 + q3^2)/2"), _B3, True, True),
    # free particles with l > s: non-commutative only
    Pair(2, _FREE2, ("p1", "p2", "q2"), (0.1, -0.2, 1.0, 0.6), True, False),
    Pair(3, _FREE3, ("p1", "p2", "p3", "q3"), _B3, True, False),
    # complements that are not integrable
    Pair(2, _FREE2, ("p1", "q1*p2"), (0.1, -0.2, 1.0, 0.6), False, False),
    Pair(3, _FREE3, ("p1", "p2", "q1*p3"), _B3, False, False),
    # a symplectic kernel
    Pair(2, _FREE2, ("q1", "p1"), (0.1, -0.2, 1.0, 0.6), False, False),
)

CLASSIFY_RADIUS = 0.2  # half edge of the probe cube around each base point
CLASSIFY_PROBES = 100  # probes per pair in each integrability report
ANALYTIC_QUERIES = 100  # queries per round, each over every pair


def python_value(source: str, x: np.ndarray) -> float:
    """Evaluate an expression with Python's arithmetic, not the program's."""
    s = x.shape[0] // 2
    env = {f"q{i + 1}": float(x[i]) for i in range(s)}
    env.update({f"p{i + 1}": float(x[s + i]) for i in range(s)})
    return float(eval(source.replace("^", "**"), {"__builtins__": {}}, env))


def _analytic_check(pair: Pair, x: np.ndarray, value, jac) -> tuple[bool, str]:
    worst_v = worst_g = 0.0
    for i, src in enumerate(pair.integrals):
        exact = python_value(src, x)
        worst_v = max(worst_v, abs(value[i] - exact) / max(1.0, abs(exact)))
        for j in range(x.shape[0]):
            e = np.zeros_like(x)
            e[j] = 1e-6
            fd = (python_value(src, x + e) - python_value(src, x - e)) / 2e-6
            worst_g = max(worst_g, abs(jac[i, j] - fd) / max(1.0, abs(fd)))
    ok = worst_v <= TOL_ANALYTIC and worst_g <= TOL_ANALYTIC_GRAD
    return ok, f"F off by {worst_v:.1e}, dF off by {worst_g:.1e}"


def classify_round(seed: int, control: Optional[str]) -> RoundLog:
    log = RoundLog()
    planned = 1 + len(PAIRS) + ANALYTIC_QUERIES

    try:
        start = time.perf_counter()
        prepared = []
        for idx, pair in enumerate(PAIRS):
            H = ScalarField.parse(pair.hamiltonian, pair.s)
            F = MapField.from_sources(pair.integrals, pair.s)
            points = verify.sample_cube(pair.base, CLASSIFY_RADIUS, CLASSIFY_PROBES, seed * 131 + idx)
            # the base-point submersion test `hjcomplete integrability` runs
            m = np.array(pair.base)
            if symplectic.numerical_rank(F.jacobian(m)) != len(pair.integrals):
                raise ValueError(f"pair {idx} is not a submersion at its base point")
            prepared.append((pair, H, F, points))
        log.setup_s = time.perf_counter() - start
    except Exception as exc:
        for _ in range(planned):
            log.record(False, f"set-up raised {exc!r}", raised=True)
        return log
    log.record(True, "set-up")

    verify_total = 0.0
    for idx, (pair, H, F, points) in enumerate(prepared):
        expected = (pair.non_commutative, pair.commutative)
        if control == "label" and idx == 0:
            expected = (not expected[0], expected[1])
        try:
            start = time.perf_counter()
            report = verify.integrability_report(H, F, points)
            verify_total += time.perf_counter() - start
        except Exception as exc:
            log.record(False, f"pair {idx} raised {exc!r}", raised=True)
            continue
        got = (report.non_commutative, report.commutative)
        log.record(got == expected, f"pair {idx}: labels {got}, expected {expected}")
    log.verify_s = verify_total

    # One query evaluates F and dF of every pair, each at its own point,
    # so all queries have the same make-up whatever the seed.
    inputs = []
    for idx, (pair, _, F, _) in enumerate(prepared):
        box = np.array([[b - CLASSIFY_RADIUS, b + CLASSIFY_RADIUS] for b in pair.base])
        inputs.append(in_box(kronecker(ANALYTIC_QUERIES, 2 * pair.s, seed * 131 + idx), box, 1.0))
    for j in range(ANALYTIC_QUERIES):
        try:
            start = time.perf_counter()
            outputs = [(F.value(xs[j]), F.jacobian(xs[j])) for (_, _, F, _), xs in zip(prepared, inputs)]
            log.query_s.append(time.perf_counter() - start)
        except Exception as exc:
            log.record(False, f"query {j} raised {exc!r}", raised=True)
            continue
        failing = []
        for idx, ((pair, *_), xs, (value, jac)) in enumerate(zip(prepared, inputs, outputs)):
            ok, message = _analytic_check(pair, xs[j], value, jac)
            if not ok:
                failing.append(f"pair {idx}: {message}")
        log.record(not failing, f"query {j}: {failing}")
    return log


WORKLOADS = {
    "harmonic_s2": lambda seed, control: harmonic_round(HARMONIC["harmonic_s2"], seed, control),
    "harmonic_s1": lambda seed, control: harmonic_round(HARMONIC["harmonic_s1"], seed, control),
    "classify_analytic": classify_round,
}
