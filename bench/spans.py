"""Spans and counts around the entry points of each hjcomplete layer.

The tracer wraps module functions and class methods of the installed
package at run time; the package itself is not modified.  Every wrapped
call opens a span with a name, a start, an end and the span that caused
it.  All spans are folded into a call tree keyed by the path of span
names, from which self time (duration minus the time covered by child
spans) is derived.  Spans of the benchmark's own operations and of the
coarse layers are also kept one by one with their parent; the hot leaf
calls (expression evaluations, single trajectories, chart maps) are kept
only in the tree, which would otherwise hold millions of records per run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Spans kept only in the aggregated tree, not as individual records.
HOT_SPANS = frozenset(
    {
        "expr.value",
        "expr.gradient",
        "expr.hessian",
        "flows.integrate",
        "flows.chart_forward",
        "flows.chart_jacobian",
        "flows.chart_inverse",
        "symplectic.fd_jacobian",
        "newton.chart",
        "construct.tower_index",
        "construct.tower_solve_stack",
        "construct.tower_forward",
        "construct.tower_jacobian",
        "standard.section",
    }
)


class _Node:
    __slots__ = ("count", "total", "self_s", "children")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_s = 0.0
        self.children: dict[str, _Node] = {}

    def as_list(self, name: str) -> list:
        return [
            name,
            self.count,
            self.total,
            self.self_s,
            [child.as_list(n) for n, child in self.children.items()],
        ]


class Tracer:
    """Span stack, call tree and counters for one benchmark run."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.root = _Node()
        # frames: [node, start, child_seconds, span_id, name]
        self._stack: list[list] = [[self.root, 0.0, 0.0, 0, ""]]
        self._next_id = 1
        self.spans: list[tuple] = []  # (id, parent_id, name, start, end)
        self.newton_kinds: list[str] = []
        self.integrate_methods: list[str] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1]
        node = parent[0].children.get(name)
        if node is None:
            node = parent[0].children[name] = _Node()
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([node, time.perf_counter(), 0.0, span_id, name])

    def exit(self) -> None:
        end = time.perf_counter()
        node, start, child_s, span_id, name = self._stack.pop()
        dur = end - start
        node.count += 1
        node.total += dur
        node.self_s += dur - child_s
        parent = self._stack[-1]
        parent[2] += dur
        if name not in HOT_SPANS:
            self.spans.append((span_id, parent[3], name, start, end))

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        traced.__wrapped__ = fn
        return traced

    # -- derived figures -------------------------------------------------

    def span_totals(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds].

        Inclusive seconds count a name once per outermost occurrence, so
        recursion through the same entry point is not double counted.
        """
        out: dict[str, list[float]] = {}

        def visit(name, node, open_names):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += node.count
            entry[2] += node.self_s
            if name not in open_names:
                entry[1] += node.total
            inner = open_names | {name}
            for child_name, child in node.children.items():
                visit(child_name, child, inner)

        for name, node in self.root.children.items():
            visit(name, node, frozenset())
        return out

    def write(self, path: str, meta: dict) -> None:
        payload = {
            "meta": meta,
            "counts": dict(sorted(self.counts.items())),
            "tree": [n.as_list(name) for name, n in self.root.children.items()],
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _NewtonNumpy:
    """Stand-in for numpy inside hjcomplete.newton that counts Newton steps.

    newton_solve calls np.linalg.solve exactly once per iteration, and
    nothing else in that module calls it, so each call is one iteration
    of the innermost active Newton solve.
    """

    def __init__(self, np_module, tracer: Tracer):
        self._np = np_module
        self.linalg = _CountingLinalg(np_module.linalg, tracer)

    def __getattr__(self, name):
        return getattr(self._np, name)


class _CountingLinalg:
    def __init__(self, linalg, tracer: Tracer):
        self._linalg = linalg
        self._tracer = tracer

    def solve(self, a, b):
        kinds = self._tracer.newton_kinds
        if kinds:
            self._tracer.counts[f"newton.{kinds[-1]}.iterations"] += 1
        return self._linalg.solve(a, b)

    def __getattr__(self, name):
        return getattr(self._linalg, name)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the imported hjcomplete package."""
    from hjcomplete import construct, expr, flows, newton, standard, symplectic, verify

    counts = tracer.counts

    # expr: parsed scalar evaluation
    for meth in ("value", "gradient", "hessian"):
        setattr(
            expr.ScalarField,
            meth,
            tracer.wrap(getattr(expr.ScalarField, meth), f"expr.{meth}"),
        )

    # symplectic: the central-difference Jacobian, bound in four modules
    fd = tracer.wrap(symplectic.fd_jacobian, "symplectic.fd_jacobian")
    for mod in (symplectic, construct, flows, verify):
        mod.fd_jacobian = fd

    # flows: trajectories, right-hand sides, fixed-step fallbacks, charts
    integrate = flows._integrate
    rk4 = flows._rk4_fixed

    def traced_integrate(rhs, x0, t_end, settings):
        def counted_rhs(z):
            counts["flows.rhs_evals"] += 1
            return rhs(z)

        tracer.integrate_methods.append(settings.method)
        tracer.enter("flows.integrate")
        try:
            return integrate(counted_rhs, x0, t_end, settings)
        finally:
            tracer.exit()
            tracer.integrate_methods.pop()

    def traced_rk4(rhs, x0, t_end, h, max_steps):
        methods = tracer.integrate_methods
        if methods and methods[-1] == "rkf45-adaptive":
            counts["flows.rk4_fallbacks"] += 1
        return rk4(rhs, x0, t_end, h, max_steps)

    flows._integrate = traced_integrate
    flows._rk4_fixed = traced_rk4

    chart = flows.FlowBoxChart
    chart.build = classmethod(
        tracer.wrap(chart.__dict__["build"].__func__, "flows.chart_build")
    )
    probe = chart._probe_domain

    def counted_probe(self, probes):
        ok = probe(self, probes)
        if not ok:
            counts["flows.chart_radius_halvings"] += 1
        return ok

    chart._probe_domain = counted_probe
    chart.forward = tracer.wrap(chart.forward, "flows.chart_forward")
    chart.forward_and_jacobian = tracer.wrap(
        chart.forward_and_jacobian, "flows.chart_jacobian"
    )
    chart.inverse = tracer.wrap(chart.inverse, "flows.chart_inverse")

    # newton: chart inversions are bound in flows, duality solves in construct
    newton.np = _NewtonNumpy(newton.np, tracer)
    solve = newton.newton_solve

    def newton_wrapper(kind: str):
        name = f"newton.{kind}"

        def traced_newton(*args, **kwargs):
            tracer.newton_kinds.append(kind)
            tracer.enter(name)
            try:
                return solve(*args, **kwargs)
            except Exception:  # NewtonError, or a chart or flow error from inside
                counts[f"{name}.failures"] += 1
                raise
            finally:
                tracer.exit()
                tracer.newton_kinds.pop()

        return traced_newton

    flows.newton_solve = newton_wrapper("chart")
    construct.newton_solve = newton_wrapper("duality")

    # construct: tower memo, warm starts, Jacobians, and the build phases
    index = construct.TowerIndex
    index.solve = tracer.wrap(index.solve, "construct.tower_index")
    fresh = index._solve_fresh

    def counted_fresh(self, x):
        counts["construct.tower_solves"] += 1
        return fresh(self, x)

    index._solve_fresh = counted_fresh

    tower = construct.ChartTower
    solve_stack = tower.solve_stack
    retried = (flows.ChartError, newton.NewtonError, flows.FlowError)

    def traced_solve_stack(self, x, guesses=None):
        warm = guesses is not None
        if warm:
            counts["construct.tower_warm_attempts"] += 1
        tracer.enter("construct.tower_solve_stack")
        try:
            return solve_stack(self, x, guesses)
        except retried:  # TowerIndex retries these cold
            if warm:
                counts["construct.tower_cold_retries"] += 1
            raise
        finally:
            tracer.exit()

    tower.solve_stack = traced_solve_stack
    tower.forward = tracer.wrap(tower.forward, "construct.tower_forward")
    tower.forward_and_jacobian = tracer.wrap(
        tower.forward_and_jacobian, "construct.tower_jacobian"
    )
    for fn in ("extend_frame", "build_first_integrals", "solution_from_integrals"):
        setattr(construct, fn, tracer.wrap(getattr(construct, fn), f"construct.{fn}"))

    # verify: each check
    for fn in (
        "hje_residual",
        "isotropy_residual",
        "first_integral_residual",
        "submersion_checks",
        "integrability_report",
    ):
        setattr(verify, fn, tracer.wrap(getattr(verify, fn), f"verify.{fn}"))

    # standard: momentum section and characteristic values
    cf = standard.CharacteristicFunction
    cf.section = tracer.wrap(cf.section, "standard.section")
    cf.value = tracer.wrap(cf.value, "standard.characteristic_value")


# Per-layer metrics: name -> (unit, how to read it from a finished trace).
def layer_metrics(tracer: Tracer) -> dict[str, tuple[str, float]]:
    """Per-layer figures of the whole traced run, before per-round scaling."""
    spans = tracer.span_totals()
    counts = tracer.counts

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def incl_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    warm = counts["construct.tower_warm_attempts"]
    warm_ok = warm - counts["construct.tower_cold_retries"]
    index_calls = calls("construct.tower_index")
    fresh = counts["construct.tower_solves"]
    return {
        "expr.value_calls": ("count", calls("expr.value")),
        "expr.gradient_calls": ("count", calls("expr.gradient")),
        "expr.hessian_calls": ("count", calls("expr.hessian")),
        "expr.self_s": ("s", self_s("expr.value", "expr.gradient", "expr.hessian")),
        "symplectic.fd_jacobian_calls": ("count", calls("symplectic.fd_jacobian")),
        "symplectic.fd_jacobian_self_s": ("s", self_s("symplectic.fd_jacobian")),
        "flows.trajectories": ("count", calls("flows.integrate")),
        "flows.rhs_evals": ("count", counts["flows.rhs_evals"]),
        "flows.rk4_fallbacks": ("count", counts["flows.rk4_fallbacks"]),
        "flows.integrate_self_s": ("s", self_s("flows.integrate")),
        "flows.chart_inverse_calls": ("count", calls("flows.chart_inverse")),
        "flows.chart_jacobian_calls": ("count", calls("flows.chart_jacobian")),
        "flows.chart_builds": ("count", calls("flows.chart_build")),
        "flows.chart_radius_halvings": (
            "count",
            counts["flows.chart_radius_halvings"],
        ),
        "newton.chart.solves": ("count", calls("newton.chart")),
        "newton.chart.iterations": ("count", counts["newton.chart.iterations"]),
        "newton.chart.failures": ("count", counts["newton.chart.failures"]),
        "newton.duality.solves": ("count", calls("newton.duality")),
        "newton.duality.iterations": ("count", counts["newton.duality.iterations"]),
        "newton.duality.failures": ("count", counts["newton.duality.failures"]),
        "newton.self_s": ("s", self_s("newton.chart", "newton.duality")),
        "construct.tower_solves": ("count", fresh),
        "construct.tower_memo_hits": ("count", index_calls - fresh),
        "construct.tower_warm_ratio": ("ratio", warm_ok / warm if warm else 0.0),
        "construct.tower_cold_retries": (
            "count",
            counts["construct.tower_cold_retries"],
        ),
        "construct.tower_jacobians": ("count", calls("construct.tower_jacobian")),
        "construct.tower_self_s": (
            "s",
            self_s(
                "construct.tower_index",
                "construct.tower_solve_stack",
                "construct.tower_forward",
                "construct.tower_jacobian",
            ),
        ),
        "construct.extend_frame_s": ("s", incl_s("construct.extend_frame")),
        "construct.build_first_integrals_s": (
            "s",
            incl_s("construct.build_first_integrals"),
        ),
        "construct.solution_from_integrals_s": (
            "s",
            incl_s("construct.solution_from_integrals"),
        ),
        "verify.hje_s": ("s", incl_s("verify.hje_residual")),
        "verify.isotropy_s": ("s", incl_s("verify.isotropy_residual")),
        "verify.first_integral_s": ("s", incl_s("verify.first_integral_residual")),
        "verify.submersion_s": ("s", incl_s("verify.submersion_checks")),
        "verify.integrability_s": ("s", incl_s("verify.integrability_report")),
        "standard.section_evals": ("count", calls("standard.section")),
        "standard.characteristic_value_s": (
            "s",
            incl_s("standard.characteristic_value"),
        ),
    }
