"""Command line driver: scenario runs, reports, and data tables.

Commands mirror the library surface: `check` tests the construction
hypotheses, `construct` runs the full pipeline and verification suite,
`characteristic` emits generating-function tables, `integrability`
classifies user-supplied integrals, and `fibration` prints an adapted
fibration.  Every run writes a deterministic report.json; identical
configurations (seed included) produce byte-identical artifacts.

Exit codes: 0 all checks passed; 1 hypothesis or verification failure;
2 numerical failure (integration or root finding); 3 configuration
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .construct import (
    CompleteSolution,
    ConstructionError,
    DualityError,
    FibrationError,
    FrameExtensionError,
    HypothesisError,
    TransversalityError,
    build_fibration,
    build_first_integrals,
    check_assumptions,
    solution_from_integrals,
)
from .expr import EvaluationError, MapField
from .flows import ChartError, FlowError
from .newton import NewtonError
from .scenarios import REGISTRY, ConfigError, RunConfig, load_config
from .standard import (
    QuadratureError,
    characteristic_family,
    inset_grid,
    verify_characteristic,
)
from .symplectic import hamiltonian_vf, numerical_rank
from .verify import (
    _PROBE_MARGIN,
    ResidualReport,
    SubmersionReport,
    first_integral_residual,
    hje_residual,
    integrability_report,
    isotropy_residual,
    sample_cube,
    submersion_checks,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3

_CHECK_ERRORS = (
    HypothesisError,
    ConstructionError,
    FibrationError,
    TransversalityError,
    FrameExtensionError,
)
_NUMERICAL_ERRORS = (
    NewtonError,
    FlowError,
    ChartError,
    DualityError,
    QuadratureError,
    EvaluationError,
)


# ---------------------------------------------------------------------------
# serialization helpers


def _canon(value):
    """JSON-safe, deterministic representation of report values."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canon(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value) + 0.0  # drop negative zero
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _residual_dict(report: ResidualReport) -> dict:
    return {
        "name": report.name,
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
        "probes": report.probe_count,
        "seed": report.seed,
        "failures": [
            {"point": point, "residual": value} for point, value in report.failures
        ],
        "passed": report.passed,
    }


def _submersion_dict(report: SubmersionReport) -> dict:
    return {
        "rank": _residual_dict(report.rank),
        "kernel_gram": _residual_dict(report.kernel_gram),
        "frobenius": _residual_dict(report.frobenius),
        "passed": report.passed,
    }


def _cell(value: float) -> str:
    return f"{float(value) + 0.0:.17g}"


def _write_table(path: str, header: list[str], rows, fmt: str) -> str:
    if fmt == "json":
        path += ".json"
        payload = [dict(zip(header, (_canon(v) for v in row))) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        path += ".csv"
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
    return path


def _write_report(outdir: str, report: dict) -> str:
    path = os.path.join(outdir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_canon(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _auto_fibration(cfg: RunConfig, hamiltonian, m):
    """The fibration plan adapted to X_H(m) for cfg.auto_k, and its report entry."""
    xh = hamiltonian_vf(hamiltonian, cfg.tolerances)
    plan = build_fibration(xh, m, cfg.auto_k)
    meta = {
        "sources": list(plan.sources),
        "swap_applied": plan.swap_applied,
        "q_order": list(plan.q_order),
    }
    return plan, meta


def _resolve_fibration(cfg: RunConfig, hamiltonian, m) -> tuple[MapField, dict]:
    explicit = cfg.fibration()
    if explicit is not None:
        return explicit, {"mode": "explicit", "sources": list(cfg.fibration_sources)}
    plan, meta = _auto_fibration(cfg, hamiltonian, m)
    return plan.pi, {"mode": "auto", **meta}


def _assumptions_dict(report) -> dict:
    return {
        "dimension_s": report.dimension_s,
        "k": report.k,
        "l": report.l,
        "submersion_ok": report.submersion_ok,
        "flow_transverse": report.flow_transverse,
        "kernel_coisotropic": report.kernel_coisotropic,
        "messages": list(report.messages),
        "passed": report.passed,
    }


def _boxes(solution: CompleteSolution) -> dict:
    return {"n": solution.n_box, "lambda": solution.lambda_box}


def _names(prefix: str, count: int) -> list[str]:
    """Table headers prefix1..prefix<count>."""
    return [f"{prefix}{i + 1}" for i in range(count)]


def _construct_pipeline(cfg: RunConfig):
    m = np.array(cfg.base_point)
    hamiltonian = cfg.hamiltonian()
    fibration, fib_meta = _resolve_fibration(cfg, hamiltonian, m)
    F = build_first_integrals(
        hamiltonian,
        fibration,
        m,
        cfg.tolerances,
        cfg.integrator_settings(),
        cfg.domain_radius,
        probes=cfg.probes,
        seed=cfg.seed,
    )
    solution = solution_from_integrals(
        fibration, F, m, cfg.tolerances, seed=cfg.seed
    )
    return m, hamiltonian, fibration, fib_meta, F, solution


def _verification_suite(cfg, hamiltonian, fibration, F, solution, points) -> dict:
    checks = {
        "hje_residual": hje_residual(
            solution, hamiltonian, fibration, cfg.probes, cfg.seed, cfg.tolerances
        ),
        "isotropy_residual": isotropy_residual(
            solution, cfg.probes, cfg.seed, cfg.tolerances
        ),
        "first_integral_residual": first_integral_residual(
            F, hamiltonian, points, cfg.tolerances, cfg.seed
        ),
    }
    sub = submersion_checks(
        F, points, cfg.tolerances, fibration=fibration, seed=cfg.seed
    )
    out = {name: _residual_dict(rep) for name, rep in checks.items()}
    out["submersion"] = _submersion_dict(sub)
    passed = all(rep.passed for rep in checks.values()) and sub.passed
    return {"checks": out, "passed": passed}


# ---------------------------------------------------------------------------
# commands


def cmd_check(cfg: RunConfig, outdir: str, fmt: str) -> dict:
    m = np.array(cfg.base_point)
    hamiltonian = cfg.hamiltonian()
    fibration, fib_meta = _resolve_fibration(cfg, hamiltonian, m)
    report = check_assumptions(hamiltonian, fibration, m, cfg.tolerances)
    return {
        "fibration": fib_meta,
        "assumptions": _assumptions_dict(report),
        "passed": report.passed,
    }


def cmd_construct(cfg: RunConfig, outdir: str, fmt: str) -> dict:
    _, hamiltonian, fibration, fib_meta, F, solution = _construct_pipeline(cfg)
    suite = _verification_suite(cfg, hamiltonian, fibration, F, solution, F.points)

    s = cfg.dimension_s
    ns, lams = solution.sample_domain(cfg.probes, cfg.seed, margin=_PROBE_MARGIN)
    qp = _names("q", s) + _names("p", s)
    sol_header = _names("n", F.k) + _names("lambda", F.l) + qp
    sol_rows = [
        list(n) + list(lam) + list(solution(n, lam)) for n, lam in zip(ns, lams)
    ]
    files = [_write_table(os.path.join(outdir, "solution_grid"), sol_header, sol_rows, fmt)]

    int_header = qp + _names("F", F.l)
    int_rows = [list(x) + list(F.integrals.value(x)) for x in F.points]
    files.append(
        _write_table(os.path.join(outdir, "integrals_grid"), int_header, int_rows, fmt)
    )

    return {
        "fibration": fib_meta,
        "assumptions": _assumptions_dict(F.state.assumptions),
        "construction": F.diagnostics,
        "boxes": _boxes(solution),
        "checks": suite["checks"],
        "tables": [os.path.basename(f) for f in files],
        "passed": suite["passed"],
    }


def _require_position_projection(cfg: RunConfig) -> None:
    want = _names("q", cfg.dimension_s)
    if cfg.fibration_sources is None or list(cfg.fibration_sources) != want:
        raise ConfigError(
            "characteristic functions need the explicit position projection "
            f"fibration {want}"
        )


def cmd_characteristic(cfg: RunConfig, outdir: str, fmt: str) -> dict:
    _require_position_projection(cfg)
    m, hamiltonian, fibration, fib_meta, F, solution = _construct_pipeline(cfg)

    family = characteristic_family(solution, cfg.lambda_grid)
    q_grid = inset_grid(solution.n_box, cfg.lambda_grid)

    header = _names("lambda", solution.l) + _names("q", cfg.dimension_s) + ["W", "E"]
    rows, reports = [], []
    for W in family:
        reports.append(verify_characteristic(W, hamiltonian, cfg.probes, cfg.seed))
        for q in q_grid:
            value = W.value(q)
            energy = hamiltonian.value(np.concatenate([q, W.section(q)]))
            rows.append(list(W.lam) + list(q) + [value, energy])
    files = [_write_table(os.path.join(outdir, "characteristic"), header, rows, fmt)]

    return {
        "fibration": fib_meta,
        "boxes": _boxes(solution),
        "constancy": [_residual_dict(r) for r in reports],
        "tables": [os.path.basename(f) for f in files],
        "passed": all(r.passed for r in reports),
    }


def cmd_integrability(cfg: RunConfig, outdir: str, fmt: str) -> dict:
    integrals = cfg.integrals()
    if integrals is None:
        raise ConfigError("integrability requires an integrals list in the config")
    m = np.array(cfg.base_point)
    hamiltonian = cfg.hamiltonian()
    dF = integrals.jacobian(m)
    if numerical_rank(dF, cfg.tolerances.rank) != integrals.target_dim:
        return {
            "error": "integrals are not a submersion at the base point",
            "passed": False,
        }

    points = sample_cube(m, 0.5 * cfg.domain_radius, cfg.probes, cfg.seed)
    report = integrability_report(
        hamiltonian, integrals, points, cfg.tolerances, cfg.seed
    )
    return {
        "classification": {
            "non_commutative_integrable": report.non_commutative,
            "commutative_integrable": report.commutative,
            "kernel_lagrangian": report.kernel_lagrangian,
            "l": report.l,
            "dimension_s": report.dimension_s,
        },
        "first_integrals": _residual_dict(report.first_integrals),
        "submersion": _submersion_dict(report.submersion),
        "passed": report.non_commutative,
    }


def cmd_fibration(cfg: RunConfig, outdir: str, fmt: str) -> dict:
    if cfg.auto_k is None:
        raise ConfigError("fibration requires auto_k in the config")
    m = np.array(cfg.base_point)
    hamiltonian = cfg.hamiltonian()
    plan, meta = _auto_fibration(cfg, hamiltonian, m)
    report = check_assumptions(hamiltonian, plan.pi, m, cfg.tolerances)
    print("pi = (" + ", ".join(plan.sources) + ")")
    return {
        "fibration": meta,
        "assumptions": _assumptions_dict(report),
        "passed": report.passed,
    }


# each command returns its report body; main adds the envelope and exit code
_COMMANDS = {
    "check": cmd_check,
    "construct": cmd_construct,
    "characteristic": cmd_characteristic,
    "integrability": cmd_integrability,
    "fibration": cmd_fibration,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjcomplete",
        description="construct and verify isotropic complete solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument(
            "--config",
            required=True,
            help="path to a JSON config, or scenario:<name> "
            f"(registry: {', '.join(sorted(REGISTRY))})",
        )
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--probes", type=int, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.probes is not None:
            if args.probes < 1:
                raise ConfigError("probes must be >= 1")
            cfg = dataclasses.replace(cfg, probes=args.probes)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be non-negative")
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = args.out
    os.makedirs(outdir, exist_ok=True)

    failure = None
    try:
        body = _COMMANDS[args.command](cfg, outdir, args.format)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _CHECK_ERRORS + _NUMERICAL_ERRORS as exc:
        failure = exc
        body = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "passed": False,
        }
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics:
            body["diagnostics"] = {
                k: v for k, v in diagnostics.items() if not isinstance(v, dict)
            }

    _write_report(outdir, {"command": args.command, "config": cfg.echo(), **body})
    if failure is None:
        print(f"{args.command}: {'pass' if body['passed'] else 'FAIL'}")
        return EXIT_PASS if body["passed"] else EXIT_CHECK_FAILED
    if isinstance(failure, _NUMERICAL_ERRORS):
        print(f"{args.command}: numerical failure ({failure})")
        return EXIT_NUMERICAL
    print(f"{args.command}: FAIL ({failure})")
    return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
