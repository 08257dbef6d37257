"""Command-line behaviour: exit codes, artifacts, and determinism."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hjcomplete import construct, flows
from hjcomplete.cli import main
from hjcomplete.expr import ProceduralScalar
from hjcomplete.scenarios import parse_config


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _report(outdir):
    with open(os.path.join(outdir, "report.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_check_passes_on_registry_scenario(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["check", "--config", "scenario:free_particle_s1", "--out", out])
    assert code == 0
    assert "check: pass" in capsys.readouterr().out
    report = _report(out)
    assert report["passed"] is True
    assert report["assumptions"]["kernel_coisotropic"] is True
    assert report["config"]["scenario"] == "free_particle_s1"


def test_check_fails_when_flow_is_tangent(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "dimension_s": 1,
            "hamiltonian": "p1^2/2",
            "fibration": ["p1"],
            "base_point": [0.0, 1.0],
        },
    )
    out = str(tmp_path / "run")
    code = main(["check", "--config", cfg, "--out", out])
    assert code == 1
    report = _report(out)
    assert report["passed"] is False
    assert report["assumptions"]["flow_transverse"] is False


def test_check_passes_on_a_scaled_hamiltonian(tmp_path, capsys):
    # a transverse field of length 1e-12 is still transverse
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "dimension_s": 2,
            "hamiltonian": "1e-12*(p1^2 + p2^2)/2",
            "fibration": ["q1", "q2"],
            "base_point": [0.1, -0.2, 1.0, 0.6],
        },
    )
    out = str(tmp_path / "run")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    assert "check: pass" in capsys.readouterr().out
    assert _report(out)["assumptions"]["flow_transverse"] is True


def test_construct_artifacts_and_closed_form(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        [
            "construct",
            "--config",
            "scenario:free_particle_s1",
            "--out",
            out,
            "--probes",
            "10",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    report = _report(out)
    assert report["passed"] is True
    assert report["config"]["probes"] == 10
    assert report["config"]["seed"] == 5
    assert set(report["tables"]) == {"solution_grid.csv", "integrals_grid.csv"}
    for check in report["checks"].values():
        if "passed" in check:
            assert check["passed"] is True

    # free particle in closed form: q = n and p = 1 + lambda
    raw = Path(out, "solution_grid.csv").read_bytes()
    assert b"\r\n" in raw  # tables are CRLF
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    assert len(rows) == 10
    for row in rows:
        assert float(row["q1"]) == pytest.approx(float(row["n1"]), abs=1e-9)
        assert float(row["p1"]) == pytest.approx(
            1.0 + float(row["lambda1"]), abs=1e-9
        )

    grid = csv.DictReader(
        Path(out, "integrals_grid.csv").read_text(encoding="utf-8").splitlines()
    )
    for row in grid:
        assert float(row["F1"]) == pytest.approx(float(row["p1"]) - 1.0, abs=1e-9)


def test_construct_is_deterministic(tmp_path):
    # harmonic_s2 has two tower levels, so its rerun also repeats a frame extension
    for scenario, probes in (("free_particle_s1", "8"), ("harmonic_s2", "6")):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / scenario / name)
            argv = ["construct", "--config", f"scenario:{scenario}", "--probes", probes]
            assert main(argv + ["--out", out]) == 0
            outs.append(out)
        for artifact in ("report.json", "solution_grid.csv", "integrals_grid.csv"):
            a = Path(outs[0], artifact).read_bytes()
            b = Path(outs[1], artifact).read_bytes()
            assert a == b, f"{scenario}: {artifact} differs between identical runs"


def test_construct_json_tables(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        [
            "construct",
            "--config",
            "scenario:free_particle_s1",
            "--out",
            out,
            "--probes",
            "6",
            "--format",
            "json",
        ]
    )
    assert code == 0
    rows = json.loads(Path(out, "solution_grid.json").read_text(encoding="utf-8"))
    assert len(rows) == 6
    assert {"n1", "lambda1", "q1", "p1"} <= set(rows[0])


def test_construct_reports_hypothesis_failure(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "dimension_s": 1,
            "hamiltonian": "p1^2/2",
            "fibration": ["p1"],
            "base_point": [0.0, 1.0],
        },
    )
    out = str(tmp_path / "run")
    code = main(["construct", "--config", cfg, "--out", out])
    assert code == 1
    report = _report(out)
    assert report["error"]["type"] == "HypothesisError"


def test_construct_reports_failed_self_verification(tmp_path, monkeypatch, capsys):
    # integrals that gain 1e-3 q1 drift along the free flow (q1' = p1 ~ 1),
    # which only the build's own probe check can catch
    components = construct._integral_components

    def drifting(solve, k, dim_s):
        e0 = np.eye(2 * dim_s)[0]
        return tuple(
            ProceduralScalar(
                lambda x, c=c: c.value(x) + 1e-3 * x[0],
                lambda x, c=c: c.gradient(x) + 1e-3 * e0,
                dim_s,
            )
            for c in components(solve, k, dim_s)
        )

    monkeypatch.setattr(construct, "_integral_components", drifting)
    out = str(tmp_path / "run")
    argv = ["construct", "--config", "scenario:free_particle_s1", "--probes", "6"]
    assert main(argv + ["--out", out]) == 1
    assert "construct: FAIL (constructed integrals" in capsys.readouterr().out
    report = _report(out)
    assert report["passed"] is False
    assert report["error"]["type"] == "ConstructionError"
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == {
        "b_history",
        "chart_radii",
        "flow_drift",
        "kernel_gram",
        "probes",
        "seed",
        "transversality",
    }
    assert diagnostics["flow_drift"] == pytest.approx(1.218e-3, rel=1e-3)
    assert diagnostics["probes"] == 6


def test_failed_frame_chart_names_its_level(tmp_path, monkeypatch, capsys):
    # the second chart of free_particle_s2 fails: still a FrameExtensionError
    # (exit 1, no diagnostics), named by its level as every chart failure is
    build = flows.FlowBoxChart.build.__func__
    calls = []

    def failing_second(cls, *args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise flows.ChartError("no radius passed validation")
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(flows.FlowBoxChart, "build", classmethod(failing_second))
    out = str(tmp_path / "run")
    argv = ["construct", "--config", "scenario:free_particle_s2", "--probes", "6"]
    assert main(argv + ["--out", out]) == 1
    message = "level 2 chart construction failed: no radius passed validation"
    assert f"construct: FAIL ({message})" in capsys.readouterr().out
    report = _report(out)
    assert report["error"] == {"type": "FrameExtensionError", "message": message}
    assert "diagnostics" not in report


def test_numerical_breakdown_exits_two(tmp_path, capsys):
    # sqrt(q1) loses its domain a hair left of the base point, so chart
    # probe flows die inside the integrator
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "dimension_s": 1,
            "hamiltonian": "p1^2/2 + sqrt(q1)",
            "fibration": ["q1"],
            "base_point": [0.0005, 1.0],
        },
    )
    out = str(tmp_path / "run")
    code = main(["construct", "--config", cfg, "--out", out])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().out
    report = _report(out)
    assert report["passed"] is False


def test_unknown_scenario_exits_three(tmp_path, capsys):
    code = main(["check", "--config", "scenario:bogus", "--out", str(tmp_path)])
    assert code == 3
    assert "configuration error" in capsys.readouterr().err


def test_bad_probe_override_exits_three(tmp_path):
    code = main(
        [
            "check",
            "--config",
            "scenario:free_particle_s1",
            "--out",
            str(tmp_path),
            "--probes",
            "0",
        ]
    )
    assert code == 3


def test_non_finite_base_point_exits_three(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "dimension_s": 1,
            "hamiltonian": "p1^2/2",
            "fibration": ["q1"],
            "base_point": [float("nan"), 1.0],
        },
    )
    assert "NaN" in (tmp_path / "cfg.json").read_text()
    code = main(["check", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 3
    assert "base_point" in capsys.readouterr().err


def test_characteristic_command(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        [
            "characteristic",
            "--config",
            "scenario:free_particle_s1",
            "--out",
            out,
            "--probes",
            "10",
        ]
    )
    assert code == 0
    report = _report(out)
    assert report["passed"] is True
    assert all(r["passed"] for r in report["constancy"])
    rows = csv.DictReader(
        Path(out, "characteristic.csv").read_text(encoding="utf-8").splitlines()
    )
    # each parameter line carries one energy value: E = (1 + lambda)^2 / 2
    for row in rows:
        expected = (1.0 + float(row["lambda1"])) ** 2 / 2.0
        assert float(row["E"]) == pytest.approx(expected, abs=1e-8)


def test_characteristic_demands_position_projection(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "dimension_s": 2,
            "hamiltonian": "(p1^2 + p2^2)/2",
            "fibration": ["q1"],
            "base_point": [0.1, -0.2, 1.0, 0.6],
        },
    )
    code = main(["characteristic", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3


def test_integrability_classifications(tmp_path):
    base = {
        "dimension_s": 2,
        "hamiltonian": "(p1^2 + p2^2)/2",
        "fibration": ["q1", "q2"],
        "base_point": [0.1, -0.2, 1.0, 0.6],
        "probes": 15,
    }

    cfg = _write(tmp_path, "comm.json", dict(base, integrals=["p1", "p2"]))
    out = str(tmp_path / "comm")
    assert main(["integrability", "--config", cfg, "--out", out]) == 0
    cls = _report(out)["classification"]
    assert cls["commutative_integrable"] is True

    cfg = _write(tmp_path, "nc.json", dict(base, integrals=["p1", "p2", "q2"]))
    out = str(tmp_path / "nc")
    assert main(["integrability", "--config", cfg, "--out", out]) == 0
    cls = _report(out)["classification"]
    assert cls["non_commutative_integrable"] is True
    assert cls["commutative_integrable"] is False

    cfg = _write(tmp_path, "bad.json", dict(base, integrals=["q1", "p1"]))
    out = str(tmp_path / "bad")
    assert main(["integrability", "--config", cfg, "--out", out]) == 1

    cfg = _write(tmp_path, "flat.json", dict(base, integrals=["q1", "q1^2"]))
    out = str(tmp_path / "flat")
    assert main(["integrability", "--config", cfg, "--out", out]) == 1
    assert "submersion" in _report(out)["error"]

    cfg = _write(tmp_path, "none.json", base)
    assert main(["integrability", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_fibration_command(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "auto.json",
        {
            "dimension_s": 2,
            "hamiltonian": "(p1^2 + p2^2)/2",
            "fibration": "auto",
            "auto_k": 2,
            "base_point": [0.1, -0.2, 1.0, 0.6],
        },
    )
    out = str(tmp_path / "run")
    code = main(["fibration", "--config", cfg, "--out", out])
    assert code == 0
    assert "pi = (q1, q2)" in capsys.readouterr().out
    report = _report(out)
    assert report["fibration"]["sources"] == ["q1", "q2"]
    assert report["fibration"]["swap_applied"] is False


def test_fibration_fails_at_a_fixed_point(tmp_path):
    cfg = _write(
        tmp_path,
        "origin.json",
        {
            "dimension_s": 1,
            "hamiltonian": "(q1^2 + p1^2)/2",
            "fibration": "auto",
            "auto_k": 1,
            "base_point": [0.0, 0.0],
        },
    )
    out = str(tmp_path / "run")
    code = main(["fibration", "--config", cfg, "--out", out])
    assert code == 1
    assert _report(out)["error"]["type"] == "FibrationError"


def test_fibration_rejects_malformed_auto_k_beside_explicit_fibration(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "dimension_s": 1,
            "hamiltonian": "p1^2/2",
            "fibration": ["q1"],
            "auto_k": "2",
            "base_point": [0.0, 1.0],
        },
    )
    code = main(["fibration", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 3
    assert "auto_k" in capsys.readouterr().err


def test_auto_fibration_feeds_construct(tmp_path):
    cfg = _write(
        tmp_path,
        "auto.json",
        {
            "dimension_s": 1,
            "hamiltonian": "p1^2/2",
            "fibration": "auto",
            "auto_k": 1,
            "base_point": [0.0, 1.0],
            "probes": 10,
        },
    )
    out = str(tmp_path / "run")
    code = main(["construct", "--config", cfg, "--out", out])
    assert code == 0
    report = _report(out)
    assert report["fibration"]["mode"] == "auto"
    assert report["fibration"]["sources"] == ["q1"]


def test_integrability_reports_a_derivative_fault(tmp_path, capsys):
    """sqrt is not differentiable at 0: a numerical failure, not a crash."""
    cfg = _write(
        tmp_path,
        "cone.json",
        {
            "dimension_s": 1,
            "hamiltonian": "sqrt(q1^2 + p1^2)",
            "fibration": ["q1"],
            "base_point": [0.0, 0.0],
            "integrals": ["sqrt(q1^2 + p1^2)"],
        },
    )
    out = str(tmp_path / "run")
    assert main(["integrability", "--config", cfg, "--out", out]) == 2
    error = _report(out)["error"]
    assert error["type"] == "EvaluationError"
    assert error["message"] == (
        "sqrt is not differentiable at 0.0 in 'sqrt(q1^2.0 + p1^2.0)'"
    )
    assert "numerical failure" in capsys.readouterr().out


_OSCILLATOR = {
    "dimension_s": 2,
    "hamiltonian": "(q1^2 + q2^2 + p1^2 + p2^2)/2",
    "fibration": ["q1", "q2"],
    "base_point": [0.3, 0.1, 1.0, 0.7],
    "probes": 10,
}
_TANGENT_FLOW = {
    "dimension_s": 1,
    "hamiltonian": "p1^2/2",
    "fibration": ["p1"],
    "base_point": [0.0, 1.0],
}
# case -> (subcommand, config, whether it passes)
_ENVELOPE_RUNS = {
    "check": ("check", {"scenario": "free_particle_s1"}, True),
    "check-tangent-flow": ("check", _TANGENT_FLOW, False),
    "construct": ("construct", {"scenario": "free_particle_s1", "probes": 10}, True),
    "construct-hypothesis-error": ("construct", _TANGENT_FLOW, False),
    "characteristic": (
        "characteristic", {"scenario": "free_particle_s1", "probes": 10}, True
    ),
    "fibration": ("fibration", {"scenario": "free_particle_s1"}, True),
    "integrability": (
        "integrability",
        dict(_OSCILLATOR, integrals=[_OSCILLATOR["hamiltonian"], "q1*p2 - q2*p1"]),
        True,
    ),
    "integrability-not-integrable": (
        "integrability", dict(_OSCILLATOR, integrals=["p1", "q1*p2"]), False
    ),
    "integrability-not-a-submersion": (
        "integrability", dict(_OSCILLATOR, integrals=["q1", "q1^2"]), False
    ),
}


@pytest.mark.parametrize("case", sorted(_ENVELOPE_RUNS))
def test_every_report_carries_the_envelope(tmp_path, case):
    # each subcommand and each early return writes the same envelope:
    # the subcommand, the echoed config and a bool verdict that sets the
    # exit code
    command, config, passes = _ENVELOPE_RUNS[case]
    cfg = _write(tmp_path, "cfg.json", config)
    out = str(tmp_path / "run")
    code = main([command, "--config", cfg, "--out", out])
    report = _report(out)
    assert report["command"] == command
    assert report["config"] == json.loads(json.dumps(parse_config(config).echo()))
    assert report["passed"] is passes
    assert code == (0 if passes else 1)
    if case == "construct-hypothesis-error":
        assert report["error"]["type"] == "HypothesisError"
    if case == "integrability-not-a-submersion":
        assert "submersion" in report["error"]



def test_construct_shrinks_charts_out_of_the_hamiltonian_domain(tmp_path):
    # at the default radius 0.5 the chart probes of log(q1) flow past
    # q1 = 0; each such flow fails its probe, the radius halves to 0.0625,
    # and every output equals a run started at 0.0625 but the config echo
    config = {
        "dimension_s": 1,
        "hamiltonian": "p1^2/2 + log(q1)",
        "fibration": ["q1"],
        "base_point": [0.3, 1.0],
    }
    runs = {}
    for name, extra in (("a", {}), ("b", {}), ("r", {"domain_radius": 0.0625})):
        cfg = _write(tmp_path, f"{name}.json", {**config, **extra})
        out = tmp_path / name
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        runs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert runs["a"] == runs["b"]
    report, small = (json.loads(runs[name].pop("report.json")) for name in "ar")
    assert report["construction"]["chart_radii"] == [0.0625]
    assert report["config"].pop("domain_radius") == 0.5
    assert small["config"].pop("domain_radius") == 0.0625
    assert report == small and runs["a"] == runs["r"]
