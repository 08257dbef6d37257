"""Command-line behaviour: exit codes, artifacts, and determinism."""

import csv
import json
import os

import numpy as np
import pytest

from hjcomplete.cli import main


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
    raw = open(os.path.join(out, "solution_grid.csv"), "rb").read()
    assert b"\r\n" in raw  # tables are CRLF
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    assert len(rows) == 10
    for row in rows:
        assert float(row["q1"]) == pytest.approx(float(row["n1"]), abs=1e-9)
        assert float(row["p1"]) == pytest.approx(
            1.0 + float(row["lambda1"]), abs=1e-9
        )

    grid = list(
        csv.DictReader(
            open(os.path.join(out, "integrals_grid.csv"), encoding="utf-8")
        )
    )
    for row in grid:
        assert float(row["F1"]) == pytest.approx(float(row["p1"]) - 1.0, abs=1e-9)


def test_construct_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        code = main(
            [
                "construct",
                "--config",
                "scenario:free_particle_s1",
                "--out",
                out,
                "--probes",
                "8",
            ]
        )
        assert code == 0
        outs.append(out)
    for artifact in ("report.json", "solution_grid.csv", "integrals_grid.csv"):
        a = open(os.path.join(outs[0], artifact), "rb").read()
        b = open(os.path.join(outs[1], artifact), "rb").read()
        assert a == b, f"{artifact} differs between identical runs"


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
    rows = json.load(open(os.path.join(out, "solution_grid.json")))
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
    rows = list(
        csv.DictReader(
            open(os.path.join(out, "characteristic.csv"), encoding="utf-8")
        )
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
