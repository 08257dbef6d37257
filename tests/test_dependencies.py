"""The package runs on numpy alone; scipy serves the tests as an oracle."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A None entry in sys.modules makes every later import of scipy raise
# ImportError, so any use of scipy on these paths fails the run.
_BLOCKED = """
import sys
sys.modules["scipy"] = None
from hjcomplete import (
    build_first_integrals, cli, hje_residual, scenarios, solution_from_integrals,
)

cfg = scenarios.parse_config({"scenario": "harmonic_s2"})
Pi = cfg.fibration()
F = build_first_integrals(
    cfg.hamiltonian(), Pi, cfg.base_point, cfg.tolerances,
    cfg.integrator_settings(), cfg.domain_radius, probes=6, seed=0,
)
solution = solution_from_integrals(Pi, F, cfg.base_point, cfg.tolerances, seed=0)
assert hje_residual(solution, cfg.hamiltonian(), Pi, probes=6, seed=0).passed
code = cli.main(["construct", "--config", "scenario:free_particle_s2",
                 "--probes", "6", "--out", sys.argv[1]])
assert code == 0, code
print("ok")
"""

_CLEAN = """
import sys
import hjcomplete
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, "-B", "-c", script, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    done = _run(_BLOCKED, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"
    assert (tmp_path / "report.json").is_file()


def test_import_leaves_scipy_unloaded():
    done = _run(_CLEAN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
