"""The benchmark tracer still finds the entry points it wraps."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs bench/spans.py on a fresh import of the package, builds the
# two-level free_particle_s2 tower at a few probes and its complete
# solution, makes one S query and one F query (value and gradient), and
# prints the per-layer figures that each pass through a wrapped entry
# point.  -B keeps the run from writing bytecode.
_NAMES = (
    "flows.chart_builds",
    "flows.trajectories",
    "flows.chart_inverse_calls",
    "construct.tower_solves",
    "construct.tower_memo_hits",
    "newton.duality.solves",
)
_SCRIPT = f"""
import json
from hjcomplete import build_first_integrals, scenarios, solution_from_integrals
import spans

tracer = spans.Tracer()
spans.install(tracer)
cfg = scenarios.parse_config({{"scenario": "free_particle_s2"}})
Pi = cfg.fibration()
F = build_first_integrals(
    cfg.hamiltonian(), Pi, cfg.base_point, cfg.tolerances,
    cfg.integrator_settings(), cfg.domain_radius, probes=3, seed=0,
)
solution = solution_from_integrals(Pi, F, cfg.base_point, cfg.tolerances, seed=0)
ns, lams = solution.sample_domain(1, seed=1, margin=0.5)
x = solution(ns[0], lams[0])
F.integrals.value(x)
F.integrals.jacobian(x)
metrics = spans.layer_metrics(tracer)
print(json.dumps({{name: metrics[name][1] for name in {_NAMES!r}}}))
"""


def test_tracer_installs_and_counts_a_two_level_build():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", _SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    figures = json.loads(done.stdout.strip().splitlines()[-1])
    assert figures["flows.chart_builds"] == 2
    # a count that reads 0 means a call bypassed its wrapped entry point
    for name in _NAMES[1:]:
        assert figures[name] > 0, name
