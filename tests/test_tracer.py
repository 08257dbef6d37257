"""The benchmark tracer still finds the entry points it wraps."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs bench/spans.py on a fresh import of the package, builds the
# two-level free_particle_s2 tower at a few probes, and prints two of the
# per-layer figures.  -B keeps the run from writing bytecode.
_SCRIPT = """
import json
from hjcomplete import build_first_integrals, scenarios
import spans

tracer = spans.Tracer()
spans.install(tracer)
cfg = scenarios.parse_config({"scenario": "free_particle_s2"})
build_first_integrals(
    cfg.hamiltonian(), cfg.fibration(), cfg.base_point, cfg.tolerances,
    cfg.integrator_settings(), cfg.domain_radius, probes=3, seed=0,
)
metrics = spans.layer_metrics(tracer)
names = ("flows.chart_builds", "flows.trajectories")
print(json.dumps({name: metrics[name][1] for name in names}))
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
    assert figures["flows.trajectories"] > 0
