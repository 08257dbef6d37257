"""Configuration validation and the built-in scenario registry."""

import json

import numpy as np
import pytest

from hjcomplete.construct import check_assumptions
from hjcomplete.scenarios import (
    REGISTRY,
    ConfigError,
    load_config,
    parse_config,
)

_MINIMAL = {
    "dimension_s": 1,
    "hamiltonian": "p1^2/2",
    "fibration": ["q1"],
    "base_point": [0.0, 1.0],
}


def test_minimal_config_defaults():
    cfg = parse_config(dict(_MINIMAL))
    assert cfg.dimension_s == 1
    assert cfg.k == 1
    assert cfg.probes == 50
    assert cfg.lambda_grid == 3
    assert cfg.seed == 0
    assert cfg.domain_radius == 0.5
    assert cfg.tolerances.residual == 1e-5
    assert cfg.integrals() is None
    assert cfg.hamiltonian().value([0.0, 2.0]) == 2.0


def test_unknown_keys_rejected():
    raw = dict(_MINIMAL, extra=1)
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        parse_config(raw)


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"dimension_s": 0}, "positive integer"),
        ({"dimension_s": "2"}, "positive integer"),
        ({"hamiltonian": 7}, "text or a block"),
        ({"hamiltonian": {"cometric": [["1"]]}}, "exactly cometric and potential"),
        ({"fibration": []}, "non-empty list"),
        ({"fibration": ["q1", "p1"]}, "too many components"),
        ({"fibration": "auto"}, "requires auto_k"),
        ({"fibration": "auto", "auto_k": 2}, r"\[1, 1\]"),
        ({"base_point": [0.0]}, "2 numbers"),
        ({"tolerances": {"bogus": 1.0}}, "keys must be among"),
        ({"tolerances": {"rank": -1.0}}, "must be positive"),
        ({"probes": 0}, "probes"),
        ({"lambda_grid": 0}, "lambda_grid"),
        ({"seed": -1}, "seed"),
        ({"integrals": [2]}, "integrals"),
        ({"hamiltonian": "p1^2/2 +"}, "expression error"),
        ({"fibration": ["q7"]}, "expression error"),
        # json.load admits NaN and Infinity, and isinstance(True, int) holds
        ({"dimension_s": True}, "positive integer"),
        ({"fibration": "auto", "auto_k": True}, "auto_k"),
        ({"base_point": [float("nan"), 1.0]}, "2 numbers"),
        ({"base_point": [0.0, float("inf")]}, "2 numbers"),
        ({"base_point": [True, 1.0]}, "2 numbers"),
        ({"base_point": [10**400, 1.0]}, "2 numbers"),
        ({"tolerances": {"residual": float("inf")}}, "tolerance residual"),
        ({"tolerances": {"newton": float("nan")}}, "tolerance newton"),
        ({"tolerances": {"rank": True}}, "tolerance rank"),
        ({"domain_radius": float("inf")}, "domain_radius"),
        ({"domain_radius": True}, "domain_radius"),
        ({"probes": True}, "probes"),
        ({"lambda_grid": True}, "lambda_grid"),
        ({"seed": False}, "seed"),
        # a simple-Hamiltonian block is a list of rows and a text
        ({"hamiltonian": {"cometric": 5, "potential": "0"}}, "cometric must be"),
        ({"hamiltonian": {"cometric": ["1"], "potential": "0"}}, "cometric must be"),
        ({"hamiltonian": {"cometric": [["1"]], "potential": 3}}, "potential must be"),
        # auto_k is checked whenever it is given, not only for "auto"
        ({"auto_k": "2"}, r"auto_k must be an integer in \[1, 1\]"),
        ({"auto_k": True}, r"auto_k must be an integer in \[1, 1\]"),
        ({"auto_k": 7}, r"auto_k must be an integer in \[1, 1\]"),
    ],
)
def test_invalid_configs_rejected(patch, message):
    raw = dict(_MINIMAL)
    raw.update(patch)
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)


def test_missing_required_keys():
    for key in ("dimension_s", "hamiltonian", "fibration", "base_point"):
        raw = dict(_MINIMAL)
        del raw[key]
        with pytest.raises(ConfigError, match=key.replace("_", ".")):
            parse_config(raw)


def test_scenario_sugar_and_overrides():
    cfg = parse_config({"scenario": "harmonic_s1", "probes": 7})
    assert cfg.scenario_name == "harmonic_s1"
    assert cfg.probes == 7
    assert cfg.dimension_s == 1
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config({"scenario": "nope"})


def test_auto_fibration_config():
    cfg = parse_config(
        {
            "dimension_s": 2,
            "hamiltonian": "(p1^2 + p2^2)/2",
            "fibration": "auto",
            "auto_k": 2,
            "base_point": [0.1, -0.2, 1.0, 0.6],
        }
    )
    assert cfg.fibration_sources is None
    assert cfg.k == 2
    assert cfg.fibration() is None


def test_simple_hamiltonian_block():
    cfg = parse_config(
        {
            "dimension_s": 2,
            "hamiltonian": {
                "cometric": [["1", "0"], ["0", "1/(1 + q1^2)"]],
                "potential": "(q1^2 + q2^2)/2",
            },
            "fibration": ["q1", "q2"],
            "base_point": [0.2, 0.1, 0.9, 0.5],
        }
    )
    sh = cfg.simple_hamiltonian()
    assert sh.cometric_value([0.2, 0.1])[1, 1] == pytest.approx(1 / 1.04)
    # the assembled Hamiltonian is what a plain-text config would parse
    assert cfg.hamiltonian().value([0.2, 0.1, 0.9, 0.5]) == pytest.approx(
        0.9**2 / 2 + 0.5**2 / (2 * 1.04) + (0.2**2 + 0.1**2) / 2
    )


def test_echo_round_trips():
    cfg = parse_config(dict(_MINIMAL, seed=3))
    again = parse_config(json.loads(json.dumps(cfg.echo())))
    assert again == cfg


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_MINIMAL))
    cfg = load_config(str(path))
    assert cfg.dimension_s == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


def test_load_config_scenario_tag():
    cfg = load_config("scenario:free_particle_s1")
    assert cfg.scenario_name == "free_particle_s1"


def test_registry_scenarios_are_well_posed():
    assert set(REGISTRY) == {
        "free_particle_s1",
        "free_particle_s2",
        "harmonic_s1",
        "harmonic_s2",
        "anisotropic_s2",
        "nonflat_cometric_s2",
    }
    for name in REGISTRY:
        cfg = parse_config({"scenario": name})
        m = np.array(cfg.base_point)
        H = cfg.hamiltonian()
        fib = cfg.fibration()
        if fib is None:
            continue  # auto scenarios are exercised through the CLI
        report = check_assumptions(H, fib, m, cfg.tolerances)
        assert report.passed, f"{name}: {report.messages}"
