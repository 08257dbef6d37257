"""Scenario registry and run configuration.

A run configuration is a single JSON document; the registry ships a few
ready-made systems so commands can be pointed at "scenario:<name>"
without writing a file.  Everything here validates eagerly and loudly:
command code downstream assumes a well-formed RunConfig.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .expr import MapField, ParseError, ScalarField
from .flows import IntegratorSettings
from .standard import SimpleHamiltonian, simple_hamiltonian


class ConfigError(ValueError):
    """The run configuration is malformed."""


_TOLERANCE_KEYS = ("rank", "newton", "ode_abs", "ode_rel", "residual")
_CONFIG_KEYS = {
    "scenario",
    "dimension_s",
    "hamiltonian",
    "fibration",
    "auto_k",
    "base_point",
    "tolerances",
    "domain_radius",
    "probes",
    "lambda_grid",
    "seed",
    "integrals",
}


@dataclass(frozen=True)
class RunConfig:
    """A validated scenario configuration."""

    dimension_s: int
    hamiltonian_source: Union[str, dict]
    fibration_sources: Optional[tuple[str, ...]]  # None means "auto"
    auto_k: Optional[int]
    base_point: tuple[float, ...]
    tolerances: Tolerances
    domain_radius: float
    probes: int
    lambda_grid: int
    seed: int
    integrals_sources: Optional[tuple[str, ...]]
    scenario_name: Optional[str]

    @property
    def k(self) -> int:
        if self.fibration_sources is not None:
            return len(self.fibration_sources)
        return self.auto_k  # validated non-None for auto

    def hamiltonian(self) -> ScalarField:
        if isinstance(self.hamiltonian_source, str):
            return ScalarField.parse(self.hamiltonian_source, self.dimension_s)
        return self.simple_hamiltonian().hamiltonian

    def simple_hamiltonian(self) -> SimpleHamiltonian:
        block = self.hamiltonian_source
        if not isinstance(block, dict):
            raise ConfigError("hamiltonian is not a simple-Hamiltonian block")
        return simple_hamiltonian(
            block["cometric"], block["potential"], self.dimension_s
        )

    def fibration(self) -> Optional[MapField]:
        if self.fibration_sources is None:
            return None
        return MapField.from_sources(self.fibration_sources, self.dimension_s)

    def integrals(self) -> Optional[MapField]:
        if self.integrals_sources is None:
            return None
        return MapField.from_sources(self.integrals_sources, self.dimension_s)

    def integrator_settings(self) -> IntegratorSettings:
        return IntegratorSettings(
            abs_tol=self.tolerances.ode_abs, rel_tol=self.tolerances.ode_rel
        )

    def echo(self) -> dict:
        """The normalized configuration, for report embedding."""
        return {
            "scenario": self.scenario_name,
            "dimension_s": self.dimension_s,
            "hamiltonian": self.hamiltonian_source,
            "fibration": (
                "auto"
                if self.fibration_sources is None
                else list(self.fibration_sources)
            ),
            "auto_k": self.auto_k,
            "base_point": list(self.base_point),
            "tolerances": {
                "rank": self.tolerances.rank,
                "newton": self.tolerances.newton,
                "ode_abs": self.tolerances.ode_abs,
                "ode_rel": self.tolerances.ode_rel,
                "residual": self.tolerances.residual,
            },
            "domain_radius": self.domain_radius,
            "probes": self.probes,
            "lambda_grid": self.lambda_grid,
            "seed": self.seed,
            "integrals": (
                None if self.integrals_sources is None
                else list(self.integrals_sources)
            ),
        }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(v) -> bool:
    """An integer that is not a bool (isinstance(True, int) holds)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite number; json.load admits NaN and Infinity."""
    try:
        return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw configuration dictionary into a RunConfig."""
    _require(isinstance(raw, dict), "configuration must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    _require(not unknown, f"unknown configuration keys: {sorted(unknown)}")

    name = raw.get("scenario")
    if name is not None:
        _require(name in REGISTRY, f"unknown scenario {name!r}")
        merged = dict(REGISTRY[name].config)
        merged.update({k: v for k, v in raw.items() if k != "scenario"})
        merged["scenario"] = name
        raw = merged

    _require("dimension_s" in raw, "dimension_s is required")
    s = raw["dimension_s"]
    _require(_is_int(s) and s >= 1, "dimension_s must be a positive integer")

    _require("hamiltonian" in raw, "hamiltonian is required")
    ham = raw["hamiltonian"]
    if isinstance(ham, dict):
        _require(
            set(ham) == {"cometric", "potential"},
            "simple-Hamiltonian block must have exactly cometric and potential",
        )
        cometric = ham["cometric"]
        _require(
            isinstance(cometric, list) and all(isinstance(r, list) for r in cometric),
            "cometric must be a list of rows of expressions",
        )
        _require(isinstance(ham["potential"], str), "potential must be text")
    else:
        _require(isinstance(ham, str), "hamiltonian must be text or a block")

    _require("fibration" in raw, "fibration is required")
    fib = raw["fibration"]
    auto_k = raw.get("auto_k")
    if auto_k is not None:
        _require(
            _is_int(auto_k) and 1 <= auto_k <= s,
            f"auto_k must be an integer in [1, {s}]",
        )
    if fib == "auto":
        _require(auto_k is not None, 'fibration "auto" requires auto_k')
        sources = None
    else:
        _require(
            isinstance(fib, list) and fib and all(isinstance(c, str) for c in fib),
            "fibration must be a non-empty list of expressions or \"auto\"",
        )
        _require(len(fib) <= 2 * s - 1, "fibration has too many components")
        sources = tuple(fib)

    _require("base_point" in raw, "base_point is required")
    base = raw["base_point"]
    _require(
        isinstance(base, list) and len(base) == 2 * s
        and all(_is_real(v) for v in base),
        f"base_point must be a list of {2 * s} numbers",
    )

    tol_raw = raw.get("tolerances", {})
    _require(isinstance(tol_raw, dict), "tolerances must be an object")
    _require(
        set(tol_raw) <= set(_TOLERANCE_KEYS),
        f"tolerances keys must be among {_TOLERANCE_KEYS}",
    )
    for key, val in tol_raw.items():
        _require(
            _is_real(val) and val > 0,
            f"tolerance {key} must be positive and finite",
        )
    tolerances = DEFAULT_TOLERANCES.with_(**tol_raw)

    radius = raw.get("domain_radius", 0.5)
    _require(
        _is_real(radius) and radius > 0,
        "domain_radius must be positive and finite",
    )
    probes = raw.get("probes", 50)
    _require(_is_int(probes) and probes >= 1, "probes must be >= 1")
    grid = raw.get("lambda_grid", 3)
    _require(_is_int(grid) and grid >= 1, "lambda_grid must be >= 1")
    seed = raw.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, "seed must be a non-negative integer")

    integrals = raw.get("integrals")
    if integrals is not None:
        _require(
            isinstance(integrals, list) and integrals
            and all(isinstance(c, str) for c in integrals),
            "integrals must be a non-empty list of expressions",
        )
        integrals = tuple(integrals)

    cfg = RunConfig(
        dimension_s=s,
        hamiltonian_source=ham,
        fibration_sources=sources,
        auto_k=auto_k,
        base_point=tuple(float(v) for v in base),
        tolerances=tolerances,
        domain_radius=float(radius),
        probes=probes,
        lambda_grid=grid,
        seed=seed,
        integrals_sources=integrals,
        scenario_name=raw.get("scenario"),
    )

    # Expressions must parse now, not inside a command.
    try:
        cfg.hamiltonian()
        cfg.fibration()
        cfg.integrals()
    except (ParseError, ValueError, KeyError) as exc:
        raise ConfigError(f"configuration expression error: {exc}") from exc
    return cfg


def load_config(ref: str) -> RunConfig:
    """Load a configuration from a file path or a "scenario:<name>" tag."""
    if ref.startswith("scenario:"):
        return parse_config({"scenario": ref[len("scenario:"):]})
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return parse_config(raw)


@dataclass(frozen=True)
class Scenario:
    """A registry entry: a named config dictionary."""

    name: str
    config: dict


def _scenario(name, config) -> Scenario:
    config = dict(config)
    config["scenario"] = name
    return Scenario(name, config)


REGISTRY: dict[str, Scenario] = {
    sc.name: sc
    for sc in (
        # momentum is the integral; the solution map is affine
        _scenario(
            "free_particle_s1",
            {
                "dimension_s": 1,
                "hamiltonian": "p1^2/2",
                "fibration": ["q1"],
                "auto_k": 1,
                "base_point": [0.0, 1.0],
            },
        ),
        # two commuting translations; exercises one frame extension
        _scenario(
            "free_particle_s2",
            {
                "dimension_s": 2,
                "hamiltonian": "(p1^2 + p2^2)/2",
                "fibration": ["q1", "q2"],
                "auto_k": 2,
                "base_point": [0.1, -0.2, 1.0, 0.6],
            },
        ),
        # circular flow; base point off the turning circle
        _scenario(
            "harmonic_s1",
            {
                "dimension_s": 1,
                "hamiltonian": "(q1^2 + p1^2)/2",
                "fibration": ["q1"],
                "auto_k": 1,
                "base_point": [0.0, 1.0],
            },
        ),
        # isotropic oscillator with a full k = s = 2 construction
        _scenario(
            "harmonic_s2",
            {
                "dimension_s": 2,
                "hamiltonian": "(q1^2 + q2^2 + p1^2 + p2^2)/2",
                "fibration": ["q1", "q2"],
                "auto_k": 2,
                "base_point": [0.3, 0.1, 1.0, 0.7],
            },
        ),
        # incommensurate frequencies; no resonant shortcut
        _scenario(
            "anisotropic_s2",
            {
                "dimension_s": 2,
                "hamiltonian": "(p1^2 + p2^2)/2 + q1^2 + 2*q2^2",
                "fibration": ["q1", "q2"],
                "auto_k": 2,
                "base_point": [0.3, 0.1, 1.0, 0.7],
            },
        ),
        # position-dependent cometric; k = 1 keeps one flow level
        _scenario(
            "nonflat_cometric_s2",
            {
                "dimension_s": 2,
                "hamiltonian": {
                    "cometric": [["1", "0"], ["0", "1/(1 + q1^2)"]],
                    "potential": "(q1^2 + q2^2)/2",
                },
                "fibration": ["q1"],
                "auto_k": 1,
                "base_point": [0.2, 0.1, 0.9, 0.5],
            },
        ),
    )
}
