"""Run configuration: one JSON object driving simulations and verification.

Shape:

    {
      "mechanism": {"alpha": .., "beta": .., "jumps": {...}},
      "sim":       {"dt": .., "horizon": .., "truncation_delta": ..,
                    "small_jump_mode": "drop_compensated", "seed": ..},
      "harness":   {...per-suite knobs, see DEFAULT_HARNESS...}
    }

Validation failures raise ConfigurationError naming the offending field.
Every object, from the top level to each atom and mark box, is read by
errors.config_object: a field it does not know is an error.  The mechanism
and sim sections are then checked by their types (BranchingMechanism,
SimConfig), the harness by verify.merge_harness, the check every suite's
plan runs too.  Omitted harness keys fall back to
levyforest.verify.DEFAULT_HARNESS, which reproduces the acceptance-scale
verification runs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass

from .errors import ConfigurationError, config_object
from .mechanism import BranchingMechanism, mechanism_from_config, mechanism_to_config
from .paths import SimConfig, sim_config_from_config
from .verify import merge_harness

__all__ = ["RunConfig", "load_run_config", "run_config_from_dict", "DEFAULT_CONFIG"]


DEFAULT_CONFIG: dict = {
    "mechanism": {"alpha": 0.5, "beta": 1.0,
                  "jumps": {"atoms": [], "power_law": None}},
    "sim": {"dt": 2.5e-4, "horizon": 30.0, "truncation_delta": 0.0,
            "small_jump_mode": "drop_compensated", "seed": 7},
    "harness": {},
}


@dataclass(frozen=True)
class RunConfig:
    mechanism: BranchingMechanism
    sim: SimConfig
    harness: dict

    def to_dict(self) -> dict:
        harness = self.harness
        f = harness["noise"].get("f")
        if f is not None:
            harness = dict(harness, noise=dict(harness["noise"], f=f.to_config()))
        return {
            "mechanism": mechanism_to_config(self.mechanism),
            "sim": asdict(self.sim),
            "harness": harness,
        }


def run_config_from_dict(obj: dict, overrides: dict | None = None) -> RunConfig:
    """The validated config of obj; overrides maps "section.field" names to
    values that replace the config's own before validation."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    merged.update(config_object(obj, "config", optional=DEFAULT_CONFIG))
    if merged["harness"] is None:       # only a missing field or null is empty
        merged["harness"] = {}
    for name, val in (overrides or {}).items():
        section, key = name.split(".")
        if isinstance(merged[section], dict):   # otherwise its own check reports it
            merged[section] = {**merged[section], key: val}
    mech = mechanism_from_config(merged["mechanism"])
    sim = sim_config_from_config(merged["sim"])
    harness = merge_harness(merged["harness"])
    return RunConfig(mechanism=mech, sim=sim, harness=harness)


def load_run_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """The config read from the JSON file at path (the defaults when None),
    with overrides applied as in run_config_from_dict."""
    if path is None:
        return run_config_from_dict({}, overrides)
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigurationError(f"config: cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config: invalid JSON in {path}: {exc}") from None
    return run_config_from_dict(obj, overrides)
