"""Run configuration: one JSON object driving simulations and verification.

Shape:

    {
      "mechanism": {"alpha": .., "beta": .., "jumps": {...}},
      "sim":       {"dt": .., "horizon": .., "truncation_delta": ..,
                    "small_jump_mode": "drop_compensated", "seed": ..},
      "harness":   {...per-suite knobs, see DEFAULT_HARNESS...}
    }

Validation failures raise ConfigurationError naming the offending field.
Omitted harness keys fall back to the defaults below, which reproduce the
acceptance-scale verification runs.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .mechanism import BranchingMechanism, mechanism_from_config, mechanism_to_config
from .paths import SimConfig, _chunk_cells, sim_config_from_config, sim_config_to_config
from .verify import GridFunction2D

__all__ = ["RunConfig", "load_run_config", "run_config_from_dict",
           "DEFAULT_CONFIG", "DEFAULT_HARNESS"]


DEFAULT_HARNESS: dict = {
    "x": 1.0,
    "levels": [0.25, 0.5, 1.0],
    "lambdas": [0.5, 1.0, 2.0],
    "paths": 4000,
    "dts": [1e-3, 5e-4, 2.5e-4],
    "residual_levels": [0.25, 0.5, 0.75, 1.0],
    "level_width": None,
    "mean_budget": 0.02,
    "laplace_budget": 0.05,
    "boxes": [{"a": [0.0, 0.5], "z": [0.8, 1.2], "u": [0.0, 0.5]}],
    "theorem1": {"paths": 8000, "horizon": 24.0},
    "tanaka": {"paths": 3000, "t": 2.0},
    "noise": {"a": 1.0, "u_max": 1.0, "dt": 1e-3, "horizon": 24.0,
              "paths": 4000, "level_width": 0.05, "f": None},
    "poisson": {"x": 4.0, "dt": 5e-4, "horizon": 60.0, "paths": 4000,
                "level_width": 0.05},
    "reflected": {"t": 1.0, "paths": 3000, "band_mult": 16.0},
    "example": {"paths": 5000, "dt": 2e-4, "t": 1.0},
    "exponent_check": {"paths": 2000, "dt": 0.01, "t": 2.0,
                       "lambdas": [0.5, 1.0]},
    "oracle_alpha_offset": 0.0,
    "out_dir": "out",
}

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
            "sim": sim_config_to_config(self.sim),
            "harness": harness,
        }


_NUMERIC_LISTS = ("levels", "lambdas", "dts", "residual_levels")
_SUB_BLOCKS = ("theorem1", "tanaka", "noise", "poisson", "reflected",
               "example", "exponent_check")


def _validate_harness(h: dict) -> dict:
    out = copy.deepcopy(DEFAULT_HARNESS)
    for key, val in h.items():
        if key not in DEFAULT_HARNESS:
            raise ConfigurationError(f"harness.{key}: unknown field")
        if key in _SUB_BLOCKS:
            if not isinstance(val, dict):
                raise ConfigurationError(f"harness.{key}: expected an object")
            for sub, sval in val.items():
                if sub not in DEFAULT_HARNESS[key]:
                    raise ConfigurationError(f"harness.{key}.{sub}: unknown field")
                out[key][sub] = sval
        else:
            out[key] = val
    for key in _NUMERIC_LISTS:
        try:
            out[key] = [float(v) for v in out[key]]
        except (TypeError, ValueError):
            raise ConfigurationError(f"harness.{key}: expected a list of numbers") from None
        if not out[key]:
            raise ConfigurationError(f"harness.{key}: must not be empty")
    for key in ("x", "mean_budget", "laplace_budget", "oracle_alpha_offset"):
        try:
            out[key] = float(out[key])
        except (TypeError, ValueError):
            raise ConfigurationError(f"harness.{key}: expected a number") from None
    try:
        out["paths"] = int(out["paths"])
    except (TypeError, ValueError):
        raise ConfigurationError("harness.paths: expected an integer") from None
    if out["paths"] <= 1:
        raise ConfigurationError("harness.paths: must exceed 1")
    if out["x"] < 0:
        raise ConfigurationError("harness.x: must be >= 0")
    for block in _SUB_BLOCKS:
        _validate_sizes(block, out[block])
    _validate_dts(out)
    if out["noise"]["f"] is not None:
        out["noise"]["f"] = _grid_function(out["noise"]["f"], "harness.noise.f")
    for i, box in enumerate(out["boxes"]):
        for axis in ("a", "z", "u"):
            rng = box.get(axis)
            if (not isinstance(rng, (list, tuple)) or len(rng) != 2
                    or not all(isinstance(v, (int, float)) for v in rng)
                    or not rng[0] < rng[1]):
                raise ConfigurationError(
                    f"harness.boxes[{i}].{axis}: expected [lo, hi] with lo < hi")
    return out


def _number(val, name: str) -> float:
    """A finite number > 0."""
    try:
        num = float(val)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name}: expected a number") from None
    if not (math.isfinite(num) and num > 0.0):
        raise ConfigurationError(f"{name}: must be finite and > 0")
    return num


def _validate_sizes(block: str, sub: dict) -> None:
    """Path counts, steps and horizons of one per-suite block."""
    for key in ("dt", "horizon", "t"):
        if key in sub:
            sub[key] = _number(sub[key], f"harness.{block}.{key}")
    if "paths" in sub:
        paths = _number(sub["paths"], f"harness.{block}.paths")
        if not paths.is_integer() or paths <= 1:
            raise ConfigurationError(f"harness.{block}.paths: expected an integer > 1")
        sub["paths"] = int(paths)
    end = "horizon" if "horizon" in sub else "t"
    if "dt" in sub and end in sub and not sub[end] > sub["dt"]:
        raise ConfigurationError(
            f"harness.{block}.{end}: must exceed harness.{block}.dt")


def _validate_dts(out: dict) -> None:
    """The dt ladder shared by theorem1, tanaka and reflected: every rung a
    whole number of finest steps that coarsen_path can apply to the
    theorem1 grid, its stopped prefixes and the tanaka grid."""
    dts = out["dts"]
    for d in dts:
        if not (math.isfinite(d) and d > 0.0):
            raise ConfigurationError("harness.dts: steps must be finite and > 0")
    fine, coarse = min(dts), max(dts)
    for block, key in (("theorem1", "horizon"), ("tanaka", "t")):
        if not out[block][key] > fine:
            raise ConfigurationError(
                f"harness.{block}.{key}: must exceed the finest harness.dts step")
    if not out["reflected"]["t"] > coarse:
        raise ConfigurationError(
            "harness.reflected.t: must exceed the largest harness.dts step")
    stopped = SimConfig(dt=fine, horizon=out["theorem1"]["horizon"])
    grids = {"theorem1 grid": stopped.n_cells,
             "theorem1 stopped-path chunk": _chunk_cells(stopped),
             "tanaka grid": int(round(out["tanaka"]["t"] / fine))}
    for d in dts:
        ratio = int(round(d / fine))
        if abs(ratio * fine - d) > 1e-12:
            raise ConfigurationError(
                f"harness.dts: {d} is not a whole multiple of the finest step {fine}")
        for what, cells in grids.items():
            if cells % ratio:
                raise ConfigurationError(
                    f"harness.dts: {d} spans {ratio} finest steps, which do not "
                    f"divide the {what} of {cells} cells")


def _grid_function(obj, name: str) -> GridFunction2D:
    """{"s_edges", "u_edges", "values"} as a piecewise-constant f(s, u)."""
    keys = ("s_edges", "u_edges", "values")
    if not isinstance(obj, dict) or sorted(obj) != sorted(keys):
        raise ConfigurationError(
            f"{name}: expected an object with s_edges, u_edges and values")
    arrays = {}
    for key in keys:
        try:
            arrays[key] = np.array(obj[key], dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{name}.{key}: expected numbers") from None
        if not np.isfinite(arrays[key]).all():
            raise ConfigurationError(f"{name}.{key}: must be finite")
    for key in keys[:2]:
        edges = arrays[key]
        if edges.ndim != 1 or len(edges) < 2 or not (np.diff(edges) > 0.0).all():
            raise ConfigurationError(
                f"{name}.{key}: expected at least two strictly increasing edges")
    shape = (len(arrays["s_edges"]) - 1, len(arrays["u_edges"]) - 1)
    if arrays["values"].shape != shape:
        raise ConfigurationError(
            f"{name}.values: expected {shape[0]} rows of {shape[1]} values")
    return GridFunction2D(arrays["s_edges"], arrays["u_edges"], arrays["values"])


def run_config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError("config: expected a JSON object")
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for key in obj:
        if key not in merged:
            raise ConfigurationError(f"config.{key}: unknown field")
    merged.update({k: obj[k] for k in obj})
    mech = mechanism_from_config(merged["mechanism"])
    sim = sim_config_from_config(merged["sim"])
    harness = _validate_harness(merged.get("harness") or {})
    return RunConfig(mechanism=mech, sim=sim, harness=harness)


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return run_config_from_dict({})
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ConfigurationError(f"config: cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config: invalid JSON in {path}: {exc}") from None
    return run_config_from_dict(obj)
