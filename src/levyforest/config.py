"""Run configuration: one JSON object driving simulations and verification.

Shape:

    {
      "mechanism": {"alpha": .., "beta": .., "jumps": {...}},
      "sim":       {"dt": .., "horizon": .., "truncation_delta": ..,
                    "small_jump_mode": "drop_compensated", "seed": ..},
      "harness":   {...per-suite knobs, see DEFAULT_HARNESS...}
    }

Validation failures raise ConfigurationError naming the offending field.
Omitted harness keys fall back to DEFAULT_HARNESS (kept in levyforest.verify,
whose suites read it too, and re-exported here), which reproduces the
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
from .verify import DEFAULT_HARNESS, GridFunction2D, merge_harness

__all__ = ["RunConfig", "load_run_config", "run_config_from_dict",
           "DEFAULT_CONFIG", "DEFAULT_HARNESS"]


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
_SUB_BLOCKS = [k for k, v in DEFAULT_HARNESS.items() if isinstance(v, dict)]
# per-suite numbers that must be finite and > 0, besides dt, horizon and t
_POSITIVE = {"noise": ("a", "u_max", "level_width"),
             "poisson": ("x", "level_width"),
             "reflected": ("band_mult",)}


def _validate_harness(h: dict) -> dict:
    out = merge_harness(h)
    for key in _NUMERIC_LISTS:
        out[key] = _numbers(out[key], f"harness.{key}")
        if not out[key]:
            raise ConfigurationError(f"harness.{key}: must not be empty")
    if not max(out["residual_levels"]) > 0.0:
        raise ConfigurationError("harness.residual_levels: needs a level > 0")
    out["exponent_check"]["lambdas"] = _numbers(out["exponent_check"]["lambdas"],
                                                "harness.exponent_check.lambdas")
    for key in ("x", "mean_budget", "laplace_budget", "oracle_alpha_offset"):
        try:
            out[key] = float(out[key])
        except (TypeError, ValueError):
            raise ConfigurationError(f"harness.{key}: expected a number") from None
        if not math.isfinite(out[key]):
            raise ConfigurationError(f"harness.{key}: must be finite")
    out["paths"] = _path_count(out["paths"], "harness.paths")
    if out["x"] < 0:
        raise ConfigurationError("harness.x: must be >= 0")
    if not (isinstance(out["out_dir"], str) and out["out_dir"]):
        raise ConfigurationError("harness.out_dir: expected a directory name")
    if out["level_width"] is not None:
        out["level_width"] = _number(out["level_width"], "harness.level_width")
    for block in _SUB_BLOCKS:
        _validate_sizes(block, out[block])
    _validate_dts(out)
    if out["noise"]["f"] is not None:
        out["noise"]["f"] = _grid_function(out["noise"]["f"], "harness.noise.f")
    if not (isinstance(out["boxes"], list) and out["boxes"]):
        raise ConfigurationError("harness.boxes: expected a non-empty list of boxes")
    for i, box in enumerate(out["boxes"]):
        for axis in ("a", "z", "u"):
            rng = box.get(axis) if isinstance(box, dict) else None
            if (not isinstance(rng, (list, tuple)) or len(rng) != 2
                    or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in rng)
                    or not rng[0] < rng[1]):
                raise ConfigurationError(
                    f"harness.boxes[{i}].{axis}: expected finite [lo, hi] with lo < hi")
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


def _numbers(val, name: str) -> list[float]:
    """A list of finite numbers >= 0 (levels, Laplace arguments, steps)."""
    try:
        nums = [float(v) for v in val]
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name}: expected a list of numbers") from None
    if not all(math.isfinite(v) and v >= 0.0 for v in nums):
        raise ConfigurationError(f"{name}: expected finite numbers >= 0")
    return nums


def _path_count(val, name: str) -> int:
    """A whole number of paths > 1."""
    paths = _number(val, name)
    if not paths.is_integer() or paths <= 1:
        raise ConfigurationError(f"{name}: expected an integer > 1")
    return int(paths)


def _validate_sizes(block: str, sub: dict) -> None:
    """Path counts, steps, horizons and other positive numbers of one
    per-suite block; a block's t is a whole number of its dt steps."""
    for key in ("dt", "horizon", "t") + _POSITIVE.get(block, ()):
        if key in sub:
            sub[key] = _number(sub[key], f"harness.{block}.{key}")
    if "paths" in sub:
        sub["paths"] = _path_count(sub["paths"], f"harness.{block}.paths")
    end = "horizon" if "horizon" in sub else "t"
    if "dt" in sub and end in sub and not sub[end] > sub["dt"]:
        raise ConfigurationError(
            f"harness.{block}.{end}: must exceed harness.{block}.dt")
    if ("dt" in sub and "t" in sub
            and abs(math.remainder(sub["t"], sub["dt"])) > 1e-9 * sub["dt"]):
        raise ConfigurationError(f"harness.{block}.t: must be a whole number of dt steps")


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


def run_config_from_dict(obj: dict, overrides: dict | None = None) -> RunConfig:
    """The validated config of obj; overrides maps "section.field" names to
    values that replace the config's own before validation."""
    if not isinstance(obj, dict):
        raise ConfigurationError("config: expected a JSON object")
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for key in obj:
        if key not in merged:
            raise ConfigurationError(f"config.{key}: unknown field")
    merged.update({k: obj[k] for k in obj})
    for name, val in (overrides or {}).items():
        section, key = name.split(".")
        block = merged[section] or {}
        if isinstance(block, dict):     # otherwise the section's own check reports it
            merged[section] = {**block, key: val}
    mech = mechanism_from_config(merged["mechanism"])
    sim = sim_config_from_config(merged["sim"])
    harness = _validate_harness(merged.get("harness") or {})
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
