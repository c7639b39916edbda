"""Statistical verification harness.

Each suite simulates an ensemble of paths (or branching trajectories),
reduces every path to a handful of statistics, and compares Monte Carlo
aggregates against exact oracles derived from the branching mechanism.  A
suite returns a MonteCarloReport made of typed cells; the report passes iff
every cell passes, and serializes to JSON byte-identically for a given
(config, seed) regardless of worker count (per-path statistics are stored by
path index and reduced in fixed order; no wall-clock data enters a report).

The suites share one pipeline.  One stage, _heights, takes a path through
build_nodes, the optional cut at its first passage below -x and scan_height;
_level_profile reads its local-time profile at the requested levels.  One
cell builder, _mean_cell, turns a sample array into a mean-vs-oracle cell
(mean, standard error std(ddof=1)/sqrt(n), tolerance), one, _ladder_cells,
builds the rung and order cells of a dt ladder, and _discards counts the
paths that miss -x.  Every suite body is a generator that writes rows =
yield fn, spec, m where it needs per-path rows and returns its report; _suite
makes it a report function whose plan runs every check of the suite before
any path is drawn: merge_harness fills the harness in from DEFAULT_HARNESS,
the only copy of the defaults, and checks it (the one harness check, which
the config loader runs too).  SUITES is the one name -> report table.

Per-path work lives in module-level functions, fn(spec, i) -> tuple of
statistics of path i, which a PathPool runs either in this process over
every path (one job) or over contiguous index chunks in a pool of spawned
worker processes; path streams are keyed on (seed, path index), so the
split never changes a number.  One pool serves every suite of a verify
command and also holds the path-exponent values, which suites sharing a
mechanism then simulate once.

A cell's pass is its rule on stat, oracle and tol, false on a NaN: gap
|stat - oracle| <= tol (mean, Laplace, variance, skewness, Fano factor),
upper stat - oracle <= tol (discard rate, dt-ladder rungs, plus/minus
identity, KS distance), lower stat >= oracle - tol (coverage, nonnegative)
and order stat > oracle (strict decrease along a dt ladder).  The mean,
Laplace, variance and skewness tolerances are three standard errors plus an
explicit discretization budget proportional to the oracle (budgets are
configuration, not derived claims).
Every suite also carries "path-exponent" health cells comparing the
empirical Laplace transform of the simulated increments against
exp(t * psi(lam)) of the oracle mechanism; these run at a coarse step (the
grid law is exact in distribution at any step) and make each suite
sensitive to a mis-specified oracle drift, which is what the
negative-control mode perturbs.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .cb_flow import cb_marginals
from .errors import ConfigurationError, PreconditionError
from .exploration import scan_height
from .local_time import (
    aligned_level_width,
    level_bins,
    occupation_profile,
    running_local_time,
    tanaka_local_time,
)
from .mechanism import BranchingMechanism, mechanism_to_config
from .paths import (
    LevyPath,
    SimConfig,
    _chunk_cells,
    build_nodes,
    coarsen_path,
    node_weights,
    sample_path,
    sim_config_to_config,
    simulated_law,
    truncate_at_level,
)

__all__ = [
    "CheckCell",
    "MonteCarloReport",
    "DEFAULT_HARNESS",
    "merge_harness",
    "GridFunction2D",
    "indicator_box",
    "MarkBox",
    "ray_knight_report",
    "theorem1_report",
    "tanaka_report",
    "white_noise_report",
    "poisson_marks_report",
    "reflected_supremum_report",
    "PathPool",
    "keep_heap_resident",
    "SUITES",
    "run_suite",
    "run_all",
]

# stream-index namespaces per suite (never reuse a path stream across suites)
_NS_NOISE = 1 << 41
_NS_POISSON = 1 << 42
_NS_THEOREM1 = 1 << 43
_NS_TANAKA = 1 << 44
_NS_REFLECTED = 1 << 45
_NS_EXAMPLE = 1 << 46
_NS_EXPONENT = 1 << 47

# The harness defaults reproduce the acceptance-scale verification runs.
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


_NUMERIC_LISTS = ("levels", "lambdas", "dts", "residual_levels")
_SUB_BLOCKS = [k for k, v in DEFAULT_HARNESS.items() if isinstance(v, dict)]
# per-suite numbers that must be finite and > 0, besides dt, horizon and t
_POSITIVE = {"noise": ("a", "u_max", "level_width"),
             "poisson": ("x", "level_width"),
             "reflected": ("band_mult",)}


def merge_harness(harness: dict) -> dict:
    """DEFAULT_HARNESS with the fields of harness in place of its own, the
    per-suite blocks field by field, and every field checked: an unknown
    or invalid field is a ConfigurationError naming it.  The config loader
    and every suite's plan run this one check; a harness it has returned
    passes through it again with the same values."""
    if not isinstance(harness, dict):
        raise ConfigurationError("harness: expected an object")
    out = copy.deepcopy(DEFAULT_HARNESS)
    for key, val in harness.items():
        if key not in out:
            raise ConfigurationError(f"harness.{key}: unknown field")
        if not isinstance(out[key], dict):
            out[key] = val
            continue
        if not isinstance(val, dict):
            raise ConfigurationError(f"harness.{key}: expected an object")
        for sub in val:
            if sub not in out[key]:
                raise ConfigurationError(f"harness.{key}.{sub}: unknown field")
        out[key].update(val)
    for key in _NUMERIC_LISTS:
        out[key] = _numbers(out[key], f"harness.{key}")
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
    """A non-empty list of finite numbers >= 0 (levels, Laplace arguments,
    steps)."""
    try:
        nums = [float(v) for v in val]
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name}: expected a list of numbers") from None
    if not nums:
        raise ConfigurationError(f"{name}: must not be empty")
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
    dts = out["dts"]                    # finite numbers >= 0 by now
    if not min(dts) > 0.0:
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
    """{"s_edges", "u_edges", "values"} as a piecewise-constant f(s, u);
    a GridFunction2D as it is."""
    if isinstance(obj, GridFunction2D):
        return obj
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


# ---------------------------------------------------------------------------
# report containers and cells
# ---------------------------------------------------------------------------

# the pass rules of a cell, on its stat, oracle and tol
_RULES = {
    "gap": lambda stat, oracle, tol: abs(stat - oracle) <= tol,
    "upper": lambda stat, oracle, tol: stat - oracle <= tol,
    "lower": lambda stat, oracle, tol: stat >= oracle - tol,
    "order": lambda stat, oracle, tol: stat > oracle,
}


@dataclass(frozen=True)
class CheckCell:
    name: str
    params: dict
    stat: float
    oracle: float
    stderr: float
    tol: float
    rule: str           # a key of _RULES
    note: str = ""

    @property
    def passed(self) -> bool:
        """The cell's rule; false where stat, oracle or tol is NaN (each rule
        compares stat and oracle, so only order needs the check on tol)."""
        return not math.isnan(self.tol) and bool(
            _RULES[self.rule](self.stat, self.oracle, self.tol))

    def to_dict(self) -> dict:
        params = {k: (_json_number(v) if isinstance(v, (int, float, np.floating)) else v)
                  for k, v in self.params.items()}
        return {
            "name": self.name, "params": params, "stat": _json_number(self.stat),
            "oracle": _json_number(self.oracle), "stderr": _json_number(self.stderr),
            "tol": _json_number(self.tol), "pass": bool(self.passed), "note": self.note,
        }


def _json_number(v) -> float | None:
    """v as a float, or None (JSON null) where it is NaN or infinite."""
    v = float(v)
    return v if math.isfinite(v) else None


@dataclass
class MonteCarloReport:
    check: str
    sample_size: int
    cells: list[CheckCell] = field(default_factory=list)
    discarded: int = 0
    config_echo: dict = field(default_factory=dict)
    skipped: bool = False
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.skipped or all(c.passed for c in self.cells)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "M": self.sample_size,
            "cells": [c.to_dict() for c in self.cells],
            "discarded": self.discarded,
            "config": self.config_echo,
            "skipped": self.skipped,
            "reason": self.reason,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _gap_cell(name: str, params: dict, stat: float, oracle: float,
              se: float, budget_abs: float) -> CheckCell:
    return CheckCell(name, params, float(stat), float(oracle), float(se),
                     float(3.0 * se + budget_abs), "gap")


def _se(samples: np.ndarray, axis: int | None = None):
    """Standard error of the mean of samples (of each column with axis=0);
    NaN, without numpy's warnings, for fewer than two samples."""
    if len(samples) < 2:
        return np.full(samples.shape[1:], math.nan) if axis == 0 else math.nan
    return samples.std(axis=axis, ddof=1) / math.sqrt(len(samples))


def _mean(samples: np.ndarray, axis: int | None = None):
    """Mean of samples (of each column with axis=0); NaN, without numpy's
    warnings, for no samples."""
    if not len(samples):
        return np.full(samples.shape[1:], math.nan) if axis == 0 else math.nan
    return samples.mean(axis=axis)


def _mean_cell(name: str, params: dict, samples: np.ndarray, oracle: float,
               budget_abs: float) -> CheckCell:
    """The sample mean against the oracle, within three standard errors plus
    budget_abs.  With fewer than two samples there is no standard error: the
    cell fails with a null stderr and tol, and its note says why."""
    cell = _gap_cell(name, params, _mean(samples), oracle, _se(samples), budget_abs)
    return cell if len(samples) > 1 else replace(
        cell, note="fewer than two samples: no standard error")


def _discards(first_stat: np.ndarray, note: str = ""):
    """(kept mask, discarded count, discard_rate cell) of an ensemble whose
    rows are NaN for paths that never reach -x within the horizon."""
    kept = ~np.isnan(first_stat)
    discarded = int(len(kept) - kept.sum())
    rate = discarded / len(kept)
    return kept, discarded, CheckCell("discard_rate", {}, rate, 0.0, 0.0, 0.05,
                                      "upper", note)


def _ladder_cells(name: str, order_name: str, dts: list[float], rungs: list[tuple],
                  tol: float, notes: tuple[str, str]) -> list[CheckCell]:
    """The cells of a dt ladder, coarse to fine: one upper cell per rung
    (params, deviation, stderr), ungated (tol inf) but for tol at the finest
    rung, with notes (coarser rungs, finest rung); then one order cell per
    step of the ladder: the deviation must decrease strictly."""
    last = len(rungs) - 1
    cells = [CheckCell(name, params, dev, 0.0, se, tol if r == last else math.inf,
                       "upper", notes[r == last])
             for r, (params, dev, se) in enumerate(rungs)]
    return cells + [CheckCell(order_name, {"dt_coarse": dts[j], "dt_fine": dts[j + 1]},
                              rungs[j][1] - rungs[j + 1][1], 0.0, 0.0, math.inf, "order",
                              "requires strict decrease") for j in range(last)]


# ---------------------------------------------------------------------------
# the per-path stage
# ---------------------------------------------------------------------------

def _heights(path: LevyPath, x: float | None = None):
    """(nodes, HeightScan) of path, cut at its first passage below -x when x
    is given; None when it never gets there."""
    nodes = build_nodes(path)
    if x is not None:
        cut = truncate_at_level(nodes, x)
        if cut is None:
            return None
        nodes = cut[0]
    return nodes, scan_height(nodes, path.beta_eff)


def _level_bin(a: float, width: float, field: str) -> int:
    """Index of the bin (a, a + width] that level a opens; a
    ConfigurationError naming field when a is not a bin edge (to the 1e-9 of
    aligned_level_width)."""
    j = round(a / width)
    if abs(a / width - j) >= 1e-9:
        raise ConfigurationError(
            f"{field}: level {a} is not an edge of the level bins of width {width}")
    return j


def _level_profile(nodes, height: np.ndarray, width: float, bins) -> np.ndarray:
    """Local-time profile of the trajectory in the given bins (of _level_bin)."""
    return occupation_profile(nodes.times, height, width, max(bins) + 1)[bins]


# ---------------------------------------------------------------------------
# per-path runner
# ---------------------------------------------------------------------------

CHUNKS_PER_WORKER = 4       # contiguous chunks per worker: path costs are heavy-tailed


def _chunk(fn, spec, lo: int, hi: int) -> tuple:
    """The rows fn(spec, i) of the paths lo..hi-1, stacked field by field."""
    return tuple(np.array(col) for col in zip(*(fn(spec, i) for i in range(lo, hi))))


def keep_heap_resident() -> None:
    """Keep freed path arrays in this process's heap for the next path.

    By default glibc hands large freed blocks back to the OS (it unmaps them
    or trims the top of the heap), so every path faults its arrays' pages in
    again.  Setting M_MMAP_THRESHOLD (-3) to 32 MiB, the cap of glibc's own
    dynamic threshold, and M_TRIM_THRESHOLD (-1) to twice that, as its
    dynamic rule would, keeps them.  The settings hold for the whole
    process; where libc has no mallopt this does nothing.
    """
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


class PathPool:
    """Runs a per-path function fn(spec, i) -> tuple of statistics over the
    paths [0, m) and returns one array per statistic, rows in path order.

    With one job the whole range is one _chunk in this process.  With more,
    [0, m) is cut into contiguous chunks for a pool of spawned worker
    processes, built at the first map and shut down when the with block
    ends; it spawns workers on demand, so never more than the chunks it
    has been given, and each keeps its heap resident.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._executor = None
        self.exponent_values: dict = {}     # (mechanism, sim config, step k, paths) -> X_t

    def __enter__(self) -> PathPool:
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def map(self, fn, spec, m: int) -> tuple:
        if self.jobs == 1:
            return _chunk(fn, spec, 0, m)
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(
                self.jobs, mp_context=multiprocessing.get_context("spawn"),
                initializer=keep_heap_resident)
        n = min(m, CHUNKS_PER_WORKER * self.jobs)
        bounds = [m * c // n for c in range(n + 1)]
        futures = [self._executor.submit(_chunk, fn, spec, lo, hi)
                   for lo, hi in zip(bounds, bounds[1:])]
        parts = [fut.result() for fut in futures]      # re-raises a worker's error
        return tuple(np.concatenate(rows) for rows in zip(*parts))


# ---------------------------------------------------------------------------
# the suite entry point and the path-exponent health cells
# ---------------------------------------------------------------------------

_REQUIREMENTS = {
    "beta": lambda mech: mech.beta > 0.0,
    "grey": BranchingMechanism.grey_holds,
    "jumps": lambda mech: not mech.jumps.is_zero,
}


def _suite(fixed_mech: BranchingMechanism | None = None, **requires: str):
    """Make the suite body, a generator suite(mech, cfg, harness, oracle)
    that yields path jobs (fn, spec, m) and is sent pool.map(fn, spec, m)
    for each, into the report function (mech, cfg, harness, *, jobs=1,
    pool=None), which runs the jobs on pool, or on its own pool of jobs
    workers, and appends the path-exponent cells.  Its plan(mech, cfg,
    harness) draws no path: it checks the preconditions in the order given
    (requires maps names in _REQUIREMENTS to messages; fixed_mech replaces
    the caller's mechanism), fills the harness in and checks it, shifts the
    oracle's drift by harness.oracle_alpha_offset, runs the body to its
    first job and plans the exponent.
    """
    def wrap(suite):
        def plan(mech, cfg, harness) -> tuple:
            mech = fixed_mech or mech
            for need, message in requires.items():
                if not _REQUIREMENTS[need](mech):
                    raise PreconditionError(message)
            h = merge_harness(harness)
            offset = h["oracle_alpha_offset"]
            oracle = replace(mech, alpha=mech.alpha + offset) if offset else mech
            steps = suite(mech, cfg, h, oracle)
            job = next(steps)                       # the body's checks run here
            echo = {"mechanism": mechanism_to_config(mech), "sim": sim_config_to_config(cfg),
                    "oracle_mechanism": mechanism_to_config(oracle)}
            return steps, job, echo, _exponent_plan(mech, oracle, cfg, h["exponent_check"])

        @functools.wraps(suite)
        def run(mech: BranchingMechanism, cfg: SimConfig, harness: dict, *,
                jobs: int = 1, pool: PathPool | None = None) -> MonteCarloReport:
            steps, job, echo, exponent = plan(mech, cfg, harness)
            with contextlib.nullcontext(pool) if pool else PathPool(jobs) as pool:
                try:
                    while True:
                        job = steps.send(pool.map(*job))
                except StopIteration as done:
                    done.value.config_echo.update(echo)
                    done.value.cells.extend(_exponent_cells(*exponent, pool))
                    return done.value
        run.plan = plan
        return run
    return wrap


def _exponent_row(spec, i: int) -> tuple:
    """X_t of path i."""
    mech, cfg, k = spec
    return (sample_path(mech, cfg, path_index=_NS_EXPONENT + i).values[k],)


def _exponent_plan(mech: BranchingMechanism, oracle: BranchingMechanism,
                   cfg: SimConfig, spec: dict) -> tuple:
    """The pool key (mechanism, sim config, step k of t, paths) of the
    path-exponent paths and each cell's params and target exp(t * psi(lam))
    of the oracle; a ConfigurationError when a target is not a finite float."""
    m, t, dt = spec["paths"], spec["t"], spec["dt"]
    key = (mech, replace(cfg, dt=dt, horizon=t + dt), int(round(t / dt)), m)
    # the oracle adds the small-jump variance when the simulated law carries it
    corr = simulated_law(mech, cfg)[3] > 2.0 * mech.beta
    targets = []
    for lam in spec["lambdas"]:
        exponent = t * oracle.truncated_exponent(lam, cfg.truncation_delta, corr)
        if not exponent <= math.log(np.finfo(float).max):   # also false for NaN
            raise ConfigurationError(f"harness.exponent_check.lambdas: exp(t * psi({lam})) "
                                     f"at t = {t} is not a finite float")
        targets.append(({"t": t, "lam": lam}, math.exp(exponent)))
    return key, targets


def _exponent_cells(key: tuple, targets: list, pool: PathPool) -> list[CheckCell]:
    if key not in pool.exponent_values:             # once per pool, not per suite
        pool.exponent_values[key], = pool.map(_exponent_row, key[:3], key[3])
    vals = pool.exponent_values[key]
    return [_mean_cell("path_exponent", params, np.exp(-params["lam"] * vals), target,
                       0.01 * target) for params, target in targets]


# ---------------------------------------------------------------------------
# test-function specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction2D:
    """Piecewise-constant f(s, u) on a rectangle grid (compact support).

    Cells are half-open on the left, (s_k, s_k+1] x (u_l, u_l+1]; f is 0
    outside the grid and at NaN.
    """

    s_edges: np.ndarray
    u_edges: np.ndarray
    values: np.ndarray      # shape (len(s_edges)-1, len(u_edges)-1)
    _s_search: np.ndarray = field(init=False, repr=False, compare=False)
    _u_search: np.ndarray = field(init=False, repr=False, compare=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # values framed by zeros, indexed by the number of edges below (s, u)
        table = np.zeros((len(self.s_edges) + 1, len(self.u_edges) + 1))
        table[1:-1, 1:-1] = self.values
        object.__setattr__(self, "_s_search", _search_table(self.s_edges))
        object.__setattr__(self, "_u_search", _search_table(self.u_edges))
        object.__setattr__(self, "_table", table.ravel())

    def __call__(self, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        idx = _edges_below(self._s_search, np.asarray(s, dtype=float))
        idx *= len(self.u_edges) + 1
        idx += _edges_below(self._u_search, np.asarray(u, dtype=float))
        return self._table.take(idx)

    def to_config(self) -> dict:
        return {"s_edges": self.s_edges.tolist(), "u_edges": self.u_edges.tolist(),
                "values": self.values.tolist()}

    def l2_integral(self, a: float) -> float:
        """int_0^a ds int f(s,u)^2 du over the grid, s clipped at a."""
        s_len = np.clip(np.minimum(self.s_edges[1:], a) - self.s_edges[:-1], 0.0, None)
        u_len = np.diff(self.u_edges)
        return float(np.einsum("i,j,ij->", s_len, u_len, self.values ** 2))


def _search_table(edges: np.ndarray) -> np.ndarray:
    """Sorted edges padded with +inf to 2^k - 1 entries (_edges_below)."""
    table = np.full(2 ** len(edges).bit_length() - 1, np.inf)
    table[:len(edges)] = edges
    return table


def _edges_below(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of edges strictly below each x (0 for NaN): a branch-free
    binary search, one vectorized probe per halving of the table."""
    step = (len(table) + 1) // 2
    count = np.multiply(x > table[step - 1], step, dtype=np.intp)
    while step > 1:
        step //= 2
        above = x > table[step - 1:].take(count)
        count += np.multiply(above, step, dtype=np.intp) if step > 1 else above
    return count


def indicator_box(a: float, u_max: float) -> GridFunction2D:
    return GridFunction2D(s_edges=np.array([0.0, a]),
                          u_edges=np.array([0.0, u_max]),
                          values=np.ones((1, 1)))


@dataclass(frozen=True)
class MarkBox:
    """Half-open box (a_lo, a_hi] x (z_lo, z_hi] x (u_lo, u_hi]."""

    a: tuple[float, float]
    z: tuple[float, float]
    u: tuple[float, float]

    def volume_intensity(self, mech: BranchingMechanism) -> float:
        return (self.a[1] - self.a[0]) * mech.jumps.moment(0, *self.z) * (self.u[1] - self.u[0])


# ---------------------------------------------------------------------------
# suite 1: first-passage local-time profile vs branching laws
# ---------------------------------------------------------------------------

def _ray_knight_row(spec, i: int) -> tuple:
    """Local-time profile of stopped path i in the level bins (NaN if it
    misses -x)."""
    mech, cfg, x, bins, width = spec
    out = _heights(sample_path(mech, cfg, path_index=i, stop_level=x), x)
    if out is None:
        return (np.full(len(bins), np.nan),)
    nodes, sc = out
    return (_level_profile(nodes, sc.height, width, bins),)


@_suite(beta="ray-knight suite requires beta > 0",
        grey="ray-knight suite requires Grey's condition")
def ray_knight_report(mech, cfg, harness, oracle):
    """Three-way comparison at each (level, lam): the Laplace transform of the
    stopped path's local-time profile, the empirical branching simulation, and
    the exact transition law exp(-x * v_a(lam))."""
    x, levels, m_paths = harness["x"], harness["levels"], harness["paths"]
    for a in levels:
        # the branching batch is read at the grid step nearest each level
        if abs(a / cfg.dt - round(a / cfg.dt)) > 1e-9:
            raise ConfigurationError(
                f"sim.dt: ray-knight level {a} is not a whole number of steps of {cfg.dt}")
    for lam in harness["lambdas"]:       # the exact cells' flow needs a finite psi
        if not math.isfinite(oracle.psi(lam)):
            raise ConfigurationError(f"harness.lambdas: psi({lam}) overflows")
    try:
        width = harness["level_width"] or aligned_level_width(
            0.8 * cfg.dt ** (1.0 / 3.0), levels)
    except ValueError as exc:
        raise ConfigurationError(f"harness.levels: {exc}; set harness.level_width") from None
    bins = [_level_bin(a, width, "harness.level_width") for a in levels]

    prof, = yield _ray_knight_row, (mech, cfg, x, bins, width), m_paths
    kept, discarded, discard_cell = _discards(
        prof[:, 0], note="report invalid above 5% non-passage")
    P = prof[kept]
    cb = cb_marginals(mech, x, cfg, m_paths, levels)

    report = MonteCarloReport(
        check="ray-knight", sample_size=m_paths, cells=[discard_cell],
        discarded=discarded,
        config_echo={"x": x, "levels": levels, "lambdas": harness["lambdas"],
                     "level_width": width})
    for k, a in enumerate(levels):
        mean_oracle = oracle.cb_mean(x, a)
        budget = harness["mean_budget"] * mean_oracle
        report.cells += [
            _mean_cell("mean_height_vs_oracle", {"a": a}, P[:, k], mean_oracle, budget),
            _mean_cell("mean_cb_vs_oracle", {"a": a}, cb[a], mean_oracle, budget)]
        for lam in harness["lambdas"]:
            exact = oracle.cb_laplace(x, a, lam)
            budget = harness["laplace_budget"] * exact
            params = {"a": a, "lam": lam}
            height = _mean_cell("laplace_height_vs_exact", params,
                                np.exp(-lam * P[:, k]), exact, budget)
            branching = _mean_cell("laplace_cb_vs_exact", params,
                                   np.exp(-lam * cb[a]), exact, budget)
            report.cells += [height, branching, _gap_cell(
                "laplace_height_vs_cb", params, height.stat, branching.stat,
                math.hypot(height.stderr, branching.stderr), budget)]
    return report


# ---------------------------------------------------------------------------
# suites 2 and 3: the dt ladder
# ---------------------------------------------------------------------------

def _ladder(cfg: SimConfig, harness: dict, levels, horizon: float):
    """The dt ladder coarse to fine, each rung's ratio to the finest step,
    its level width (a divisor of the lowest positive level near dt^(1/3),
    strictly finer rung by rung), the bin of each level at that width, and
    the finest-step config run to horizon."""
    dts = sorted(harness["dts"], reverse=True)
    fine_dt = dts[-1]
    ratios = [int(round(d / fine_dt)) for d in dts]
    base = min(a for a in levels if a > 0.0)
    widths = []
    div = 0
    for dt in dts:
        div = max(int(math.ceil(base / dt ** (1.0 / 3.0))), div + 1)
        widths.append(base / div)
    bins = [[_level_bin(a, w, "harness.residual_levels") for a in levels] for w in widths]
    return dts, ratios, widths, bins, replace(cfg, dt=fine_dt, horizon=horizon)


def _residual_and_profile(path: LevyPath, x: float, levels, bins, width: float):
    """For the path stopped at -x: per level, profile(a) - x - sum of
    1{H_left <= a} * piece increments, and profile(a); None when the path
    never reaches -x."""
    out = _heights(path, x)
    if out is None:
        return None
    nodes, sc = out
    prof = _level_profile(nodes, sc.height, width, bins)
    d = np.diff(nodes.values)
    return np.array([pa - x - d[sc.height[:-1] <= a].sum() for a, pa in zip(levels, prof)]), prof


def _theorem1_row(spec, i: int) -> tuple:
    """Residual of path i at each rung and level, and the finest (last)
    rung's profile at each level; NaN if a rung stops short of -x."""
    mech, cfg, x, levels, ratios, widths, bins = spec
    p = sample_path(mech, cfg, path_index=_NS_THEOREM1 + i,
                    stop_level=x, stop_grid_ratio=max(ratios))
    res = np.empty((len(ratios), len(levels)))
    for r_idx, (ratio, width, rung_bins) in enumerate(zip(ratios, widths, bins)):
        out = _residual_and_profile(coarsen_path(p, ratio), x, levels, rung_bins, width)
        if out is None:                     # a rung misses within horizon => drop
            return np.full_like(res, np.nan), np.full(len(levels), np.nan)
        res[r_idx], prof = out
    return res, prof


@_suite(beta="theorem1 suite requires beta > 0")
def theorem1_report(mech, cfg, harness, oracle):
    """Residual of the stopped-path identity: the local-time profile at level
    a must equal x plus the left-point stochastic integral of 1{H <= a}
    against the path, with |mean residual| shrinking along the dt ladder."""
    x, levels = harness["x"], harness["residual_levels"]
    m_paths, horizon = harness["theorem1"]["paths"], harness["theorem1"]["horizon"]
    dts, ratios, widths, bins, fine_cfg = _ladder(cfg, harness, levels, horizon)

    res, prof_fine = yield (_theorem1_row,
                            (mech, fine_cfg, x, levels, ratios, widths, bins), m_paths)
    res = np.ascontiguousarray(res.swapaxes(0, 1))     # (rung, path, level), C order
    kept, discarded, discard_cell = _discards(res[0, :, 0])

    report = MonteCarloReport(
        check="theorem1", sample_size=m_paths, cells=[discard_cell],
        discarded=discarded,
        config_echo={"x": x, "residual_levels": levels, "dts": dts,
                     "level_widths": widths, "horizon": horizon})
    rungs = [({"dt": dt}, float(np.abs(_mean(R, axis=0)).mean()),
              float(_se(R, axis=0).mean())) for dt, R in zip(dts, res[:, kept])]
    report.cells += _ladder_cells("abs_mean_residual", "residual_monotone_decrease", dts,
                                  rungs, 0.05 * x, ("gate applies at the finest dt", ""))

    Pf = prof_fine[kept]
    for k, a in enumerate(levels):
        mo = oracle.cb_mean(x, a)
        report.cells.append(_mean_cell("mean_profile_vs_oracle", {"a": a, "dt": dts[-1]},
                                       Pf[:, k], mo, harness["mean_budget"] * mo))
    return report


def _tanaka_row(spec, i: int) -> tuple:
    """Occupation and Tanaka (plus) local time of path i at each rung and
    level, and its largest plus/minus gap."""
    mech, cfg, levels, ratios, widths, bins = spec
    p = sample_path(mech, cfg, path_index=_NS_TANAKA + i)
    occ, tan, gap = [], [], 0.0
    for ratio, width, rung_bins in zip(ratios, widths, bins):
        nodes, sc = _heights(coarsen_path(p, ratio))
        occ.append(_level_profile(nodes, sc.height, width, rung_bins))
        plus, minus = tanaka_local_time(sc, levels)
        tan.append(plus)
        gap = max(gap, float(np.abs(plus - minus).max()))
    return occ, tan, gap


@_suite(beta="tanaka suite requires beta > 0")
def tanaka_report(mech, cfg, harness, oracle):
    """Tanaka-style local times against occupation estimates over a fixed
    window along the dt ladder, and the pathwise agreement of the plus and
    minus variants."""
    levels = harness["residual_levels"]
    m_paths, t_window = harness["tanaka"]["paths"], harness["tanaka"]["t"]
    dts, ratios, widths, bins, fine_cfg = _ladder(cfg, harness, levels, t_window)

    occ, tan, pm_gap = yield (_tanaka_row,
                              (mech, fine_cfg, levels, ratios, widths, bins), m_paths)
    # (rung, path, level) in C order, the layout the sums below were written for
    occ, tan = (np.ascontiguousarray(a.swapaxes(0, 1)) for a in (occ, tan))

    report = MonteCarloReport(
        check="tanaka", sample_size=m_paths,
        config_echo={"levels": levels, "dts": dts, "t": t_window,
                     "level_widths": widths})
    rungs = [({"dt": dt, "mean_local_time": float(o.mean())},
              float(np.abs(o.mean(axis=0) - t.mean(axis=0)).mean()),
              float(_se(o - t, axis=0).mean())) for dt, o, t in zip(dts, occ, tan)]
    report.cells += _ladder_cells("abs_mean_deviation", "deviation_monotone_decrease", dts,
                                  rungs, 0.05 * rungs[-1][0]["mean_local_time"],
                                  ("", "gate: 5% of mean local time at the finest dt"))
    report.cells.append(CheckCell("plus_minus_pathwise", {}, float(pm_gap.max()), 0.0, 0.0,
                                  1e-9, "upper", "algebraic identity of the two variants"))
    return report


# ---------------------------------------------------------------------------
# suite 4: time-space white-noise reconstruction
# ---------------------------------------------------------------------------

def _noise_row(spec, i: int) -> tuple:
    """The noise integral of path i below level a, and whether its profile
    covers u_max there."""
    mech, cfg, f, a_lvl, u_max, width, n_bins = spec
    p = sample_path(mech, cfg, path_index=_NS_NOISE + i)
    nodes, sc = _heights(p)
    # only H <= a enters: bin the levels up to one bin past a's top bin
    # (n_bins), which keeps a height that rounds past a's edge
    lb = level_bins(nodes.times, sc.height, width, limit=n_bins + 1)
    run = running_local_time(nodes.times, sc.height, width, binned=lb)
    h = sc.height[lb.kept]
    fv = np.zeros(len(sc.height))
    fv[lb.kept] = f(h, run) * (h <= a_lvl)
    prof = occupation_profile(nodes.times, sc.height, width, n_bins, binned=lb)
    return float((fv[:-1] * _cell_brownian(p, nodes)).sum()), prof.min() >= u_max


@_suite(beta="white-noise suite requires beta > 0 (a Brownian part)")
def white_noise_report(mech, cfg, harness, oracle):
    """The stochastic integral of f(H_s, L_s(H_s)) against the Brownian part,
    restricted to heights below a, must be centered Gaussian with variance
    int_0^a ds int f(s,u)^2 du once the local-time profile has outgrown the
    u-support of f (coverage)."""
    block = harness["noise"]
    a_lvl, u_max, width = block["a"], block["u_max"], block["level_width"]
    m_paths = block["paths"]
    f = block["f"] or indicator_box(a_lvl, u_max)
    sub = replace(cfg, dt=block["dt"], horizon=block["horizon"])
    n_bins = max(1, _level_bin(a_lvl, width, "harness.noise.a"))

    w_hat, covered = yield (_noise_row,
                            (mech, sub, f, a_lvl, u_max, width, n_bins), m_paths)

    mean_cell = _mean_cell("mean", {}, w_hat, 0.0, 0.0)
    mean = mean_cell.stat
    var = float(w_hat.var(ddof=1))
    m4 = float(((w_hat - mean) ** 4).mean())
    se_var = math.sqrt(max(m4 - var ** 2, 0.0) / m_paths)
    sd = w_hat.std(ddof=0)
    skew = float(((w_hat - mean) ** 3).mean() / sd ** 3) if sd > 0.0 else 0.0
    var_oracle = f.l2_integral(a_lvl)
    coverage = float(covered.mean())

    return MonteCarloReport(
        check="noise", sample_size=m_paths,
        cells=[mean_cell,
               _gap_cell("variance", {}, var, var_oracle, se_var, 0.05 * var_oracle),
               _gap_cell("skewness", {}, skew, 0.0, math.sqrt(6.0 / m_paths), 0.0),
               CheckCell("coverage", {}, coverage, 1.0, 0.0, 0.1, "lower",
                         "fraction of paths whose profile exceeds u_max below a")],
        config_echo={"a": a_lvl, "u_max": u_max, "dt": block["dt"],
                     "horizon": block["horizon"], "level_width": width})


def _cell_brownian(path: LevyPath, nodes) -> np.ndarray:
    """Brownian increment attributed to each node piece (time-proportional
    split of the cell increment across sub-cell pieces; jump pieces carry
    none)."""
    if not len(path.jumps):
        return path.brownian_increments
    dtimes = np.diff(nodes.times)
    # grid vertices round back to their own cell; jump vertices sit strictly
    # inside cells (dyadic lattice keeps them away from the boundaries)
    cells = np.minimum(np.floor(nodes.times[:-1] / path.dt + 1e-9).astype(np.int64),
                       path.n_cells - 1)
    db = path.brownian_increments[cells] * (dtimes / path.dt)
    db[nodes.jump_post - 1] = 0.0
    return db


# ---------------------------------------------------------------------------
# suite 5: Poisson mark statistics
# ---------------------------------------------------------------------------

def _poisson_row(spec, i: int) -> tuple:
    """Mark count of stopped path i in each box, whether its profile covers
    each box, and its profile at the top box level (NaN, not covered, NaN
    if it misses -x)."""
    mech, cfg, x, boxes, box_bins, width, n_prof, j_level = spec
    out = _heights(sample_path(mech, cfg, path_index=_NS_POISSON + i, stop_level=x), x)
    if out is None:
        return np.full(len(boxes), np.nan), np.zeros(len(boxes), dtype=bool), np.nan
    nodes, sc = out
    lb = level_bins(nodes.times, sc.height, width)
    run = running_local_time(nodes.times, sc.height, width, binned=lb)
    prof = occupation_profile(nodes.times, sc.height, width, n_prof, binned=lb)
    hj = sc.height[nodes.jump_post]
    uj = run[nodes.jump_post]
    zj = nodes.jump_sizes
    counts = [((hj > b.a[0]) & (hj <= b.a[1]) & (zj > b.z[0]) & (zj <= b.z[1])
               & (uj > b.u[0]) & (uj <= b.u[1])).sum() for b in boxes]
    covered = [prof[lo:hi].min() >= b.u[1] for b, (lo, hi) in zip(boxes, box_bins)]
    return np.array(counts, dtype=float), np.array(covered), prof[j_level]


@_suite(jumps="poisson-marks suite requires a jump-bearing mechanism",
        beta="poisson-marks suite requires beta > 0")
def poisson_marks_report(mech, cfg, harness, oracle):
    """Jump marks (height, size, running local time at that height) of the
    stopped path, counted in boxes, behave like a unit-intensity Poisson
    measure in ds x pi(dz) x du on covered boxes."""
    block = harness["poisson"]
    x, m_paths, width = block["x"], block["paths"], block["level_width"]
    boxes = [MarkBox(tuple(b["a"]), tuple(b["z"]), tuple(b["u"])) for b in harness["boxes"]]
    intensities = [b.volume_intensity(oracle) for b in boxes]
    for i, intensity in enumerate(intensities):
        if math.isinf(intensity):
            raise ConfigurationError(f"harness.boxes[{i}].z: infinite jump mass")
    sub = replace(cfg, dt=block["dt"], horizon=block["horizon"])

    prof_level = max(b.a[1] for b in boxes)
    # profile bins each box's coverage reads, and the bin of prof_level
    tops = [_level_bin(b.a[1], width, f"harness.boxes[{i}].a") for i, b in enumerate(boxes)]
    box_bins = []
    for b, top in zip(boxes, tops):
        lo = max(int(math.floor(b.a[0] / width)), 0)
        box_bins.append((lo, max(lo + 1, top)))
    j_level = max(tops)
    n_prof = max([j_level + 1] + [hi for _, hi in box_bins])

    counts, covered, prof_vals = yield (
        _poisson_row, (mech, sub, x, boxes, box_bins, width, n_prof, j_level), m_paths)
    kept, discarded, discard_cell = _discards(counts[:, 0])
    C = counts[kept]
    report = MonteCarloReport(
        check="poisson-marks", sample_size=m_paths, cells=[discard_cell],
        discarded=discarded,
        config_echo={"x": x, "dt": block["dt"], "horizon": block["horizon"],
                     "level_width": width,
                     "boxes": [{"a": list(b.a), "z": list(b.z), "u": list(b.u)}
                               for b in boxes]})
    for b_idx, intensity in enumerate(intensities):
        c = C[:, b_idx]
        report.cells.append(_mean_cell("mark_count_mean",
                                       {"box": b_idx, "intensity": intensity},
                                       c, intensity, 0.0))
        if not _mean(c) > 0:
            # an all-zero count is Poisson-consistent only if the intensity is 0
            fano, note = (1.0 if intensity == 0.0 else math.inf), "degenerate zero-count box"
        elif len(c) < 2:
            fano, note = math.nan, "fewer than two samples: no variance"
        else:
            fano, note = float(c.var(ddof=1) / c.mean()), ""
        cov = float(_mean(covered[kept, b_idx]))
        report.cells += [
            CheckCell("fano_factor", {"box": b_idx}, fano, 1.0, 0.0, 0.2, "gap", note),
            CheckCell("coverage", {"box": b_idx}, cov, 1.0, 0.0, 0.1, "lower",
                      "box unreliable below 90% coverage")]
    mo = oracle.cb_mean(x, prof_level)
    report.cells.append(_mean_cell("mean_profile_vs_oracle", {"a": prof_level},
                                   prof_vals[kept], mo, harness["mean_budget"] * mo))
    return report


# ---------------------------------------------------------------------------
# suite 6: supremum vs local time of the reflected path
# ---------------------------------------------------------------------------

def _reflected_row(spec, i: int) -> tuple:
    """beta times the band occupation near 0 of S - xi on path i, and its
    supremum less the supremum's jump increases."""
    mech, cfg, beta, h_band = spec
    nodes = build_nodes(sample_path(mech, cfg, path_index=_NS_REFLECTED + i))
    s_run = np.maximum.accumulate(nodes.values)
    w = node_weights(nodes.times)
    post = nodes.jump_post
    # added in time order, one by one (np.sum's pairwise order, or the
    # compensated sum() of Python 3.12+, would move the report's bits)
    ds_sum = functools.reduce(
        operator.add, np.maximum(nodes.values[post] - s_run[post - 1], 0.0).tolist(), 0.0)
    return (beta * float(w[s_run - nodes.values < h_band].sum()) / h_band,
            float(s_run[-1]) - ds_sum)


@_suite(beta="reflected suite requires beta > 0")
def reflected_supremum_report(mech, cfg, harness, oracle):
    """beta * (local time of S - xi at 0) recovers the continuous part of the
    supremum, S_t minus its jump increases; band occupation near zero
    estimates the local time, refining with dt."""
    block = harness["reflected"]
    t_end, m_paths, band_mult = block["t"], block["paths"], block["band_mult"]
    dts = sorted(harness["dts"], reverse=True)
    beta = 0.5 * simulated_law(mech, cfg)[3]
    has_jumps = not mech.jumps.is_zero

    report = MonteCarloReport(
        check="reflected", sample_size=m_paths,
        config_echo={"t": t_end, "dts": dts, "band_mult": band_mult})
    rungs = []
    for dt in dts:
        h_band = band_mult * math.sqrt(2.0 * beta * dt)
        lhs, rhs = yield (_reflected_row,
                          (mech, replace(cfg, dt=dt, horizon=t_end), beta, h_band), m_paths)
        # the spreads are combined before dividing by sqrt(m); _se of each side
        # would round differently and change the reported stderr
        rungs.append(({"dt": dt, "band": h_band},
                      float(abs(lhs.mean() - rhs.mean()) / abs(rhs.mean())),
                      float(np.hypot(lhs.std(ddof=1), rhs.std(ddof=1))
                            / math.sqrt(m_paths) / abs(rhs.mean()))))
    report.cells += _ladder_cells(
        "identity_rel_dev", "deviation_monotone_decrease", dts, rungs,
        0.05 if has_jumps else math.inf,
        ("", "5% gate at finest dt (jump mechanisms)" if has_jumps else ""))
    return report


# ---------------------------------------------------------------------------
# suite 7: the Brownian special case
# ---------------------------------------------------------------------------

def _example_row(spec, i: int) -> tuple:
    """Height at the end of path i, from the shared per-path stage."""
    mech, cfg = spec
    return (_heights(sample_path(mech, cfg, path_index=_NS_EXAMPLE + i))[1].height[-1],)


@_suite(fixed_mech=BranchingMechanism(alpha=0.0, beta=0.5))
def _brownian_example(mech, cfg, harness, oracle):
    """For a standard Brownian path (alpha=0, beta=1/2) the height at time t
    is distributed like twice the absolute value of a Gaussian with variance
    t; checked by a Kolmogorov-Smirnov distance at the 1% level."""
    block = harness["example"]
    m_paths, dt, t_end = block["paths"], block["dt"], block["t"]

    hs, = yield _example_row, (mech, replace(cfg, dt=dt, horizon=t_end)), m_paths
    hs_sorted = np.sort(hs)
    scale = 2.0 * math.sqrt(2.0 * t_end)
    cdf = np.array([math.erf(h / scale) for h in hs_sorted])
    grid_hi = np.arange(1, m_paths + 1) / m_paths
    grid_lo = np.arange(0, m_paths) / m_paths
    ks = float(max(np.abs(grid_hi - cdf).max(), np.abs(cdf - grid_lo).max()))
    crit = 1.62762 / (math.sqrt(m_paths) + 0.12 + 0.11 / math.sqrt(m_paths))
    mean_oracle = 2.0 * math.sqrt(2.0 * t_end / math.pi)

    return MonteCarloReport(
        check="example", sample_size=m_paths,
        cells=[CheckCell("ks_distance", {"t": t_end}, ks, 0.0, 0.0, crit, "upper",
                         "1% critical value for the half-normal comparison"),
               _mean_cell("mean_height", {"t": t_end}, hs, mean_oracle,
                          0.02 * mean_oracle),
               CheckCell("nonnegative", {}, float(hs.min()), 0.0, 0.0, 0.0, "lower")],
        config_echo={"t": t_end, "dt": dt})


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

# every report function here takes (mech, cfg, harness, *, jobs, pool)
SUITES = {
    "ray-knight": ray_knight_report,
    "theorem1": theorem1_report,
    "tanaka": tanaka_report,
    "noise": white_noise_report,
    "poisson-marks": poisson_marks_report,
    "reflected": reflected_supremum_report,
    "example": _brownian_example,
}


def run_suite(name: str, mech: BranchingMechanism, cfg: SimConfig,
              harness: dict, jobs: int = 1,
              pool: PathPool | None = None) -> MonteCarloReport:
    """One suite, on pool if given, else on a pool of its own with jobs
    workers."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](mech, cfg, harness, jobs=jobs, pool=pool)


def run_all(mech: BranchingMechanism, cfg: SimConfig, harness: dict,
            jobs: int = 1) -> list[MonteCarloReport]:
    """Plan every suite, so that a configuration error leaves before any
    path is drawn, then run the applicable ones on one pool; inapplicable
    suites are recorded as skipped entries rather than failures."""
    skipped = {}
    for name, report_fn in SUITES.items():
        try:
            report_fn.plan(mech, cfg, harness)
        except PreconditionError as exc:
            skipped[name] = MonteCarloReport(
                check=name, sample_size=0, skipped=True, reason=str(exc),
                config_echo={"mechanism": mechanism_to_config(mech)})
    with PathPool(jobs) as pool:
        return [skipped.get(name) or run_suite(name, mech, cfg, harness, pool=pool)
                for name in SUITES]
