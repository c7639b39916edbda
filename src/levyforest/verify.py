"""Statistical verification harness.

Each suite simulates an ensemble of paths (or branching trajectories),
reduces every path to a handful of statistics, and compares Monte Carlo
aggregates against exact oracles derived from the branching mechanism.  A
suite returns a MonteCarloReport made of typed cells; the report passes iff
every cell passes, and serializes to JSON byte-identically for a given
(config, seed) regardless of worker count (per-path statistics are stored by
path index and reduced in fixed order; no wall-clock data enters a report).

Tolerances follow one scheme throughout: three standard errors of the Monte
Carlo statistic plus an explicit discretization budget proportional to the
oracle (budgets are configuration, not derived claims).  Every suite also
carries "path-exponent" health cells comparing the empirical Laplace
transform of the simulated increments against exp(t * psi(lam)) of the
oracle mechanism; these run at a coarse step (the grid law is exact in
distribution at any step) and make each suite sensitive to a mis-specified
oracle drift, which is what the negative-control mode perturbs.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cb_flow import cb_marginals
from .errors import PreconditionError
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
    build_nodes,
    coarsen_path,
    node_weights,
    sample_path,
    sim_config_to_config,
    truncate_at_level,
)

__all__ = [
    "CheckCell",
    "MonteCarloReport",
    "GridFunction2D",
    "indicator_box",
    "MarkBox",
    "ray_knight_report",
    "theorem1_residual",
    "theorem1_report",
    "tanaka_report",
    "white_noise_report",
    "poisson_marks_report",
    "reflected_supremum_report",
    "brownian_example_report",
    "SUITES",
    "run_suite",
]

# stream-index namespaces per suite (never reuse a path stream across suites)
_NS_NOISE = 1 << 41
_NS_POISSON = 1 << 42
_NS_THEOREM1 = 1 << 43
_NS_TANAKA = 1 << 44
_NS_REFLECTED = 1 << 45
_NS_EXAMPLE = 1 << 46
_NS_EXPONENT = 1 << 47

_EXAMPLE_MECH = dict(alpha=0.0, beta=0.5)


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckCell:
    name: str
    params: dict
    stat: float
    oracle: float
    stderr: float
    tol: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        params = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                  for k, v in self.params.items()}
        return {
            "name": self.name, "params": params, "stat": float(self.stat),
            "oracle": float(self.oracle), "stderr": float(self.stderr),
            "tol": None if math.isinf(self.tol) else float(self.tol),
            "pass": bool(self.passed), "note": self.note,
        }


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
    tol = 3.0 * se + budget_abs
    return CheckCell(name=name, params=params, stat=float(stat),
                     oracle=float(oracle), stderr=float(se), tol=float(tol),
                     passed=bool(abs(stat - oracle) <= tol))


def _echo(mech: BranchingMechanism, cfg: SimConfig, oracle: BranchingMechanism,
          extra: dict) -> dict:
    out = {
        "mechanism": mechanism_to_config(mech),
        "sim": sim_config_to_config(cfg),
        "oracle_mechanism": mechanism_to_config(oracle),
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# parallel per-path driver
# ---------------------------------------------------------------------------

def _for_each_path(m_paths: int, jobs: int, work) -> None:
    """Run work(i) for i in range(m_paths); results must be written into
    caller-owned arrays by index, which keeps any schedule equivalent."""
    if jobs <= 1:
        for i in range(m_paths):
            work(i)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        step = max(1, m_paths // (jobs * 8))
        list(pool.map(work, range(m_paths), chunksize=step))


# ---------------------------------------------------------------------------
# path-exponent health cells (shared by every suite)
# ---------------------------------------------------------------------------

def _exponent_cells(mech: BranchingMechanism, oracle: BranchingMechanism,
                    cfg: SimConfig, spec: dict, jobs: int) -> list[CheckCell]:
    m = int(spec.get("paths", 2000))
    t = float(spec.get("t", 2.0))
    dt = float(spec.get("dt", 0.01))
    lambdas = list(spec.get("lambdas", (0.5, 1.0)))
    sub = SimConfig(dt=dt, horizon=t + dt, truncation_delta=cfg.truncation_delta,
                    small_jump_mode=cfg.small_jump_mode, seed=cfg.seed)
    k = int(round(t / dt))
    vals = np.empty(m)

    def work(i: int) -> None:
        p = sample_path(mech, sub, path_index=_NS_EXPONENT + i)
        vals[i] = p.values[k]

    _for_each_path(m, jobs, work)
    corr = cfg.small_jump_mode == "gaussian_correction"
    cells = []
    for lam in lambdas:
        samples = np.exp(-lam * vals)
        target = math.exp(t * oracle.truncated_exponent(lam, cfg.truncation_delta, corr))
        se = samples.std(ddof=1) / math.sqrt(m)
        cells.append(_gap_cell("path_exponent", {"t": t, "lam": lam},
                               samples.mean(), target, se, 0.01 * target))
    return cells


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
        return (self.a[1] - self.a[0]) * mech.jumps.mass_in(*self.z) * (self.u[1] - self.u[0])


# ---------------------------------------------------------------------------
# suite 1: first-passage local-time profile vs branching laws
# ---------------------------------------------------------------------------

def ray_knight_report(mech: BranchingMechanism, cfg: SimConfig, harness: dict,
                      oracle: BranchingMechanism | None = None,
                      jobs: int = 1) -> MonteCarloReport:
    """Three-way comparison at each (level, lam): the Laplace transform of the
    stopped path's local-time profile, the empirical branching simulation, and
    the exact transition law exp(-x * v_a(lam))."""
    if mech.beta <= 0.0:
        raise PreconditionError("ray-knight suite requires beta > 0")
    if not mech.grey_holds():
        raise PreconditionError("ray-knight suite requires Grey's condition")
    oracle = oracle or mech
    x = float(harness["x"])
    levels = [float(a) for a in harness["levels"]]
    lambdas = [float(l) for l in harness["lambdas"]]
    m_paths = int(harness["paths"])
    lap_budget = float(harness.get("laplace_budget", 0.05))
    mean_budget = float(harness.get("mean_budget", 0.02))
    width = harness.get("level_width") or aligned_level_width(
        0.8 * cfg.dt ** (1.0 / 3.0), levels)
    n_bins = int(round(max(levels) / width)) + 1
    level_bins = [int(round(a / width)) for a in levels]

    prof = np.full((m_paths, len(levels)), np.nan)

    def work(i: int) -> None:
        p = sample_path(mech, cfg, path_index=i, stop_level=x)
        cut = truncate_at_level(build_nodes(p), x)
        if cut is None:
            return
        nodes, _ = cut
        sc = scan_height(nodes, p.beta_eff)
        pr = occupation_profile(nodes.times, sc.height, width, n_bins)
        prof[i] = pr[level_bins]

    _for_each_path(m_paths, jobs, work)
    kept = ~np.isnan(prof[:, 0])
    discarded = int(m_paths - kept.sum())
    P = prof[kept]
    n_kept = len(P)

    cb = cb_marginals(mech, x, cfg, m_paths, levels)

    report = MonteCarloReport(
        check="ray-knight", sample_size=m_paths, discarded=discarded,
        config_echo=_echo(mech, cfg, oracle,
                          {"x": x, "levels": levels, "lambdas": lambdas,
                           "level_width": width}))
    cells = report.cells
    cells.append(CheckCell(
        name="discard_rate", params={}, stat=discarded / m_paths, oracle=0.0,
        stderr=0.0, tol=0.05, passed=discarded / m_paths <= 0.05,
        note="report invalid above 5% non-passage"))

    for k, a in enumerate(levels):
        la = P[:, k]
        xa = cb[a]
        mean_oracle = oracle.cb_mean(x, a)
        se_l = la.std(ddof=1) / math.sqrt(n_kept)
        se_c = xa.std(ddof=1) / math.sqrt(len(xa))
        cells.append(_gap_cell("mean_height_vs_oracle", {"a": a},
                     la.mean(), mean_oracle, se_l, mean_budget * mean_oracle))
        cells.append(_gap_cell("mean_cb_vs_oracle", {"a": a},
                     xa.mean(), mean_oracle, se_c, mean_budget * mean_oracle))
        for lam in lambdas:
            exact = math.exp(-x * oracle.v(a, lam))
            eh = np.exp(-lam * la)
            ec = np.exp(-lam * xa)
            se_h = eh.std(ddof=1) / math.sqrt(n_kept)
            se_cb = ec.std(ddof=1) / math.sqrt(len(ec))
            cells.append(_gap_cell("laplace_height_vs_exact", {"a": a, "lam": lam},
                         eh.mean(), exact, se_h, lap_budget * exact))
            cells.append(_gap_cell("laplace_cb_vs_exact", {"a": a, "lam": lam},
                         ec.mean(), exact, se_cb, lap_budget * exact))
            cells.append(_gap_cell("laplace_height_vs_cb", {"a": a, "lam": lam},
                         eh.mean(), ec.mean(), math.hypot(se_h, se_cb),
                         lap_budget * exact))

    cells.extend(_exponent_cells(mech, oracle, cfg,
                                 harness.get("exponent_check", {}), jobs))
    return report


# ---------------------------------------------------------------------------
# suite 2: first-passage representation residual across a dt ladder
# ---------------------------------------------------------------------------

def _residual_row(nodes, scan, profile, width, x, levels) -> np.ndarray:
    """profile(a) - x - sum of 1{H_left <= a} * piece increments, per level."""
    d = np.diff(nodes.values)
    h_left = scan.height[:-1]
    return np.array([profile[int(round(a / width))] - x - d[h_left <= a].sum()
                     for a in levels])


def theorem1_residual(path: LevyPath, x: float, levels,
                      width: float | None = None) -> np.ndarray | None:
    """Per-level residual of the stopped-path representation for one path,
    or None when the path never reaches -x."""
    cut = truncate_at_level(build_nodes(path), x)
    if cut is None:
        return None
    nodes, _ = cut
    sc = scan_height(nodes, path.beta_eff)
    if width is None:
        width = aligned_level_width(0.8 * path.dt ** (1.0 / 3.0), levels)
    n_bins = int(round(max(levels) / width)) + 1
    pr = occupation_profile(nodes.times, sc.height, width, n_bins)
    return _residual_row(nodes, sc, pr, width, x, levels)


def theorem1_report(mech: BranchingMechanism, cfg: SimConfig, harness: dict,
                    oracle: BranchingMechanism | None = None,
                    jobs: int = 1) -> MonteCarloReport:
    """Residual of the stopped-path identity: the local-time profile at level
    a must equal x plus the left-point stochastic integral of 1{H <= a}
    against the path, with |mean residual| shrinking along the dt ladder."""
    if mech.beta <= 0.0:
        raise PreconditionError("theorem1 suite requires beta > 0")
    oracle = oracle or mech
    x = float(harness["x"])
    levels = [float(a) for a in harness.get("residual_levels", harness["levels"])]
    dts = sorted(float(d) for d in harness["dts"])[::-1]   # coarse -> fine
    block = harness.get("theorem1", {})
    m_paths = int(block.get("paths", 3000))
    horizon = float(block.get("horizon", 20.0))
    fine_dt = dts[-1]
    ratios = [int(round(d / fine_dt)) for d in dts]
    if any(abs(r * fine_dt - d) > 1e-12 for r, d in zip(ratios, dts)):
        raise PreconditionError("dt ladder must be integer multiples of the finest dt")
    widths = _ladder_widths(dts, levels)
    fine_cfg = SimConfig(dt=fine_dt, horizon=horizon,
                         truncation_delta=cfg.truncation_delta,
                         small_jump_mode=cfg.small_jump_mode, seed=cfg.seed)

    res = np.full((len(ratios), m_paths, len(levels)), np.nan)
    prof_fine = np.full((m_paths, len(levels)), np.nan)

    def work(i: int) -> None:
        p = sample_path(mech, fine_cfg, path_index=_NS_THEOREM1 + i,
                        stop_level=x, stop_grid_ratio=max(ratios))
        rows = np.empty((len(ratios), len(levels)))
        fine_row = None
        for r_idx, ratio in enumerate(ratios):
            q = coarsen_path(p, ratio)
            cut = truncate_at_level(build_nodes(q), x)
            if cut is None:
                return                      # a rung misses within horizon => drop
            nodes, _ = cut
            sc = scan_height(nodes, q.beta_eff)
            width = widths[r_idx]
            n_bins = int(round(max(levels) / width)) + 1
            pr = occupation_profile(nodes.times, sc.height, width, n_bins)
            rows[r_idx] = _residual_row(nodes, sc, pr, width, x, levels)
            if ratio == 1:
                fine_row = pr[[int(round(a / width)) for a in levels]]
        res[:, i, :] = rows
        prof_fine[i] = fine_row

    _for_each_path(m_paths, jobs, work)
    kept = ~np.isnan(res[0, :, 0])
    discarded = int(m_paths - kept.sum())

    report = MonteCarloReport(
        check="theorem1", sample_size=m_paths, discarded=discarded,
        config_echo=_echo(mech, cfg, oracle,
                          {"x": x, "residual_levels": levels, "dts": dts,
                           "level_widths": widths, "horizon": horizon}))
    cells = report.cells
    cells.append(CheckCell(
        name="discard_rate", params={}, stat=discarded / m_paths, oracle=0.0,
        stderr=0.0, tol=0.05, passed=discarded / m_paths <= 0.05))

    dev = []
    for r_idx, dt in enumerate(dts):
        R = res[r_idx, kept]
        d_val = float(np.abs(R.mean(axis=0)).mean())
        se = float((R.std(axis=0, ddof=1) / math.sqrt(len(R))).mean())
        dev.append(d_val)
        final = r_idx == len(dts) - 1
        tol = 0.05 * x if final else math.inf
        cells.append(CheckCell(
            name="abs_mean_residual", params={"dt": dt}, stat=d_val, oracle=0.0,
            stderr=se, tol=tol, passed=d_val <= tol,
            note="gate applies at the finest dt" if not final else ""))
    for j in range(len(dev) - 1):
        cells.append(CheckCell(
            name="residual_monotone_decrease",
            params={"dt_coarse": dts[j], "dt_fine": dts[j + 1]},
            stat=dev[j] - dev[j + 1], oracle=0.0, stderr=0.0, tol=math.inf,
            passed=dev[j] > dev[j + 1],
            note="requires strict decrease"))

    Pf = prof_fine[kept]
    for k, a in enumerate(levels):
        la = Pf[:, k]
        mo = oracle.cb_mean(x, a)
        se = la.std(ddof=1) / math.sqrt(len(la))
        cells.append(_gap_cell("mean_profile_vs_oracle", {"a": a, "dt": fine_dt},
                               la.mean(), mo, se,
                               float(harness.get("mean_budget", 0.02)) * mo))

    cells.extend(_exponent_cells(mech, oracle, cfg,
                                 harness.get("exponent_check", {}), jobs))
    return report


# ---------------------------------------------------------------------------
# suite 3: Tanaka estimates vs occupation estimates across the dt ladder
# ---------------------------------------------------------------------------

def tanaka_report(mech: BranchingMechanism, cfg: SimConfig, harness: dict,
                  oracle: BranchingMechanism | None = None,
                  jobs: int = 1) -> MonteCarloReport:
    if mech.beta <= 0.0:
        raise PreconditionError("tanaka suite requires beta > 0")
    oracle = oracle or mech
    levels = [float(a) for a in harness.get("residual_levels", harness["levels"])]
    dts = sorted(float(d) for d in harness["dts"])[::-1]
    block = harness.get("tanaka", {})
    m_paths = int(block.get("paths", 3000))
    t_window = float(block.get("t", 2.0))
    fine_dt = dts[-1]
    ratios = [int(round(d / fine_dt)) for d in dts]
    widths = _ladder_widths(dts, levels)
    fine_cfg = SimConfig(dt=fine_dt, horizon=t_window,
                         truncation_delta=cfg.truncation_delta,
                         small_jump_mode=cfg.small_jump_mode, seed=cfg.seed)

    occ = np.empty((len(ratios), m_paths, len(levels)))
    tan = np.empty((len(ratios), m_paths, len(levels)))
    pm_gap = np.zeros(m_paths)

    def work(i: int) -> None:
        p = sample_path(mech, fine_cfg, path_index=_NS_TANAKA + i)
        gap = 0.0
        for r_idx, ratio in enumerate(ratios):
            q = coarsen_path(p, ratio)
            nodes = build_nodes(q)
            sc = scan_height(nodes, q.beta_eff)
            width = widths[r_idx]
            n_bins = int(round(max(levels) / width)) + 1
            pr = occupation_profile(nodes.times, sc.height, width, n_bins)
            for k, a in enumerate(levels):
                plus = tanaka_local_time(sc, a, "plus")
                minus = tanaka_local_time(sc, a, "minus")
                gap = max(gap, abs(plus - minus))
                occ[r_idx, i, k] = pr[int(round(a / width))]
                tan[r_idx, i, k] = plus
        pm_gap[i] = gap

    _for_each_path(m_paths, jobs, work)

    report = MonteCarloReport(
        check="tanaka", sample_size=m_paths,
        config_echo=_echo(mech, cfg, oracle,
                          {"levels": levels, "dts": dts, "t": t_window,
                           "level_widths": widths}))
    cells = report.cells
    dev = []
    for r_idx, dt in enumerate(dts):
        gap_levels = np.abs(occ[r_idx].mean(axis=0) - tan[r_idx].mean(axis=0))
        d_val = float(gap_levels.mean())
        se = float(((occ[r_idx] - tan[r_idx]).std(axis=0, ddof=1)
                    / math.sqrt(m_paths)).mean())
        dev.append(d_val)
        final = r_idx == len(dts) - 1
        mean_lt = float(occ[r_idx].mean())
        tol = 0.05 * mean_lt if final else math.inf
        cells.append(CheckCell(
            name="abs_mean_deviation", params={"dt": dt, "mean_local_time": mean_lt},
            stat=d_val, oracle=0.0, stderr=se, tol=tol, passed=d_val <= tol,
            note="gate: 5% of mean local time at the finest dt" if final else ""))
    for j in range(len(dev) - 1):
        cells.append(CheckCell(
            name="deviation_monotone_decrease",
            params={"dt_coarse": dts[j], "dt_fine": dts[j + 1]},
            stat=dev[j] - dev[j + 1], oracle=0.0, stderr=0.0, tol=math.inf,
            passed=dev[j] > dev[j + 1], note="requires strict decrease"))
    worst_pm = float(pm_gap.max())
    cells.append(CheckCell(
        name="plus_minus_pathwise", params={}, stat=worst_pm, oracle=0.0,
        stderr=0.0, tol=1e-9, passed=worst_pm <= 1e-9,
        note="algebraic identity of the two variants"))
    cells.extend(_exponent_cells(mech, oracle, cfg,
                                 harness.get("exponent_check", {}), jobs))
    return report


def _ladder_widths(dts, levels) -> list[float]:
    base = min(a for a in levels if a > 0.0)
    widths = []
    prev_div = 0
    for dt in dts:
        div = max(int(math.ceil(base / dt ** (1.0 / 3.0))), prev_div + 1)
        widths.append(base / div)
        prev_div = div
    return widths


# ---------------------------------------------------------------------------
# suite 4: time-space white-noise reconstruction
# ---------------------------------------------------------------------------

def white_noise_report(mech: BranchingMechanism, cfg: SimConfig, harness: dict,
                       oracle: BranchingMechanism | None = None,
                       jobs: int = 1) -> MonteCarloReport:
    """The stochastic integral of f(H_s, L_s(H_s)) against the Brownian part,
    restricted to heights below a, must be centered Gaussian with variance
    int_0^a ds int f(s,u)^2 du once the local-time profile has outgrown the
    u-support of f (coverage)."""
    if mech.beta <= 0.0:
        raise PreconditionError("white-noise suite requires beta > 0 (a Brownian part)")
    oracle = oracle or mech
    block = harness.get("noise", {})
    a_lvl = float(block.get("a", 1.0))
    u_max = float(block.get("u_max", 1.0))
    f = block.get("f") or indicator_box(a_lvl, u_max)
    m_paths = int(block.get("paths", 4000))
    dt = float(block.get("dt", 1e-3))
    horizon = float(block.get("horizon", 24.0))
    width = float(block.get("level_width", 0.05))
    sub = SimConfig(dt=dt, horizon=horizon, truncation_delta=cfg.truncation_delta,
                    small_jump_mode=cfg.small_jump_mode, seed=cfg.seed)
    n_bins = max(1, int(round(a_lvl / width)))

    w_hat = np.empty(m_paths)
    covered = np.zeros(m_paths, dtype=bool)

    def work(i: int) -> None:
        p = sample_path(mech, sub, path_index=_NS_NOISE + i)
        nodes = build_nodes(p)
        sc = scan_height(nodes, p.beta_eff)
        lb = level_bins(nodes.times, sc.height, width)
        run = running_local_time(nodes.times, sc.height, width, binned=lb)
        h_left = sc.height[:-1]
        fv = f(h_left, run[:-1]) * (h_left <= a_lvl)
        w_hat[i] = float((fv * _cell_brownian(p, nodes)).sum())
        prof = occupation_profile(nodes.times, sc.height, width, n_bins, binned=lb)
        covered[i] = prof.min() >= u_max

    _for_each_path(m_paths, jobs, work)

    mean = float(w_hat.mean())
    var = float(w_hat.var(ddof=1))
    se_mean = float(w_hat.std(ddof=1) / math.sqrt(m_paths))
    m4 = float(((w_hat - mean) ** 4).mean())
    se_var = math.sqrt(max(m4 - var ** 2, 0.0) / m_paths)
    sd = w_hat.std(ddof=0)
    skew = float(((w_hat - mean) ** 3).mean() / sd ** 3) if sd > 0.0 else 0.0
    var_oracle = f.l2_integral(a_lvl)
    coverage = float(covered.mean())

    report = MonteCarloReport(
        check="noise", sample_size=m_paths,
        config_echo=_echo(mech, cfg, oracle,
                          {"a": a_lvl, "u_max": u_max, "dt": dt,
                           "horizon": horizon, "level_width": width}))
    report.cells.extend([
        CheckCell("mean", {}, mean, 0.0, se_mean, 3 * se_mean,
                  abs(mean) <= 3 * se_mean),
        _gap_cell("variance", {}, var, var_oracle, se_var, 0.05 * var_oracle),
        CheckCell("skewness", {}, skew, 0.0, math.sqrt(6.0 / m_paths),
                  3 * math.sqrt(6.0 / m_paths),
                  abs(skew) <= 3 * math.sqrt(6.0 / m_paths)),
        CheckCell("coverage", {}, coverage, 1.0, 0.0, 0.1, coverage >= 0.9,
                  note="fraction of paths whose profile exceeds u_max below a"),
    ])
    report.cells.extend(_exponent_cells(mech, oracle, cfg,
                                        harness.get("exponent_check", {}), jobs))
    return report


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

def poisson_marks_report(mech: BranchingMechanism, cfg: SimConfig, harness: dict,
                         oracle: BranchingMechanism | None = None,
                         jobs: int = 1) -> MonteCarloReport:
    """Jump marks (height, size, running local time at that height) of the
    stopped path, counted in boxes, behave like a unit-intensity Poisson
    measure in ds x pi(dz) x du on covered boxes."""
    if mech.jumps.is_zero:
        raise PreconditionError("poisson-marks suite requires a jump-bearing mechanism")
    if mech.beta <= 0.0:
        raise PreconditionError("poisson-marks suite requires beta > 0")
    oracle = oracle or mech
    block = harness.get("poisson", {})
    x = float(block.get("x", 4.0))
    boxes = [MarkBox(tuple(b["a"]), tuple(b["z"]), tuple(b["u"]))
             for b in harness.get("boxes", [])] or [MarkBox((0.0, 0.5), (0.8, 1.2), (0.0, 0.5))]
    m_paths = int(block.get("paths", 4000))
    dt = float(block.get("dt", 5e-4))
    horizon = float(block.get("horizon", 60.0))
    width = float(block.get("level_width", 0.05))
    sub = SimConfig(dt=dt, horizon=horizon, truncation_delta=cfg.truncation_delta,
                    small_jump_mode=cfg.small_jump_mode, seed=cfg.seed)

    counts = np.full((m_paths, len(boxes)), np.nan)
    covered = np.zeros((m_paths, len(boxes)), dtype=bool)
    prof_level = max(b.a[1] for b in boxes)
    prof_vals = np.full(m_paths, np.nan)
    # profile bins each box's coverage reads, and the bin of prof_level
    box_bins = []
    for b in boxes:
        lo = max(int(math.floor(b.a[0] / width)), 0)
        box_bins.append((lo, max(lo + 1, int(round(b.a[1] / width)))))
    j_level = int(round(prof_level / width))
    n_prof = max([j_level + 1] + [hi for _, hi in box_bins])

    def work(i: int) -> None:
        p = sample_path(mech, sub, path_index=_NS_POISSON + i, stop_level=x)
        cut = truncate_at_level(build_nodes(p), x)
        if cut is None:
            return
        nodes, _ = cut
        sc = scan_height(nodes, p.beta_eff)
        lb = level_bins(nodes.times, sc.height, width)
        run = running_local_time(nodes.times, sc.height, width, binned=lb)
        prof = occupation_profile(nodes.times, sc.height, width, n_prof, binned=lb)
        hj = sc.height[nodes.jump_post]
        uj = run[nodes.jump_post]
        zj = nodes.jump_sizes
        for b_idx, (b, (lo, hi)) in enumerate(zip(boxes, box_bins)):
            inside = ((hj > b.a[0]) & (hj <= b.a[1]) & (zj > b.z[0]) &
                      (zj <= b.z[1]) & (uj > b.u[0]) & (uj <= b.u[1]))
            counts[i, b_idx] = inside.sum()
            covered[i, b_idx] = prof[lo:hi].min() >= b.u[1]
        prof_vals[i] = prof[j_level]

    _for_each_path(m_paths, jobs, work)
    kept = ~np.isnan(counts[:, 0])
    discarded = int(m_paths - kept.sum())
    C = counts[kept]
    report = MonteCarloReport(
        check="poisson-marks", sample_size=m_paths, discarded=discarded,
        config_echo=_echo(mech, cfg, oracle,
                          {"x": x, "dt": dt, "horizon": horizon,
                           "level_width": width,
                           "boxes": [{"a": list(b.a), "z": list(b.z), "u": list(b.u)}
                                     for b in boxes]}))
    cells = report.cells
    cells.append(CheckCell("discard_rate", {}, discarded / m_paths, 0.0, 0.0,
                           0.05, discarded / m_paths <= 0.05))
    for b_idx, b in enumerate(boxes):
        c = C[:, b_idx]
        intensity = b.volume_intensity(oracle)
        se = c.std(ddof=1) / math.sqrt(len(c))
        cells.append(_gap_cell("mark_count_mean",
                               {"box": b_idx, "intensity": intensity},
                               c.mean(), intensity, se, 0.0))
        if c.mean() > 0:
            fano = float(c.var(ddof=1) / c.mean())
            fano_ok = bool(0.8 <= fano <= 1.2)
            note = ""
        else:
            # an all-zero count is Poisson-consistent only if the intensity is 0
            fano = 1.0 if intensity == 0.0 else math.inf
            fano_ok = intensity == 0.0
            note = "degenerate zero-count box"
        cells.append(CheckCell("fano_factor", {"box": b_idx}, fano, 1.0, 0.0,
                               0.2, fano_ok, note=note))
        cov = float(covered[kept, b_idx].mean())
        cells.append(CheckCell("coverage", {"box": b_idx}, cov, 1.0, 0.0, 0.1,
                               cov >= 0.9,
                               note="box unreliable below 90% coverage"))
    la = prof_vals[kept]
    mo = oracle.cb_mean(x, prof_level)
    se = la.std(ddof=1) / math.sqrt(len(la))
    cells.append(_gap_cell("mean_profile_vs_oracle", {"a": prof_level},
                           la.mean(), mo, se,
                           float(harness.get("mean_budget", 0.02)) * mo))
    cells.extend(_exponent_cells(mech, oracle, cfg,
                                 harness.get("exponent_check", {}), jobs))
    return report


# ---------------------------------------------------------------------------
# suite 6: supremum vs local time of the reflected path
# ---------------------------------------------------------------------------

def reflected_supremum_report(mech: BranchingMechanism, cfg: SimConfig,
                              harness: dict,
                              oracle: BranchingMechanism | None = None,
                              jobs: int = 1) -> MonteCarloReport:
    """beta * (local time of S - xi at 0) recovers the continuous part of the
    supremum, S_t minus its jump increases; band occupation near zero
    estimates the local time, refining with dt."""
    if mech.beta <= 0.0:
        raise PreconditionError("reflected suite requires beta > 0")
    oracle = oracle or mech
    block = harness.get("reflected", {})
    t_end = float(block.get("t", 1.0))
    m_paths = int(block.get("paths", 3000))
    band_mult = float(block.get("band_mult", 16.0))
    dts = sorted(float(d) for d in harness["dts"])[::-1]
    beta = mech.beta + (0.5 * mech.jumps.m2_below(cfg.truncation_delta)
                        if cfg.small_jump_mode == "gaussian_correction" else 0.0)
    has_jumps = not mech.jumps.is_zero

    report = MonteCarloReport(
        check="reflected", sample_size=m_paths,
        config_echo=_echo(mech, cfg, oracle,
                          {"t": t_end, "dts": dts, "band_mult": band_mult}))
    devs = []
    for dt in dts:
        sub = SimConfig(dt=dt, horizon=t_end, truncation_delta=cfg.truncation_delta,
                        small_jump_mode=cfg.small_jump_mode, seed=cfg.seed)
        h_band = band_mult * math.sqrt(2.0 * beta * dt)
        lhs = np.empty(m_paths)
        rhs = np.empty(m_paths)

        def work(i: int, sub=sub, h_band=h_band, lhs=lhs, rhs=rhs) -> None:
            p = sample_path(mech, sub, path_index=_NS_REFLECTED + i)
            nodes = build_nodes(p)
            s_run = np.maximum.accumulate(nodes.values)
            r_vals = s_run - nodes.values
            w = node_weights(nodes.times)
            lhs[i] = beta * float(w[r_vals < h_band].sum()) / h_band
            ds_sum = 0.0
            for jpost in nodes.jump_post:
                ds_sum += max(nodes.values[jpost] - s_run[jpost - 1], 0.0)
            rhs[i] = float(s_run[-1]) - ds_sum

        _for_each_path(m_paths, jobs, work)
        rel = abs(lhs.mean() - rhs.mean()) / abs(rhs.mean())
        devs.append(rel)
        se = float(np.hypot(lhs.std(ddof=1), rhs.std(ddof=1))
                   / math.sqrt(m_paths) / abs(rhs.mean()))
        final = dt == dts[-1]
        gate = has_jumps and final
        tol = 0.05 if gate else math.inf
        report.cells.append(CheckCell(
            name="identity_rel_dev", params={"dt": dt, "band": h_band},
            stat=float(rel), oracle=0.0, stderr=se, tol=tol,
            passed=rel <= tol,
            note="5% gate at finest dt (jump mechanisms)" if gate else ""))
    for j in range(len(devs) - 1):
        report.cells.append(CheckCell(
            name="deviation_monotone_decrease",
            params={"dt_coarse": dts[j], "dt_fine": dts[j + 1]},
            stat=devs[j] - devs[j + 1], oracle=0.0, stderr=0.0, tol=math.inf,
            passed=devs[j] > devs[j + 1], note="requires strict decrease"))
    report.cells.extend(_exponent_cells(mech, oracle, cfg,
                                        harness.get("exponent_check", {}), jobs))
    return report


# ---------------------------------------------------------------------------
# suite 7: the Brownian special case
# ---------------------------------------------------------------------------

def brownian_example_report(cfg: SimConfig, harness: dict,
                            oracle: BranchingMechanism | None = None,
                            jobs: int = 1) -> MonteCarloReport:
    """For a standard Brownian path (alpha=0, beta=1/2) the height at time t
    is distributed like twice the absolute value of a Gaussian with variance
    t; checked by a Kolmogorov-Smirnov distance at the 1% level."""
    mech = BranchingMechanism(**_EXAMPLE_MECH)
    oracle = oracle or mech
    block = harness.get("example", {})
    m_paths = int(block.get("paths", 5000))
    dt = float(block.get("dt", 2e-4))
    t_end = float(block.get("t", 1.0))
    sub = SimConfig(dt=dt, horizon=t_end, truncation_delta=0.0,
                    small_jump_mode="drop_compensated", seed=cfg.seed)

    hs = np.empty(m_paths)

    def work(i: int) -> None:
        p = sample_path(mech, sub, path_index=_NS_EXAMPLE + i)
        v = p.values
        hs[i] = (v[-1] - v.min()) / mech.beta

    _for_each_path(m_paths, jobs, work)
    hs_sorted = np.sort(hs)
    scale = 2.0 * math.sqrt(2.0 * t_end)
    cdf = np.array([math.erf(h / scale) for h in hs_sorted])
    grid_hi = np.arange(1, m_paths + 1) / m_paths
    grid_lo = np.arange(0, m_paths) / m_paths
    ks = float(max(np.abs(grid_hi - cdf).max(), np.abs(cdf - grid_lo).max()))
    crit = 1.62762 / (math.sqrt(m_paths) + 0.12 + 0.11 / math.sqrt(m_paths))

    mean_oracle = 2.0 * math.sqrt(2.0 * t_end / math.pi)
    se = hs.std(ddof=1) / math.sqrt(m_paths)

    report = MonteCarloReport(
        check="example", sample_size=m_paths,
        config_echo=_echo(mech, cfg, oracle,
                          {"t": t_end, "dt": dt}))
    report.cells.append(CheckCell(
        name="ks_distance", params={"t": t_end}, stat=ks, oracle=0.0,
        stderr=0.0, tol=crit, passed=ks <= crit,
        note="1% critical value for the half-normal comparison"))
    report.cells.append(_gap_cell("mean_height", {"t": t_end}, hs.mean(),
                                  mean_oracle, se, 0.02 * mean_oracle))
    report.cells.append(CheckCell(
        name="nonnegative", params={}, stat=float(hs.min()), oracle=0.0,
        stderr=0.0, tol=0.0, passed=bool(hs.min() >= 0.0)))
    report.cells.extend(_exponent_cells(mech, oracle, cfg,
                                        harness.get("exponent_check", {}), jobs))
    return report


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

SUITES = ("ray-knight", "theorem1", "tanaka", "noise", "poisson-marks",
          "reflected", "example")


def run_suite(name: str, mech: BranchingMechanism, cfg: SimConfig,
              harness: dict, jobs: int = 1) -> MonteCarloReport:
    offset = float(harness.get("oracle_alpha_offset", 0.0))
    if name == "example":
        base = BranchingMechanism(**_EXAMPLE_MECH)
        oracle = replace(base, alpha=base.alpha + offset) if offset else base
        return brownian_example_report(cfg, harness, oracle=oracle, jobs=jobs)
    oracle = replace(mech, alpha=mech.alpha + offset) if offset else mech
    if name == "ray-knight":
        return ray_knight_report(mech, cfg, harness, oracle=oracle, jobs=jobs)
    if name == "theorem1":
        return theorem1_report(mech, cfg, harness, oracle=oracle, jobs=jobs)
    if name == "tanaka":
        return tanaka_report(mech, cfg, harness, oracle=oracle, jobs=jobs)
    if name == "noise":
        return white_noise_report(mech, cfg, harness, oracle=oracle, jobs=jobs)
    if name == "poisson-marks":
        return poisson_marks_report(mech, cfg, harness, oracle=oracle, jobs=jobs)
    if name == "reflected":
        return reflected_supremum_report(mech, cfg, harness, oracle=oracle, jobs=jobs)
    raise ValueError(f"unknown suite {name!r}")


def run_all(mech: BranchingMechanism, cfg: SimConfig, harness: dict,
            jobs: int = 1) -> list[MonteCarloReport]:
    """Run every suite applicable to the mechanism; inapplicable suites are
    recorded as skipped entries rather than failures."""
    reports = []
    for name in SUITES:
        try:
            reports.append(run_suite(name, mech, cfg, harness, jobs=jobs))
        except PreconditionError as exc:
            reports.append(MonteCarloReport(
                check=name, sample_size=0, skipped=True, reason=str(exc),
                config_echo={"mechanism": mechanism_to_config(mech)}))
    return reports
