"""Correctness checks on a verify report, made apart from the program.

(a) every oracle in the report is recomputed here, to 1e-7 relative: Feller
    laws in closed form, power-law laws by quadrature over the jump density
    and by an ODE solve of the flow;
(b) on a few of the workload's paths, the stack height engine matches the
    scan engine and naive loops reproduce the occupation profile and the
    running local time, to 1e-9;
(c) the report holds every expected suite and cell, every number is finite,
    the plus/minus Tanaka gap is at most 1e-9 and at most 5% of paths were
    discarded;
(d) every mean, Laplace and variance cell lies within six standard errors
    plus its budget of the oracle computed here.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy.integrate import quad, solve_ivp

ORACLE_RTOL = 1e-7
PATHWISE_TOL = 1e-9
MAX_DISCARD = 0.05
N_SE = 6.0

ZERO_ORACLE = {"discard_rate", "abs_mean_residual", "residual_monotone_decrease",
               "abs_mean_deviation", "deviation_monotone_decrease",
               "plus_minus_pathwise", "mean", "skewness", "identity_rel_dev",
               "ks_distance", "nonnegative"}

# the Brownian special case of the example suite: alpha = 0, beta = 1/2
EXAMPLE_MECHANISM = {"alpha": 0.0, "beta": 0.5,
                     "jumps": {"atoms": [], "power_law": None}}


def _comp_exp(u: float) -> float:
    """exp(-u) - 1 + u without cancellation for small u."""
    if u < 0.1:
        term, total = u * u / 2.0, 0.0
        k = 2
        while abs(term) > 1e-18 * max(total, 1e-300):
            total += term
            k += 1
            term *= -u / k
        return total
    return math.exp(-u) - 1.0 + u


class Oracle:
    """Laws of one mechanism, computed without the program's code."""

    def __init__(self, mechanism: dict, sim: dict):
        self.alpha = float(mechanism["alpha"])
        self.beta = float(mechanism["beta"])
        self.pl = mechanism["jumps"]["power_law"]
        if mechanism["jumps"]["atoms"]:
            raise ValueError("the benchmark workloads use no atoms")
        self.delta = float(sim.get("truncation_delta", 0.0))
        self.gaussian = sim.get("small_jump_mode") == "gaussian_correction"
        self._v = {}

    def _jump_integral(self, lam: float, lo: float, hi: float) -> float:
        """int_lo^hi (exp(-lam z) - 1 + lam z) c z^(-1-sigma) dz."""
        c, s = self.pl["c"], self.pl["sigma"]
        if lam == 0.0 or hi <= lo:
            return 0.0
        if lo == 0.0:
            # integrable z^(1-sigma) singularity at 0 taken by the weight
            f = lambda z: c * (_comp_exp(lam * z) / (z * z) if z > 0 else lam * lam / 2)
            val, _ = quad(f, 0.0, hi, weight="alg", wvar=(1.0 - s, 0.0),
                          epsabs=0.0, epsrel=1e-13, limit=200)
            return val
        f = lambda z: c * _comp_exp(lam * z) * z ** (-1.0 - s)
        val, _ = quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        return val

    def psi(self, lam: float) -> float:
        out = self.alpha * lam + self.beta * lam * lam
        if self.pl is not None:
            out += self._jump_integral(lam, self.pl["z_min"], self.pl["z_max"])
        return out

    def psi_truncated(self, lam: float) -> float:
        """Exponent of the simulated process: jumps <= delta dropped, their
        variance added back under the Gaussian correction."""
        out = self.alpha * lam + self.beta * lam * lam
        if self.pl is not None:
            lo = max(self.delta, self.pl["z_min"])
            out += self._jump_integral(lam, lo, self.pl["z_max"])
            if self.gaussian and self.delta > 0.0:
                c, s = self.pl["c"], self.pl["sigma"]
                m2, _ = quad(lambda z: c, 0.0, min(self.delta, self.pl["z_max"]),
                             weight="alg", wvar=(1.0 - s, 0.0), epsrel=1e-13)
                out += 0.5 * m2 * lam * lam
        return out

    def v(self, t: float, lam: float) -> float:
        """The flow dv/dt = -psi(v), v_0 = lam."""
        key = (t, lam)
        if key not in self._v:
            if self.pl is None:
                a, b = self.alpha, self.beta
                if a == 0.0:
                    val = lam / (1.0 + b * lam * t)
                else:
                    e = math.exp(-a * t)
                    val = a * lam * e / (a + b * lam * (1.0 - e))
            else:
                sol = solve_ivp(lambda _, y: [-self.psi(y[0])], (0.0, t), [lam],
                                method="DOP853", rtol=1e-12, atol=1e-14)
                val = float(sol.y[0, -1])
            self._v[key] = val
        return self._v[key]

    def mean(self, x: float, a: float) -> float:
        return x * math.exp(-self.alpha * a)

    def laplace(self, x: float, a: float, lam: float) -> float:
        return math.exp(-x * self.v(a, lam))


def _params_match(params: dict, want: dict) -> bool:
    return all(k in params and params[k] is not None
               and abs(params[k] - v) <= 1e-12 * max(1.0, abs(v))
               for k, v in want.items())


def expected_cells(suite: str, cfg: dict) -> list[tuple[str, dict]]:
    h = cfg["harness"]
    levels, lambdas = h["levels"], h["lambdas"]
    res_levels = h["residual_levels"]
    dts = sorted(h.get("dts", []), reverse=True)
    ladder = [("abs_mean_residual" if suite == "theorem1" else
               "abs_mean_deviation" if suite == "tanaka" else
               "identity_rel_dev", {"dt": dt}) for dt in dts]
    pairs = [({"dt_coarse": a, "dt_fine": b}) for a, b in zip(dts, dts[1:])]
    out: list[tuple[str, dict]] = []
    if suite == "ray-knight":
        out.append(("discard_rate", {}))
        for a in levels:
            out += [("mean_height_vs_oracle", {"a": a}), ("mean_cb_vs_oracle", {"a": a})]
            for lam in lambdas:
                out += [(n, {"a": a, "lam": lam}) for n in (
                    "laplace_height_vs_exact", "laplace_cb_vs_exact",
                    "laplace_height_vs_cb")]
    elif suite == "theorem1":
        out.append(("discard_rate", {}))
        out += ladder
        out += [("residual_monotone_decrease", p) for p in pairs]
        out += [("mean_profile_vs_oracle", {"a": a, "dt": dts[-1]}) for a in res_levels]
    elif suite == "tanaka":
        out += ladder
        out += [("deviation_monotone_decrease", p) for p in pairs]
        out.append(("plus_minus_pathwise", {}))
    elif suite == "noise":
        out += [("mean", {}), ("variance", {}), ("skewness", {}), ("coverage", {})]
    elif suite == "reflected":
        out += ladder
        out += [("deviation_monotone_decrease", p) for p in pairs]
    elif suite == "example":
        t = h["example"]["t"]
        out += [("ks_distance", {"t": t}), ("mean_height", {"t": t}), ("nonnegative", {})]
    else:
        raise ValueError(f"no expected cells for suite {suite!r}")
    ex = h["exponent_check"]
    out += [("path_exponent", {"t": ex["t"], "lam": lam}) for lam in ex["lambdas"]]
    return out


def oracles(cfg: dict) -> tuple[Oracle, Oracle]:
    return (Oracle(cfg["mechanism"], cfg["sim"]),
            Oracle(EXAMPLE_MECHANISM, {}))


def independent_oracle(suite: str, cell: dict, cells: list[dict], cfg: dict,
                       oracle: Oracle, example: Oracle) -> float:
    name, p, h = cell["name"], cell["params"], cfg["harness"]
    if name in ZERO_ORACLE:
        return 0.0
    if name == "coverage":
        return 1.0
    if name in ("mean_height_vs_oracle", "mean_cb_vs_oracle", "mean_profile_vs_oracle"):
        return oracle.mean(h["x"], p["a"])
    if name in ("laplace_height_vs_exact", "laplace_cb_vs_exact"):
        return oracle.laplace(h["x"], p["a"], p["lam"])
    if name == "laplace_height_vs_cb":
        # the oracle of this cell is the branching simulation's own mean
        twin = [c for c in cells if c["name"] == "laplace_cb_vs_exact"
                and _params_match(c["params"], {"a": p["a"], "lam": p["lam"]})]
        return twin[0]["stat"] if twin else math.nan
    if name == "variance":
        return h["noise"]["a"] * h["noise"]["u_max"]
    if name == "mean_height":
        return 2.0 * math.sqrt(2.0 * p["t"] / math.pi)
    if name == "path_exponent":
        o = example if suite == "example" else oracle
        return math.exp(p["t"] * o.psi_truncated(p["lam"]))
    raise KeyError(name)


def _live_reports(report: dict) -> list[dict]:
    return [r for r in report["reports"] if not r["skipped"]]


def check_oracles(report: dict, cfg: dict) -> list[str]:
    """(a)"""
    oracle, example = oracles(cfg)
    errs = []
    for r in _live_reports(report):
        for c in r["cells"]:
            try:
                want = independent_oracle(r["check"], c, r["cells"], cfg, oracle, example)
            except KeyError:
                errs.append(f"{r['check']}: no independent oracle for cell {c['name']}")
                continue
            got = c["oracle"]
            if not abs(got - want) <= ORACLE_RTOL * max(abs(want), 1e-12):
                errs.append(f"{r['check']}.{c['name']}{c['params']}: oracle {got!r} "
                            f"!= independent {want!r}")
    return errs


def check_complete(report: dict, cfg: dict, expected_suites) -> list[str]:
    """(c)"""
    errs = []
    got = [(r["check"], bool(r["skipped"])) for r in report["reports"]]
    if got != list(expected_suites):
        return [f"suites {got} != expected {list(expected_suites)}"]
    for r in _live_reports(report):
        cells = list(r["cells"])
        for name, want in expected_cells(r["check"], cfg):
            hits = [c for c in cells if c["name"] == name and _params_match(c["params"], want)]
            if len(hits) != 1:
                errs.append(f"{r['check']}: {len(hits)} cells {name}{want}, expected 1")
            else:
                cells.remove(hits[0])
        errs += [f"{r['check']}: unexpected cell {c['name']}{c['params']}" for c in cells]
        for c in r["cells"]:
            vals = [c["stat"], c["oracle"], c["stderr"]] + ([] if c["tol"] is None else [c["tol"]])
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
                errs.append(f"{r['check']}.{c['name']}{c['params']}: non-finite value")
            if c["name"] == "plus_minus_pathwise" and not c["stat"] <= PATHWISE_TOL:
                errs.append(f"{r['check']}: plus/minus gap {c['stat']!r} > {PATHWISE_TOL}")
        if r["M"] <= 0 or not r["discarded"] / r["M"] <= MAX_DISCARD:
            errs.append(f"{r['check']}: discarded {r['discarded']} of {r['M']} paths")
    return errs


def cell_budget(name: str, cfg: dict) -> float | None:
    h = cfg["harness"]
    if name in ("mean_height_vs_oracle", "mean_cb_vs_oracle", "mean_profile_vs_oracle",
                "mean_height"):
        return h["mean_budget"]
    if name.startswith("laplace_"):
        return h["laplace_budget"]
    if name == "variance":
        return 0.05
    if name == "mean":
        return 0.0
    if name == "path_exponent":
        return 0.01
    return None


def statistic_bounds(suite: str, cell: dict, cells: list[dict], cfg: dict,
                     oracle: Oracle, example: Oracle) -> tuple[float, float] | None:
    """(independent oracle, allowed gap) of a mean, Laplace or variance cell;
    None for other cells."""
    budget = cell_budget(cell["name"], cfg)
    if budget is None:
        return None
    if cell["name"] == "laplace_height_vs_cb":
        p = cell["params"]
        want = oracle.laplace(cfg["harness"]["x"], p["a"], p["lam"])
    else:
        want = independent_oracle(suite, cell, cells, cfg, oracle, example)
    return want, N_SE * cell["stderr"] + budget * abs(want)


def check_statistics(report: dict, cfg: dict) -> list[str]:
    """(d)"""
    oracle, example = oracles(cfg)
    errs = []
    for r in _live_reports(report):
        for c in r["cells"]:
            bounds = statistic_bounds(r["check"], c, r["cells"], cfg, oracle, example)
            if bounds is not None and not abs(c["stat"] - bounds[0]) <= bounds[1]:
                errs.append(f"{r['check']}.{c['name']}{c['params']}: |{c['stat']!r} - "
                            f"{bounds[0]!r}| > {N_SE:g} se + budget = {bounds[1]!r}")
    return errs


# ---------------------------------------------------------------------------
# (b) pathwise checks on a subsample of paths
# ---------------------------------------------------------------------------

def naive_profile(times, heights, width: float, n_bins: int) -> np.ndarray:
    """Occupation of each level bin (j*width, (j+1)*width], left-point rule."""
    prof = [0.0] * n_bins
    for i in range(len(times) - 1):
        h = float(heights[i])
        if h > 0.0:
            b = math.ceil(h / width) - 1
            if b < n_bins:
                prof[b] += float(times[i + 1]) - float(times[i])
    return np.array(prof) / width


def naive_running(times, heights, width: float) -> np.ndarray:
    """Occupation, strictly before each vertex, of the bin holding its height."""
    occ = defaultdict(float)
    out = np.zeros(len(times))
    for i in range(len(times)):
        h = float(heights[i])
        w = float(times[i + 1]) - float(times[i]) if i + 1 < len(times) else 0.0
        b = math.ceil(h / width) - 1 if h > 0.0 else -1
        if b >= 0:
            out[i] = occ[b] / width
        occ[b] += w
    return out


def _dev(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))) if a.size else 0.0


def compare_pathwise(label: str, scan_grid, stack_grid, times, heights, width,
                     n_bins, profile, running) -> list[str]:
    """Stack vs scan heights, and the program's profile and running local time
    vs the naive loops, all to PATHWISE_TOL."""
    errs = []
    for what, got, want in (
            ("stack vs scan height", stack_grid, scan_grid),
            ("occupation_profile vs naive", profile, naive_profile(times, heights, width, n_bins)),
            ("running_local_time vs naive", running, naive_running(times, heights, width))):
        d = _dev(got, want)
        if not d <= PATHWISE_TOL:
            errs.append(f"{label}: {what} deviates by {d:.3g}")
    return errs


def subsample_indices(bench_seed: int, m_paths: int, k: int = 3) -> list[int]:
    rng = np.random.default_rng([bench_seed, 0x5EB])
    return sorted(int(i) for i in rng.choice(m_paths, size=k, replace=False))


def pathwise_inputs(cfg: dict, suite: str, index: int):
    """Simulate one path the way the workload's main suite does and return
    what compare_pathwise needs, using the program's public functions."""
    from levyforest.config import run_config_from_dict
    from levyforest.exploration import height_trajectory, scan_height
    from levyforest.local_time import occupation_profile, running_local_time
    from levyforest.paths import SimConfig, build_nodes, sample_path, truncate_at_level

    run = run_config_from_dict(cfg)
    mech, sim, h = run.mechanism, run.sim, cfg["harness"]
    if suite == "noise":
        nb = h["noise"]
        sim = SimConfig(dt=nb["dt"], horizon=nb["horizon"],
                        truncation_delta=sim.truncation_delta,
                        small_jump_mode=sim.small_jump_mode, seed=sim.seed)
        path = sample_path(mech, sim, path_index=(1 << 41) + index)
        nodes = build_nodes(path)
        width = nb["level_width"]
    else:
        path = sample_path(mech, sim, path_index=index, stop_level=h["x"])
        cut = truncate_at_level(build_nodes(path), h["x"])
        nodes = cut[0] if cut is not None else build_nodes(path)
        width = 0.05
    heights = scan_height(nodes, path.beta_eff).height
    n_bins = int(math.ceil(max(float(heights.max()), width) / width)) + 1
    return dict(
        scan_grid=height_trajectory(path, engine="scan"),
        stack_grid=height_trajectory(path, engine="stack"),
        times=nodes.times, heights=heights, width=width, n_bins=n_bins,
        profile=occupation_profile(nodes.times, heights, width, n_bins),
        running=running_local_time(nodes.times, heights, width))


def check_pathwise(cfg: dict, suite: str, bench_seed: int) -> list[str]:
    """(b)"""
    main = "noise" if suite == "noise" else "ray-knight"
    m = cfg["harness"]["noise"]["paths"] if main == "noise" else cfg["harness"]["paths"]
    errs = []
    for i in subsample_indices(bench_seed, m):
        errs += compare_pathwise(f"{main} path {i}", **pathwise_inputs(cfg, main, i))
    return errs


def check_report(report: dict, cfg: dict, expected_suites) -> list[str]:
    """(a), (c) and (d) on one report; (c) first, since (a) and (d) need the cells."""
    errs = check_complete(report, cfg, expected_suites)
    if errs:
        return errs
    return check_oracles(report, cfg) + check_statistics(report, cfg)
