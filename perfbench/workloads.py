"""The three benchmark workloads and the configs they hand to the program.

Every harness value a check depends on is written out in the generated
config, so the checks in checks.py read their parameters from here and not
from the program's defaults.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

FELLER = {"alpha": 0.5, "beta": 1.0, "jumps": {"atoms": [], "power_law": None}}
# z_max keeps the jump variance finite, which the ray-knight mean cells need
POWER_LAW = {"alpha": 0.5, "beta": 1.0,
             "jumps": {"atoms": [], "power_law": {"c": 1.0, "sigma": 1.5,
                                                  "z_min": 0.0, "z_max": 1.0}}}

EXPONENT_CHECK = {"paths": 2000, "dt": 0.01, "t": 2.0, "lambdas": [0.5, 1.0]}
COMMON_HARNESS = {
    "x": 1.0,
    "levels": [0.25, 0.5, 1.0],
    "lambdas": [0.5, 1.0, 2.0],
    "residual_levels": [0.25, 0.5, 0.75, 1.0],
    "mean_budget": 0.02,
    "laplace_budget": 0.05,
    "exponent_check": EXPONENT_CHECK,
}


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str              # CLI suite argument
    jobs: int
    default_seed: int
    # False when the program seed is held at default_seed whatever --seed is
    seed_follows_bench: bool
    mechanism: dict
    sim: dict
    harness: dict

    def program_seed(self, bench_seed: int, override: int | None = None) -> int:
        if override is not None:
            return override
        return bench_seed if self.seed_follows_bench else self.default_seed

    def config(self, program_seed: int) -> dict:
        harness = copy.deepcopy(COMMON_HARNESS)
        harness.update(copy.deepcopy(self.harness))
        return {"mechanism": copy.deepcopy(self.mechanism),
                "sim": dict(self.sim, seed=program_seed),
                "harness": harness}

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return ["verify", self.suite, "--config", config_path, "--out", out_dir,
                "--jobs", str(self.jobs)]

    @property
    def report_name(self) -> str:
        return f"verify_{self.suite}.json"

    def expected_suites(self) -> list[tuple[str, bool]]:
        """(suite, skipped) in report order."""
        if self.suite != "all":
            return [(self.suite, False)]
        jump_free = self.mechanism["jumps"]["power_law"] is None \
            and not self.mechanism["jumps"]["atoms"]
        return [(s, s == "poisson-marks" and jump_free) for s in ALL_SUITES]


ALL_SUITES = ("ray-knight", "theorem1", "tanaka", "noise", "poisson-marks",
              "reflected", "example")

WORKLOADS = {w.name: w for w in (
    # A jump-dense stopped-path run: about 0.03 jumps per grid cell, hundreds
    # to thousands of jumps on the long paths, so the O(jumps * nodes) height
    # scan blocks the verdict.  Its cost is a sum of heavy-tailed per-path
    # costs, so the path ensemble is held at seed 7 (see README).
    Workload(
        name="rk-powerlaw", suite="ray-knight", jobs=1, default_seed=7,
        seed_follows_bench=False, mechanism=POWER_LAW,
        sim={"dt": 2.5e-4, "horizon": 30.0, "truncation_delta": 0.03,
             "small_jump_mode": "gaussian_correction"},
        harness={"paths": 220}),
    # Long jump-free paths at the acceptance noise step and horizon: the
    # running local time and path sampling dominate, the height scan is a
    # running minimum.  The control for exploration-layer changes.
    Workload(
        name="noise-feller", suite="noise", jobs=1, default_seed=7,
        seed_follows_bench=True, mechanism=FELLER,
        sim={"dt": 2.5e-4, "horizon": 30.0, "truncation_delta": 0.0,
             "small_jump_mode": "drop_compensated"},
        harness={"noise": {"a": 1.0, "u_max": 1.0, "dt": 1e-3, "horizon": 24.0,
                           "paths": 500, "level_width": 0.05}}),
    # Every suite on Feller at mid scale with two worker threads: many short
    # paths, the dt ladder, Tanaka evaluations, and the exponent-health paths
    # that each suite simulates again.
    Workload(
        name="all-feller-j2", suite="all", jobs=2, default_seed=17,
        seed_follows_bench=True, mechanism=FELLER,
        sim={"dt": 1e-3, "horizon": 24.0, "truncation_delta": 0.0,
             "small_jump_mode": "drop_compensated"},
        harness={"paths": 1500, "dts": [4e-3, 2e-3, 1e-3],
                 "theorem1": {"paths": 1000, "horizon": 12.0},
                 "tanaka": {"paths": 600, "t": 1.0},
                 "noise": {"a": 1.0, "u_max": 1.0, "dt": 2e-3, "horizon": 16.0,
                           "paths": 1000, "level_width": 0.05},
                 "reflected": {"t": 1.0, "paths": 1000, "band_mult": 16.0},
                 "example": {"paths": 2000, "dt": 5e-4, "t": 1.0}}),
)}
