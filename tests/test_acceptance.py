"""Acceptance gate: one test per criterion, at the stated scales and
tolerances, each printing a PASS line with its runtime (pytest -s shows them).

The statistical criteria run on fixed seeds; every run of this suite is
bit-reproducible, so a green result here certifies the shipped configuration
rather than a lucky draw.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from levyforest import BranchingMechanism, JumpMeasure
from levyforest.exploration import height_trajectory
from levyforest.paths import SimConfig, sample_path
from levyforest.verify import (
    poisson_marks_report,
    ray_knight_report,
    reflected_supremum_report,
    run_suite,
    tanaka_report,
    theorem1_report,
    white_noise_report,
)

FELLER = BranchingMechanism(0.5, 1.0)
JUMPY = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 0.5),)))
JUMPY_UNIT = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 1.0),)))

HARNESS = {
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
              "paths": 4000, "level_width": 0.05},
    "poisson": {"x": 4.0, "dt": 5e-4, "horizon": 60.0, "paths": 4000,
                "level_width": 0.05},
    "reflected": {"t": 1.0, "paths": 3000, "band_mult": 16.0},
    "example": {"paths": 5000, "dt": 2e-4, "t": 1.0},
    "exponent_check": {"paths": 2000, "dt": 0.01, "t": 2.0, "lambdas": [0.5, 1.0]},
    "oracle_alpha_offset": 0.0,
}
CFG_FELLER = SimConfig(dt=2.5e-4, horizon=30.0, seed=7)
CFG_JUMPY = SimConfig(dt=2.5e-4, horizon=40.0, seed=7)

REDUCED_CONFIG = {
    "mechanism": {"alpha": 0.5, "beta": 1.0},
    "sim": {"dt": 1e-3, "horizon": 24.0, "seed": 17},
    "harness": {
        "paths": 300,
        "dts": [4e-3, 2e-3, 1e-3],
        "theorem1": {"paths": 250, "horizon": 12.0},
        "tanaka": {"paths": 150, "t": 1.0},
        "noise": {"paths": 300, "dt": 2e-3, "horizon": 16.0},
        "poisson": {"x": 3.0, "dt": 1e-3, "horizon": 50.0, "paths": 300},
        "reflected": {"paths": 300},
        "example": {"paths": 600, "dt": 5e-4},
        "exponent_check": {"paths": 1200, "lambdas": [0.5, 1.0]},
    },
}


def _line(num, desc, elapsed, budget):
    print(f"[criterion {num:2d}] PASS {desc} ({elapsed:.1f}s < {budget}s)")


def _fails(report):
    return [(c.name, c.params, c.stat, c.oracle, c.tol)
            for c in report.cells if not c.passed]


# -- 1: mechanism oracle suite -------------------------------------------------

def test_criterion_01_flow_oracles():
    t0 = time.time()
    riccati = BranchingMechanism(0.0, 1.0)
    linear = BranchingMechanism(1.0, 0.0)
    worst_closed = 0.0
    for t in np.linspace(0.1, 2.0, 10):
        for lam in np.linspace(0.2, 5.0, 10):
            got = riccati.v(float(t), float(lam))
            ref = lam / (1.0 + lam * t)
            worst_closed = max(worst_closed, abs(got - ref) / ref)
            got = linear.v(float(t), float(lam))
            ref = lam * math.exp(-t)
            worst_closed = max(worst_closed, abs(got - ref) / ref)
    assert worst_closed <= 1e-8

    worst_flow = 0.0
    for mech in (FELLER, JUMPY):
        for (t, s, lam) in ((0.3, 0.7, 1.0), (1.0, 0.5, 2.0), (0.2, 1.8, 0.6)):
            worst_flow = max(worst_flow,
                             abs(mech.v(t + s, lam) - mech.v(t, mech.v(s, lam))))
    assert worst_flow <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _line(1, f"flow oracles (closed-form rel {worst_closed:.1e}, "
             f"flow gap {worst_flow:.1e})", elapsed, 1)


# -- 2: stack vs direct evaluation ----------------------------------------------

def test_criterion_02_stack_matches_direct_formula():
    t0 = time.time()
    mixed = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 0.5), (0.3, 1.0))))
    cfg = SimConfig(dt=1e-3, horizon=2.0, seed=99)
    worst = 0.0
    for i in range(200):
        mech = FELLER if i % 2 == 0 else mixed
        p = sample_path(mech, cfg, path_index=i)
        h_scan = height_trajectory(p, engine="scan")
        h_stack = height_trajectory(p, engine="stack")
        worst = max(worst, float(np.max(np.abs(h_scan - h_stack))))
    assert worst <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _line(2, f"stack vs direct height formula on 200 paths (max dev {worst:.1e})",
          elapsed, 30)


# -- 3: first-passage profile vs branching laws ---------------------------------

@pytest.mark.parametrize("mech,cfg,label", [
    (FELLER, CFG_FELLER, "feller"),
    (JUMPY, CFG_JUMPY, "jump"),
])
def test_criterion_03_ray_knight(mech, cfg, label):
    t0 = time.time()
    rep = ray_knight_report(mech, cfg, HARNESS, jobs=1)
    assert rep.passed, _fails(rep)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _line(3, f"ray-knight three-way agreement [{label}] "
             f"(discarded {rep.discarded}/{rep.sample_size})", elapsed, 300)


# -- 4: stopped-path representation residual ------------------------------------

def test_criterion_04_theorem1_residual():
    t0 = time.time()
    rep = theorem1_report(FELLER, CFG_FELLER, HARNESS, jobs=1)
    assert rep.passed, _fails(rep)
    finest = [c for c in rep.cells
              if c.name == "abs_mean_residual" and c.params["dt"] == 2.5e-4][0]
    assert finest.stat <= 0.05 * HARNESS["x"]
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _line(4, f"representation residual ladder (finest {finest.stat:.4f} <= 0.05x)",
          elapsed, 180)


# -- 5: Tanaka consistency -------------------------------------------------------

def test_criterion_05_tanaka_consistency():
    t0 = time.time()
    rep = tanaka_report(FELLER, CFG_FELLER, HARNESS, jobs=1)
    assert rep.passed, _fails(rep)
    pm = [c for c in rep.cells if c.name == "plus_minus_pathwise"][0]
    assert pm.stat <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _line(5, f"tanaka vs occupation ladder (plus-minus gap {pm.stat:.1e})",
          elapsed, 180)


# -- 6: white-noise reconstruction ------------------------------------------------

def test_criterion_06_noise_reconstruction():
    t0 = time.time()
    rep = white_noise_report(FELLER, CFG_FELLER, HARNESS, jobs=1)
    assert rep.passed, _fails(rep)
    var_cell = [c for c in rep.cells if c.name == "variance"][0]
    assert var_cell.oracle == pytest.approx(1.0)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _line(6, f"white-noise moments (var {var_cell.stat:.4f} vs 1)", elapsed, 180)


# -- 7: Poisson marks --------------------------------------------------------------

def test_criterion_07_poisson_marks():
    t0 = time.time()
    rep = poisson_marks_report(JUMPY_UNIT, CFG_JUMPY, HARNESS, jobs=1)
    assert rep.passed, _fails(rep)
    fano = [c for c in rep.cells if c.name == "fano_factor"][0]
    assert 0.8 <= fano.stat <= 1.2
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _line(7, f"poisson mark counts (fano {fano.stat:.3f})", elapsed, 180)


# -- 8: supremum identity -----------------------------------------------------------

def test_criterion_08_reflected_supremum():
    t0 = time.time()
    rep_f = reflected_supremum_report(FELLER, CFG_FELLER, HARNESS, jobs=1)
    assert rep_f.passed, _fails(rep_f)
    rep_j = reflected_supremum_report(JUMPY_UNIT, CFG_JUMPY, HARNESS, jobs=1)
    assert rep_j.passed, _fails(rep_j)
    finest = [c for c in rep_j.cells
              if c.name == "identity_rel_dev" and c.params["dt"] == 2.5e-4][0]
    assert finest.stat <= 0.05
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _line(8, f"supremum identity (jump finest rel dev {finest.stat:.4f})",
          elapsed, 120)


# -- 9: Brownian special case ---------------------------------------------------------

def test_criterion_09_brownian_example():
    t0 = time.time()
    rep = run_suite("example", FELLER, CFG_FELLER, HARNESS, jobs=1)
    assert rep.passed, _fails(rep)
    ks = [c for c in rep.cells if c.name == "ks_distance"][0]
    assert ks.stat <= ks.tol
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _line(9, f"half-normal height law (KS {ks.stat:.4f} < {ks.tol:.4f})", elapsed, 60)


# -- 10: negative controls ---------------------------------------------------------------

def test_criterion_10_negative_controls(tmp_path):
    t0 = time.time()
    feller_cfg = tmp_path / "feller.json"
    feller_cfg.write_text(json.dumps(REDUCED_CONFIG))
    jump_obj = json.loads(json.dumps(REDUCED_CONFIG))
    jump_obj["mechanism"] = {"alpha": 0.5, "beta": 0.5,
                             "jumps": {"atoms": [{"z": 1.0, "w": 1.0}]}}
    jump_cfg = tmp_path / "jump.json"
    jump_cfg.write_text(json.dumps(jump_obj))

    suites = ["ray-knight", "theorem1", "tanaka", "noise", "reflected", "example",
              "poisson-marks"]
    for suite in suites:
        cfg = jump_cfg if suite == "poisson-marks" else feller_cfg
        r = subprocess.run(
            [sys.executable, "-m", "levyforest.cli", "verify", suite,
             "--config", str(cfg), "--out", str(tmp_path / f"neg_{suite}"),
             "--negative-control"],
            capture_output=True, text=True)
        assert r.returncode == 4, (suite, r.returncode, r.stdout, r.stderr)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _line(10, f"negative controls fail all {len(suites)} suites", elapsed, 300)


# -- 11: determinism across worker counts ----------------------------------------------

def test_criterion_11_determinism_across_jobs(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(REDUCED_CONFIG))
    outs = []
    codes = []
    for jobs, out in (("1", tmp_path / "j1"), ("4", tmp_path / "j4")):
        r = subprocess.run(
            [sys.executable, "-m", "levyforest.cli", "verify", "all",
             "--config", str(cfg), "--out", str(out), "--jobs", jobs],
            capture_output=True, text=True)
        codes.append(r.returncode)
        outs.append((out / "verify_all.json").read_bytes())
    assert outs[0] == outs[1]
    assert codes[0] == codes[1]
    elapsed = time.time() - t0
    _line(11, f"verify-all byte-identical across --jobs (exit {codes[0]})",
          elapsed, 600)
