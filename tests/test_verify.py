import json
import math
import multiprocessing

import numpy as np
import pytest

from levyforest import BranchingMechanism, JumpMeasure, PreconditionError
from levyforest.paths import SimConfig
from levyforest.verify import (
    GridFunction2D,
    MarkBox,
    PathPool,
    _exponent_row,
    indicator_box,
    run_all,
    run_suite,
)

FELLER = BranchingMechanism(0.5, 1.0)
JUMPY = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 1.0),)))

SMALL = {
    "x": 1.0,
    "levels": [0.25, 0.5, 1.0],
    "lambdas": [0.0, 1.0],
    "paths": 300,
    "dts": [4e-3, 2e-3, 1e-3],
    "residual_levels": [0.25, 0.5, 1.0],
    "mean_budget": 0.02,
    "laplace_budget": 0.05,
    "boxes": [{"a": [0.0, 0.5], "z": [0.8, 1.2], "u": [0.0, 0.5]}],
    "theorem1": {"paths": 250, "horizon": 14.0},
    "tanaka": {"paths": 200, "t": 1.5},
    "noise": {"a": 1.0, "u_max": 1.0, "dt": 2e-3, "horizon": 18.0,
              "paths": 300, "level_width": 0.05},
    "poisson": {"x": 3.0, "dt": 1e-3, "horizon": 50.0, "paths": 300,
                "level_width": 0.05},
    "reflected": {"t": 1.0, "paths": 300, "band_mult": 16.0},
    "example": {"paths": 600, "dt": 5e-4, "t": 1.0},
    "exponent_check": {"paths": 1200, "dt": 0.01, "t": 2.0, "lambdas": [0.5]},
    "oracle_alpha_offset": 0.0,
}
CFG = SimConfig(dt=1e-3, horizon=24.0, seed=17)


def _cells(report, name):
    return [c for c in report.cells if c.name == name]


def test_ray_knight_lambda_zero_column_is_trivially_exact():
    rep = run_suite("ray-knight", FELLER, CFG, SMALL, jobs=1)
    for cell in _cells(rep, "laplace_height_vs_exact"):
        if cell.params["lam"] == 0.0:
            assert cell.stat == 1.0 and cell.oracle == 1.0 and cell.passed
    assert rep.sample_size == 300
    assert _cells(rep, "discard_rate")[0].passed


def test_ray_knight_mean_cells_track_oracle_at_small_m():
    rep = run_suite("ray-knight", FELLER, CFG, SMALL, jobs=1)
    for cell in _cells(rep, "mean_height_vs_oracle"):
        assert cell.passed, (cell.params, cell.stat, cell.oracle, cell.tol)


def test_white_noise_zero_function_gives_zero_integral():
    h = dict(SMALL)
    h["noise"] = dict(SMALL["noise"])
    h["noise"]["f"] = GridFunction2D(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                     np.zeros((1, 1)))
    h["noise"]["paths"] = 60
    rep = run_suite("noise", FELLER, CFG, h, jobs=1)
    mean_cell = _cells(rep, "mean")[0]
    var_cell = _cells(rep, "variance")[0]
    assert mean_cell.stat == 0.0 and var_cell.stat == 0.0 and var_cell.oracle == 0.0
    assert mean_cell.passed and var_cell.passed
    assert _cells(rep, "skewness")[0].passed


def test_grid_function_l2_integral():
    f = GridFunction2D(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 2.0]),
                       np.array([[1.0, 2.0], [3.0, 0.5]]))
    expected = 0.5 * (1 + 4) + 0.5 * (9 + 0.25)
    assert f.l2_integral(1.0) == pytest.approx(expected)
    assert f.l2_integral(0.5) == pytest.approx(0.5 * (1 + 4))
    box = indicator_box(1.0, 1.0)
    assert box.l2_integral(1.0) == 1.0
    # evaluation is half-open on the left in both coordinates
    assert box(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.0, 1.0])).tolist() == [0.0, 0.0, 1.0]


def _searchsorted_lookup(f, s, u):
    """The two-searchsorted form of GridFunction2D evaluation."""
    si = np.searchsorted(f.s_edges, s, side="left") - 1
    ui = np.searchsorted(f.u_edges, u, side="left") - 1
    ok = ((si >= 0) & (si < f.values.shape[0]) & (ui >= 0) & (ui < f.values.shape[1])
          & (s > f.s_edges[0]) & (u > f.u_edges[0]))
    out = np.zeros(len(s))
    out[ok] = f.values[si[ok], ui[ok]]
    return out


@pytest.mark.parametrize("n_s,n_u", [(1, 1), (3, 2), (4, 7), (40, 33)])
def test_grid_function_lookup_matches_searchsorted(n_s, n_u):
    rng = np.random.default_rng(n_s * 100 + n_u)
    s_edges = np.cumsum(rng.random(n_s + 1) + 0.1) - 0.5
    u_edges = np.cumsum(rng.random(n_u + 1) + 0.1) - 1.0
    f = GridFunction2D(s_edges, u_edges, rng.normal(size=(n_s, n_u)))
    special = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0])
    s_pts = np.concatenate((s_edges, [s_edges[0] - 1.0, s_edges[-1] + 1.0], special,
                            rng.uniform(s_edges[0] - 1, s_edges[-1] + 1, 500)))
    u_pts = np.concatenate((u_edges, [u_edges[0] - 1.0, u_edges[-1] + 1.0], special,
                            rng.uniform(u_edges[0] - 1, u_edges[-1] + 1, 500)))
    # every s point against every u point: exact edges, below the first edge,
    # above the last, NaN and infinities on either axis
    s_grid, u_grid = (a.ravel() for a in np.meshgrid(s_pts, u_pts))
    got = f(s_grid, u_grid)
    want = _searchsorted_lookup(f, s_grid, u_grid)
    assert got.tobytes() == want.tobytes()
    assert (got[np.isnan(s_grid) | np.isnan(u_grid)] == 0.0).all()


def test_poisson_empty_z_range_counts_nothing():
    h = dict(SMALL)
    h["boxes"] = [{"a": [0.0, 0.5], "z": [5.0, 6.0], "u": [0.0, 0.5]}]
    h["poisson"] = dict(SMALL["poisson"])
    h["poisson"]["paths"] = 80
    rep = run_suite("poisson-marks", JUMPY, CFG, h, jobs=1)
    count_cell = _cells(rep, "mark_count_mean")[0]
    assert count_cell.stat == 0.0 and count_cell.oracle == 0.0 and count_cell.passed
    assert _cells(rep, "fano_factor")[0].passed


def test_poisson_unreachable_u_range_flags_coverage():
    h = dict(SMALL)
    h["boxes"] = [{"a": [0.0, 0.5], "z": [0.8, 1.2], "u": [0.0, 50.0]}]
    h["poisson"] = dict(SMALL["poisson"])
    h["poisson"]["paths"] = 60
    rep = run_suite("poisson-marks", JUMPY, CFG, h, jobs=1)
    cov = _cells(rep, "coverage")[0]
    assert not cov.passed
    assert not rep.passed


def test_mark_box_intensity():
    box = MarkBox((0.0, 0.5), (0.8, 1.2), (0.0, 0.5))
    assert box.volume_intensity(JUMPY) == pytest.approx(0.25)
    assert MarkBox((0.0, 0.5), (2.0, 3.0), (0.0, 0.5)).volume_intensity(JUMPY) == 0.0


def test_suite_preconditions():
    beta0 = BranchingMechanism(1.0, 0.0)
    with pytest.raises(PreconditionError):
        run_suite("noise", beta0, CFG, SMALL)
    with pytest.raises(PreconditionError):
        run_suite("ray-knight", beta0, CFG, SMALL)
    with pytest.raises(PreconditionError):
        run_suite("poisson-marks", FELLER, CFG, SMALL)  # no jumps
    with pytest.raises(ValueError):
        run_suite("bogus", FELLER, CFG, SMALL)


def test_negative_control_fails_each_suite():
    h = dict(SMALL)
    h["oracle_alpha_offset"] = 0.3
    for suite in ("noise", "reflected", "example"):
        rep = run_suite(suite, FELLER, CFG, h, jobs=1)
        assert not rep.passed, suite
        exp_cells = [c for c in rep.cells if c.name == "path_exponent"]
        assert any(not c.passed for c in exp_cells)


def test_run_all_skips_inapplicable_suites():
    h = dict(SMALL)
    h["paths"] = 80
    h["theorem1"] = {"paths": 60, "horizon": 12.0}
    h["tanaka"] = {"paths": 50, "t": 1.0}
    h["noise"] = dict(SMALL["noise"], paths=60)
    h["reflected"] = dict(SMALL["reflected"], paths=60)
    h["example"] = dict(SMALL["example"], paths=200)
    h["exponent_check"] = dict(SMALL["exponent_check"], paths=400)
    reports = run_all(FELLER, CFG, h, jobs=2)
    names = {r.check: r for r in reports}
    assert set(names) == {"ray-knight", "theorem1", "tanaka", "noise",
                          "poisson-marks", "reflected", "example"}
    assert names["poisson-marks"].skipped
    assert "jump" in names["poisson-marks"].reason


def test_report_json_roundtrip_and_jobs_determinism():
    rep1 = run_suite("reflected", FELLER, CFG, SMALL, jobs=1)
    rep2 = run_suite("reflected", FELLER, CFG, SMALL, jobs=4)
    assert rep1.to_json() == rep2.to_json()
    obj = json.loads(rep1.to_json())
    assert obj["check"] == "reflected"
    assert obj["pass"] == rep1.passed
    assert all(set(c) >= {"name", "stat", "oracle", "stderr", "tol", "pass"}
               for c in obj["cells"])


TINY = dict(SMALL, paths=40, theorem1={"paths": 30, "horizon": 12.0},
            tanaka={"paths": 25, "t": 1.0}, noise=dict(SMALL["noise"], paths=30),
            poisson=dict(SMALL["poisson"], paths=30),
            reflected=dict(SMALL["reflected"], paths=30),
            example=dict(SMALL["example"], paths=50),
            exponent_check=dict(SMALL["exponent_check"], paths=70))


def test_run_all_reports_do_not_depend_on_the_split():
    # 3 workers cut 25..70 paths into 12 uneven chunks; JUMPY runs all 7 suites
    serial = run_all(JUMPY, CFG, TINY, jobs=1)
    split = run_all(JUMPY, CFG, TINY, jobs=3)
    assert [r.check for r in split] == [r.check for r in serial]
    assert not any(r.skipped for r in serial)
    for a, b in zip(serial, split):
        assert a.to_json() == b.to_json(), a.check


def test_path_pool_starts_no_more_workers_than_chunks():
    spec = (FELLER, SimConfig(dt=0.01, horizon=1.01, seed=3), 100)
    with PathPool(4) as pool:
        vals, = pool.map(_exponent_row, spec, 2)
        assert len(multiprocessing.active_children()) <= 2
        assert vals.tolist() == PathPool(1).map(_exponent_row, spec, 2)[0].tolist()
    assert not multiprocessing.active_children()


def test_path_pool_surfaces_worker_errors():
    spec = (FELLER, SimConfig(dt=0.01, horizon=1.01, seed=3), 500)  # past the grid
    with PathPool(2) as pool:
        with pytest.raises(IndexError):
            pool.map(_exponent_row, spec, 4)


def test_example_suite_small_scale_passes():
    rep = run_suite("example", FELLER, CFG, SMALL, jobs=1)
    assert rep.passed
    ks = _cells(rep, "ks_distance")[0]
    assert ks.stat <= ks.tol


def test_exponent_cells_pass_under_true_oracle():
    rep = run_suite("noise", FELLER, CFG, SMALL, jobs=1)
    for c in _cells(rep, "path_exponent"):
        assert c.passed, (c.stat, c.oracle, c.tol)


def test_noise_suite_works_on_jump_mechanisms():
    h = dict(SMALL)
    h["noise"] = dict(SMALL["noise"], paths=300)
    rep = run_suite("noise", JUMPY, CFG, h, jobs=1)
    assert _cells(rep, "mean")[0].passed
    var_cell = _cells(rep, "variance")[0]
    assert abs(var_cell.stat - var_cell.oracle) <= 3 * var_cell.stderr + 0.1


def test_theorem1_residual_per_path():
    from levyforest.paths import sample_path
    from levyforest.verify import theorem1_residual
    import numpy as np

    # full-range level: the integral telescopes to -x, residual ~ profile above
    # the maximal height, i.e. ~0; level 0 residual ~ profile(0-bin) - x
    p = sample_path(FELLER, SimConfig(dt=2.5e-4, horizon=30.0, seed=41),
                    stop_level=1.0)
    res = theorem1_residual(p, 1.0, [0.25, 50.0], width=0.05)
    assert res is not None and abs(res[1]) <= 1e-9
    assert abs(res[0]) < 1.0
    short = sample_path(FELLER, SimConfig(dt=1e-3, horizon=0.01, seed=41))
    assert theorem1_residual(short, 50.0, [0.25]) is None
