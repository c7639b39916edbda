import json
import math
import multiprocessing

import numpy as np
import pytest

from levyforest import BranchingMechanism, ConfigurationError, JumpMeasure, PreconditionError
from levyforest.config import run_config_from_dict
from levyforest.local_time import level_bins, occupation_profile, running_local_time
from levyforest.mechanism import PowerLawTail
from levyforest.paths import SimConfig, build_nodes, node_weights, sample_path
from levyforest.verify import (
    _NS_EXAMPLE,
    _NS_NOISE,
    _NS_REFLECTED,
    CheckCell,
    GridFunction2D,
    MarkBox,
    PathPool,
    SUITES,
    _cell_brownian,
    _exponent_row,
    _heights,
    _ladder_cells,
    _mean_cell,
    indicator_box,
    keep_heap_resident,
    run_all,
    run_suite,
    tanaka_report,
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


# -- the noise row bins only the levels it reads ---------------------------------

def _noise_row_binning_every_vertex(spec, i: int) -> tuple:
    """The noise row with every vertex binned and f evaluated at every
    piece: the reference _noise_row must match bit for bit."""
    mech, cfg, f, a_lvl, u_max, width, n_bins = spec
    p = sample_path(mech, cfg, path_index=_NS_NOISE + i)
    nodes, sc = _heights(p)
    lb = level_bins(nodes.times, sc.height, width)
    run = running_local_time(nodes.times, sc.height, width, binned=lb)
    h_left = sc.height[:-1]
    fv = f(h_left, run[:-1]) * (h_left <= a_lvl)
    prof = occupation_profile(nodes.times, sc.height, width, n_bins, binned=lb)
    return float((fv * _cell_brownian(p, nodes)).sum()), prof.min() >= u_max


def test_noise_row_binning_its_levels_matches_binning_every_vertex():
    # an atom plus a power law; the level a = 0.3 leaves about half of the
    # vertices unbinned
    mech = BranchingMechanism(0.5, 0.5, JumpMeasure(
        atoms=((0.5, 1.0),), power_law=PowerLawTail(c=1.0, sigma=1.5, z_max=1.0)))
    cfg = SimConfig(dt=1e-3, horizon=24.0, truncation_delta=0.03,
                    small_jump_mode="gaussian_correction", seed=23)
    harness = dict(SMALL, noise={"a": 0.3, "u_max": 0.5, "dt": 1e-3, "horizon": 4.0,
                                 "paths": 40, "level_width": 0.1})
    steps, (row, spec, m), _, _ = SUITES["noise"].plan(mech, cfg, harness)
    steps.close()
    for i in range(m):
        got, want = row(spec, i), _noise_row_binning_every_vertex(spec, i)
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [np.asarray(v).tobytes() for v in got] \
            == [np.asarray(v).tobytes() for v in want], i


# -- the example row reads the shared height stage ------------------------------

def _example_row_by_reflection(spec, i: int) -> tuple:
    """The example row by the reflected-path formula of a jump-free path,
    H_t = (xi_t - inf_{[0,t]} xi) / beta, without nodes or sweep: the
    _example_row that runs the shared height stage must match it bit for
    bit."""
    mech, cfg = spec
    v = sample_path(mech, cfg, path_index=_NS_EXAMPLE + i).values
    return ((v[-1] - v.min()) / mech.beta,)


def test_example_row_matches_the_reflected_path_formula():
    steps, (row, spec, m), _, _ = SUITES["example"].plan(FELLER, CFG, SMALL)
    steps.close()
    assert m == SMALL["example"]["paths"]
    for i in range(m):
        got, want = row(spec, i), _example_row_by_reflection(spec, i)
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [np.asarray(v).tobytes() for v in got] \
            == [np.asarray(v).tobytes() for v in want], i


# -- the reflected row adds the supremum's jump increases in time order ----------

def _reflected_row_by_loop(spec, i: int) -> tuple:
    """The reflected row with its jump increases added one at a time in a
    Python loop: the row that adds them in one call must match it bit for
    bit."""
    mech, cfg, beta, h_band = spec
    nodes = build_nodes(sample_path(mech, cfg, path_index=_NS_REFLECTED + i))
    s_run = np.maximum.accumulate(nodes.values)
    w = node_weights(nodes.times)
    ds_sum = 0.0
    for jpost in nodes.jump_post:
        ds_sum += max(nodes.values[jpost] - s_run[jpost - 1], 0.0)
    return (beta * float(w[s_run - nodes.values < h_band].sum()) / h_band,
            float(s_run[-1]) - ds_sum)


def test_reflected_row_matches_the_jump_loop():
    # delta = 0.01 draws about 670 jumps per unit time
    mech = BranchingMechanism(0.5, 1.0, JumpMeasure(
        power_law=PowerLawTail(c=1.0, sigma=1.5, z_max=1.0)))
    cfg = SimConfig(dt=1e-3, horizon=24.0, truncation_delta=0.01,
                    small_jump_mode="gaussian_correction", seed=17)
    harness = dict(SMALL, reflected={"t": 1.0, "paths": 200, "band_mult": 16.0})
    steps, (row, spec, m), _, _ = SUITES["reflected"].plan(mech, cfg, harness)
    steps.close()
    assert m == 200
    for i in range(m):
        got, want = row(spec, i), _reflected_row_by_loop(spec, i)
        assert [np.asarray(v).tobytes() for v in got] \
            == [np.asarray(v).tobytes() for v in want], i


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


@pytest.mark.parametrize("libc", ["no mallopt", "no libc"])
def test_keep_heap_resident_without_mallopt_does_nothing(monkeypatch, libc):
    import ctypes

    def cdll(name):
        if libc == "no libc":
            raise OSError("cannot open the C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert keep_heap_resident() is None


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
    from levyforest.verify import _residual_and_profile

    # full-range level: the integral telescopes to -x, residual ~ profile above
    # the maximal height, i.e. ~0; level 0 residual ~ profile(0-bin) - x
    p = sample_path(FELLER, SimConfig(dt=2.5e-4, horizon=30.0, seed=41),
                    stop_level=1.0)
    out = _residual_and_profile(p, 1.0, [0.25, 50.0], [5, 1000], 0.05)
    assert out is not None and abs(out[0][1]) <= 1e-9
    assert abs(out[0][0]) < 1.0
    short = sample_path(FELLER, SimConfig(dt=1e-3, horizon=0.01, seed=41))
    assert _residual_and_profile(short, 50.0, [0.25], [5], 0.05) is None


def _count_calls(monkeypatch, names):
    """Wrap each of names in levyforest.verify to count its calls; returns
    the counts."""
    import levyforest.verify as verify
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    return calls


def test_run_all_calls_every_traced_layer(monkeypatch):
    # perfbench --trace wraps these names in levyforest.verify; a refactor
    # that stops calling one through the module global leaves it blind
    calls = _count_calls(monkeypatch, (
        "sample_path", "coarsen_path", "build_nodes", "truncate_at_level",
        "scan_height", "running_local_time", "occupation_profile",
        "tanaka_local_time", "cb_marginals", "run_suite"))
    reports = run_all(JUMPY, CFG, TINY, jobs=1)
    assert not any(r.skipped for r in reports)
    assert calls["run_suite"] == 7
    assert all(calls.values()), calls


@pytest.mark.parametrize("name", list(SUITES))
def test_plan_draws_no_path(monkeypatch, name):
    calls = _count_calls(monkeypatch, ("sample_path", "cb_marginals"))
    steps, job, _, (_, targets) = SUITES[name].plan(JUMPY, CFG, TINY)
    assert callable(job[0]) and job[2] > 1
    assert [params["lam"] for params, _ in targets] == TINY["exponent_check"]["lambdas"]
    steps.close()
    assert calls == {"sample_path": 0, "cb_marginals": 0}


def test_run_all_finds_a_late_config_error_before_any_path(monkeypatch):
    # noise is the fourth suite; its level 1.0 is no edge of 0.3-wide bins
    calls = _count_calls(monkeypatch, ("sample_path", "cb_marginals"))
    h = dict(TINY, noise=dict(TINY["noise"], level_width=0.3))
    with pytest.raises(ConfigurationError, match="harness.noise.a"):
        run_all(FELLER, CFG, h, jobs=1)
    assert calls == {"sample_path": 0, "cb_marginals": 0}


def test_direct_theorem1_run_takes_the_default_horizon():
    h = dict(TINY, theorem1={"paths": 30})
    rep = run_suite("theorem1", FELLER, CFG, h, jobs=1)
    assert rep.config_echo["horizon"] == 24.0
    assert rep.sample_size == 30


def test_tanaka_rejects_a_ladder_off_the_finest_step():
    # 3e-3 is 1.5 steps of 2e-3: coarsening by round(1.5) = 2 would label
    # the 4e-3 rung as 3e-3
    with pytest.raises(ConfigurationError, match="harness.dts"):
        tanaka_report(FELLER, CFG, dict(TINY, dts=[3e-3, 2e-3]), jobs=1)


@pytest.mark.parametrize("edit,field", [
    # 0.02 is 3.33 steps of 0.006: a config error, not a suite that does not
    # apply, so theorem1 and tanaka are not reported as passing skips while
    # reflected runs on the same ladder
    ({"dts": [0.02, 0.006]}, "harness.dts"),
    # 3 finest steps do not divide theorem1's stopped-path chunk of 1024 cells
    ({"dts": [3e-3, 1e-3]}, "harness.dts"),
    # 2000.2 steps: the paths would end at t = 1.0 in cells labelled 1.0001
    ({"example": dict(TINY["example"], t=1.0001)}, "harness.example.t"),
    # 200.4 steps: X at t = 2.0 would be compared with the law at t = 2.004
    ({"exponent_check": dict(TINY["exponent_check"], t=2.004)}, "harness.exponent_check.t"),
    ({"tanaka": dict(TINY["tanaka"], paths=1)}, "harness.tanaka.paths"),
    # no path-exponent cell would leave tanaka, reflected and example with no
    # cell that reads the oracle
    ({"exponent_check": dict(TINY["exponent_check"], lambdas=[])},
     "harness.exponent_check.lambdas"),
])
def test_run_all_rejects_what_the_loader_rejects_before_any_path(monkeypatch, edit, field):
    h = dict(TINY, **edit)
    with pytest.raises(ConfigurationError) as loaded:
        run_config_from_dict({"harness": h})
    assert str(loaded.value).startswith(f"{field}: ")
    calls = _count_calls(monkeypatch, ("sample_path", "cb_marginals"))
    with pytest.raises(ConfigurationError) as planned:
        run_all(FELLER, CFG, h, jobs=1)
    assert str(planned.value) == str(loaded.value)
    assert calls == {"sample_path": 0, "cb_marginals": 0}


def _two_rung_cells(coarse_dev: float, fine_dev: float) -> list[CheckCell]:
    """The coarse rung, finest rung and order cells of a two-rung ladder
    gated at 0.05."""
    return _ladder_cells("dev", "dev_decrease", [2e-3, 1e-3],
                         [({"dt": 2e-3}, coarse_dev, 0.0), ({"dt": 1e-3}, fine_dev, 0.0)],
                         0.05, ("", "gate"))


@pytest.mark.parametrize("cell, passed", [
    # a gap of exactly tol passes, one ulp more fails
    (CheckCell("mean", {}, 1.5, 1.0, 0.0, 0.5, "gap"), True),
    (CheckCell("mean", {}, math.nextafter(1.5, 2.0), 1.0, 0.0, 0.5, "gap"), False),
    # coverage (lower, oracle 1, tol 0.1): exactly 90% passes
    (CheckCell("coverage", {}, 0.9, 1.0, 0.0, 0.1, "lower"), True),
    (CheckCell("coverage", {}, math.nextafter(0.9, 0.0), 1.0, 0.0, 0.1, "lower"), False),
    # fano factor (gap, oracle 1, tol 0.2): the closed band [0.8, 1.2]
    *[(CheckCell("fano_factor", {}, fano, 1.0, 0.0, 0.2, "gap"), ok) for fano, ok in (
        (0.8, True), (1.2, True), (math.nextafter(0.8, 0.0), False),
        (math.nextafter(1.2, 2.0), False), (math.inf, False), (math.nan, False))],
    # the order cell needs a strict decrease: equal deviations fail
    (_two_rung_cells(0.3, 0.3)[2], False),
    (_two_rung_cells(0.3, math.nextafter(0.3, 0.0))[2], True),
    (CheckCell("dev_decrease", {}, 0.1, 0.0, 0.0, math.nan, "order"), False),
    # an ungated rung (tol inf) passes on any finite deviation, fails on NaN
    (_two_rung_cells(1e300, 0.0)[0], True),
    (_two_rung_cells(math.nan, 0.0)[0], False),
    # the gated finest rung (upper) passes at its tolerance, not one ulp past
    (_two_rung_cells(0.3, 0.05)[1], True),
    (_two_rung_cells(0.3, math.nextafter(0.05, 1.0))[1], False),
    # a mean cell of one sample has no standard error: tol NaN
    (_mean_cell("mean", {}, np.array([0.5]), 0.5, 0.0), False),
])
def test_cell_rule_at_its_edges(cell, passed):
    assert cell.passed is passed
