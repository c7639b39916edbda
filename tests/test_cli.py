import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

CLI = [sys.executable, "-m", "levyforest.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


BOUNDED_POWER_LAW = {"alpha": 0.5, "beta": 1.0, "jumps": {"power_law": {
    "c": 1.0, "sigma": 1.5, "z_min": 0.0, "z_max": 1.0}}}

SMALL_VERIFY = {
    "mechanism": {"alpha": 0.5, "beta": 1.0},
    "sim": {"dt": 1e-3, "horizon": 24.0, "seed": 17},
    "harness": {
        "paths": 250,
        "lambdas": [0.5, 1.0],
        "dts": [4e-3, 2e-3, 1e-3],
        "theorem1": {"paths": 200, "horizon": 12.0},
        "tanaka": {"paths": 150, "t": 1.0},
        "noise": {"paths": 250, "dt": 2e-3, "horizon": 16.0},
        "reflected": {"paths": 250},
        "example": {"paths": 500, "dt": 5e-4},
        "exponent_check": {"paths": 1000, "lambdas": [0.5]},
    },
}


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    r = run_cli("mechanism", "info", "--config", str(p))
    assert r.returncode == 2
    assert "configuration error" in r.stderr


def test_unknown_field_is_named(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {"bogus_field": 1}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert "bogus_field" in r.stderr


def test_mechanism_info_grey_verdicts(tmp_path):
    feller = write_cfg(tmp_path, "f.json", {"mechanism": {"alpha": 0.0, "beta": 1.0}})
    r = run_cli("mechanism", "info", "--config", feller)
    assert r.returncode == 0
    assert json.loads(r.stdout)["grey_condition"] is True

    linear = write_cfg(tmp_path, "l.json",
                       {"mechanism": {"alpha": 1.0, "beta": 0.0},
                        "sim": {"dt": 1e-3, "horizon": 1.0}})
    r = run_cli("mechanism", "info", "--config", linear)
    assert r.returncode == 0
    assert json.loads(r.stdout)["grey_condition"] is False


def test_simulate_levy_is_deterministic_and_row_counted(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"sim": {"dt": 1e-3, "horizon": 2.0, "seed": 5}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        r = run_cli("simulate", "levy", "--config", cfg, "--out", str(out))
        assert r.returncode == 0
    assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()
    rows = (out1 / "path.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2000 + 1
    sidecar = json.loads((out1 / "path.config.json").read_text())
    assert sidecar["sim"]["seed"] == 5


def test_simulate_levy_null_mechanism_zero_column(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"mechanism": {"alpha": 0.0, "beta": 0.0},
                     "sim": {"dt": 1e-2, "horizon": 0.5, "seed": 1}})
    out = tmp_path / "o"
    assert run_cli("simulate", "levy", "--config", cfg, "--out", str(out)).returncode == 0
    rows = (out / "path.csv").read_text().strip().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)


def test_simulate_height_requires_beta(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"mechanism": {"alpha": 1.0, "beta": 0.0},
                     "sim": {"dt": 1e-3, "horizon": 1.0}})
    r = run_cli("simulate", "height", "--config", cfg, "--out", str(tmp_path / "h"))
    assert r.returncode == 3
    assert "beta" in r.stderr


def test_simulate_height_and_cb_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"sim": {"dt": 1e-2, "horizon": 1.0, "seed": 2}})
    out = tmp_path / "o"
    assert run_cli("simulate", "height", "--config", cfg, "--out", str(out)).returncode == 0
    head = (out / "height.csv").read_text().splitlines()[0]
    assert head == "time,height"
    assert (out / "local_time.csv").exists()
    assert run_cli("simulate", "cb", "--config", cfg, "--out", str(out)).returncode == 0
    assert (out / "cb.csv").read_text().splitlines()[0] == "time,value"


def test_simulate_height_with_only_the_corrected_diffusion(tmp_path):
    # beta = 0, but the Gaussian small-jump correction gives the simulated
    # law a diffusion part, so the height process exists
    cfg = write_cfg(tmp_path, "c.json", {
        "mechanism": {"alpha": 0.5, "beta": 0.0, "jumps": {"power_law": {
            "c": 1.0, "sigma": 1.5, "z_min": 0.0, "z_max": 1.0}}},
        "sim": {"dt": 0.01, "horizon": 1.0, "truncation_delta": 0.05,
                "small_jump_mode": "gaussian_correction"}})
    r = run_cli("simulate", "height", "--config", cfg, "--out", str(tmp_path / "h"))
    assert r.returncode == 0, r.stderr


def test_every_simulated_csv_parses(tmp_path):
    from levyforest.cli import main
    from levyforest.config import load_run_config
    from levyforest.exploration import height_trajectory, scan_height
    from levyforest.local_time import default_level_width, level_bins, running_local_time
    from levyforest.paths import build_nodes, sample_path

    cfg = write_cfg(tmp_path, "c.json", {
        "mechanism": {"alpha": 0.5, "beta": 1.0,
                      "jumps": {"atoms": [{"z": 0.5, "w": 2.0}]}},
        "sim": {"dt": 1e-2, "horizon": 2.0, "seed": 4}})
    out = tmp_path / "o"
    for kind in ("levy", "cb", "height"):
        assert main(["simulate", kind, "--config", cfg, "--out", str(out)]) == 0
    tables = {}
    for name in ("path", "jumps", "cb", "height", "local_time"):
        raw = (out / f"{name}.csv").read_bytes()
        assert raw.count(b"\n") == raw.count(b"\r\n"), name
        with open(out / f"{name}.csv", newline="", encoding="utf-8") as fp:
            rows = list(csv.reader(fp))
        tables[name] = [[float(v) for v in row] for row in rows[1:]]
        assert tables[name], name
    run = load_run_config(cfg)
    path = sample_path(run.mechanism, run.sim)
    assert [h for _, h in tables["height"]] == height_trajectory(path).tolist()
    # local_time.csv: one row per vertex above 0, its bin's left edge and the
    # running local time of that bin strictly before it
    nodes = build_nodes(path)
    sc = scan_height(nodes, path.beta_eff)
    width = default_level_width(run.sim.dt, path.beta_eff)
    lb = level_bins(nodes.times, sc.height, width)
    running = running_local_time(nodes.times, sc.height, width, binned=lb)
    up = sc.height > 0.0
    assert tables["local_time"] == [[t, (int(k) - 1) * width, u] for t, k, u in
                                    zip(nodes.times[up], lb.key[up], running[up])]
    assert len(tables["local_time"]) <= len(nodes.times)


def test_simulate_without_out_writes_to_the_harness_out_dir(tmp_path, monkeypatch):
    from levyforest.cli import main

    monkeypatch.chdir(tmp_path)
    sim = {"dt": 1e-2, "horizon": 1.0, "seed": 2}
    cfg = write_cfg(tmp_path, "c.json", {"sim": sim})
    assert main(["simulate", "levy", "--config", cfg, "--jobs", "1"]) == 0
    assert (tmp_path / "out" / "path.csv").is_file()
    cfg = write_cfg(tmp_path, "d.json", {"sim": sim, "harness": {"out_dir": "elsewhere"}})
    assert main(["simulate", "levy", "--config", cfg, "--jobs", "1"]) == 0
    assert (tmp_path / "elsewhere" / "path.csv").is_file()


@pytest.mark.parametrize("field,value", [
    ("horizon", float("inf")), ("dt", float("nan")),
    ("truncation_delta", float("inf"))])
def test_non_finite_sim_number_exits_2(tmp_path, field, value):
    sim = {"dt": 1e-2, "horizon": 1.0, field: value}
    cfg = write_cfg(tmp_path, "c.json", {"sim": sim})
    r = run_cli("simulate", "height", "--config", cfg, "--out", str(tmp_path / "h"))
    assert r.returncode == 2
    assert f"sim.{field}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("field,value", [
    ("alpha", float("inf")), ("alpha", float("nan")), ("beta", float("inf"))])
def test_non_finite_mechanism_number_exits_2(tmp_path, field, value):
    # the timeout turns a flow integration that never ends into a failure
    cfg = write_cfg(tmp_path, "c.json", {"mechanism": {"alpha": 0.5, "beta": 1.0,
                                                       field: value}})
    for command in (["mechanism", "info"], ["simulate", "levy", "--out", str(tmp_path / "o")]):
        r = subprocess.run(CLI + command + ["--config", cfg], capture_output=True,
                           text=True, timeout=60)
        assert r.returncode == 2, r.stderr
        assert f"mechanism.{field}" in r.stderr
        assert "Traceback" not in r.stderr


def test_verify_suite_noise_beta0_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"mechanism": {"alpha": 1.0, "beta": 0.0},
                     "sim": {"dt": 1e-3, "horizon": 1.0}})
    r = run_cli("verify", "noise", "--config", cfg, "--out", str(tmp_path / "v"))
    assert r.returncode == 3


def test_verify_example_passes_and_overrides_apply(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", SMALL_VERIFY)
    out = tmp_path / "v"
    r = run_cli("verify", "example", "--config", cfg, "--out", str(out), "--seed", "23")
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads((out / "verify_example.json").read_text())
    assert payload["pass"] is True
    assert payload["reports"][0]["config"]["sim"]["seed"] == 23


def test_verify_negative_control_exits_4(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", SMALL_VERIFY)
    out = tmp_path / "v"
    r = run_cli("verify", "example", "--config", cfg, "--out", str(out),
                "--negative-control")
    assert r.returncode == 4
    payload = json.loads((out / "verify_example.json").read_text())
    assert payload["pass"] is False


def test_verify_report_written_even_on_failure(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", SMALL_VERIFY)
    out = tmp_path / "v"
    r = run_cli("verify", "noise", "--config", cfg, "--out", str(out),
                "--negative-control")
    assert r.returncode == 4
    assert (out / "verify_noise.json").exists()


def test_paths_override_reaches_the_harness(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", SMALL_VERIFY)
    out = tmp_path / "v"
    r = run_cli("verify", "ray-knight", "--config", cfg, "--out", str(out),
                "--paths", "120")
    assert r.returncode in (0, 4)
    payload = json.loads((out / "verify_ray-knight.json").read_text())
    assert payload["reports"][0]["M"] == 120


def test_dt_override_changes_the_grid(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"sim": {"dt": 1e-3, "horizon": 1.0, "seed": 3}})
    out = tmp_path / "o"
    r = run_cli("simulate", "levy", "--config", cfg, "--out", str(out),
                "--dt", "0.01")
    assert r.returncode == 0
    rows = (out / "path.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 100 + 1


@pytest.mark.parametrize("block,field,value", [
    ("theorem1", "horizon", float("inf")), ("noise", "dt", float("nan")),
    ("tanaka", "paths", 1), ("example", "t", -1.0),
    ("exponent_check", "paths", 2.5), ("poisson", "horizon", 0.0),
    # t off the block's own dt grid: the suite would read X at another time
    ("example", "t", 1.00001), ("exponent_check", "t", 2.005)])
def test_bad_per_suite_size_exits_2(tmp_path, block, field, value):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {block: {field: value}}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert f"harness.{block}.{field}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("field", ["x", "mean_budget", "laplace_budget",
                                   "oracle_alpha_offset"])
def test_non_finite_harness_number_exits_2(tmp_path, field):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {field: float("inf")}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert f"harness.{field}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("block,field,value", [
    ("noise", "level_width", 0), ("noise", "a", -1.0),
    ("noise", "u_max", float("inf")), ("poisson", "level_width", 0.0),
    ("poisson", "x", float("nan")), ("reflected", "band_mult", 0)])
def test_bad_per_suite_number_exits_2(tmp_path, block, field, value):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {block: {field: value}}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert f"harness.{block}.{field}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("value", [0, -0.5, float("inf"), "wide"])
def test_bad_level_width_exits_2(tmp_path, value):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {"level_width": value}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert "harness.level_width" in r.stderr


@pytest.mark.parametrize("value", [3, "", None])
def test_bad_out_dir_exits_2(tmp_path, value):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {"out_dir": value}})
    r = run_cli("simulate", "levy", "--config", cfg)
    assert r.returncode == 2
    assert "harness.out_dir" in r.stderr
    assert "Traceback" not in r.stderr


def test_zero_noise_level_width_is_a_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {"noise": {"level_width": 0}}})
    r = run_cli("verify", "noise", "--config", cfg, "--out", str(tmp_path / "v"))
    assert r.returncode == 2
    assert "harness.noise.level_width" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, jobs):
    cfg = write_cfg(tmp_path, "c.json", SMALL_VERIFY)
    r = run_cli("verify", "example", "--config", cfg, "--out", str(tmp_path / "v"),
                "--jobs", jobs)
    assert r.returncode == 2
    assert "--jobs" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "v").exists()


TINY_POWER_LAW = {
    "mechanism": BOUNDED_POWER_LAW,
    "sim": {"dt": 0.01, "horizon": 8.0, "seed": 3, "truncation_delta": 0.03,
            "small_jump_mode": "gaussian_correction"},
    "harness": {"paths": 6, "levels": [0.25, 0.5], "lambdas": [1.0],
                "exponent_check": {"paths": 4, "dt": 0.1, "t": 0.5}},
}


@pytest.mark.parametrize("obj,call", [
    (SMALL_VERIFY, "cli.load_run_config(cfg)"),
    (TINY_POWER_LAW, "cli.load_run_config(cfg)"),
    (TINY_POWER_LAW, "sys.exit(cli.main(['mechanism', 'info', '--config', cfg]))"),
    (TINY_POWER_LAW, "sys.exit(cli.main(['verify', 'ray-knight', '--config', cfg, "
                     "'--out', out]))"),
], ids=["jump-free-load", "power-law-load", "power-law-mechanism-info",
        "power-law-verify-ray-knight"])
def test_runs_without_scipy(tmp_path, obj, call):
    # with scipy blocked, any import of it raises: the power law's psi and
    # every config load are numpy and the standard library only
    code = ("import sys; sys.modules['scipy'] = None; import levyforest.cli as cli; "
            f"cfg, out = sys.argv[1:]; {call}")
    cfg = write_cfg(tmp_path, "c.json", obj)
    r = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "v")],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode in (0, 4), r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("box,field", [
    ({"a": [0.0, 0.5], "z": [0.0, 0.5], "u": [0.0, 0.5]}, "harness.boxes[0].z"),
    ({"a": [0.0, 0.5], "z": [1e-308, 0.5], "u": [0.0, 0.5]}, "harness.boxes[0].z"),
    ({"a": [0.0, float("inf")], "z": [0.8, 1.2], "u": [0.0, 0.5]}, "harness.boxes[0].a"),
    (None, "harness.boxes"),
])
def test_bad_mark_box_exits_2(tmp_path, box, field):
    # a z-range reaching the power law's 0 has infinite jump mass (and one
    # starting at 1e-308 more than a float holds), JSON Infinity is a float,
    # and an empty list has no box to count in
    obj = dict(SMALL_VERIFY, mechanism=BOUNDED_POWER_LAW,
               sim={"dt": 1e-3, "horizon": 24.0, "truncation_delta": 0.05})
    obj["harness"] = dict(obj["harness"], boxes=[] if box is None else [box])
    cfg = write_cfg(tmp_path, "c.json", obj)
    r = run_cli("verify", "poisson-marks", "--config", cfg, "--out", str(tmp_path / "v"))
    assert r.returncode == 2, r.stderr
    assert field in r.stderr
    assert "Traceback" not in r.stderr


def test_suite_horizon_must_exceed_its_step(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"harness": {"noise": {"dt": 0.5, "horizon": 0.25}}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert "harness.noise.horizon" in r.stderr


@pytest.mark.parametrize("dts", [[1e-3, 3e-3], [1e-3, 1.5e-3], [2e-3, -1e-3]])
def test_unusable_dts_ladder_exits_2(tmp_path, dts):
    harness = dict(SMALL_VERIFY["harness"], dts=dts)
    cfg = write_cfg(tmp_path, "c.json", dict(SMALL_VERIFY, harness=harness))
    r = run_cli("verify", "theorem1", "--config", cfg, "--out", str(tmp_path / "v"))
    assert r.returncode == 2
    assert "harness.dts" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("f,field", [
    (3, "harness.noise.f"),
    ({"s_edges": [0.0, 1.0], "u_edges": [0.0, 1.0]}, "harness.noise.f"),
    ({"s_edges": [0.0, 1.0, 1.0], "u_edges": [0.0, 1.0], "values": [[1.0], [1.0]]},
     "harness.noise.f.s_edges"),
    ({"s_edges": [0.0, 1.0], "u_edges": [1.0], "values": [[1.0]]},
     "harness.noise.f.u_edges"),
    ({"s_edges": [0.0, 1.0], "u_edges": [0.0, 1.0, 2.0], "values": [[1.0]]},
     "harness.noise.f.values"),
    ({"s_edges": [0.0, 1.0], "u_edges": [0.0, 1.0], "values": [["x"]]},
     "harness.noise.f.values")])
def test_bad_noise_function_exits_2(tmp_path, f, field):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {"noise": {"f": f}}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert field in r.stderr
    assert "Traceback" not in r.stderr


def test_noise_function_only_in_the_noise_block(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {"tanaka": {"f": None}}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert "harness.tanaka.f" in r.stderr


def test_config_unit_box_writes_the_default_report(tmp_path):
    noise = dict(SMALL_VERIFY["harness"]["noise"], paths=120)
    box = {"s_edges": [0.0, 1.0], "u_edges": [0.0, 1.0], "values": [[1.0]]}
    zero = dict(box, values=[[0.0]])
    reports = []
    for name, block in (("default", noise), ("box", dict(noise, f=box)),
                        ("zero", dict(noise, f=zero))):
        harness = dict(SMALL_VERIFY["harness"], noise=block)
        cfg = write_cfg(tmp_path, f"{name}.json", dict(SMALL_VERIFY, harness=harness))
        out = tmp_path / name
        r = run_cli("verify", "noise", "--config", cfg, "--out", str(out))
        assert r.returncode in (0, 4), r.stderr
        reports.append((out / "verify_noise.json").read_bytes())
    assert reports[0] == reports[1]
    variance = [c for c in json.loads(reports[2])["reports"][0]["cells"]
                if c["name"] == "variance"][0]
    assert variance["stat"] == 0.0 and variance["oracle"] == 0.0


def test_jobs_defaults_to_one_thread():
    from levyforest.cli import _build_parser
    assert _build_parser().parse_args(["verify", "noise"]).jobs == 1


@pytest.mark.parametrize("paths", ["0", "-3", "1"])
def test_paths_flag_below_two_exits_2(tmp_path, paths):
    cfg = write_cfg(tmp_path, "c.json", SMALL_VERIFY)
    r = run_cli("verify", "ray-knight", "--config", cfg, "--out", str(tmp_path / "v"),
                "--paths", paths)
    assert r.returncode == 2
    assert "harness.paths" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("suite,how", [("ray-knight", "flag"), ("all", "flag"),
                                       ("ray-knight", "config")])
def test_ray_knight_level_off_the_grid_exits_2(tmp_path, suite, how):
    # levels 0.5 and 1.0 are not whole numbers of 0.7 steps
    obj = json.loads(json.dumps(SMALL_VERIFY))
    flags = ["--dt", "0.7"]
    if how == "config":
        obj["sim"]["dt"], flags = 0.7, []
    cfg = write_cfg(tmp_path, "c.json", obj)
    r = run_cli("verify", suite, "--config", cfg, "--out", str(tmp_path / "v"), *flags)
    assert r.returncode == 2, r.stderr
    assert "sim.dt" in r.stderr
    assert "Traceback" not in r.stderr


def test_ray_knight_lambda_past_the_float_range_exits_2(tmp_path):
    # psi(1e160) overflows; the timeout turns a flow integration that never
    # ends into a failure
    obj = json.loads(json.dumps(SMALL_VERIFY))
    obj["harness"]["lambdas"] = [1e160]
    cfg = write_cfg(tmp_path, "c.json", obj)
    r = subprocess.run(CLI + ["verify", "ray-knight", "--config", cfg,
                              "--out", str(tmp_path / "v")],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2, r.stderr
    assert "harness.lambdas" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "v" / "verify_ray-knight.json").exists()


@pytest.mark.parametrize("lam", [19.0, 1e160])
def test_exponent_lambda_past_the_float_range_exits_2(tmp_path, lam):
    # at t = 2, t * psi(19) = 741 and exp overflows; psi(1e160) is inf.  The
    # check is planned, so verify all exits before ray-knight draws a path
    obj = json.loads(json.dumps(SMALL_VERIFY))
    obj["harness"]["exponent_check"]["lambdas"] = [lam]
    cfg = write_cfg(tmp_path, "c.json", obj)
    r = subprocess.run(CLI + ["verify", "all", "--config", cfg, "--out", str(tmp_path / "v")],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2, r.stderr
    assert "harness.exponent_check.lambdas" in r.stderr
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr
    assert not (tmp_path / "v" / "verify_all.json").exists()


@pytest.mark.parametrize("seed,how,code", [
    (1.5, "config", 2), (True, "config", 2), (-1, "config", 2), (2 ** 64, "config", 2),
    (7.0, "config", 2), ("7", "config", 2), (-1, "flag", 2), (2 ** 64, "flag", 2),
    (0, "config", 0), (2 ** 64 - 1, "config", 0)])
def test_seed_must_be_a_64_bit_integer(tmp_path, capsys, seed, how, code):
    # path_stream keys on 64 bits: the loader used to truncate 1.5 and true
    # to 1, and the stream to wrap -1 and 2^64 onto other seeds
    from levyforest.cli import main

    sim = {"dt": 1e-2, "horizon": 1.0}
    flags = ["--seed", str(seed)] if how == "flag" else []
    if how == "config":
        sim["seed"] = seed
    cfg = write_cfg(tmp_path, "c.json", {"sim": sim})
    out = tmp_path / "o"
    assert main(["simulate", "levy", "--config", cfg, "--out", str(out)] + flags) == code
    if code == 2:
        assert "sim.seed" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert json.loads((out / "path.config.json").read_text())["sim"]["seed"] == seed


def test_readme_config_runs_and_its_height_engines_agree(tmp_path):
    from levyforest.config import run_config_from_dict
    from levyforest.exploration import direct_height, scan_height
    from levyforest.paths import build_nodes, sample_path

    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    block = readme.split("### Config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = write_cfg(tmp_path, "readme.json", json.loads(block))
    r = run_cli("simulate", "levy", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    # atoms plus a power law without z_max, under both small-jump modes
    run = run_config_from_dict(json.loads(block))
    assert run.mechanism.jumps.atoms and run.mechanism.jumps.power_law.z_max is None
    for mode in ("gaussian_correction", "drop_compensated"):
        sim = replace(run.sim, horizon=4.0, small_jump_mode=mode)
        path = sample_path(run.mechanism, sim)
        nodes = build_nodes(path)
        assert len(nodes.jump_post) > 100
        sweep, direct = scan_height(nodes, path.beta_eff), direct_height(nodes, path.beta_eff)
        assert np.max(np.abs(sweep.height - direct.height)) <= 1e-9
        assert np.max(np.abs(sweep.final_erosion - direct.final_erosion)) <= 1e-9


# -- levels the suites read in a level bin -------------------------------------

TINY_VERIFY = {
    "mechanism": {"alpha": 0.5, "beta": 1.0},
    "sim": {"dt": 0.01, "horizon": 4.0, "seed": 3},
    "harness": {
        "paths": 6, "levels": [0.25, 0.5], "lambdas": [1.0], "dts": [0.02, 0.01],
        "residual_levels": [0.25, 0.5],
        "theorem1": {"paths": 4, "horizon": 4.0}, "tanaka": {"paths": 4, "t": 0.5},
        "noise": {"paths": 4, "dt": 0.01, "horizon": 2.0},
        "poisson": {"paths": 4, "x": 1.0, "dt": 0.01, "horizon": 4.0},
        "reflected": {"paths": 4, "t": 0.5}, "example": {"paths": 4, "dt": 0.01},
        "exponent_check": {"paths": 4, "dt": 0.1, "t": 0.5},
    },
}


@pytest.mark.parametrize("suite,edit,field", [
    ("ray-knight", {"level_width": 0.3}, "harness.level_width"),
    ("theorem1", {"residual_levels": [0.3, 0.5]}, "harness.residual_levels"),
    ("tanaka", {"residual_levels": [0.3, 0.5]}, "harness.residual_levels"),
    ("noise", {"noise": {"paths": 4, "dt": 0.01, "horizon": 2.0, "level_width": 0.3}},
     "harness.noise.a"),
    ("poisson-marks", {"poisson": {"paths": 4, "x": 1.0, "dt": 0.01, "horizon": 4.0,
                                   "level_width": 0.3}}, "harness.boxes[0].a"),
])
def test_level_off_the_bin_edges_exits_2(tmp_path, suite, edit, field):
    # 0.25, 0.5 and the noise level 1.0 are no whole number of 0.3-wide bins, and
    # 0.5 none of the 0.15-wide bins of the ladder's coarsest rung
    obj = json.loads(json.dumps(TINY_VERIFY))
    obj["harness"].update(edit)
    if suite == "poisson-marks":
        obj["mechanism"]["jumps"] = {"atoms": [{"z": 1.0, "w": 1.0}]}
    cfg = write_cfg(tmp_path, "c.json", obj)
    r = run_cli("verify", suite, "--config", cfg, "--out", str(tmp_path / "v"))
    assert r.returncode == 2, r.stdout + r.stderr
    assert field in r.stderr and "not an edge" in r.stderr
    assert "Traceback" not in r.stderr


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_report_of_all_discarded_paths_is_strict_json(tmp_path):
    from levyforest.cli import main

    # no path reaches -x = -1 within a horizon of 0.05
    obj = json.loads(json.dumps(TINY_VERIFY))
    obj["sim"]["horizon"] = 0.05
    cfg = write_cfg(tmp_path, "c.json", obj)
    out = tmp_path / "v"
    assert main(["verify", "ray-knight", "--config", cfg, "--out", str(out)]) == 4
    report = json.loads((out / "verify_ray-knight.json").read_text(),
                        parse_constant=_no_constant)["reports"][0]
    assert report["discarded"] == report["M"]
    means = [c for c in report["cells"] if c["name"] == "mean_height_vs_oracle"]
    assert means and all(c["stat"] is None and c["tol"] is None for c in means)


def _poisson_report_of_one_kept_path(tmp_path, box: dict) -> dict:
    from levyforest.cli import main

    # a short horizon on a jump mechanism: 3 of the 4 paths miss -x = -1
    obj = json.loads(json.dumps(TINY_VERIFY))
    obj["mechanism"]["jumps"] = {"atoms": [{"z": 0.5, "w": 1.0}],
                                 "power_law": BOUNDED_POWER_LAW["jumps"]["power_law"]}
    obj["sim"].update(truncation_delta=0.03, small_jump_mode="gaussian_correction")
    obj["harness"]["poisson"]["level_width"] = 0.05
    obj["harness"]["boxes"] = [box]
    cfg = write_cfg(tmp_path, "c.json", obj)
    out = tmp_path / "v"
    assert main(["verify", "poisson-marks", "--config", cfg, "--out", str(out)]) == 4
    report = json.loads((out / "verify_poisson-marks.json").read_text(),
                        parse_constant=_no_constant)["reports"][0]
    assert report["M"] - report["discarded"] == 1
    return report


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_cell_of_one_kept_path_has_no_stderr_and_says_why(tmp_path):
    report = _poisson_report_of_one_kept_path(
        tmp_path, {"a": [0.0, 0.5], "z": [0.4, 0.6], "u": [0.0, 0.5]})
    means = [c for c in report["cells"]
             if c["name"] in ("mark_count_mean", "mean_profile_vs_oracle")]
    assert len(means) == 2
    for c in means:
        assert c["stat"] is not None and c["stderr"] is None and c["tol"] is None
        assert not c["pass"] and "fewer than two samples" in c["note"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fano_cell_of_one_kept_path_is_null_and_says_why(tmp_path):
    # a wide box: the one kept path has marks in it, but one count has no
    # sample variance
    report = _poisson_report_of_one_kept_path(
        tmp_path, {"a": [0.0, 0.5], "z": [0.1, 1.0], "u": [0.0, 5.0]})
    count, = (c for c in report["cells"] if c["name"] == "mark_count_mean")
    assert count["stat"] > 0
    fano, = (c for c in report["cells"] if c["name"] == "fano_factor")
    assert fano["stat"] is None and not fano["pass"]
    assert "fewer than two samples" in fano["note"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("suite,cells", [
    ("theorem1", ("abs_mean_residual", "mean_profile_vs_oracle")),
    ("poisson-marks", ("mark_count_mean", "coverage", "mean_profile_vs_oracle")),
])
def test_suite_that_keeps_no_path_writes_null_cells_without_warning(tmp_path, suite, cells):
    from levyforest.cli import main

    # an atom mechanism and a 0.08 horizon: no path reaches -x = -3
    obj = json.loads(json.dumps(TINY_VERIFY))
    obj["mechanism"]["jumps"] = {"atoms": [{"z": 1.0, "w": 1.0}]}
    obj["harness"]["x"] = 3.0
    obj["harness"]["theorem1"]["horizon"] = 0.08
    obj["harness"]["poisson"].update(x=3.0, horizon=0.08)
    cfg = write_cfg(tmp_path, "c.json", obj)
    out = tmp_path / "v"
    assert main(["verify", suite, "--config", cfg, "--out", str(out)]) == 4
    report = json.loads((out / f"verify_{suite}.json").read_text(),
                        parse_constant=_no_constant)["reports"][0]
    assert report["discarded"] == report["M"]
    for name in cells:
        found = [c for c in report["cells"] if c["name"] == name]
        assert found and all(c["stat"] is None and not c["pass"] for c in found), name
    fano = [c for c in report["cells"] if c["name"] == "fano_factor"]
    assert all(not c["pass"] and c["note"] == "degenerate zero-count box" for c in fano)


# -- the CLI boundary under drawn configs and flags ---------------------------

FUZZ_FIELDS = [
    ("mechanism", "alpha"), ("mechanism", "beta"), ("mechanism", "jumps"),
    ("sim", "dt"), ("sim", "horizon"), ("sim", "seed"), ("sim", "truncation_delta"),
    ("sim", "small_jump_mode"),
    ("harness", "paths"), ("harness", "x"), ("harness", "levels"),
    ("harness", "lambdas"), ("harness", "dts"), ("harness", "residual_levels"),
    ("harness", "level_width"), ("harness", "mean_budget"), ("harness", "boxes"),
    ("harness", "oracle_alpha_offset"),
    ("harness", "theorem1", "horizon"), ("harness", "tanaka", "t"),
    ("harness", "noise", "level_width"), ("harness", "noise", "a"),
    ("harness", "noise", "f"), ("harness", "poisson", "x"),
    ("harness", "reflected", "band_mult"), ("harness", "example", "t"),
    ("harness", "exponent_check", "lambdas"), ("harness", "exponent_check", "paths"),
]
# small values only: nothing drawn here can ask for a large run
FUZZ_VALUES = [0, -3, 1, 2, 3, 0.3, 0.7, -0.5, float("nan"), float("inf"), None,
               True, "x", [], {}, [0.0], [-1.0], [float("nan")], [0.5, 0.25], [0.3, 0.7],
               {"atoms": [{"z": 1.0, "w": 1.0}]},
               {"power_law": {"c": 1.0, "sigma": 1.5, "z_min": 0.0, "z_max": 1.0}}]
FUZZ_COMMANDS = ([["verify", s] for s in ("ray-knight", "theorem1", "tanaka", "noise",
                                          "poisson-marks", "reflected", "example", "all")]
                 + [["simulate", k] for k in ("levy", "cb", "height")]
                 + [["mechanism", "info"]])
# words by which an exit-2/3 message names what it rejects
FIELD_WORDS = ("sim.", "harness", "mechanism", "config", "alpha", "beta", "atom",
               "power_law", "psi", "jump", "Grey", "truncation_delta")


def _fuzz_run(tmp_path, capsys, command, edits, flags):
    from levyforest.cli import main

    obj = json.loads(json.dumps(TINY_VERIFY))
    for fld, val in edits:
        block = obj
        for key in fld[:-1]:
            block = block[key]
        block[fld[-1]] = val
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = main(command + ["--config", str(cfg), "--out", str(out), "--jobs", "1"] + flags)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    if code in (0, 4):
        for written in out.glob("*.json"):
            json.loads(written.read_text(), parse_constant=_no_constant)
    if code in (2, 3):
        message = err.strip().splitlines()[-1]
        assert message.startswith(("configuration error: ", "precondition violated: "))
        assert any(w in message for w in FIELD_WORDS), message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # NaN and inf inputs
@settings(max_examples=400, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(FUZZ_COMMANDS),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES)),
                      max_size=2),
       flags=st.lists(st.sampled_from([["--paths", "0"], ["--paths", "-3"], ["--paths", "1"],
                                       ["--paths", "3"], ["--dt", "0.7"], ["--dt", "0.02"],
                                       ["--dt", "0"], ["--seed", "-1"], ["--seed", "9"],
                                       ["--negative-control"]]),
                      max_size=2).map(lambda fs: [a for f in fs for a in f]))
@example(command=["verify", "ray-knight"], edits=[], flags=["--paths", "0"])
@example(command=["verify", "ray-knight"], edits=[], flags=["--dt", "0.7"])
@example(command=["verify", "ray-knight"], edits=[(("harness", "lambdas"), [1e160])], flags=[])
@example(command=["verify", "all"], flags=[],
         edits=[(("harness", "exponent_check", "lambdas"), [40.0])])
@example(command=["mechanism", "info"], flags=[], edits=[(("mechanism", "alpha"), float("inf"))])
@example(command=["mechanism", "info"], flags=[], edits=[(("mechanism", "beta"), float("inf"))])
@example(command=["verify", "poisson-marks"], flags=[], edits=[
    (("mechanism", "jumps"), BOUNDED_POWER_LAW["jumps"]), (("sim", "truncation_delta"), 0.05),
    (("harness", "boxes"), [{"a": [0.0, 0.5], "z": [0.0, 0.5], "u": [0.0, 0.5]}])])
@example(command=["verify", "poisson-marks"], flags=[], edits=[
    (("mechanism", "jumps"), BOUNDED_POWER_LAW["jumps"]), (("sim", "truncation_delta"), 0.05),
    (("harness", "boxes"), [{"a": [0.0, float("inf")], "z": [0.8, 1.2], "u": [0.0, 0.5]}])])
@example(command=["verify", "poisson-marks"], flags=[], edits=[
    (("mechanism", "jumps"), BOUNDED_POWER_LAW["jumps"]), (("sim", "truncation_delta"), 0.05),
    (("harness", "boxes"), [])])
def test_cli_runs_or_names_the_field(tmp_path, capsys, command, edits, flags):
    _fuzz_run(tmp_path, capsys, command, edits, flags)
