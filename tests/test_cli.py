import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "levyforest.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


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
    ("exponent_check", "paths", 2.5), ("poisson", "horizon", 0.0)])
def test_bad_per_suite_size_exits_2(tmp_path, block, field, value):
    cfg = write_cfg(tmp_path, "c.json", {"harness": {block: {field: value}}})
    r = run_cli("mechanism", "info", "--config", cfg)
    assert r.returncode == 2
    assert f"harness.{block}.{field}" in r.stderr
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


def test_jump_free_config_does_not_load_scipy(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", SMALL_VERIFY)
    code = ("import sys, levyforest.cli; levyforest.cli.load_run_config(sys.argv[1]); "
            "print('scipy' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


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
