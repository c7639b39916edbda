"""Command-line front end.

Commands:

    levyforest mechanism info   --config cfg.json
    levyforest simulate levy    --config cfg.json --out DIR
    levyforest simulate cb      --config cfg.json --out DIR
    levyforest simulate height  --config cfg.json --out DIR
    levyforest verify SUITE     --config cfg.json --out DIR
        SUITE in {ray-knight, theorem1, tanaka, noise, poisson-marks,
                  reflected, example, all}

Exit codes: 0 success, 2 configuration error, 3 precondition violation,
4 statistical check failure.  All outputs are deterministic functions of
(config, seed); --jobs only changes scheduling, never results, and no
timing information enters any output file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .cb_flow import simulate_cb
from .config import RunConfig, load_run_config
from .errors import ConfigurationError, PreconditionError
from .exploration import scan_height
from .local_time import default_level_width, level_bins, running_local_time
from .paths import build_nodes, sample_path, write_csv
from .verify import SUITES, keep_heap_resident, run_all, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CHECK_FAILED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyforest",
        description="simulation and verification lab for branching genealogies")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON run config")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override sim.seed")
    common.add_argument("--paths", type=int, default=None,
                        help="override harness.paths: the ray-knight ensemble and its "
                             "branching batch (per-suite blocks keep their own paths)")
    common.add_argument("--dt", type=float, default=None,
                        help="override sim.dt: the grid of simulate and of ray-knight "
                             "(per-suite blocks and the dts ladder keep their own steps)")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker processes for verify (default 1: run in this "
                             "process; results are jobs-independent)")
    common.add_argument("--negative-control", action="store_true",
                        help="perturb the oracle drift by +0.3 (must fail)")

    sub = parser.add_subparsers(dest="command", required=True)

    mech_p = sub.add_parser("mechanism", help="mechanism calculus")
    mech_sub = mech_p.add_subparsers(dest="mech_command", required=True)
    mech_sub.add_parser("info", parents=[common],
                        help="print psi table, Grey verdict, flow table")

    sim_p = sub.add_parser("simulate", parents=[common], help="write CSV samples")
    sim_p.add_argument("kind", choices=["levy", "cb", "height"])

    ver_p = sub.add_parser("verify", parents=[common], help="run statistical suites")
    ver_p.add_argument("suite", choices=list(SUITES) + ["all"])
    return parser


def _overrides(args) -> dict:
    """The config fields the flags replace, checked with the rest of the
    config."""
    fields = {"sim.seed": args.seed, "sim.dt": args.dt, "harness.paths": args.paths,
              "harness.oracle_alpha_offset": 0.3 if args.negative_control else None}
    return {name: val for name, val in fields.items() if val is not None}


def _out_dir(run: RunConfig, args) -> str:
    out = args.out or run.harness["out_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_sidecar(out: str, name: str, run: RunConfig) -> None:
    with open(os.path.join(out, f"{name}.config.json"), "w", encoding="utf-8") as fp:
        json.dump(run.to_dict(), fp, sort_keys=True, indent=2, allow_nan=False)
        fp.write("\n")


def _cmd_mechanism_info(run: RunConfig) -> int:
    mech = run.mechanism
    lambdas = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    times = [0.1, 0.25, 0.5, 1.0, 2.0]
    info = {
        "grey_condition": mech.grey_holds(),
        "psi": {str(l): mech.psi(l) for l in lambdas},
        "flow_v": {str(t): {str(l): mech.v(t, l) for l in lambdas[1:]}
                   for t in times},
    }
    json.dump(info, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _csv(out: str, name: str, write, *args) -> None:
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fp:
        write(fp, *args)


def _cmd_simulate(run: RunConfig, kind: str, out: str) -> int:
    mech, cfg = run.mechanism, run.sim
    if kind == "cb":
        values = simulate_cb(mech, run.harness["x"], cfg)
        _csv(out, "cb.csv", write_csv, ["time", "value"],
             np.arange(len(values)) * cfg.dt, values)
        _write_sidecar(out, "cb", run)
        return EXIT_OK
    path = sample_path(mech, cfg)
    if kind == "levy":
        _csv(out, "path.csv", write_csv, ["time", "value"], path.grid_times(), path.values)
        j = path.jumps
        _csv(out, "jumps.csv", write_csv, ["time", "size", "pre_value"],
             j.times, j.sizes, j.pre_values)
        _write_sidecar(out, "path", run)
        return EXIT_OK
    # kind == "height"; scan_height rejects a path without a diffusion part
    nodes = build_nodes(path)
    sc = scan_height(nodes, path.beta_eff)
    _csv(out, "height.csv", write_csv, ["time", "height"], path.grid_times(),
         sc.grid_height())
    # one row per vertex above 0: its bin's left edge and L_s(H_s) before it
    width = default_level_width(cfg.dt, path.beta_eff)
    lb = level_bins(nodes.times, sc.height, width)
    running = running_local_time(nodes.times, sc.height, width, binned=lb)
    up = lb.key > 0
    _csv(out, "local_time.csv", write_csv, ["time", "level", "local_time"],
         nodes.times[up], (lb.key[up] - 1) * width, running[up])
    _write_sidecar(out, "height", run)
    return EXIT_OK


def _cmd_verify(run: RunConfig, suite: str, out: str, jobs: int) -> int:
    mech, cfg, harness = run.mechanism, run.sim, run.harness
    if suite == "all":
        reports = run_all(mech, cfg, harness, jobs=jobs)
    else:
        reports = [run_suite(suite, mech, cfg, harness, jobs=jobs)]
    payload = {"reports": [r.to_dict() for r in reports]}
    payload["pass"] = all(r.passed for r in reports)
    report_path = os.path.join(out, f"verify_{suite}.json")
    with open(report_path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True, indent=2, allow_nan=False)
        fp.write("\n")
    for r in reports:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        line = f"{status} {r.check}"
        if r.skipped:
            line += f" ({r.reason})"
        else:
            failed = [c.name for c in r.cells if not c.passed]
            if failed:
                line += " [" + ", ".join(sorted(set(failed))) + "]"
        print(line)
    print(f"report: {report_path}")
    return EXIT_OK if payload["pass"] else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    keep_heap_resident()
    try:
        if args.jobs < 1:
            raise ConfigurationError("--jobs: must be >= 1")
        run = load_run_config(args.config, _overrides(args))
        if args.command == "mechanism":
            return _cmd_mechanism_info(run)
        out = _out_dir(run, args)
        t0 = time.time()
        if args.command == "simulate":
            code = _cmd_simulate(run, args.kind, out)
        else:
            code = _cmd_verify(run, args.suite, out, args.jobs)
        print(f"elapsed: {time.time() - t0:.1f}s", file=sys.stderr)
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
