"""One workload in its own process: timed verify rounds, then the checks.

Run by run.py as

    python3 perfbench/measure.py --workload NAME --bench-seed N --seconds S
        --trace 0|1 --config CFG.json --out DIR --src SRC

It calls levyforest.cli.main in-process on the generated config, round after
round until S seconds have passed (at least one round), and prints one JSON
object: the wall and CPU time of each round, peak resident memory, suite
counts, check failures and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

EXPECTED_CODES = (0, 4)     # 4: the report was written and holds a FAIL cell
LADDER = (0.1, 0.03, 0.01, 0.003)


def _round(cli, argv):
    """One CLI call; returns (wall_s, cpu_s, exit code or None, error)."""
    sink = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, err = cli.main(argv), ""
    except (Exception, SystemExit) as exc:      # a crash is counted, not raised
        code, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, time.process_time() - c0, code, err


def engine_ladder(cfg: dict, bench_seed: int) -> dict[str, float]:
    """Both height engines on one power-law path per truncation level
    (horizon 4, dt 2.5e-4), with the path's jump count."""
    from levyforest.config import run_config_from_dict
    from levyforest.exploration import height_trajectory
    from levyforest.paths import SimConfig, sample_path

    mech = run_config_from_dict(cfg).mechanism
    out = {}
    for d in LADDER:
        sim = SimConfig(dt=2.5e-4, horizon=4.0, truncation_delta=d,
                        small_jump_mode=cfg["sim"]["small_jump_mode"], seed=bench_seed)
        path = sample_path(mech, sim, path_index=0)
        out[f"exploration.jumps.d{d:g}"] = float(len(path.jumps))
        for engine in ("scan", "stack"):
            times = []
            while len(times) < 3 and sum(times) < 1.0:
                t0 = time.perf_counter()
                height_trajectory(path, engine=engine)
                times.append(time.perf_counter() - t0)
            out[f"exploration.height_ms.{engine}.d{d:g}"] = sorted(times)[len(times) // 2] * 1e3
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--bench-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from levyforest import cli

    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    with open(args.config, encoding="utf-8") as fp:
        cfg = json.load(fp)
    argv = wl.argv(args.config, args.out)
    report_path = os.path.join(args.out, wl.report_name)
    live = sum(1 for _, skipped in wl.expected_suites() if not skipped)

    rounds, layer_rounds, errors = [], [], []
    attempted = failed = stat_failed = 0
    first_digest = first_report = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        if os.path.exists(report_path):
            os.remove(report_path)
        gc.collect()
        tracer = spans.Tracer() if args.trace else None
        restore = spans.install(tracer) if tracer else None
        try:
            wall, cpu, code, err = _round(cli, argv)
        finally:
            if restore:
                restore()
        rounds.append({"wall_s": wall, "cpu_s": cpu, "code": code})
        if code not in EXPECTED_CODES or not os.path.exists(report_path):
            attempted += live
            failed += live
            errors.append(f"round {len(rounds)}: exit {code} {err}".strip())
            continue
        with open(report_path, "rb") as fp:
            raw = fp.read()
        digest = hashlib.sha256(raw).hexdigest()
        if first_digest is None:
            first_digest, first_report = digest, json.loads(raw)
        elif digest != first_digest:
            errors.append(f"round {len(rounds)}: report differs from round 1")
        for r in json.loads(raw)["reports"]:
            if not r["skipped"]:
                attempted += 1
                stat_failed += not r["pass"]
        if tracer:
            layer_rounds.append(spans.summarize(tracer, wall, wl.jobs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks       # after the peak is read: scipy.integrate alone is ~20 MB
    if first_report is not None:
        errors += checks.check_report(first_report, cfg, wl.expected_suites())
        errors += checks.check_pathwise(cfg, wl.suite, args.bench_seed)

    layers = None
    if layer_rounds:
        layers = {k: sum(r[k] for r in layer_rounds) / len(layer_rounds)
                  for k in layer_rounds[0]}
        ladder = engine_ladder(cfg, args.bench_seed) if wl.name == "rk-powerlaw" else {
            f"exploration.{kind}.d{d:g}": 0.0 for d in LADDER
            for kind in ("jumps", "height_ms.scan", "height_ms.stack")}
        layers.update(ladder)

    print(json.dumps({
        "rounds": rounds, "peak_rss_mb": peak_rss_mb, "errors": errors,
        "suites_attempted": attempted, "suites_failed": failed,
        "suites_stat_failed": stat_failed, "report_sha256": first_digest,
        "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
