"""Benchmark entry point for the levyforest verification lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from its
src/ directory; nothing needs building).  It writes the workload's config,
times set-up in fresh interpreters, runs the workload in its own process
(measure.py) and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
gives the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run.  --workload-seed overrides the seed the program receives.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0

# set-up as a user pays it: a fresh interpreter imports the CLI and loads
# and validates the config
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import levyforest.cli
t1 = time.perf_counter()
levyforest.cli.load_run_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


def measure_setup(config_path: Path, deadline: float) -> tuple[float, float, float]:
    """Medians of (import + load, import, load) over SETUP_REPEATS interpreters,
    after one untimed interpreter that warms the file cache."""
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=max(1.0, deadline - time.monotonic()))
        if res.returncode != 0:
            raise RuntimeError(f"set-up failed: {res.stderr.strip()[-400:]}")
        runs.append(json.loads(res.stdout.strip().splitlines()[-1]))
    runs = runs[1:]
    med = lambda key: statistics.median(key(r) for r in runs)
    return (med(lambda r: r["import_s"] + r["load_s"]),
            med(lambda r: r["import_s"]), med(lambda r: r["load_s"]))


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="benchmark seed (default: the workload's seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=None,
                    help="seed handed to the program, for checks on other seeds")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "levyforest" / "__init__.py").is_file():
        print(f"error: no levyforest sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    bench_seed = wl.default_seed if args.seed is None else args.seed
    program_seed = wl.program_seed(bench_seed, args.workload_seed)
    out = OUT / f"{wl.name}-s{bench_seed}-p{program_seed}-t{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    cfg = wl.config(program_seed)
    config_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")

    try:
        setup_s, import_s, load_s = measure_setup(config_path, deadline)
        res = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), "--workload", wl.name,
             "--bench-seed", str(bench_seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--config", str(config_path),
             "--out", str(out / "report"), "--src", str(SRC)],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if res.returncode != 0:
        print(f"error: workload process exited {res.returncode}:\n{res.stderr[-2000:]}",
              file=sys.stderr)
        return 1
    m = json.loads(res.stdout.strip().splitlines()[-1])

    walls = [r["wall_s"] for r in m["rounds"]]
    cpus = [r["cpu_s"] for r in m["rounds"]]
    for err in m["errors"]:
        print(f"check failed: {err}")
    print(f"workload {wl.name}: program seed {program_seed}, {len(walls)} rounds, "
          f"suites attempted {m['suites_attempted']}, failed {m['suites_failed']}, "
          f"statistical FAIL {m['suites_stat_failed']}; "
          f"{'traced ' if args.trace else ''}verdict_s per round "
          f"{' '.join(f'{w:.3f}' for w in walls)}, cpu_s {' '.join(f'{c:.3f}' for c in cpus)}")

    if args.trace:
        layers = dict(m["layers"] or {})
        layers["config.load_s"] = load_s
        layers["cli.import_s"] = import_s
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": not m["errors"], "attempted": m["suites_attempted"],
                      "failed": m["suites_failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_us"):
        return "us"
    if last.endswith("_s"):
        return "s"
    if ".height_ms." in name:
        return "ms"
    if last.endswith("_ratio") or name == "paths.kept_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
