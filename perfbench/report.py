"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload it runs run.py twice, untraced (--trace 0) and traced
(--trace 1), prints one line per metric (workload, name, value, unit) and
the tracing overhead, taken as traced minus untraced verdict_s.  It exits 1
if any run fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(name: str, seed: int | None, seconds: float, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if res.returncode != 0:
        raise RuntimeError(f"{name} --trace {trace} exited {res.returncode}: {res.stderr[-800:]}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def median_verdict(info: str) -> float:
    walls = [float(v) for v in re.search(r"verdict_s per round ([\d. ]+),", info).group(1).split()]
    walls.sort()
    mid = len(walls) // 2
    return walls[mid] if len(walls) % 2 else (walls[mid - 1] + walls[mid]) / 2


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for name in args.workload:
        untraced, info0 = run(name, args.seed, args.seconds, 0)
        traced, info1 = run(name, args.seed, args.seconds, 1)
        for res, info in ((untraced, info0), (traced, info1)):
            print(info)
            print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, "
                  f"failed {res['failed']}")
            ok &= res["correct"] and not res["failed"]
            for key, m in res["metrics"].items():
                print(f"{name:14s} {key:44s} {m['value']:14.6g} {m['unit']}")
        t0, t1 = median_verdict(info0), median_verdict(info1)
        print(f"{name:14s} {'tracing overhead (traced - untraced verdict_s)':44s} "
              f"{t1 - t0:14.6g} s ({(t1 - t0) / t0:+.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
