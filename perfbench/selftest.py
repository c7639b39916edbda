"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs rk-powerlaw once and all-feller-j2 at --jobs 2 and --jobs 1 at their
default seeds, then shows that:

* the two all-feller-j2 reports are byte-identical;
* every check passes on the unperturbed outputs;
* each check rejects a deliberately perturbed output: an oracle off by
  1e-6 relative, a missing cell or suite, a non-finite stat, a plus/minus
  gap or discard rate over its limit, a stat pushed just outside six
  standard errors plus its budget, and a height, profile or running local
  time scaled by 1 + 1e-6.

Exits 0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench_out" / "selftest"
failures: list[str] = []


def expect(label: str, errs: list[str], should_fail: bool) -> None:
    ok = bool(errs) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}: "
          f"{'rejected' if errs else 'accepted'}{' (' + errs[0] + ')' if errs else ''}")
    if not ok:
        failures.append(label)


def run_report(name: str, jobs: int | None = None) -> tuple[bytes, dict]:
    from levyforest import cli

    wl = WORKLOADS[name]
    out = OUT / f"{name}-j{jobs or wl.jobs}"
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(wl.config(wl.default_seed)), encoding="utf-8")
    argv = wl.argv(str(cfg_path), str(out))
    if jobs is not None:
        argv[argv.index("--jobs") + 1] = str(jobs)
    t0 = time.perf_counter()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    raw = (out / wl.report_name).read_bytes()
    print(f"ran {name} --jobs {jobs or wl.jobs}: exit {code}, {time.perf_counter() - t0:.2f} s")
    return raw, json.loads(raw)


def cells_of(report: dict):
    for r in report["reports"]:
        for c in r["cells"]:
            yield r, c


def perturbed(report: dict, pick, change) -> dict:
    """A copy of report with change(r, c) applied to the first cell pick accepts."""
    rep = copy.deepcopy(report)
    for r, c in cells_of(rep):
        if pick(r, c):
            change(r, c)
            return rep
    raise LookupError("no cell to perturb")


def report_cases(name: str, report: dict, cfg: dict) -> None:
    wl = WORKLOADS[name]
    suites = wl.expected_suites()
    expect(f"{name}: unperturbed report", checks.check_report(report, cfg, suites), False)

    oracles = checks.oracles(cfg)
    names = sorted({c["name"] for _, c in cells_of(report)})
    for cell_name in names:
        def pick(r, c, n=cell_name):
            return c["name"] == n

        def off(r, c):
            c["oracle"] = c["oracle"] * (1 + 1e-6) if c["oracle"] else 1e-6
        expect(f"{name}: (a) oracle of {cell_name} off by 1e-6",
               checks.check_oracles(perturbed(report, pick, off), cfg), True)
        if checks.cell_budget(cell_name, cfg) is not None:
            def outside(r, c):
                want, limit = checks.statistic_bounds(r["check"], c, r["cells"], cfg, *oracles)
                c["stat"] = want + 1.001 * limit + 1e-12
            expect(f"{name}: (d) {cell_name} just outside 6 se + budget",
                   checks.check_statistics(perturbed(report, pick, outside), cfg), True)

    first = next(r for r in report["reports"] if not r["skipped"])
    cases = {
        "(c) missing cell": lambda rep: rep["reports"][report["reports"].index(first)]["cells"].pop(),
        "(c) missing suite": lambda rep: rep["reports"].pop(),
        "(c) non-finite stat": lambda rep: rep["reports"][report["reports"].index(first)]
        ["cells"][0].update(stat=float("nan")),
        "(c) discard rate over 5%": lambda rep: rep["reports"][report["reports"].index(first)]
        .update(discarded=int(0.06 * first["M"]) + 1),
    }
    for label, change in cases.items():
        rep = copy.deepcopy(report)
        change(rep)
        expect(f"{name}: {label}", checks.check_complete(rep, cfg, suites), True)
    if any(c["name"] == "plus_minus_pathwise" for _, c in cells_of(report)):
        rep = perturbed(report, lambda r, c: c["name"] == "plus_minus_pathwise",
                        lambda r, c: c.update(stat=2e-9))
        expect(f"{name}: (c) plus/minus gap 2e-9", checks.check_complete(rep, cfg, suites), True)


def pathwise_cases(name: str, cfg: dict) -> None:
    wl = WORKLOADS[name]
    main = "noise" if wl.suite == "noise" else "ray-knight"
    inputs = checks.pathwise_inputs(cfg, main, checks.subsample_indices(wl.default_seed, 150)[0])
    expect(f"{name}: (b) unperturbed path", checks.compare_pathwise(name, **inputs), False)
    for key, label in (("stack_grid", "height"), ("profile", "occupation profile"),
                       ("running", "running local time")):
        bad = dict(inputs, **{key: inputs[key] * (1 + 1e-6)})
        expect(f"{name}: (b) {label} scaled by 1+1e-6", checks.compare_pathwise(name, **bad), True)


def main() -> int:
    raw2, all2 = run_report("all-feller-j2")
    raw1, _ = run_report("all-feller-j2", jobs=1)
    expect("all-feller-j2: --jobs 2 report byte-identical to --jobs 1",
           [] if raw1 == raw2 else ["reports differ"], False)
    _, rk = run_report("rk-powerlaw")
    for name, report in (("all-feller-j2", all2), ("rk-powerlaw", rk)):
        cfg = WORKLOADS[name].config(WORKLOADS[name].default_seed)
        report_cases(name, report, cfg)
    for name in WORKLOADS:
        pathwise_cases(name, WORKLOADS[name].config(WORKLOADS[name].default_seed))
    print(f"{len(failures)} self-test case(s) failed" if failures else "all self-test cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
