"""Spans around the calls the verify and cli modules make into each layer.

install() replaces the names verify and cli look up (and the flow method of
BranchingMechanism) with wrappers that record one span per call: name,
start, end, thread and parent.  Spans stay in memory; summarize() turns the
spans of one verify run into the per-layer metrics.  A worker thread has no
open span of its own, so its spans are parented to the suite that is running.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from workloads import ALL_SUITES

# (module attribute, span name) pairs wrapped in levyforest.verify
VERIFY_LAYERS = (
    ("sample_path", "paths.sample_path"),
    ("coarsen_path", "paths.coarsen_path"),
    ("build_nodes", "paths.build_nodes"),
    ("truncate_at_level", "paths.truncate_at_level"),
    ("scan_height", "exploration.scan_height"),
    ("running_local_time", "local_time.running_local_time"),
    ("occupation_profile", "local_time.occupation_profile"),
    ("tanaka_local_time", "local_time.tanaka_local_time"),
    ("cb_marginals", "cb_flow.cb_marginals"),
)
# layers reported with a p95 (they run at least 200 times where they matter)
P95_LAYERS = ("paths.sample_path", "exploration.scan_height")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sample_keys: list[tuple] = []
        self.truncations: list[tuple[int, int]] = []    # (nodes in, nodes kept)
        self.scanned: list[tuple[int, int]] = []        # (nodes, jumps)
        self.cb_steps: list[int] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._suite: int | None = None

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, after=None, is_suite=False):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._suite
            sid = next(self._ids)
            span_name = f"verify.{args[0]}" if is_suite else name
            stack.append(sid)
            if is_suite:
                self._suite = sid
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_suite:
                    self._suite = None
                self.spans.append(Span(sid, span_name, t0, t1,
                                       threading.get_ident(), parent))
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    # -- counters taken at the same boundaries ------------------------------

    def _after_sample(self, args, kwargs, out):
        self.sample_keys.append((args[1].seed, kwargs.get("path_index", 0), args[1].dt))

    def _after_truncate(self, args, kwargs, out):
        self.truncations.append((len(args[0]), 0 if out is None else len(out[0])))

    def _after_scan(self, args, kwargs, out):
        self.scanned.append((len(args[0]), len(args[0].jump_post)))

    def _after_cb(self, args, kwargs, out):
        dt = args[2].dt
        times = args[4] if len(args) > 4 else kwargs["times"]
        self.cb_steps.append(max((int(round(t / dt)) for t in times), default=0))


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function that restores them."""
    from levyforest import cli, verify
    from levyforest.mechanism import BranchingMechanism

    after = {"paths.sample_path": tracer._after_sample,
             "paths.truncate_at_level": tracer._after_truncate,
             "exploration.scan_height": tracer._after_scan,
             "cb_flow.cb_marginals": tracer._after_cb}
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for attr, name in VERIFY_LAYERS:
        patch(verify, attr, tracer.wrap(name, getattr(verify, attr), after.get(name)))
    patch(verify, "run_suite", tracer.wrap("", verify.run_suite, is_suite=True))
    patch(cli, "run_suite", tracer.wrap("", cli.run_suite, is_suite=True))
    patch(BranchingMechanism, "v", tracer.wrap("mechanism.v", BranchingMechanism.v))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return restore


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def summarize(tracer: Tracer, wall_s: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced verify run of wall time wall_s."""
    by_name: dict[str, list[float]] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp.end - sp.start)
    out: dict[str, float] = {}
    for _, name in VERIFY_LAYERS + (("v", "mechanism.v"),):
        durs = np.array(by_name.get(name, []))
        out[f"{name}.calls"] = float(len(durs))
        out[f"{name}.total_s"] = float(durs.sum())
        out[f"{name}.p50_us"] = float(np.median(durs) * 1e6) if len(durs) else 0.0
        if name in P95_LAYERS:
            out[f"{name}.p95_us"] = (float(np.percentile(durs, 95) * 1e6)
                                     if len(durs) >= 200 else 0.0)
    keys = tracer.sample_keys
    out["paths.sample_path.dup_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    n_in = sum(a for a, _ in tracer.truncations)
    out["paths.kept_ratio"] = sum(b for _, b in tracer.truncations) / n_in if n_in else 0.0
    nodes = np.array([n for n, _ in tracer.scanned], dtype=float)
    jumps = np.array([j for _, j in tracer.scanned], dtype=float)
    out["paths.nodes_per_path"] = float(nodes.mean()) if len(nodes) else 0.0
    out["paths.jumps_per_path.mean"] = float(jumps.mean()) if len(jumps) else 0.0
    out["paths.jumps_per_path.max"] = float(jumps.max()) if len(jumps) else 0.0
    out["cb_flow.cb_marginals.steps"] = float(sum(tracer.cb_steps))

    suites = {sp.sid: sp for sp in tracer.spans if sp.name[len("verify."):] in ALL_SUITES}
    children: dict[int, list[tuple[float, float]]] = {sid: [] for sid in suites}
    for sp in tracer.spans:
        if sp.parent in children:
            children[sp.parent].append((sp.start, sp.end))
    for s in ALL_SUITES:
        out[f"verify.{s}.wall_s"] = sum(sp.end - sp.start for sp in suites.values()
                                        if sp.name == f"verify.{s}")
    out["verify.self_s"] = sum(sp.end - sp.start - _covered(children[sid])
                               for sid, sp in suites.items())
    busy = sum(e - s for iv in children.values() for s, e in iv)
    out["verify.worker_busy_ratio"] = busy / (jobs * wall_s) if wall_s > 0 else 0.0
    return out
