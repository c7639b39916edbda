"""Branching-process simulation by explicit Euler steps of the driving noise.

One trajectory follows

    X_{t+dt} = max(0,  X_t - alpha*X_t*dt - c*X_t*dt
                      + sqrt(2*beta*X_t*dt)*G + sum of jumps)

where G is standard normal, jumps arrive at rate X_t * pi(delta, inf) with
sizes from the normalized tail of pi, and c = int_delta^inf z pi(dz) is the
compensator of the retained jumps.  Small jumps follow the same truncation
policy as the path simulator (dropped, or folded into the diffusion term).
The max(0, .) clamp absorbs the explicit scheme at zero, matching the
boundary behavior of the branching process.

Two kernels run the same scheme.  simulate_cb is a scalar loop that keeps
every grid value of one trajectory (simulate cb writes it); cb_marginals
steps a batch of trajectories as arrays and keeps only the requested times
(the ray-knight suite's branching batch).  One kernel would be the slower
one: on the default config's 120 000 steps (2-vCPU Xeon VM) the scalar loop
takes about 0.1 s and cb_marginals(m_paths=1) read at every grid time
0.8-1.3 s, and as the batch kernel keys its own stream, cb.csv would change
too.
"""

from __future__ import annotations

import math

import numpy as np

from .mechanism import BranchingMechanism
from .paths import SimConfig, path_stream, simulated_law

__all__ = [
    "simulate_cb",
    "cb_marginals",
    "CB_STREAM_BASE",
]

# stream-index namespace for branching simulations, disjoint from path indices
CB_STREAM_BASE = 1 << 40


def simulate_cb(mech: BranchingMechanism, x: float, cfg: SimConfig, *,
                stream_index: int = 0) -> np.ndarray:
    """One trajectory from initial mass x: its values at the grid times
    k * cfg.dt, k = 0..n_cells."""
    if x < 0.0:
        raise ValueError("initial mass must be >= 0")
    rate, draw, comp, var_rate = simulated_law(mech, cfg)
    rng = path_stream(cfg.seed, CB_STREAM_BASE + stream_index)
    n = cfg.n_cells
    dt = cfg.dt
    sq = math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = x
    X = x
    for k in range(n):
        g = rng.standard_normal()
        step = X - (mech.alpha + comp) * X * dt + math.sqrt(var_rate * X) * sq * g
        if rate > 0.0 and X > 0.0:
            nj = int(rng.poisson(rate * X * dt))
            if nj:
                step += float(draw(rng, nj).sum())
        X = max(step, 0.0)
        out[k + 1] = X
    return out


def cb_marginals(mech: BranchingMechanism, x: float, cfg: SimConfig, m_paths: int,
                 times: list[float], *, stream_index: int = 0) -> dict[float, np.ndarray]:
    """Vectorized batch of trajectories; returns the state at the requested
    grid times across all paths (the Monte Carlo workhorse)."""
    rate, draw, comp, var_rate = simulated_law(mech, cfg)
    rng = path_stream(cfg.seed, CB_STREAM_BASE + 1 + stream_index)
    dt = cfg.dt
    sq = math.sqrt(dt)
    targets = {int(round(t / dt)): t for t in times}
    n = max(targets) if targets else 0
    X = np.full(m_paths, float(x))
    out: dict[float, np.ndarray] = {}
    if 0 in targets:
        out[targets[0]] = X.copy()
    for k in range(1, n + 1):
        g = rng.standard_normal(m_paths)
        step = X - (mech.alpha + comp) * X * dt + np.sqrt(var_rate * X) * sq * g
        if rate > 0.0:
            nj = rng.poisson(rate * X * dt)
            tot = int(nj.sum())
            if tot:
                sizes = draw(rng, tot)
                step = step + np.bincount(np.repeat(np.arange(m_paths), nj),
                                          weights=sizes, minlength=m_paths)
        X = np.maximum(step, 0.0)
        if k in targets:
            out[targets[k]] = X.copy()
    return out

