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

A flow over several initial masses x_1 < ... < x_k is built from independent
increment layers: Y_1 is a trajectory from x_1 and Y_j one from x_j - x_{j-1},
with X_i = Y_1 + ... + Y_i.  The flow in the initial mass has independent
increments, so this coupling has the right joint marginals while being
order-preserving by construction at every step (a shared-Gaussian Euler
coupling can flip the order near absorption, where the comparison-theorem
argument fails at finite step size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanism import BranchingMechanism
from .paths import SimConfig, path_stream, simulated_law, write_csv

__all__ = [
    "CBTrajectory",
    "FlowEnsemble",
    "simulate_cb",
    "simulate_flow",
    "cb_marginals",
    "CB_STREAM_BASE",
]

# stream-index namespace for branching simulations, disjoint from path indices
CB_STREAM_BASE = 1 << 40


@dataclass(frozen=True)
class CBTrajectory:
    dt: float
    values: np.ndarray
    x0: float
    jump_log: tuple[tuple[float, float], ...] = ()

    def grid_times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt

    def write_csv(self, fp) -> None:
        write_csv(fp, ["time", "value"], self.grid_times(), self.values)


@dataclass(frozen=True)
class FlowEnsemble:
    dt: float
    initial_masses: tuple[float, ...]
    values: np.ndarray              # shape (k, n+1), rows ordered like masses

    def grid_times(self) -> np.ndarray:
        return np.arange(self.values.shape[1]) * self.dt

    def write_csv(self, fp) -> None:
        k, n = self.values.shape
        write_csv(fp, ["time", "x0", "value"], np.tile(self.grid_times(), k),
                  np.repeat(self.initial_masses, n), self.values.ravel())


def simulate_cb(mech: BranchingMechanism, x: float, cfg: SimConfig, *,
                stream_index: int = 0) -> CBTrajectory:
    """One trajectory from initial mass x, with its applied-jump log."""
    if x < 0.0:
        raise ValueError("initial mass must be >= 0")
    rate, draw, comp, var_rate = simulated_law(mech, cfg)
    rng = path_stream(cfg.seed, CB_STREAM_BASE + stream_index)
    n = cfg.n_cells
    dt = cfg.dt
    sq = math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = x
    jump_log = []
    X = x
    for k in range(n):
        g = rng.standard_normal()
        step = X - (mech.alpha + comp) * X * dt + math.sqrt(var_rate * X) * sq * g
        if rate > 0.0 and X > 0.0:
            nj = int(rng.poisson(rate * X * dt))
            if nj:
                sizes = draw(rng, nj)
                step += float(sizes.sum())
                jump_log.extend(((k + 1) * dt, float(z)) for z in sizes)
        X = max(step, 0.0)
        out[k + 1] = X
    return CBTrajectory(dt=dt, values=out, x0=x, jump_log=tuple(jump_log))


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


def simulate_flow(mech: BranchingMechanism, xs, cfg: SimConfig) -> FlowEnsemble:
    """Coupled trajectories from ascending initial masses x_1 <= ... <= x_k:
    row i is the sum of the layer trajectories simulate_cb(x_j - x_{j-1})
    for j <= i, layer j on stream 2 + j."""
    xs = [float(v) for v in xs]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("initial masses must be ascending")
    if any(v < 0.0 for v in xs):
        raise ValueError("initial masses must be >= 0")
    layers = [xs[0]] + [b - a for a, b in zip(xs, xs[1:])]
    vals = np.cumsum([simulate_cb(mech, y, cfg, stream_index=2 + j).values
                      for j, y in enumerate(layers)], axis=0)
    return FlowEnsemble(dt=cfg.dt, initial_masses=tuple(xs), values=vals)
