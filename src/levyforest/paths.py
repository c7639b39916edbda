"""Grid simulation of spectrally positive Levy processes.

A path is driven by three stored components that reconstruct the value array
bit-exactly: a constant drift (the mechanism drift plus the compensator of
retained jumps), a single Gaussian coefficient times standard Brownian grid
increments, and an explicit list of jumps (exact in-cell times, sizes and
pre-jump values).  Jumps smaller than the truncation cutoff are either
dropped (their compensated sum is mean zero) or folded into the Gaussian
coefficient as an extra variance rate, so a simulated path is an exact draw
from the truncated mechanism.

Per-path randomness comes from counter-based streams keyed on
(seed, path_index), which makes Monte Carlo runs reproducible independently
of batching or worker count.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .mechanism import BranchingMechanism

__all__ = [
    "SimConfig",
    "simulated_law",
    "JumpSet",
    "LevyPath",
    "Nodes",
    "path_stream",
    "sample_path",
    "coarsen_path",
    "time_reverse",
    "node_weights",
    "build_nodes",
    "node_prefix",
    "truncate_at_level",
    "sim_config_from_config",
    "sim_config_to_config",
    "grid_step",
    "write_csv",
]

_SMALL_JUMP_MODES = ("drop_compensated", "gaussian_correction")

# jump positions inside a cell live on a dyadic lattice so that the mirror
# map frac -> 1 - frac is exact in floating point (time reversal must be an
# involution bit for bit)
_FRAC_LATTICE = 2 ** 20


@dataclass(frozen=True)
class SimConfig:
    """Grid-simulation settings shared by the Levy and branching simulators."""

    dt: float
    horizon: float
    truncation_delta: float = 0.0
    small_jump_mode: str = "drop_compensated"
    seed: int = 0

    def __post_init__(self):
        for name in ("dt", "horizon", "truncation_delta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"sim.{name} must be finite")
        if not self.dt > 0.0:
            raise ConfigurationError("sim.dt must be > 0")
        if not self.horizon > self.dt:
            raise ConfigurationError("sim.horizon must exceed sim.dt")
        if self.truncation_delta < 0.0:
            raise ConfigurationError("sim.truncation_delta must be >= 0")
        if self.small_jump_mode not in _SMALL_JUMP_MODES:
            raise ConfigurationError(
                f"sim.small_jump_mode must be one of {_SMALL_JUMP_MODES}")
        # path_stream keys on 64 bits: a seed outside them would alias another
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or not 0 <= self.seed < 2 ** 64):
            raise ConfigurationError("sim.seed must be an integer in [0, 2^64)")

    @property
    def n_cells(self) -> int:
        return int(round(self.horizon / self.dt))


def simulated_law(mech: BranchingMechanism, cfg: SimConfig):
    """What cfg simulates of mech: (rate, draw, compensator, variance rate).

    Jumps above truncation_delta arrive at rate with sizes from draw(rng, n)
    and are compensated by compensator = int_delta^inf z pi(dz).  Smaller
    jumps are dropped, or folded into the diffusion as their variance
    int_0^delta z^2 pi(dz) under "gaussian_correction" (Asmussen-Rosinski),
    so variance rate = 2*beta plus that when folded.  Resolved once per
    (mech, truncation_delta, small_jump_mode) and shared by every path.
    """
    return _law(mech, cfg.truncation_delta, cfg.small_jump_mode)


@functools.lru_cache(maxsize=64)
def _law(mech: BranchingMechanism, delta: float, small_jump_mode: str):
    rate, draw = mech.jumps.sampler_above(delta)
    comp = mech.jumps.moment(1, delta)
    var_rate = 2.0 * mech.beta
    if small_jump_mode == "gaussian_correction":
        var_rate += mech.jumps.moment(2, 0.0, delta)
    return rate, draw, comp, var_rate


def sim_config_from_config(obj: dict) -> SimConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError("sim: expected a JSON object")
    kwargs = {"seed": obj["seed"]} if "seed" in obj else {}     # SimConfig checks it
    for name, caster in (("dt", float), ("horizon", float),
                         ("truncation_delta", float), ("small_jump_mode", str)):
        if name in obj:
            try:
                kwargs[name] = caster(obj[name])
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(f"sim.{name}: expected {caster.__name__}") from None
    for name in ("dt", "horizon"):
        if name not in kwargs:
            raise ConfigurationError(f"sim.{name}: missing")
    return SimConfig(**kwargs)


def sim_config_to_config(cfg: SimConfig) -> dict:
    return {
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "truncation_delta": cfg.truncation_delta,
        "small_jump_mode": cfg.small_jump_mode,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

_THREAD = threading.local()
_ZERO4 = np.zeros(4, dtype=np.uint64)


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one path; distinct (seed, index) never collide.

    The stream is the one of Generator(Philox(key=[seed, index])), but the
    generator is this thread's single Philox, re-keyed in place with a zero
    counter and an empty buffer: a new Philox first draws an OS-entropy
    SeedSequence that the key then overrides.  So the generator is valid
    until this thread's next call.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _ZERO4, "key": key},
                               "buffer": _ZERO4, "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return rng


# ---------------------------------------------------------------------------
# path containers
# ---------------------------------------------------------------------------

_EMPTY = np.empty(0)
_NO_CELLS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class JumpSet:
    """Retained jumps with exact in-cell placement, in (cell, frac) order."""

    times: np.ndarray = field(default_factory=lambda: _EMPTY)
    sizes: np.ndarray = field(default_factory=lambda: _EMPTY)
    pre_values: np.ndarray = field(default_factory=lambda: _EMPTY)
    cells: np.ndarray = field(default_factory=lambda: _NO_CELLS)
    fracs: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class LevyPath:
    """One discretized sample path; values[k] is the post-jump state at k*dt."""

    dt: float
    values: np.ndarray
    brownian_increments: np.ndarray
    jumps: JumpSet
    applied_drift: float
    gaussian_coeff: float

    @property
    def n_cells(self) -> int:
        return len(self.brownian_increments)

    @property
    def horizon(self) -> float:
        return self.n_cells * self.dt

    @property
    def beta_eff(self) -> float:
        """Diffusion coefficient of the effective (truncated) mechanism."""
        return 0.5 * self.gaussian_coeff ** 2

    def grid_times(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.dt


# ---------------------------------------------------------------------------
# node sequences: grid points plus pre/post jump points, in time order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nodes:
    """Piecewise-linear view of a path: every vertex the path passes through.

    Between consecutive nodes the path is linear, except for a pre -> post
    pair at a jump time (zero duration, vertical rise).  Minima, suprema,
    occupation weights and stochastic-integral sums all reduce to array
    operations on these vertices.
    """

    times: np.ndarray
    values: np.ndarray
    jump_post: np.ndarray      # node index of each jump's post vertex
    jump_sizes: np.ndarray
    grid_index: np.ndarray     # node indices of the grid vertices

    def __len__(self) -> int:
        return len(self.times)

    def piece_is_jump(self) -> np.ndarray:
        """Boolean per piece (node i -> i+1): True for the pre -> post rise."""
        is_jump = np.zeros(len(self.times) - 1, dtype=bool)
        is_jump[self.jump_post - 1] = True
        return is_jump


def node_weights(times: np.ndarray) -> np.ndarray:
    """Time from each node to the next (0 for the last node): the left-point
    occupation weight of every vertex."""
    w = np.empty(len(times))
    np.subtract(times[1:], times[:-1], out=w[:-1])
    w[-1] = 0.0
    return w


def build_nodes(path: LevyPath) -> Nodes:
    """Vertices in time order.  Jumps come sorted by (cell, frac), so jump j
    has 2j jump vertices and cells[j] + 1 grid vertices before it: its pre
    vertex sits at cells[j] + 1 + 2j and its post vertex right after, also
    when several jumps share one instant."""
    n = path.n_cells
    grid_t = path.grid_times()
    if not len(path.jumps):
        idx = np.arange(n + 1)
        return Nodes(grid_t, path.values, np.empty(0, dtype=np.int64), _EMPTY, idx)

    j = path.jumps
    m = len(j)
    pre = j.cells + 1 + 2 * np.arange(m)
    post = pre + 1
    # grid vertex k follows the 2 * (jumps in cells < k) jump vertices
    shift = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(j.cells, minlength=n), out=shift[1:])
    grid = np.arange(n + 1) + 2 * shift
    size = n + 1 + 2 * m
    times = np.empty(size)
    values = np.empty(size)
    times[grid] = grid_t
    values[grid] = path.values
    times[pre] = j.times
    times[post] = j.times
    values[pre] = j.pre_values
    values[post] = j.pre_values + j.sizes
    return Nodes(times, values, post, j.sizes.copy(), grid)


def node_prefix(nodes: Nodes, stop: int) -> Nodes:
    """The first stop nodes, with the jumps and grid vertices among them."""
    n_jumps = int(np.searchsorted(nodes.jump_post, stop))
    return Nodes(nodes.times[:stop], nodes.values[:stop],
                 nodes.jump_post[:n_jumps], nodes.jump_sizes[:n_jumps],
                 nodes.grid_index[:int(np.searchsorted(nodes.grid_index, stop))])


def truncate_at_level(nodes: Nodes, x: float) -> tuple[Nodes, float] | None:
    """Cut a node sequence at the first passage of -x.

    Returns the truncated nodes (final synthetic vertex exactly at (tau, -x))
    and the interpolated crossing time tau, or None if -x is never reached.
    Upward jumps cannot cross downward, so the crossing piece is always a
    continuous segment and linear interpolation inside it is exact for the
    piecewise-linear path model.
    """
    if x < 0.0:
        raise ValueError("level x must be >= 0")
    vals = nodes.values
    below = vals <= -x
    if not below.any():
        return None
    i = int(np.argmax(below))
    if i == 0:
        tau = float(nodes.times[0])
    else:
        v0, v1 = vals[i - 1], vals[i]
        t0, t1 = nodes.times[i - 1], nodes.times[i]
        tau = float(t0 + (t1 - t0) * (v0 + x) / (v0 - v1))
    head = node_prefix(nodes, i)
    out = replace(head, times=np.concatenate((head.times, [tau])),
                  values=np.concatenate((head.values, [-x])))
    return out, tau


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _chunk_cells(cfg: SimConfig) -> int:
    # a fixed function of the config, so the draw sequence of a path never
    # depends on who consumes it or when it stops early; multiples of 8 keep
    # coarse-grid stop tests aligned across chunk boundaries
    raw = max(1024, int(round(1.0 / cfg.dt)))
    return min(cfg.n_cells, ((raw + 7) // 8) * 8)


def sample_path(mech: BranchingMechanism, cfg: SimConfig, *,
                path_index: int = 0,
                stop_level: float | None = None,
                stop_grid_ratio: int = 1) -> LevyPath:
    """Draw one path of the truncated mechanism on the grid.

    With stop_level=x the generation halts once the path has reached -x
    (the returned path is bit-identical to the corresponding prefix of the
    full-horizon path with the same seed).  stop_grid_ratio=r makes the stop
    test look only at every r-th grid point, which guarantees the prefix is
    long enough for a coarsened copy of the path (ratio r) to register its
    own first passage.
    """
    rate, draw, comp, var_rate = simulated_law(mech, cfg)
    drift = -mech.alpha - comp
    coeff = math.sqrt(var_rate)

    rng = path_stream(cfg.seed, path_index)
    dt = cfg.dt
    n_total = cfg.n_cells
    # no other draw comes between the chunks of a jump-free full path, so
    # one normal call consumes the stream the chunked calls would
    chunk = n_total if rate == 0.0 and stop_level is None else _chunk_cells(cfg)
    sqrt_dt = math.sqrt(dt)

    db_parts: list[np.ndarray] = []
    jump_parts: list[tuple[np.ndarray, ...]] = []   # (cells, fracs, sizes)
    inc_parts: list[np.ndarray] = []
    v_carry = 0.0
    done_cells = 0

    while done_cells < n_total:
        k = min(chunk, n_total - done_cells)
        db = rng.normal(0.0, sqrt_dt, size=k)
        cells, sizes = _NO_CELLS, _EMPTY
        if rate > 0.0:
            count = int(rng.poisson(rate * k * dt))
            u = np.sort(rng.random(count))
            sizes = draw(rng, count) if count else _EMPTY
            pos = u * k                                 # in units of cells
            cells = np.minimum(pos.astype(np.int64), k - 1)
            lattice = np.floor((pos - cells) * _FRAC_LATTICE)
            if count:
                jump_parts.append((cells + done_cells, (lattice + 0.5) / _FRAC_LATTICE, sizes))
        db_parts.append(db)
        done_cells += k
        # grid detection is enough to stop generating; the authoritative
        # crossing (pre-jump vertices included) is found by truncate_at_level
        if stop_level is not None:
            inc = _increments(db, cells, sizes, drift, coeff, dt)
            inc_parts.append(inc)
            vals = v_carry + np.cumsum(inc)
            v_carry = float(vals[-1])
            r = stop_grid_ratio
            if r <= 1:
                hit = vals.min() <= -stop_level
            else:
                coarse = vals[r - 1::r]
                hit = len(coarse) > 0 and coarse.min() <= -stop_level
            if hit:
                break

    jumps = [np.concatenate(col) for col in zip(*jump_parts)] or [_NO_CELLS, _EMPTY, _EMPTY]
    db = db_parts[0] if len(db_parts) == 1 else np.concatenate(db_parts)
    return _assemble(db, *jumps, drift, coeff, dt,
                     inc=np.concatenate(inc_parts) if inc_parts else None)


def _increments(db, cells, sizes, drift, coeff, dt) -> np.ndarray:
    """Per-cell increments: drift, Gaussian part and the cell's jump mass."""
    inc = drift * dt + coeff * db
    if len(cells):
        inc += np.bincount(cells, weights=sizes, minlength=len(db))
    return inc


def _assemble(db, cells, fracs, sizes, drift, coeff, dt, *, inc=None) -> LevyPath:
    """The path driven by the Brownian cell increments db and the jumps sizes
    at times (cells + fracs) * dt.  The jumps must come in (cell, frac)
    order, as sample_path draws them and coarsen_path and time_reverse
    keep them.

    values is one cumsum of the increments (inc, when the caller already
    has them), so a path comes out bit-identical whether it was drawn in
    chunks, stopped early, coarsened or rebuilt from reversed pieces.
    """
    if inc is None:
        inc = _increments(db, cells, sizes, drift, coeff, dt)
    values = np.empty(len(db) + 1)
    values[0] = 0.0
    np.cumsum(inc, out=values[1:])
    jumps = JumpSet()
    if len(cells):
        # exclusive within-cell cumulative jump mass; the first jump of each
        # cell sits at searchsorted(cells, cells)
        cum = np.cumsum(sizes) - sizes
        pre = (values[cells] + fracs * (drift * dt + coeff * db[cells])
               + (cum - cum[np.searchsorted(cells, cells)]))
        jumps = JumpSet(times=(cells + fracs) * dt, sizes=sizes, pre_values=pre,
                        cells=cells, fracs=fracs)
    return LevyPath(dt=dt, values=values, brownian_increments=db, jumps=jumps,
                    applied_drift=drift, gaussian_coeff=coeff)


def coarsen_path(path: LevyPath, ratio: int) -> LevyPath:
    """The same driving noise viewed on a grid ratio times coarser.

    Brownian increments are summed in groups, jumps keep their exact times
    (re-celled; exact for power-of-two ratios thanks to the dyadic in-cell
    lattice).  Used for discretization-refinement studies with common random
    numbers across the dt ladder.
    """
    if ratio == 1:
        return path
    if ratio < 1 or path.n_cells % ratio:
        raise ValueError("ratio must divide the number of cells")
    j = path.jumps
    return _assemble(path.brownian_increments.reshape(-1, ratio).sum(axis=1),
                     j.cells // ratio, ((j.cells % ratio) + j.fracs) / ratio, j.sizes,
                     path.applied_drift, path.gaussian_coeff, path.dt * ratio)


# ---------------------------------------------------------------------------
# path functionals
# ---------------------------------------------------------------------------

def grid_step(path: LevyPath, t: float) -> int:
    """The step k of the grid time t = k * dt in [0, horizon]; ValueError for
    any other t."""
    k = int(round(t / path.dt))
    if abs(k * path.dt - t) > 1e-9 * path.dt or not 0 <= k <= path.n_cells:
        raise ValueError(f"t = {t} is not a grid time in [0, {path.horizon}]")
    return k


def time_reverse(path: LevyPath, t: float | None = None) -> LevyPath:
    """The reversed path s -> xi_t - xi_{(t-s)-} on [0, t] (t a grid time).

    Implemented on the stored components (reversed increments, mirrored jump
    positions on a dyadic lattice), so reversing twice reproduces the
    original path bit for bit.
    """
    m = grid_step(path, path.horizon if t is None else t)
    if m < 1:
        raise ValueError("t must be a positive grid time")
    j = path.jumps
    keep = j.cells < m
    return _assemble(path.brownian_increments[:m][::-1].copy(),
                     (m - 1) - j.cells[keep][::-1], 1.0 - j.fracs[keep][::-1],
                     j.sizes[keep][::-1], path.applied_drift, path.gaussian_coeff,
                     path.dt)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_csv(fp, header: list[str], *columns) -> None:
    """header, then one row per entry of the equal-length columns, every
    value written as repr(float(value)) (csv's default CRLF line ends)."""
    w = csv.writer(fp)
    w.writerow(header)
    w.writerows([repr(float(v)) for v in row] for row in zip(*columns))
