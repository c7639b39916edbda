"""Local-time estimators for the height process.

Local time here is the occupation density of H: the estimator of L_t(a) is
the time H spends in the one-sided bin (a, a+da] up to t, divided by da.
This is the normalization in which the level profile at a first-passage time
is itself a branching process, so no semimartingale 2*beta factor appears
anywhere.  Bins are half-open on the left; a vertex with H exactly 0 belongs
to no bin, matching the vanishing occupation of the zero level in the limit.

The default bin width couples to the grid step as max(dt^(1/3),
4/beta*sqrt(dt)), balancing occupation variance against level-resolution
bias; it is an engineering choice, overridable everywhere.

Tanaka-style pathwise evaluations of the same local time are provided for
cross-checking: the "plus" variant

    L_t(a) = beta*(H_t - a)^+ - int_0^t 1{H_s > a} dxi_s
             + sum_{t_i <= t} 1{H_{t_i} > a} (z_i + inf_{[t_i,t]} xi - xi_{t_i})^+

and a "minus" variant obtained by subtracting the plus form from the height
identity, which evaluates to

    L_t(a) = -beta*(H_t ^ a) + int_0^t 1{H_s <= a} dxi_s - inf_{[0,t]} xi
             - sum_{t_i <= t} 1{H_{t_i} <= a} (z_i + inf_{[t_i,t]} xi - xi_{t_i})^+.

Stochastic integrals are discretized as left-point Riemann-Ito sums over the
path's vertex pieces, so plus and minus agree pathwise to rounding error by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exploration import HeightScan, scan_height
from .paths import (LevyPath, build_nodes, grid_step, node_prefix, node_weights,
                    truncate_at_level, write_csv)

__all__ = [
    "default_level_width",
    "aligned_level_width",
    "bin_of",
    "LevelBins",
    "level_bins",
    "LocalTimeField",
    "occupation_local_time",
    "occupation_profile",
    "running_local_time",
    "occupation_below",
    "profile_at_hitting",
    "tanaka_local_time",
    "tanaka_local_time_at",
    "jump_erosion_residual",
]


def default_level_width(dt: float, beta: float) -> float:
    return max(dt ** (1.0 / 3.0), 4.0 * np.sqrt(dt) / beta)


def aligned_level_width(target: float, levels) -> float:
    """Shrink target so every requested level is an exact bin edge."""
    positive = sorted(a for a in levels if a > 0.0)
    if not positive:
        return target
    base = positive[0]
    for split in range(6):
        width = base / (2 ** split * max(1, int(np.ceil(base / (2 ** split) / target))))
        if all(abs(a / width - round(a / width)) < 1e-9 for a in positive):
            return width
    raise ValueError(f"levels {positive} admit no common bin width near {target}")


def _level_key(heights, width: float) -> tuple[np.ndarray, int]:
    """1 + bin index of every height (0 for H <= 0) in the narrowest unsigned
    type that holds it, and the largest key."""
    q = np.asarray(heights, dtype=float) / width
    np.ceil(q, out=q)
    np.maximum(q, 0.0, out=q)
    top = int(q.max()) if len(q) else 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            break
    else:
        dtype = np.int64
    return q.astype(dtype), top


def bin_of(h, width: float):
    """Index of the bin (j*width, (j+1)*width] containing h; -1 for h <= 0."""
    return _level_key(np.atleast_1d(h), width)[0].astype(np.int64) - 1


@dataclass(frozen=True)
class LevelBins:
    """The vertices of one trajectory binned by level, once for every
    estimator that needs them.

    key[i] is 1 + the bin of H_i, or 0 when H_i <= 0, in the narrowest
    unsigned type that holds top = key.max() (numpy sorts 8- and 16-bit keys
    by radix); weights[i] is the left-point occupation weight of vertex i.
    """

    key: np.ndarray
    top: int
    weights: np.ndarray
    width: float


def level_bins(times: np.ndarray, heights: np.ndarray, width: float) -> LevelBins:
    key, top = _level_key(heights, width)
    return LevelBins(key=key, top=top,
                     weights=node_weights(np.asarray(times, dtype=float)),
                     width=width)


# ---------------------------------------------------------------------------
# binned field (desk-scale, full time-by-level matrix)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalTimeField:
    """Cumulative occupation-density estimates L_t(bin) on a level grid.

    values[i, b] is the estimate at time times[i], i.e. the occupation of
    bin b strictly before times[i] divided by the bin width.  Rows are
    nondecreasing in i for every bin.
    """

    level_edges: np.ndarray
    times: np.ndarray
    values: np.ndarray

    @property
    def width(self) -> float:
        return float(self.level_edges[1] - self.level_edges[0])

    def level_index(self, a: float) -> int:
        """Bin whose left edge is a (the estimator bin (a, a+da])."""
        ratio = a / self.width
        j = int(round(ratio))
        if abs(ratio - j) > 1e-6 or not 0 <= j < self.values.shape[1]:
            raise ValueError(f"level {a} is not an edge of the bin grid")
        return j

    def at(self, a: float, t_index: int = -1) -> float:
        return float(self.values[t_index, self.level_index(a)])

    def write_csv(self, fp) -> None:
        n, nb = self.values.shape
        write_csv(fp, ["time", "level", "local_time"], np.repeat(self.times, nb),
                  np.tile(self.level_edges[:-1], n), self.values.ravel())


def occupation_local_time(times: np.ndarray, heights: np.ndarray,
                          level_edges: np.ndarray,
                          t_max: float | None = None) -> LocalTimeField:
    """Bin the occupation of a height trajectory (left-point weights),
    optionally clipped at t_max."""
    times = np.asarray(times, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if len(times) == 0:
        raise ValueError("empty trajectory")
    edges = np.asarray(level_edges, dtype=float)
    width = float(edges[1] - edges[0])
    nb = len(edges) - 1
    w = node_weights(times)
    if t_max is not None:
        w = np.minimum(w, np.maximum(t_max - times, 0.0))
    bins = bin_of(heights, width)
    inc = np.zeros((len(times), nb))
    ok = (bins >= 0) & (bins < nb)
    np.add.at(inc, (np.flatnonzero(ok), bins[ok]), w[ok])
    values = np.zeros_like(inc)
    np.cumsum(inc[:-1], axis=0, out=values[1:])
    return LocalTimeField(level_edges=edges, times=times, values=values / width)


# ---------------------------------------------------------------------------
# fast one-shot estimators (the forms the Monte Carlo harness uses)
# ---------------------------------------------------------------------------

def occupation_profile(times: np.ndarray, heights: np.ndarray,
                       width: float, n_bins: int, *,
                       binned: LevelBins | None = None) -> np.ndarray:
    """Final-time profile: occupation of each bin over the whole trajectory.

    binned, the same trajectory's level_bins, saves the binning pass when
    several estimators read one trajectory.
    """
    if binned is None:
        binned = level_bins(times, heights, width)
    key = binned.key
    if binned.top > n_bins:
        # one slot for every bin above the profile keeps the counts
        # n_bins + 2 long however high the trajectory climbs
        key = np.minimum(key, key.dtype.type(n_bins + 1))
    occ = np.bincount(key, weights=binned.weights, minlength=n_bins + 1)
    return occ[1:n_bins + 1] / binned.width


def running_local_time(times: np.ndarray, heights: np.ndarray, width: float,
                       *, binned: LevelBins | None = None) -> np.ndarray:
    """Predictable running estimate L_s(H_s) at every vertex.

    Entry i is the occupation, strictly before vertex i, of the bin that
    contains H_i, divided by the width.  Vertices with H = 0 get 0.  One
    stable (radix) sort groups the vertices by bin in time order; an
    exclusive cumulative sum less its value at each group's start is the
    occupation before each vertex.  binned as in occupation_profile.
    """
    if binned is None:
        binned = level_bins(times, heights, width)
    key = binned.key
    order = np.argsort(key, kind="stable")
    sk = key[order]
    sw = binned.weights[order]
    cs = np.cumsum(sw)
    cs -= sw                                    # exclusive, in sorted order
    first = np.empty(len(sk), dtype=bool)
    first[:1] = True
    np.not_equal(sk[1:], sk[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    # a bin's base is the running maximum of the bins' first values: its own
    # first value, unless rounding after a bin of zero weights lowered that
    base = np.maximum.accumulate(cs[starts])
    cs -= np.repeat(base, np.diff(starts, append=len(cs)))
    cs /= binned.width
    cs[:np.searchsorted(sk, 1)] = 0.0          # H <= 0 sorts first
    out = np.empty(len(cs))
    out[order] = cs
    return out


def occupation_below(times: np.ndarray, heights: np.ndarray, a: float,
                     t: float | None = None) -> float:
    """Time spent with H <= a up to t (whole trajectory by default)."""
    times = np.asarray(times, dtype=float)
    w = node_weights(times)
    if t is not None:
        w = np.minimum(w, np.maximum(t - times, 0.0))
    return float(w[np.asarray(heights) <= a].sum())


def profile_at_hitting(path: LevyPath, x: float, width: float | None = None,
                       n_bins: int | None = None):
    """Level profile a -> L_{T_x}(a-bin) of a path stopped at -x.

    Returns (width, profile, tau) or None when the horizon is exhausted
    before the passage (the caller counts such paths as discarded).
    """
    cut = truncate_at_level(build_nodes(path), x)
    if cut is None:
        return None
    nodes, tau = cut
    if width is None:
        width = default_level_width(path.dt, path.beta_eff)
    scan = scan_height(nodes, path.beta_eff)
    if n_bins is None:
        n_bins = max(1, int(np.ceil(scan.height.max() / width)) + 1)
    prof = occupation_profile(nodes.times, scan.height, width, n_bins)
    return width, prof, tau


# ---------------------------------------------------------------------------
# Tanaka-style pathwise local time
# ---------------------------------------------------------------------------

def tanaka_local_time(scan: HeightScan, a: float, variant: str = "plus") -> float:
    """Pathwise local-time evaluation at level a over the scanned window.

    variant "plus" uses the above-level form, "minus" the below-level form;
    the two agree to rounding error pathwise.
    """
    if a < 0.0:
        raise ValueError("level must be >= 0")
    beta = scan.beta
    nodes = scan.nodes
    vals = nodes.values
    H = scan.height
    d = np.diff(vals)
    is_jump = nodes.piece_is_jump()
    h_left = H[:-1]
    # jump indicators evaluated at the post vertex (H is continuous across
    # the jump; using one vertex for both variants keeps them consistent)
    hj = H[nodes.jump_post] if len(nodes.jump_post) else np.empty(0)
    fe = scan.final_erosion
    h_t = float(H[-1])
    i0 = float(scan.infimum[-1])

    if variant == "plus":
        above = h_left > a
        integral = float(d[above & ~is_jump].sum())
        jump_piece = float(d[is_jump][hj > a].sum()) if len(hj) else 0.0
        erosion = float(fe[hj > a].sum()) if len(hj) else 0.0
        return beta * max(h_t - a, 0.0) - (integral + jump_piece) + erosion
    if variant == "minus":
        below = h_left <= a
        integral = float(d[below & ~is_jump].sum())
        jump_piece = float(d[is_jump][hj <= a].sum()) if len(hj) else 0.0
        erosion = float(fe[hj <= a].sum()) if len(hj) else 0.0
        return -beta * min(h_t, a) + integral + jump_piece - i0 - erosion
    raise ValueError("variant must be 'plus' or 'minus'")


def tanaka_local_time_at(path: LevyPath, a: float, t: float | None = None,
                         variant: str = "plus") -> float:
    """Convenience wrapper: evaluate the pathwise local time of a path at
    level a over [0, t] (t a grid time; the whole horizon by default)."""
    nodes = build_nodes(path)
    if t is not None:
        nodes = node_prefix(nodes, int(nodes.grid_index[grid_step(path, t)]) + 1)
    return tanaka_local_time(scan_height(nodes, path.beta_eff), a, variant)


def jump_erosion_residual(scan: HeightScan, width: float) -> float:
    """Convergence diagnostic for the erosion/local-time exchange.

    For every live atom the drop of the path infimum since the jump should
    match the local time its height level accrued over the same window:
    inf_{[t_i,t]} xi - xi_{t_i}  =  L_{t_i}(H_{t_i}) - L_t(H_{t_i}).
    Returns the worst absolute mismatch of the two estimates (0 with no
    live atoms).
    """
    live = scan.final_erosion > 0.0
    if not live.any():
        return 0.0
    nodes = scan.nodes
    posts = nodes.jump_post[live]
    sizes = nodes.jump_sizes[live]
    lhs = scan.final_erosion[live] - sizes          # = inf - xi_{t_i} <= 0
    hj = scan.height[posts]
    bins = bin_of(hj, width)
    n_bins = int(bins.max()) + 1 if (bins >= 0).any() else 1
    lb = level_bins(nodes.times, scan.height, width)
    prof = occupation_profile(nodes.times, scan.height, width, n_bins, binned=lb)
    run = running_local_time(nodes.times, scan.height, width, binned=lb)
    rhs = np.where(bins >= 0, run[posts] - prof[np.maximum(bins, 0)], 0.0)
    return float(np.max(np.abs(lhs - rhs)))
