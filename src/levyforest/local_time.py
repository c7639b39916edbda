"""Local-time estimators for the height process.

Local time here is the occupation density of H: the estimator of L_t(a) is
the time H spends in the one-sided bin (a, a+da] up to t, divided by da.
This is the normalization in which the level profile at a first-passage time
is itself a branching process, so no semimartingale 2*beta factor appears
anywhere.  Bins are half-open on the left; a vertex with H exactly 0 belongs
to no bin, matching the vanishing occupation of the zero level in the limit.
One level_bins pass per trajectory feeds both binned estimators: the final
profile (occupation_profile) and the predictable running value L_s(H_s) at
every vertex (running_local_time).

The default bin width of `simulate height` couples to the grid step as
max(dt^(1/3), 4/beta*sqrt(dt)), balancing occupation variance against
level-resolution bias; it is an engineering choice.  The suites do not read
it: they take their widths from level_width or from the dt ladder.

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

from .exploration import HeightScan
from .paths import node_weights

__all__ = [
    "default_level_width",
    "aligned_level_width",
    "LevelBins",
    "level_bins",
    "occupation_profile",
    "running_local_time",
    "tanaka_local_time",
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
# binned estimators: profile and running local time from one level_bins pass
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
