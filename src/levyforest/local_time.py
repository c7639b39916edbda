"""Local-time estimators for the height process.

Local time here is the occupation density of H: the estimator of L_t(a) is
the time H spends in the one-sided bin (a, a+da] up to t, divided by da.
This is the normalization in which the level profile at a first-passage time
is itself a branching process, so no semimartingale 2*beta factor appears
anywhere.  Bins are half-open on the left; a vertex with H exactly 0 belongs
to no bin, matching the vanishing occupation of the zero level in the limit.
One level_bins pass per trajectory feeds both binned estimators: the final
profile (occupation_profile) and the predictable running value L_s(H_s) at
every vertex (running_local_time).  A suite that reads only the levels up to
some bin K bins only the vertices there (level_bins(..., limit=K)), with the
same floats in those bins.

The default bin width of `simulate height` couples to the grid step as
max(dt^(1/3), 4/beta*sqrt(dt)), balancing occupation variance against
level-resolution bias; it is an engineering choice.  The suites do not read
it: they take their widths from level_width or from the dt ladder.

Tanaka-style pathwise evaluations of the same local time are provided for
cross-checking, one call giving both forms at every level: the plus form

    L_t(a) = beta*(H_t - a)^+ - int_0^t 1{H_s > a} dxi_s
             + sum_{t_i <= t} 1{H_{t_i} > a} (z_i + inf_{[t_i,t]} xi - xi_{t_i})^+

and a minus form obtained by subtracting the plus form from the height
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


_KEY_TYPES = tuple((int(np.iinfo(t).max), t) for t in (np.uint8, np.uint16, np.uint32))


def _level_key(q: np.ndarray) -> tuple[np.ndarray, int]:
    """1 + bin index of every height / width quotient q (0 for q <= 0), in
    the narrowest unsigned type that holds it, and the largest key.  q is
    overwritten."""
    np.ceil(q, out=q)
    np.maximum(q, 0.0, out=q)
    top = int(q.max()) if len(q) else 0
    dtype = next((t for limit, t in _KEY_TYPES if top <= limit), np.int64)
    return q.astype(dtype), top


@dataclass(frozen=True)
class LevelBins:
    """The vertices of one trajectory binned by level, once for every
    estimator that needs them.

    key[i] is 1 + the bin of H at the i-th binned vertex, or 0 when H <= 0,
    in the narrowest unsigned type that holds top = key.max() (numpy sorts
    8- and 16-bit keys by radix); weights[i] is that vertex's left-point
    occupation weight.  kept is None when every vertex is binned, else the
    mask of the binned vertices.
    """

    key: np.ndarray
    top: int
    weights: np.ndarray
    width: float
    kept: np.ndarray | None = None


def level_bins(times: np.ndarray, heights: np.ndarray, width: float,
               limit: int | None = None) -> LevelBins:
    """Bin every vertex, or with limit = K only the vertices of the bins up
    to K (key <= K).  A restricted binning serves only estimators that read
    those bins: occupation_profile with n_bins <= K.

    The restriction is exact.  A stable sort by key puts every key <= K
    first, in time order, so the running sums and bin bases of
    running_local_time, and the weighted counts of occupation_profile, over
    the kept vertices alone are the same floats as over the whole path.
    """
    q = np.asarray(heights, dtype=float) / width
    weights = node_weights(np.asarray(times, dtype=float))
    kept = None
    if limit is not None:
        kept = q <= limit                       # ceil(q) <= K exactly when q <= K
        q, weights = q[kept], weights[kept]
    key, top = _level_key(q)
    return LevelBins(key=key, top=top, weights=weights, width=width, kept=kept)


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
    if binned.top > n_bins + 1:
        # one slot for every bin above the profile keeps the counts
        # n_bins + 2 long however high the trajectory climbs
        key = np.minimum(key, key.dtype.type(n_bins + 1))
    occ = np.bincount(key, weights=binned.weights, minlength=n_bins + 1)
    return occ[1:n_bins + 1] / binned.width


def running_local_time(times: np.ndarray, heights: np.ndarray, width: float,
                       *, binned: LevelBins | None = None) -> np.ndarray:
    """Predictable running estimate L_s(H_s) at every binned vertex.

    Entry i is the occupation, strictly before the i-th binned vertex, of
    the bin that contains its H, divided by the width; the binned vertices
    are all of them, or those of binned.kept when level_bins had a limit.
    Vertices with H = 0 get 0.  One stable (radix) sort groups the vertices
    by bin in time order; an exclusive cumulative sum less its value at each
    group's start is the occupation before each vertex.  binned as in
    occupation_profile.
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

def tanaka_local_time(scan: HeightScan, levels) -> tuple[np.ndarray, np.ndarray]:
    """Pathwise local time at each level over the scanned window, in the
    plus and the minus form: two arrays, one entry per level, that agree to
    rounding error pathwise.  The piece increments, jump heights and
    erosions are gathered once for all levels."""
    if any(a < 0.0 for a in levels):
        raise ValueError("level must be >= 0")
    beta = scan.beta
    nodes = scan.nodes
    H = scan.height
    d = np.diff(nodes.values)
    is_jump = nodes.piece_is_jump()
    # the continuous pieces in time order, with their left heights: the same
    # summands, in the same order, as d[(H[:-1] > a) & ~is_jump]
    d_cont, h_left = d[~is_jump], H[:-1][~is_jump]
    d_jump = d[is_jump]
    # jump indicators evaluated at the post vertex (H is continuous across
    # the jump; using one vertex for both forms keeps them consistent)
    hj = H[nodes.jump_post]
    fe = scan.final_erosion
    h_t = float(H[-1])
    i0 = float(scan.infimum[-1])

    plus, minus = [], []
    for a in levels:
        above, high = h_left > a, hj > a
        integral = float(d_cont[above].sum())
        jump_piece = float(d_jump[high].sum())
        erosion = float(fe[high].sum())
        plus.append(beta * max(h_t - a, 0.0) - (integral + jump_piece) + erosion)
        below, low = h_left <= a, hj <= a
        integral = float(d_cont[below].sum())
        jump_piece = float(d_jump[low].sum())
        erosion = float(fe[low].sum())
        minus.append(-beta * min(h_t, a) + integral + jump_piece - i0 - erosion)
    return np.array(plus), np.array(minus)
