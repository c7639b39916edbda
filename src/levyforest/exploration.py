"""Exploration stack and height process of a spectrally positive path.

The exploration measure at time t consists of a Lebesgue part of density
beta on [0, H_t] plus one atom per not-yet-eroded jump, sitting at the height
the process had when the jump occurred.  ExplorationStack keeps it as
records in path-value coordinates: positive continuous increments raise the
top, jumps push atoms, and lowering the top pops every record it passes (and
cuts the one it stops in).  Whatever erosion is left when the stack empties
lowers the running infimum of the path instead.

Two engines compute the same trajectory:

* scan_height   -- the production engine: one forward sweep that fills an
                   ExplorationStack, where only jump boundaries touch the
                   records and a jump-free stretch costs an interpolation
                   only when it erodes below its own atom;
* direct_height -- direct evaluation of the pathwise identity
                   beta*H_t = xi_t - inf_{[0,t]} xi
                              - sum_{jumps t_i <= t} (z_i + inf_{[t_i,t]} xi - xi_{t_i})^+
                   with vectorized running minima, O(#jumps * #nodes).

They agree to floating-point accuracy; the direct formula is kept as the
independent oracle for the sweep (height_trajectory engine "scan").  A
snapshot of the stack at a grid time (stack_at) is the state the sweep ends
in on that prefix of the path.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .paths import LevyPath, Nodes, build_nodes, grid_step, node_prefix

__all__ = [
    "ExplorationStack",
    "concatenate",
    "HeightScan",
    "scan_height",
    "direct_height",
    "height_trajectory",
]


class ExplorationStack:
    """Measure-valued state: segments of the Lebesgue part and jump atoms.

    Records run bottom to top in path-value coordinates.  lows[r] is the
    lower path level of record r and bases[r] the height there; jumps[r] is
    -1 for a segment and, for an atom, the index of its jump in the node
    sequence scan_height swept (0 from push_jump).  A record reaches up to
    the next record's lower level, the top one up to top, the current path
    value, and its mass is the difference of the two levels.  Height is
    constant across an atom and grows by 1/beta per unit of level across a
    segment.  floor is the running infimum of the path: the bottom record's
    lower level, or the level the top sits at once the stack is empty, so
    total_mass = top - floor.  Lowering the top to a level pops every record
    whose lower level is at or above it; lows increase strictly bottom to
    top, so that is one bisection.
    """

    __slots__ = ("beta", "lows", "bases", "jumps", "top", "floor")

    def __init__(self, beta: float):
        if beta <= 0.0:
            raise PreconditionError("exploration requires beta > 0")
        self.beta = beta
        self.lows: list[float] = []
        self.bases: list[float] = []
        self.jumps: list[int] = []
        self.top = 0.0
        self.floor = 0.0

    # -- observers ------------------------------------------------------------

    @property
    def height(self) -> float:
        if not self.jumps:
            return 0.0
        if self.jumps[-1] >= 0:
            return self.bases[-1]
        return self.bases[-1] + (self.top - self.lows[-1]) / self.beta

    @property
    def total_mass(self) -> float:
        return self.top - self.floor

    def copy(self) -> "ExplorationStack":
        out = ExplorationStack(self.beta)
        out.lows = self.lows.copy()
        out.bases = self.bases.copy()
        out.jumps = self.jumps.copy()
        out.top = self.top
        out.floor = self.floor
        return out

    def records(self) -> list[dict]:
        """Bottom-to-top debug view."""
        out = []
        ups = self.lows[1:] + [self.top]
        for low, up, base, j in zip(self.lows, ups, self.bases, self.jumps):
            if j < 0:
                out.append({"kind": "segment", "extent": (up - low) / self.beta,
                            "mass": up - low})
            else:
                out.append({"kind": "atom", "mass": up - low, "height": base})
        return out

    def to_json(self) -> str:
        return json.dumps({"beta": self.beta, "height": self.height,
                           "total_mass": self.total_mass, "records": self.records()})

    # -- mutators ---------------------------------------------------------

    def push_jump(self, z: float) -> None:
        """Add an atom of mass z at the current height; H is unchanged."""
        if z <= 0.0:
            raise ValueError("jump size must be > 0")
        self.bases.append(self.height)
        self.lows.append(self.top)
        self.jumps.append(0)
        self.top += z

    def advance_continuous(self, d_xi: float) -> float:
        """Apply one continuous increment of the path.

        Positive increments raise the top segment (opened at the top if an
        atom or nothing is there).  Negative increments lower the top by
        |d_xi|.  Returns the erosion left over after the stack empties: how
        far the new top lies below the old floor, which becomes the running
        infimum.
        """
        if d_xi > 0.0:
            if not self.jumps or self.jumps[-1] >= 0:
                self.bases.append(self.height)
                self.lows.append(self.top)
                self.jumps.append(-1)
            self.top += d_xi
            return 0.0
        return self._lower_to(self.top + d_xi)

    def truncate_mass(self, a: float) -> None:
        """Erode mass a from the top of the support, clamped at empty."""
        if a < 0.0:
            raise ValueError("truncation mass must be >= 0")
        self._lower_to(max(self.top - a, self.floor))

    def _lower_to(self, level: float) -> float:
        """Pop every record whose lower level is at or above level and move
        the top there; returns how far level lies below the floor."""
        k = bisect_left(self.lows, level)
        del self.lows[k:], self.bases[k:], self.jumps[k:]
        self.top = level
        left = max(self.floor - level, 0.0)
        self.floor = min(self.floor, level)
        return left


def concatenate(lower: ExplorationStack, upper: ExplorationStack) -> ExplorationStack:
    """Stack upper's records above lower's: levels shift so that upper's floor
    sits at lower's top, and heights shift by H(lower)."""
    if lower.beta != upper.beta:
        raise ValueError("concatenation requires equal beta")
    out = lower.copy()
    shift = lower.top - upper.floor
    lift = lower.height
    out.lows += [low + shift for low in upper.lows]
    out.bases += [base + lift for base in upper.bases]
    out.jumps += upper.jumps
    out.top = lower.top + upper.total_mass
    return out


# ---------------------------------------------------------------------------
# height engines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightScan:
    """Height trajectory over a node sequence plus the jump-erosion state.

    height[i] is H at node i; infimum[i] the running path infimum;
    final_erosion[j] = (z_j + inf_{[t_j, end]} xi - xi_{t_j})^+ for jump j,
    i.e. the surviving atom mass at the end of the sequence; stack is the
    exploration stack at the last node (scan_height only).
    """

    nodes: Nodes
    beta: float
    height: np.ndarray
    infimum: np.ndarray
    final_erosion: np.ndarray
    stack: ExplorationStack | None = None

    def grid_height(self) -> np.ndarray:
        return self.height[self.nodes.grid_index]


def scan_height(nodes: Nodes, beta: float) -> HeightScan:
    """Height trajectory by one forward sweep of the exploration stack.

    Up to the first jump H = (xi - inf xi)/beta.  From there the sweep walks
    from jump to jump.  Over the jump-free stretch [s, e] the state at node i
    is the stack at s eroded down to the stretch's running minimum m_i, plus
    a fresh segment of height (xi_i - m_i)/beta.  A stretch whose minimum
    stays above its own atom's lower level erodes only that atom, where H is
    flat; any other stretch's heights are one np.interp of m against the
    (level, height) profile of the records it erodes.  Only the stretch ends
    pop or push records, and each record is popped once.  The running minima
    of all stretches come from one segmented pass, so a path costs
    O(nodes * log(longest stretch) + jumps) array work.
    """
    if beta <= 0.0:
        raise PreconditionError("height computation requires beta > 0")
    vals = nodes.values
    inf0 = np.minimum.accumulate(vals)
    height = vals - inf0                # in place: no temporaries the size of the path
    np.maximum(height, 0.0, out=height)
    height /= beta
    final = np.zeros(len(nodes.jump_post))
    stack = _sweep_jumps(vals, inf0, nodes.jump_post, beta, height, final)
    return HeightScan(nodes=nodes, beta=beta, height=height,
                      infimum=inf0, final_erosion=final, stack=stack)


_BLOCK = 1 << 13


def _stretch_minima(vals, starts) -> np.ndarray:
    """np.minimum.accumulate of vals restarted at every index in starts
    (starts[0] == 0), exactly, by log-step doubling over shifted views, in
    blocks of _BLOCK nodes so that the temporaries stay small.  A block may
    read minima that the same pass has already lowered; that only widens a
    window inside the stretch, so the result is the same."""
    lengths = np.diff(starts, append=len(vals))
    offset = np.ones(len(vals), dtype=np.int32)       # index inside the stretch
    offset[0] = 0
    offset[starts[1:]] = 1 - lengths[:-1]
    np.cumsum(offset, dtype=np.int32, out=offset)
    out = vals.copy()
    d, longest = 1, lengths.max()
    while d < longest:
        for lo in range(d, len(vals), _BLOCK):
            hi = min(lo + _BLOCK, len(vals))
            np.minimum(out[lo:hi], out[lo - d:hi - d], out=out[lo:hi],
                       where=offset[lo:hi] >= d)
        d *= 2
    return out


def _sweep_jumps(vals, inf0, jump_post, beta, height, final) -> ExplorationStack:
    """Overwrite height from the first jump on, fill final and return the
    stack at the last node (scan_height).

    The sweep works on the stack's record lists directly.  Before the first
    jump the stack is one segment up from the running infimum.  The running
    minimum m of every stretch comes from one segmented pass, and the loop
    over the stretches touches arrays only where a stretch erodes below its
    own atom.  Erosion is an exact comparison of path values, so H is
    exactly 0 at the running infimum.
    """
    stack = ExplorationStack(beta)
    lows, bases, jumps = stack.lows, stack.bases, stack.jumps
    posts = jump_post.tolist()
    p0 = posts[0] if posts else len(vals)
    floor = float(inf0[p0 - 1])
    if vals[p0 - 1] > floor:
        lows.append(floor); bases.append(0.0); jumps.append(-1)
    if posts:
        seg = vals[p0:]
        starts = jump_post - p0             # stretch j is seg[starts[j]:stops[j]]
        stops = np.append(starts[1:], len(seg))
        run_min = _stretch_minima(seg, starts)
        pre, tops, v_ends, mins = (x.tolist() for x in (
            vals[jump_post - 1], seg[starts], seg[stops - 1], run_min[stops - 1]))
        # H = (xi - m)/beta above each node's running minimum m, plus H at m
        rise = height[p0:]
        np.subtract(seg, run_min, out=rise)
        rise /= beta
        h_pre = float(height[p0 - 1])
        for j, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
            lows.append(pre[j]); bases.append(h_pre); jumps.append(j)
            low = mins[j]
            if low > pre[j]:
                # the stretch only erodes its own atom, where H is flat at h_pre
                rise[a:b] += h_pre
                h_low = h_pre
            else:
                k = bisect_left(lows, low)      # records k.. are eroded away
                r0 = max(k - 1, 0)              # plus the one cut at level low
                eroded = np.interp(run_min[a:b], lows[r0:] + [tops[j]], bases[r0:] + [h_pre])
                rise[a:b] += eroded
                del lows[k:], bases[k:], jumps[k:]
                h_low = float(eroded[-1])
            if v_ends[j] > low:
                lows.append(low); bases.append(h_low); jumps.append(-1)
            h_pre = h_low + (v_ends[j] - low) / beta
    stack.top, stack.floor = float(vals[-1]), float(inf0[-1])
    for low_r, up_r, j in zip(lows, lows[1:] + [stack.top], jumps):
        if j >= 0:
            final[j] = up_r - low_r
    return stack


def direct_height(nodes: Nodes, beta: float) -> HeightScan:
    """The same HeightScan from the pathwise identity, O(jumps * nodes);
    the independent oracle for scan_height."""
    if beta <= 0.0:
        raise PreconditionError("height computation requires beta > 0")
    vals = nodes.values
    inf0 = np.minimum.accumulate(vals)
    corr = np.zeros_like(vals)
    n_jumps = len(nodes.jump_post)
    final = np.zeros(n_jumps)
    for j in range(n_jumps):
        p = int(nodes.jump_post[j])
        z = nodes.jump_sizes[j]
        suffix_min = np.minimum.accumulate(vals[p:])
        eroded = np.maximum(z + suffix_min - vals[p], 0.0)
        corr[p:] += eroded
        final[j] = eroded[-1]
    height = np.maximum(vals - inf0 - corr, 0.0) / beta
    return HeightScan(nodes=nodes, beta=beta, height=height,
                      infimum=inf0, final_erosion=final)


# ---------------------------------------------------------------------------
# trajectory drivers
# ---------------------------------------------------------------------------

def height_trajectory(path: LevyPath, engine: str = "stack") -> np.ndarray:
    """H at the grid times of a path.  engine: "stack" (the exploration-stack
    sweep, scan_height) or "scan" (the direct formula, direct_height); they
    agree to ~1e-12."""
    if path.beta_eff <= 0.0:
        raise PreconditionError(
            "height trajectory requires a diffusion part (beta > 0, possibly "
            "via the small-jump gaussian correction)")
    if engine == "stack":
        compute = scan_height
    elif engine == "scan":
        compute = direct_height
    else:
        raise ValueError("engine must be 'scan' or 'stack'")
    return compute(build_nodes(path), path.beta_eff).grid_height()


def stack_at(path: LevyPath, t: float) -> tuple[ExplorationStack, float]:
    """Exploration stack and running infimum after the path up to grid time
    t: the state scan_height's sweep ends in on that prefix of the nodes."""
    m = grid_step(path, t)
    nodes = build_nodes(path)
    scan = scan_height(node_prefix(nodes, int(nodes.grid_index[m]) + 1), path.beta_eff)
    return scan.stack, float(scan.infimum[-1])
