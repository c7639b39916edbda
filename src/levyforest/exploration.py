"""Exploration stack and height process of a spectrally positive path.

The exploration measure at time t consists of a Lebesgue part of density
beta on [0, H_t] plus one atom per not-yet-eroded jump, sitting at the height
the process had when the jump occurred.  Maintaining it as a stack of
continuous segments and atoms gives the height trajectory in one forward
pass: positive continuous increments extend the top segment, negative ones
erode mass from the top (atoms first, partially if needed), and jumps push
atoms.  Whatever erosion is left when the stack empties lowers the running
infimum of the path instead.

Two engines compute the same trajectory:

* scan_height   -- the production engine: one forward sweep of the stack
                   above, where only jump boundaries touch the records and
                   each jump-free stretch is a vectorized running minimum
                   plus an interpolation, O(#nodes + #jumps) array work;
* direct_height -- direct evaluation of the pathwise identity
                   beta*H_t = xi_t - inf_{[0,t]} xi
                              - sum_{jumps t_i <= t} (z_i + inf_{[t_i,t]} xi - xi_{t_i})^+
                   with vectorized running minima, O(#jumps * #nodes).

They agree to floating-point accuracy; the direct formula is kept as the
independent oracle for the sweep (height_trajectory engine "scan").  The
per-event ExplorationStack serves snapshots (stack_at) and the unit checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .paths import LevyPath, Nodes, build_nodes, grid_step

__all__ = [
    "ExplorationStack",
    "concatenate",
    "HeightScan",
    "scan_height",
    "direct_height",
    "height_trajectory",
]

_MASS_SLACK = 1e-12     # exhaustion slack: avoids spurious negative masses

_SEGMENT = 0
_ATOM = 1


class ExplorationStack:
    """Measure-valued state: continuous segments (height extent) and atoms.

    Records run bottom to top.  A segment of extent e carries mass beta*e and
    height extent e; an atom carries its own mass and zero height extent.
    """

    __slots__ = ("beta", "_kinds", "_a", "_b", "_height", "_mass")

    def __init__(self, beta: float):
        if beta <= 0.0:
            raise PreconditionError("exploration requires beta > 0")
        self.beta = beta
        self._kinds: list[int] = []
        self._a: list[float] = []        # segment extent, or atom mass
        self._b: list[float] = []        # unused for segments, atom height
        self._height = 0.0
        self._mass = 0.0

    # -- observers ------------------------------------------------------------

    @property
    def height(self) -> float:
        return self._height

    @property
    def total_mass(self) -> float:
        return self._mass

    def copy(self) -> "ExplorationStack":
        out = ExplorationStack(self.beta)
        out._kinds = self._kinds.copy()
        out._a = self._a.copy()
        out._b = self._b.copy()
        out._height = self._height
        out._mass = self._mass
        return out

    def records(self) -> list[dict]:
        """Bottom-to-top debug view."""
        out = []
        for kind, a, b in zip(self._kinds, self._a, self._b):
            if kind == _SEGMENT:
                out.append({"kind": "segment", "extent": a, "mass": self.beta * a})
            else:
                out.append({"kind": "atom", "mass": a, "height": b})
        return out

    def to_json(self) -> str:
        return json.dumps({"beta": self.beta, "height": self._height,
                           "total_mass": self._mass, "records": self.records()})

    # -- mutators ---------------------------------------------------------

    def push_jump(self, z: float) -> None:
        """Add an atom of mass z at the current height; H is unchanged."""
        if z <= 0.0:
            raise ValueError("jump size must be > 0")
        self._kinds.append(_ATOM)
        self._a.append(z)
        self._b.append(self._height)
        self._mass += z

    def advance_continuous(self, d_xi: float) -> float:
        """Apply one continuous increment of the path.

        Positive increments grow the top segment by d_xi/beta in height
        (d_xi in mass).  Negative increments erode |d_xi| of mass from the
        top.  Returns the erosion left over after the stack empties, which
        the caller accounts against the running infimum.
        """
        if d_xi > 0.0:
            extent = d_xi / self.beta
            if self._kinds and self._kinds[-1] == _SEGMENT:
                self._a[-1] += extent
            else:
                self._kinds.append(_SEGMENT)
                self._a.append(extent)
                self._b.append(0.0)
            self._height += extent
            self._mass += d_xi
            return 0.0
        return self._erode(-d_xi)

    def truncate_mass(self, a: float) -> None:
        """Erode mass a from the top of the support, clamped at empty."""
        if a < 0.0:
            raise ValueError("truncation mass must be >= 0")
        if a > 0.0:
            self._erode(a)

    def _erode(self, m: float) -> float:
        while m > 0.0 and self._kinds:
            if self._kinds[-1] == _ATOM:
                take = min(self._a[-1], m)
                self._a[-1] -= take
                self._mass -= take
                m -= take
                if self._a[-1] <= _MASS_SLACK * (1.0 + take):
                    self._mass -= self._a[-1]
                    self._mass = max(self._mass, 0.0)
                    self._kinds.pop(); self._a.pop(); self._b.pop()
            else:
                seg_mass = self.beta * self._a[-1]
                take = min(seg_mass, m)
                extent = take / self.beta
                self._a[-1] -= extent
                self._height -= extent
                self._mass -= take
                m -= take
                if self._a[-1] <= _MASS_SLACK * (1.0 + extent):
                    self._height -= self._a[-1]
                    self._height = max(self._height, 0.0)
                    self._kinds.pop(); self._a.pop(); self._b.pop()
        if not self._kinds:
            self._height = 0.0
            self._mass = 0.0
        return max(m, 0.0)


def concatenate(lower: ExplorationStack, upper: ExplorationStack) -> ExplorationStack:
    """Stack upper's records above lower's; atom heights shift by H(lower)."""
    if lower.beta != upper.beta:
        raise ValueError("concatenation requires equal beta")
    out = lower.copy()
    shift = lower.height
    for kind, a, b in zip(upper._kinds, upper._a, upper._b):
        out._kinds.append(kind)
        out._a.append(a)
        out._b.append(b + shift if kind == _ATOM else 0.0)
        if kind == _ATOM:
            out._mass += a
        else:
            out._mass += out.beta * a
            out._height += a
    return out


# ---------------------------------------------------------------------------
# height engines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightScan:
    """Height trajectory over a node sequence plus the jump-erosion state.

    height[i] is H at node i; infimum[i] the running path infimum;
    final_erosion[j] = (z_j + inf_{[t_j, end]} xi - xi_{t_j})^+ for jump j,
    i.e. the surviving atom mass at the end of the sequence.
    """

    nodes: Nodes
    beta: float
    height: np.ndarray
    infimum: np.ndarray
    final_erosion: np.ndarray

    def grid_height(self) -> np.ndarray:
        return self.height[self.nodes.grid_index]


def scan_height(nodes: Nodes, beta: float) -> HeightScan:
    """Height trajectory by one forward sweep of the exploration stack.

    Up to the first jump H = (xi - inf xi)/beta.  From there the sweep walks
    from jump to jump.  Over the jump-free stretch [s, e] the state at node i
    is the stack at s eroded down to the stretch's running minimum m_i, plus
    a fresh segment of height (xi_i - m_i)/beta, so the stretch's heights are
    one np.interp of m against the (level, height) profile of the records
    the stretch erodes.  Only the stretch ends pop or push records, and each
    record is popped once: O(nodes + jumps) array work.
    """
    if beta <= 0.0:
        raise PreconditionError("height computation requires beta > 0")
    vals = nodes.values
    inf0 = np.minimum.accumulate(vals)
    height = np.maximum(vals - inf0, 0.0) / beta
    final = np.zeros(len(nodes.jump_post))
    if len(final):
        _sweep_jumps(vals, inf0, nodes.jump_post, beta, height, final)
    return HeightScan(nodes=nodes, beta=beta, height=height,
                      infimum=inf0, final_erosion=final)


def _sweep_jumps(vals, inf0, jump_post, beta, height, final) -> None:
    """Overwrite height from the first jump on and fill final (scan_height).

    Records are the stack's, bottom to top, in path-value coordinates: lows
    holds a record's lower level, bases the height there, jumps the index
    of an atom's jump (-1 for a segment).  A record's upper level is the
    next record's lower one, the top record's the current path value, and
    the bottom level is the running infimum, so erosion is an exact
    comparison of path values and H is exactly 0 at the running infimum.
    """
    posts = jump_post.tolist()
    ends = posts[1:] + [len(vals)]
    pre = vals[jump_post - 1].tolist()
    p0 = posts[0]
    lows: list[float] = []
    bases: list[float] = []
    jumps: list[int] = []
    floor = float(inf0[p0 - 1])
    if pre[0] > floor:
        lows.append(floor); bases.append(0.0); jumps.append(-1)
    h_pre = float(height[p0 - 1])
    for j, (s, e) in enumerate(zip(posts, ends)):
        lows.append(pre[j]); bases.append(h_pre); jumps.append(j)
        seg = vals[s:e]
        run_min = np.minimum.accumulate(seg)
        low = float(run_min[-1])
        k = len(lows)                   # records k.. are eroded away
        while k and lows[k - 1] >= low:
            k -= 1
        r0 = max(k - 1, 0)              # plus the one cut at level low
        eroded = np.interp(run_min, lows[r0:] + [float(seg[0])], bases[r0:] + [h_pre])
        del lows[k:], bases[k:], jumps[k:]
        height[s:e] = eroded + (seg - run_min) / beta
        h_low = float(eroded[-1])
        v_end = float(seg[-1])
        if v_end > low:
            lows.append(low); bases.append(h_low); jumps.append(-1)
        h_pre = h_low + (v_end - low) / beta
    ups = lows[1:] + [float(vals[-1])]
    for lo_r, up_r, j in zip(lows, ups, jumps):
        if j >= 0:
            final[j] = up_r - lo_r


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
    """Exploration stack and running infimum after processing the path up to
    grid time t; useful for snapshot/decomposition checks."""
    m = grid_step(path, t)
    nodes = build_nodes(path)
    stop = int(nodes.grid_index[m])
    stack = ExplorationStack(path.beta_eff)
    is_jump = nodes.piece_is_jump()
    vals = nodes.values
    inf0 = 0.0
    for i in range(1, stop + 1):
        if is_jump[i - 1]:
            stack.push_jump(vals[i] - vals[i - 1])
        else:
            inf0 -= stack.advance_continuous(float(vals[i] - vals[i - 1]))
    return stack, inf0
