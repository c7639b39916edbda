import json
import math
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest

from levyforest import BranchingMechanism, JumpMeasure, PreconditionError
from levyforest.exploration import (
    _BLOCK,
    ExplorationStack,
    _stretch_minima,
    direct_height,
    height_trajectory,
    scan_height,
)
from levyforest.local_time import tanaka_local_time
from levyforest.mechanism import PowerLawTail
from levyforest.paths import (
    JumpSet,
    LevyPath,
    Nodes,
    SimConfig,
    build_nodes,
    grid_step,
    node_prefix,
    sample_path,
    time_reverse,
    truncate_at_level,
)

FELLER = BranchingMechanism(0.5, 1.0)
JUMPY = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 0.5), (0.3, 1.0))))
POWER = BranchingMechanism(0.5, 1.0, JumpMeasure(
    power_law=PowerLawTail(c=1.0, sigma=1.5, z_max=1.0)))
# the README's unbounded power law: infinite jump variance
POWER_UNBOUNDED = BranchingMechanism(0.5, 1.0, JumpMeasure(
    power_law=PowerLawTail(c=1.0, sigma=1.5, z_max=None)))


# -- the reference dynamics ----------------------------------------------------
# The exploration dynamics stepped by hand, one piece of the path at a time,
# on the snapshot record: the reference the sweep's snapshots are checked
# against (per-event replay, snapshot decomposition).  Each step builds a new
# record and never writes into the lists of the old one.

def _push(st: ExplorationStack, z: float) -> ExplorationStack:
    """An atom of mass z at the current height; H is unchanged."""
    if z <= 0.0:
        raise ValueError("jump size must be > 0")
    return replace(st, lows=st.lows + [st.top], bases=st.bases + [st.height],
                   jumps=st.jumps + [0], top=st.top + z)


def _lower(st: ExplorationStack, level: float) -> tuple[ExplorationStack, float]:
    """Pop every record whose lower level is at or above level and move the
    top there; also how far level lies below the floor."""
    k = bisect_left(st.lows, level)
    return (replace(st, lows=st.lows[:k], bases=st.bases[:k], jumps=st.jumps[:k],
                    top=level, floor=min(st.floor, level)),
            max(st.floor - level, 0.0))


def _advance(st: ExplorationStack, d_xi: float) -> tuple[ExplorationStack, float]:
    """One continuous increment: a rise extends (or opens) the top segment, a
    fall lowers the top; also the erosion left over once the stack empties,
    which lowers the running infimum."""
    if d_xi <= 0.0:
        return _lower(st, st.top + d_xi)
    if not st.jumps or st.jumps[-1] >= 0:
        st = replace(st, lows=st.lows + [st.top], bases=st.bases + [st.height],
                     jumps=st.jumps + [-1])
    return replace(st, top=st.top + d_xi), 0.0


def _truncate(st: ExplorationStack, a: float) -> ExplorationStack:
    """Erode mass a from the top of the support, clamped at empty."""
    if a < 0.0:
        raise ValueError("truncation mass must be >= 0")
    return _lower(st, max(st.top - a, st.floor))[0]


def _concatenate(lower: ExplorationStack, upper: ExplorationStack) -> ExplorationStack:
    """upper's records above lower's: levels shift so that upper's floor sits
    at lower's top, and heights shift by H(lower)."""
    if lower.beta != upper.beta:
        raise ValueError("concatenation requires equal beta")
    shift, lift = lower.top - upper.floor, lower.height
    return replace(lower, lows=lower.lows + [low + shift for low in upper.lows],
                   bases=lower.bases + [base + lift for base in upper.bases],
                   jumps=lower.jumps + upper.jumps, top=lower.top + upper.total_mass)


def _empty(beta: float) -> ExplorationStack:
    return ExplorationStack(beta, [], [], [], 0.0, 0.0)


def test_truncate_mass_examples():
    st, _ = _advance(_empty(1.0), 2.0)
    st = _push(st, 4.0)
    assert _truncate(st, 0.0).total_mass == pytest.approx(6.0)    # identity
    half = _truncate(st, 2.0)                                     # half the atom
    assert half.total_mass == pytest.approx(4.0)
    assert half.height == pytest.approx(2.0)                      # height untouched
    gone = _truncate(st, 100.0)                                   # clamp at empty
    assert gone.total_mass == 0.0 and gone.height == 0.0


def test_concatenate_examples():
    a = _push(_advance(_empty(1.0), 1.0)[0], 2.0)
    b = _push(_advance(_empty(1.0), 0.5)[0], 1.0)
    c = _concatenate(a, b)
    assert c.total_mass == pytest.approx(a.total_mass + b.total_mass)
    assert c.height == pytest.approx(a.height + b.height)
    # atom heights of the upper part are shifted by H(lower)
    assert c.records()[-1]["height"] == pytest.approx(a.height + 0.5)
    d = _concatenate(a, _empty(1.0))
    assert d.total_mass == a.total_mass and d.height == a.height
    with pytest.raises(ValueError):
        _concatenate(a, _empty(2.0))


def test_stack_validation():
    # the sweep needs beta > 0; the reference takes positive jumps and
    # nonnegative truncations only
    nodes = _hand_nodes([0.0, 1.0], [0.0, 1.0], [0, 0])
    with pytest.raises(PreconditionError):
        scan_height(nodes, 0.0)
    with pytest.raises(ValueError):
        _push(_empty(1.0), -1.0)
    with pytest.raises(ValueError):
        _push(_empty(1.0), 0.0)
    with pytest.raises(ValueError):
        _truncate(_empty(1.0), -0.5)


# -- the sweep's snapshot on hand-built nodes ----------------------------------

def test_up_then_down_restores_state():
    # up 1.3, jump 0.7, up 0.9, down 0.9: back to the state just after the jump
    nodes = _hand_nodes([0.0, 1.0, 1.5, 1.5, 2.0, 3.0],
                        [0.0, 1.3, 1.3, 2.0, 2.9, 2.0], [0, 0, 1, 2, 0, 0])
    after_jump = scan_height(node_prefix(nodes, 4), 0.5).stack
    st = scan_height(nodes, 0.5).stack
    assert st.height == pytest.approx(after_jump.height, abs=1e-12)
    assert st.total_mass == pytest.approx(after_jump.total_mass, abs=1e-12)


def test_partial_atom_erosion_hand_example():
    # up 2, jump of 5, down 3: (z + inf - xi)^+ = (5 + 4 - 7)^+ = 2 survives
    nodes = _hand_nodes([0.0, 1.0, 1.5, 1.5, 2.0], [0.0, 2.0, 2.0, 7.0, 4.0],
                        [0, 0, 1, 2, 0])
    st = scan_height(nodes, 1.0).stack
    assert st.records() == [{"kind": "segment", "extent": 2.0, "mass": 2.0},
                            {"kind": "atom", "mass": 2.0, "height": 2.0}]
    assert st.height == 2.0
    assert st.total_mass == 4.0


def test_push_jump_keeps_height_adds_mass():
    # up 1, jump 2.5, down 2.5: the jump adds mass at the same height, and
    # the descent erodes exactly that mass
    nodes = _hand_nodes([0.0, 1.0, 1.5, 1.5, 2.0], [0.0, 1.0, 1.0, 3.5, 1.0],
                        [0, 0, 1, 2, 0])
    before, after = (scan_height(node_prefix(nodes, n), 1.0).stack for n in (3, 4))
    assert before.height == after.height == 1.0
    assert before.total_mass == 1.0 and after.total_mass == 3.5
    end = scan_height(nodes, 1.0).stack
    assert end.height == 1.0 and end.total_mass == 1.0
    assert [r["kind"] for r in end.records()] == ["segment"]


def test_empty_stack_observables():
    # the erosion left over once the stack empties is the running infimum,
    # with and without an atom to erode first
    for times, values, kinds, inf in (
            ([0.0, 1.0], [0.0, -0.7], [0, 0], -0.7),
            ([0.0, 1.0, 1.5, 1.5, 2.0], [0.0, 1.0, 1.0, 1.5, -1.0], [0, 0, 1, 2, 0], -1.0)):
        sc = scan_height(_hand_nodes(times, values, kinds), 2.0)
        st = sc.stack
        assert st.records() == []
        assert st.height == 0.0 and st.total_mass == 0.0
        assert sc.infimum[-1] == st.floor == inf


# -- trajectories --------------------------------------------------------------

def test_jump_free_height_identity():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=1.5, seed=3), path_index=0)
    h = height_trajectory(p)
    ref = (p.values - np.minimum.accumulate(p.values)) / FELLER.beta
    assert np.max(np.abs(h - ref)) <= 1e-12


def test_stack_equals_scan_on_random_paths():
    worst = 0.0
    for i in range(30):
        mech = (FELLER, JUMPY, POWER)[i % 3]
        cfg = SimConfig(dt=1e-3, horizon=2.0, truncation_delta=0.03,
                        small_jump_mode="gaussian_correction", seed=99)
        p = sample_path(mech, cfg, path_index=i)
        h_scan = height_trajectory(p, engine="scan")
        h_stack = height_trajectory(p, engine="stack")
        worst = max(worst, float(np.max(np.abs(h_scan - h_stack))))
    assert worst <= 1e-9


def _assert_engines_agree(nodes: Nodes, beta: float) -> None:
    sweep, direct = scan_height(nodes, beta), direct_height(nodes, beta)
    assert np.max(np.abs(sweep.height - direct.height)) <= 1e-9
    assert np.max(np.abs(sweep.infimum - direct.infimum)) <= 1e-9
    assert np.max(np.abs(sweep.final_erosion - direct.final_erosion),
                  initial=0.0) <= 1e-9
    # exactly 0 wherever the path sits at its running infimum
    assert (sweep.height[nodes.values == sweep.infimum] == 0.0).all()


def test_sweep_matches_direct_formula_on_dense_power_law_path():
    cfg = SimConfig(dt=2.5e-4, horizon=4.0, truncation_delta=0.01,
                    small_jump_mode="gaussian_correction", seed=3)
    # the unbounded law drifts down faster, so fewer jumps precede the cut
    for mech, cut_jumps in ((POWER, 1000), (POWER_UNBOUNDED, 600)):
        p = sample_path(mech, cfg)
        nodes = build_nodes(p)
        assert len(p.jumps) >= 2500
        assert (scan_height(nodes, p.beta_eff).final_erosion > 0.0).any()
        _assert_engines_agree(nodes, p.beta_eff)
        cut, _ = truncate_at_level(nodes, 1.2)
        assert len(cut.jump_post) >= cut_jumps
        _assert_engines_agree(cut, p.beta_eff)


@pytest.mark.parametrize("mean_length", [3, 40, 500])
def test_stretch_minima_restart_at_every_stretch(mean_length):
    # short and long stretches, some straddling the doubling's blocks
    rng = np.random.default_rng(mean_length)
    n = 3 * _BLOCK + 17
    starts = np.sort(rng.choice(np.arange(1, n), size=n // mean_length, replace=False))
    # drop a run of starts so that one stretch spans several blocks
    starts = np.concatenate(([0], np.delete(starts, slice(len(starts) // 4, len(starts) // 2))))
    for vals in (np.cumsum(rng.normal(size=n)), rng.integers(0, 4, size=n).astype(float)):
        out = _stretch_minima(vals, starts)
        want = np.concatenate([np.minimum.accumulate(vals[a:b])
                               for a, b in zip(starts, np.append(starts[1:], n))])
        assert np.array_equal(out, want)


def _hand_nodes(times, values, kinds) -> Nodes:
    """Nodes from a hand-written vertex list (kinds: 0 grid, 1 pre, 2 post)."""
    times, values = np.array(times, dtype=float), np.array(values, dtype=float)
    kinds = np.array(kinds, dtype=np.uint8)
    post = np.flatnonzero(kinds == 2)
    return Nodes(times, values, post, values[post] - values[post - 1],
                 np.flatnonzero(kinds == 0))


# (times, values, kinds, heights at beta=1, surviving atom masses)
HAND_CASES = {
    "two jumps in one cell": (
        [0.0, 0.5, 0.75, 0.75, 0.875, 0.875, 1.0],
        [0.0, 1.0, 0.5, 1.5, 1.75, 2.75, 1.625],
        [0, 0, 1, 2, 1, 2, 0],
        [0.0, 1.0, 0.5, 0.5, 0.75, 0.75, 0.625],
        [1.0, 0.0]),
    "jump in the first cell": (
        [0.0, 0.25, 0.25, 1.0, 2.0],
        [0.0, -0.25, 0.75, 1.0, 1.5],
        [0, 1, 2, 0, 0],
        [0.0, 0.0, 0.0, 0.25, 0.75],
        [1.0]),
    "atom eroded to exactly zero": (
        [0.0, 1.0, 1.5, 1.5, 2.0, 3.0],
        [0.0, 1.0, 0.75, 1.75, 0.75, 1.25],
        [0, 0, 1, 2, 0, 0],
        [0.0, 1.0, 0.75, 0.75, 0.75, 1.25],
        [0.0]),
    "stack emptied at a pre-jump vertex": (
        [0.0, 1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 3.0, 4.0],
        [0.0, 1.0, 0.0, 0.5, 0.75, -0.25, 0.75, 0.5, 1.5],
        [0, 0, 1, 2, 0, 1, 2, 0, 0],
        [0.0, 1.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.75]),
    "stack holding only atoms": (
        [0.0, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0],
        [0.0, -0.5, 0.5, 0.25, 0.25, 1.25, 0.0],
        [0, 1, 2, 0, 1, 2, 0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0]),
    # the first stretch ends exactly at its atom's low level 0.75: the atom
    # is eroded away and popped; the second stays above its atom
    "stretch ending at its atom's level": (
        [0.0, 1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 3.0],
        [0.0, 1.0, 0.75, 1.75, 1.25, 0.75, 1.25, 1.0],
        [0, 0, 1, 2, 0, 1, 2, 0],
        [0.0, 1.0, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75],
        [0.0, 0.25]),
    "stretch staying above its atom": (
        [0.0, 1.0, 1.5, 1.5, 2.0, 3.0],
        [0.0, 1.0, 0.5, 1.5, 1.0, 1.25],
        [0, 0, 1, 2, 0, 0],
        [0.0, 1.0, 0.5, 0.5, 0.5, 0.75],
        [0.5]),
}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_sweep_on_hand_built_nodes(case):
    times, values, kinds, heights, survivors = HAND_CASES[case]
    nodes = _hand_nodes(times, values, kinds)
    # dyadic values: the sweep is exact here
    sc = scan_height(nodes, 1.0)
    assert np.array_equal(sc.height, heights)
    assert np.array_equal(sc.final_erosion, survivors)
    direct = direct_height(nodes, 1.0)
    assert np.array_equal(direct.height, heights)
    assert np.array_equal(direct.final_erosion, survivors)
    _assert_engines_agree(nodes, 1.0)
    # an eroded atom leaves the stack: its lower levels still increase strictly
    assert (np.diff(sc.stack.lows) > 0.0).all()
    half = scan_height(nodes, 0.5)
    assert np.array_equal(half.height, 2.0 * np.array(heights))
    assert np.array_equal(half.final_erosion, sc.final_erosion)


def test_jumps_at_one_instant_pair_pre_and_post_vertices():
    # two jumps at t = 1.5 (cell 1, frac 0.5): sizes 1 and 0.5 on top of a
    # unit-step grid path with continuous increments 1, -1, -0.75, 1
    jumps = JumpSet(times=np.array([1.5, 1.5]), sizes=np.array([1.0, 0.5]),
                    pre_values=np.array([0.5, 1.5]), cells=np.array([1, 1]),
                    fracs=np.array([0.5, 0.5]))
    path = LevyPath(dt=1.0, values=np.array([0.0, 1.0, 1.5, 0.75, 1.75]),
                    brownian_increments=np.array([1.0, -1.0, -0.75, 1.0]),
                    jumps=jumps, applied_drift=0.0, gaussian_coeff=1.0)
    # the stored components rebuild the values: each cell's continuous
    # increment plus its jumps
    assert np.array_equal(np.cumsum(path.brownian_increments + [0.0, 1.5, 0.0, 0.0]),
                          path.values[1:])
    nodes = build_nodes(path)
    assert nodes.times.tolist() == [0.0, 1.0, 1.5, 1.5, 1.5, 1.5, 2.0, 3.0, 4.0]
    assert nodes.values.tolist() == [0.0, 1.0, 0.5, 1.5, 1.5, 2.0, 1.5, 0.75, 1.75]
    assert nodes.jump_post.tolist() == [3, 5]
    assert nodes.grid_index.tolist() == [0, 1, 6, 7, 8]
    assert nodes.piece_is_jump().tolist() == [False, False, True, False, True,
                                              False, False, False]
    # by hand: both atoms sit at height 0.5; the descent to 0.75 erodes the
    # second atom and 0.75 of the first, and the last cell climbs 1
    heights = [0.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.5]
    for engine in (scan_height, direct_height):
        sc = engine(nodes, 1.0)
        assert sc.height.tolist() == heights, engine.__name__
        assert sc.final_erosion.tolist() == [0.25, 0.0], engine.__name__
    sc = scan_height(nodes, 1.0)
    for a in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0):
        plus = tanaka_local_time(sc, a, "plus")
        minus = tanaka_local_time(sc, a, "minus")
        assert abs(plus - minus) <= 1e-12, a


def test_sweep_on_jump_free_nodes_is_the_reflected_path():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=3.0, seed=8))
    nodes = build_nodes(p)
    v = nodes.values
    sc = scan_height(nodes, FELLER.beta)
    assert np.array_equal(sc.height, (v - np.minimum.accumulate(v)) / FELLER.beta)
    assert len(sc.final_erosion) == 0


def test_height_requires_beta():
    p = sample_path(BranchingMechanism(1.0, 0.0), SimConfig(dt=1e-3, horizon=1.0, seed=1))
    with pytest.raises(PreconditionError):
        height_trajectory(p)


def _stack_at(p: LevyPath, t: float) -> tuple[ExplorationStack, float]:
    """Exploration stack and running infimum after the path up to grid time
    t: the state scan_height's sweep ends in on that prefix of the nodes."""
    nodes = build_nodes(p)
    scan = scan_height(node_prefix(nodes, int(nodes.grid_index[grid_step(p, t)]) + 1),
                       p.beta_eff)
    return scan.stack, float(scan.infimum[-1])


def test_mass_identity_along_a_path():
    p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=2.0, seed=5), path_index=1)
    nodes = build_nodes(p)
    run_min = np.minimum.accumulate(nodes.values)
    for t in (0.5, 1.0, 1.5, 2.0):
        stack, inf0 = _stack_at(p, t)
        k = int(round(t / p.dt))
        node_idx = int(nodes.grid_index[k])
        xi = p.values[k]
        i0 = min(run_min[node_idx], 0.0)
        assert stack.total_mass == pytest.approx(xi - i0, abs=1e-10)
        assert inf0 == pytest.approx(i0, abs=1e-12)


def test_stack_at_the_first_grid_times():
    # at t = 0 nothing has been explored; after one cell without a jump the
    # stack is one segment up from the running infimum, or empty after a fall
    signs = set()
    for i in range(20):
        p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=1.0, seed=5), path_index=i)
        stack, inf0 = _stack_at(p, 0.0)
        assert stack.records() == [] and inf0 == 0.0
        assert stack.height == 0.0 and stack.total_mass == 0.0
        if (p.jumps.cells == 0).any():
            continue
        stack, inf0 = _stack_at(p, p.dt)
        xi = float(p.values[1])
        signs.add(xi > 0.0)
        if xi > 0.0:
            assert stack.records() == [{"kind": "segment", "extent": xi / p.beta_eff,
                                        "mass": xi}]
            assert inf0 == 0.0
        else:
            assert stack.records() == [] and inf0 == xi
    assert signs == {True, False}


def test_snapshot_decomposition():
    # evolving from a snapshot equals truncating the snapshot by the suffix
    # deficit and stacking the suffix exploration on top
    rng_fail = 0.0
    for i in range(50):
        mech = JUMPY if i % 2 else FELLER
        p = sample_path(mech, SimConfig(dt=2e-3, horizon=2.0, seed=71), path_index=i)
        t_cut, t_end = 1.0, 2.0
        full, _ = _stack_at(p, t_end)

        snap, _ = _stack_at(p, t_cut)
        suffix = _suffix_path(p, t_cut)
        suf_stack, suf_inf0 = _stack_at(suffix, t_end - t_cut)
        combined = _concatenate(_truncate(snap, -suf_inf0), suf_stack)

        rng_fail = max(rng_fail, abs(combined.total_mass - full.total_mass),
                       abs(combined.height - full.height))
    assert rng_fail <= 1e-10


def _suffix_path(p: LevyPath, t_cut: float) -> LevyPath:
    """The path increments after t_cut as a standalone path from 0."""
    from levyforest.paths import _assemble

    k = int(round(t_cut / p.dt))
    keep = p.jumps.cells >= k
    return _assemble(p.brownian_increments[k:], p.jumps.cells[keep] - k,
                     p.jumps.fracs[keep], p.jumps.sizes[keep], p.applied_drift,
                     p.gaussian_coeff, p.dt)


def test_surviving_atoms_match_erosion_formula():
    for i in range(10):
        p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=2.0, seed=13), path_index=i)
        sc = direct_height(build_nodes(p), p.beta_eff)
        stack, _ = _stack_at(p, p.horizon)
        atom_masses = sorted(r["mass"] for r in stack.records() if r["kind"] == "atom")
        live = sorted(v for v in sc.final_erosion if v > 1e-12)
        assert len(atom_masses) == len(live)
        assert np.allclose(atom_masses, live, atol=1e-10)


def _replay(p: LevyPath, t: float) -> tuple[ExplorationStack, float]:
    """Stack and running infimum at grid time t, by feeding the build_nodes
    pieces up to t one at a time through the reference dynamics."""
    nodes = build_nodes(p)
    stop = int(nodes.grid_index[int(round(t / p.dt))])
    is_jump = nodes.piece_is_jump()
    stack = _empty(p.beta_eff)
    inf0 = 0.0
    for i in range(1, stop + 1):
        d = float(nodes.values[i] - nodes.values[i - 1])
        if is_jump[i - 1]:
            stack = _push(stack, d)
        else:
            stack, left = _advance(stack, d)
            inf0 -= left
    return stack, inf0


def _atoms(stack: ExplorationStack) -> list[tuple[float, float]]:
    return [(r["mass"], r["height"]) for r in stack.records()
            if r["kind"] == "atom" and r["mass"] > 1e-9]


def test_per_event_replay_matches_stack_at():
    power = SimConfig(dt=1e-3, horizon=2.0, truncation_delta=0.01,
                      small_jump_mode="gaussian_correction", seed=41)
    jumpy = SimConfig(dt=1e-3, horizon=2.0, seed=43)
    n_atoms = 0
    for mech, cfg in ((POWER, power), (JUMPY, jumpy)):
        for i in range(3):
            p = sample_path(mech, cfg, path_index=i)
            for t in (0.5, 1.0, 1.7, 2.0):
                snap, inf_snap = _stack_at(p, t)
                ref, inf_ref = _replay(p, t)
                assert snap.height == pytest.approx(ref.height, abs=1e-9)
                assert snap.total_mass == pytest.approx(ref.total_mass, abs=1e-9)
                assert inf_snap == pytest.approx(inf_ref, abs=1e-9)
                got, want = _atoms(snap), _atoms(ref)
                assert len(got) == len(want)
                if got:
                    assert np.max(np.abs(np.subtract(got, want))) <= 1e-9
                n_atoms += len(got)
    assert n_atoms >= 100


def test_height_nonnegative_and_zero_only_when_empty():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=1.0, seed=17), path_index=0)
    h = height_trajectory(p)
    assert (h >= 0.0).all()
    stack, _ = _stack_at(p, 1.0)
    if stack.height == 0.0:
        assert stack.total_mass == 0.0


def test_reversal_cross_check_on_monte_carlo_average():
    # the height at time t is the level-0 local time of the reflected
    # reversed path; estimate the latter by band occupation near 0
    m = 400
    dt = 2.5e-4
    t = 1.0
    beta = FELLER.beta
    band = 16.0 * math.sqrt(2.0 * beta * dt)
    direct = np.empty(m)
    via_reversal = np.empty(m)
    cfg = SimConfig(dt=dt, horizon=t, seed=29)
    for i in range(m):
        p = sample_path(FELLER, cfg, path_index=i)
        direct[i] = height_trajectory(p)[-1]
        r = time_reverse(p)
        s_run = np.maximum.accumulate(r.values)
        refl = s_run - r.values
        occ = dt * float((refl[:-1] < band).sum())
        via_reversal[i] = occ / band
    se = math.hypot(direct.std(ddof=1), via_reversal.std(ddof=1)) / math.sqrt(m)
    assert abs(direct.mean() - via_reversal.mean()) <= 3 * se + 0.10 * direct.mean()


def test_stack_json_dump():
    # the records view of a snapshot is plain JSON: up 1, then a jump of 0.5
    nodes = _hand_nodes([0.0, 1.0, 1.5, 1.5, 2.0], [0.0, 1.0, 1.0, 1.5, 1.5],
                        [0, 0, 1, 2, 0])
    st = scan_height(nodes, 1.0).stack
    obj = json.loads(json.dumps({"height": st.height, "total_mass": st.total_mass,
                                 "records": st.records()}))
    assert obj["records"][0] == {"kind": "segment", "extent": 1.0, "mass": 1.0}
    assert obj["records"][1] == {"kind": "atom", "mass": 0.5, "height": 1.0}
    assert obj["height"] == 1.0 and obj["total_mass"] == 1.5
