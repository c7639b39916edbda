import math

import numpy as np
import pytest

from levyforest import BranchingMechanism, JumpMeasure, PreconditionError
from levyforest.exploration import (
    _BLOCK,
    ExplorationStack,
    _stretch_minima,
    concatenate,
    direct_height,
    height_trajectory,
    scan_height,
    stack_at,
)
from levyforest.local_time import tanaka_local_time
from levyforest.mechanism import PowerLawTail
from levyforest.paths import (
    JumpSet,
    LevyPath,
    Nodes,
    SimConfig,
    build_nodes,
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


# -- stack unit behavior -------------------------------------------------------

def test_up_then_down_restores_state():
    st = ExplorationStack(0.5)
    st.advance_continuous(1.3)
    st.push_jump(0.7)
    h0, m0 = st.height, st.total_mass
    st.advance_continuous(0.9)
    st.advance_continuous(-0.9)
    assert st.height == pytest.approx(h0, abs=1e-12)
    assert st.total_mass == pytest.approx(m0, abs=1e-12)


def test_partial_atom_erosion_hand_example():
    # up 2, jump of 5, down 3: (z + inf - xi)^+ = (5 + 4 - 7)^+ = 2 survives
    st = ExplorationStack(1.0)
    st.advance_continuous(2.0)
    st.push_jump(5.0)
    st.advance_continuous(-3.0)
    recs = st.records()
    assert recs[-1] == {"kind": "atom", "mass": pytest.approx(2.0), "height": 2.0}
    assert st.height == pytest.approx(2.0)
    assert st.total_mass == pytest.approx(4.0)


def test_push_jump_keeps_height_adds_mass():
    st = ExplorationStack(1.0)
    st.advance_continuous(1.0)
    h = st.height
    st.push_jump(2.5)
    assert st.height == h
    assert st.total_mass == pytest.approx(1.0 + 2.5)
    st.advance_continuous(-2.5)
    assert st.height == pytest.approx(h, abs=1e-12)
    assert st.total_mass == pytest.approx(1.0, abs=1e-12)


def test_empty_stack_observables():
    st = ExplorationStack(2.0)
    assert st.height == 0.0 and st.total_mass == 0.0
    leftover = st.advance_continuous(-0.7)
    assert leftover == pytest.approx(0.7)
    assert st.height == 0.0 and st.total_mass == 0.0


def test_truncate_mass_examples():
    st = ExplorationStack(1.0)
    st.advance_continuous(2.0)
    st.push_jump(4.0)
    st.truncate_mass(0.0)
    assert st.total_mass == pytest.approx(6.0)     # identity
    st.truncate_mass(2.0)                          # half the atom
    assert st.total_mass == pytest.approx(4.0)
    assert st.height == pytest.approx(2.0)         # height untouched
    st.truncate_mass(100.0)                        # clamp at empty
    assert st.total_mass == 0.0 and st.height == 0.0


def test_concatenate_examples():
    a = ExplorationStack(1.0)
    a.advance_continuous(1.0)
    a.push_jump(2.0)
    b = ExplorationStack(1.0)
    b.advance_continuous(0.5)
    b.push_jump(1.0)
    c = concatenate(a, b)
    assert c.total_mass == pytest.approx(a.total_mass + b.total_mass)
    assert c.height == pytest.approx(a.height + b.height)
    # atom heights of the upper part are shifted by H(lower)
    assert c.records()[-1]["height"] == pytest.approx(a.height + 0.5)
    empty = ExplorationStack(1.0)
    d = concatenate(a, empty)
    assert d.total_mass == a.total_mass and d.height == a.height
    with pytest.raises(ValueError):
        concatenate(a, ExplorationStack(2.0))


def test_stack_validation():
    with pytest.raises(PreconditionError):
        ExplorationStack(0.0)
    st = ExplorationStack(1.0)
    with pytest.raises(ValueError):
        st.push_jump(-1.0)
    with pytest.raises(ValueError):
        st.truncate_mass(-0.5)


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


def test_mass_identity_along_a_path():
    p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=2.0, seed=5), path_index=1)
    nodes = build_nodes(p)
    run_min = np.minimum.accumulate(nodes.values)
    for t in (0.5, 1.0, 1.5, 2.0):
        stack, inf0 = stack_at(p, t)
        k = int(round(t / p.dt))
        node_idx = int(nodes.grid_index[k])
        xi = p.values[k]
        i0 = min(run_min[node_idx], 0.0)
        assert stack.total_mass == pytest.approx(xi - i0, abs=1e-10)
        assert inf0 == pytest.approx(i0, abs=1e-12)


def test_snapshot_decomposition():
    # evolving from a snapshot equals truncating the snapshot by the suffix
    # deficit and stacking the suffix exploration on top
    rng_fail = 0.0
    for i in range(50):
        mech = JUMPY if i % 2 else FELLER
        p = sample_path(mech, SimConfig(dt=2e-3, horizon=2.0, seed=71), path_index=i)
        t_cut, t_end = 1.0, 2.0
        full, _ = stack_at(p, t_end)

        snap, _ = stack_at(p, t_cut)
        suffix = _suffix_path(p, t_cut)
        suf_stack, suf_inf0 = stack_at(suffix, t_end - t_cut)
        snap.truncate_mass(-suf_inf0)
        combined = concatenate(snap, suf_stack)

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
                     p.gaussian_coeff, p.dt, 0, 0)


def test_surviving_atoms_match_erosion_formula():
    for i in range(10):
        p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=2.0, seed=13), path_index=i)
        sc = direct_height(build_nodes(p), p.beta_eff)
        stack, _ = stack_at(p, p.horizon)
        atom_masses = sorted(r["mass"] for r in stack.records() if r["kind"] == "atom")
        live = sorted(v for v in sc.final_erosion if v > 1e-12)
        assert len(atom_masses) == len(live)
        assert np.allclose(atom_masses, live, atol=1e-10)


def _replay(p: LevyPath, t: float) -> tuple[ExplorationStack, float]:
    """Stack and running infimum at grid time t, by feeding the build_nodes
    pieces up to t one at a time through push_jump and advance_continuous."""
    nodes = build_nodes(p)
    stop = int(nodes.grid_index[int(round(t / p.dt))])
    is_jump = nodes.piece_is_jump()
    stack = ExplorationStack(p.beta_eff)
    inf0 = 0.0
    for i in range(1, stop + 1):
        d = float(nodes.values[i] - nodes.values[i - 1])
        if is_jump[i - 1]:
            stack.push_jump(d)
        else:
            inf0 -= stack.advance_continuous(d)
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
                snap, inf_snap = stack_at(p, t)
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
    stack, _ = stack_at(p, 1.0)
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
    st = ExplorationStack(1.0)
    st.advance_continuous(1.0)
    st.push_jump(0.5)
    import json
    obj = json.loads(st.to_json())
    assert obj["records"][0]["kind"] == "segment"
    assert obj["records"][1] == {"kind": "atom", "mass": 0.5, "height": 1.0}
    assert obj["total_mass"] == pytest.approx(1.5)
