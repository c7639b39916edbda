import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyforest import BranchingMechanism, JumpMeasure
from levyforest.exploration import scan_height
from levyforest.local_time import (
    aligned_level_width,
    default_level_width,
    level_bins,
    occupation_profile,
    running_local_time,
    tanaka_local_time,
)
from levyforest.mechanism import PowerLawTail
from levyforest.paths import Nodes, SimConfig, build_nodes, coarsen_path, sample_path, truncate_at_level
from levyforest.verify import _heights, _level_profile, _ray_knight_row

FELLER = BranchingMechanism(0.5, 1.0)
JUMPY = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 0.5),)))
POWER = BranchingMechanism(0.5, 1.0, JumpMeasure(
    power_law=PowerLawTail(c=1.0, sigma=1.5, z_max=1.0)))


def test_constant_trajectory_fills_one_bin():
    times = np.arange(11) * 0.1
    heights = np.full(11, 0.33)
    prof = occupation_profile(times, heights, 0.1, 10)
    # H = 0.33 sits in (0.3, 0.4]; total time 1.0 over width 0.1
    assert prof[3] == pytest.approx(10.0)
    assert np.all(prof[[j for j in range(10) if j != 3]] == 0.0)


def test_occupation_identity_is_exact():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=2.0, seed=1), path_index=0)
    nodes = build_nodes(p)
    sc = scan_height(nodes, p.beta_eff)
    width = 0.05
    nb = int(np.ceil(sc.height.max() / width)) + 2
    prof = occupation_profile(nodes.times, sc.height, width, nb)
    rng = np.random.default_rng(0)
    f = rng.random(nb)
    lhs = float((prof * width * f).sum())
    bins = np.ceil(sc.height / width).astype(np.int64) - 1     # -1 for H = 0
    w = np.append(np.diff(nodes.times), 0.0)
    ok = bins >= 0
    rhs = float((w[ok] * f[bins[ok]]).sum())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_vertices_at_zero_height_belong_to_no_bin():
    times = np.arange(5) * 1.0
    heights = np.array([0.0, 0.2, 0.0, 0.2, 0.0])
    prof = occupation_profile(times, heights, 0.1, 5)
    assert prof.sum() * 0.1 == pytest.approx(2.0)      # only the H=0.2 pieces
    assert level_bins(times, heights, 0.1).key[0] == 0


# -- local-time kernels against per-vertex loops -----------------------------------

def _naive_running(times, heights, width):
    """Occupation of H_i's bin strictly before vertex i, one vertex at a time."""
    occ = {}
    out = np.zeros(len(times))
    for i, h in enumerate(heights):
        if h <= 0.0:
            continue
        b = math.ceil(h / width) - 1
        out[i] = occ.get(b, 0.0) / width
        occ[b] = occ.get(b, 0.0) + (times[i + 1] - times[i] if i + 1 < len(times) else 0.0)
    return out, occ


def _assert_kernels_match_loop(times, heights, width):
    run = running_local_time(times, heights, width)
    naive, occ = _naive_running(times, heights, width)
    scale = max(1.0, float(np.abs(naive).max()))
    assert np.max(np.abs(run - naive)) <= 1e-12 * scale
    n_bins = max(occ) + 1
    for nb in (n_bins, max(n_bins // 2, 1)):
        prof = occupation_profile(times, heights, width, nb)
        want = np.array([occ.get(b, 0.0) for b in range(nb)]) / width
        assert np.max(np.abs(prof - want)) <= 1e-12 * max(1.0, float(want.max()))
    # one binning shared by both kernels gives the same bits
    lb = level_bins(times, heights, width)
    assert np.array_equal(running_local_time(times, heights, width, binned=lb), run)
    assert np.array_equal(occupation_profile(times, heights, width, n_bins, binned=lb),
                          occupation_profile(times, heights, width, n_bins))
    return lb


def test_running_local_time_hand_case():
    # dyadic heights and width; vertex 1 is a zero-weight pre-jump vertex
    times = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    heights = np.array([0.0, 0.5, 0.5, 0.0, 0.375, 0.5, 0.75])
    run = running_local_time(times, heights, 0.25)
    assert run.tolist() == [0.0, 0.0, 0.0, 0.0, 4.0, 8.0, 0.0]
    assert occupation_profile(times, heights, 0.25, 3).tolist() == [0.0, 12.0, 0.0]
    _assert_kernels_match_loop(times, heights, 0.25)


def test_running_local_time_matches_loop_on_jump_path():
    p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=3.0, seed=21), path_index=1)
    nodes = build_nodes(p)
    sc = scan_height(nodes, p.beta_eff)
    pre = nodes.jump_post - 1
    assert (sc.height == 0.0).sum() >= 10              # vertices at H = 0
    assert (sc.height[pre] > 0.0).sum() >= 2           # binned zero-weight vertices
    assert (np.diff(nodes.times)[pre] == 0.0).all()
    keys = [_assert_kernels_match_loop(nodes.times, sc.height, width).key.dtype
            for width in (0.05, 0.0125)]
    assert keys == [np.uint8, np.uint16]               # up to 255 bins, then more


def test_running_local_time_matches_loop_with_a_wide_key():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=4.0, seed=22), path_index=0)
    nodes = build_nodes(p)
    sc = scan_height(nodes, p.beta_eff)
    width = float(sc.height.max()) / 70000.0           # more bins than a uint16 holds
    lb = _assert_kernels_match_loop(nodes.times, sc.height, width)
    assert lb.key.dtype == np.uint32 and lb.top > 65535


# -- binning only the levels up to a top bin ----------------------------------------

RESTRICT_LAWS = {"jump-free": (FELLER, 0.0), "atom": (JUMPY, 0.0), "power-law": (POWER, 0.03)}


@functools.lru_cache(maxsize=None)
def _restrict_trajectory(law: str, index: int) -> tuple[np.ndarray, np.ndarray]:
    mech, delta = RESTRICT_LAWS[law]
    cfg = SimConfig(dt=1e-3, horizon=3.0, truncation_delta=delta,
                    small_jump_mode="gaussian_correction", seed=41)
    p = sample_path(mech, cfg, path_index=index)
    nodes = build_nodes(p)
    return nodes.times, scan_height(nodes, p.beta_eff).height


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(RESTRICT_LAWS)), index=st.integers(0, 5),
       width=st.sampled_from([0.05, 0.1, 0.0125]) | st.floats(0.004, 0.7),
       limit=st.integers(0, 300), above_top=st.booleans(), planted=st.booleans(),
       n_bins=st.integers(1, 300))
def test_restricted_bins_give_the_full_floats(law, index, width, limit, above_top, planted,
                                              n_bins):
    times, heights = _restrict_trajectory(law, index)
    if planted:
        # heights exactly 0 and exactly on a bin edge, as floats k * width
        heights = heights.copy()
        heights[1::5] = 0.0
        heights[2::7] = np.round(heights[2::7] / width) * width
    full = level_bins(times, heights, width)
    assert full.key.dtype == next(t for t in (np.uint8, np.uint16, np.uint32)
                                  if full.top <= np.iinfo(t).max)
    if above_top:
        limit += full.top
    part = level_bins(times, heights, width, limit=limit)
    assert np.array_equal(part.kept, full.key <= limit)
    assert np.array_equal(part.key, full.key[part.kept]) and part.top <= limit
    assert part.key.dtype.itemsize <= full.key.dtype.itemsize
    run = running_local_time(times, heights, width, binned=full)
    assert _bits(running_local_time(times, heights, width, binned=part)) \
        == _bits(run[part.kept])
    if limit >= 1:
        for nb in {min(n_bins, limit), limit}:
            assert _bits(occupation_profile(times, heights, width, nb, binned=part)) \
                == _bits(occupation_profile(times, heights, width, nb, binned=full))


def test_profile_at_hitting_level_zero_recovers_mass():
    # bin 0 of the ray-knight suite's profile of each path stopped at -1
    cfg = SimConfig(dt=2.5e-4, horizon=30.0, seed=8)
    vals = np.array([_ray_knight_row((FELLER, cfg, 1.0, [0], 0.05), i)[0][0]
                     for i in range(250)])
    vals = vals[~np.isnan(vals)]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    # estimator tolerance: boundary bias at level zero decays with dt, da
    assert abs(vals.mean() - 1.0) <= 3 * se + 0.10
    miss, = _ray_knight_row((FELLER, SimConfig(dt=1e-3, horizon=0.01, seed=8),
                             50.0, [0], 0.05), 0)
    assert np.isnan(miss).all()


def test_profile_above_max_height_is_zero():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=20.0, seed=12), stop_level=0.5)
    width = 0.05
    nodes, sc = _heights(p, 0.5)
    prof = _level_profile(nodes, sc.height, width, range(400))
    top_bin = int(np.ceil(sc.height.max() / width))
    assert np.all(prof[top_bin + 1:] == 0.0)


def test_level_zero_estimate_refines_toward_minus_infimum():
    # mean absolute error of the level-zero bin against -inf(xi) shrinks
    # along a dt ladder with width ~ dt^(1/3) (common driving noise)
    mech = FELLER
    m = 500
    fine = SimConfig(dt=1e-4, horizon=1.0, seed=33)
    errs = {4: [], 2: [], 1: []}
    for i in range(m):
        p = sample_path(mech, fine, path_index=i)
        for r in (4, 2, 1):
            q = coarsen_path(p, r)
            nodes = build_nodes(q)
            sc = scan_height(nodes, q.beta_eff)
            prof = occupation_profile(nodes.times, sc.height, q.dt ** (1 / 3), 1)
            errs[r].append(abs(prof[0] - (-sc.infimum[-1])))
    means = [np.mean(errs[r]) for r in (4, 2, 1)]
    assert means[0] > means[1] > means[2]


# -- Tanaka evaluations --------------------------------------------------------

def test_tanaka_vanishes_above_max_height():
    p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=2.0, seed=7), path_index=3)
    sc = scan_height(build_nodes(p), p.beta_eff)
    a = float(sc.height.max()) + 0.5
    assert abs(tanaka_local_time(sc, a, "plus")) <= 1e-12
    assert abs(tanaka_local_time(sc, a, "minus")) <= 1e-10


def test_tanaka_plus_minus_pathwise_identity():
    worst = 0.0
    for i in range(20):
        mech = JUMPY if i % 2 else FELLER
        p = sample_path(mech, SimConfig(dt=1e-3, horizon=2.0, seed=7), path_index=i)
        sc = scan_height(build_nodes(p), p.beta_eff)
        for a in (0.0, 0.2, 0.7, 1.5):
            worst = max(worst, abs(tanaka_local_time(sc, a, "plus")
                                   - tanaka_local_time(sc, a, "minus")))
    assert worst <= 1e-9


def test_tanaka_level_zero_recovers_stopped_mass():
    p = sample_path(FELLER, SimConfig(dt=2.5e-4, horizon=30.0, seed=9), stop_level=1.0)
    cut = truncate_at_level(build_nodes(p), 1.0)
    sc = scan_height(cut[0], p.beta_eff)
    val = tanaka_local_time(sc, 0.0, "minus")
    assert val == pytest.approx(1.0, abs=0.15)
    assert tanaka_local_time(sc, 0.0, "plus") == pytest.approx(val, abs=1e-10)


def test_tanaka_agrees_with_occupation_on_average():
    m = 300
    diffs = []
    for i in range(m):
        p = sample_path(FELLER, SimConfig(dt=5e-4, horizon=2.0, seed=10), path_index=i)
        nodes = build_nodes(p)
        sc = scan_height(nodes, p.beta_eff)
        prof = occupation_profile(nodes.times, sc.height, 0.0625, 60)
        a = 0.5
        diffs.append(prof[8] - tanaka_local_time(sc, a, "plus"))
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / math.sqrt(m)
    assert abs(diffs.mean()) <= 3 * se + 0.05


def test_tanaka_rejects_bad_arguments():
    p = sample_path(FELLER, SimConfig(dt=1e-2, horizon=1.0, seed=1))
    sc = scan_height(build_nodes(p), p.beta_eff)
    with pytest.raises(ValueError):
        tanaka_local_time(sc, -1.0, "plus")
    with pytest.raises(ValueError):
        tanaka_local_time(sc, 0.5, "bogus")


# -- jump erosion diagnostic ---------------------------------------------------

def jump_erosion_residual(scan, width):
    """Worst mismatch, over the atoms still alive at the end of the scan, of
    the pathwise identity inf_{[t_i,t]} xi - xi_{t_i} = L_{t_i}(H_{t_i}) -
    L_t(H_{t_i}): the drop of the infimum since a jump against the local
    time its height accrued since (0 with no live atoms)."""
    live = scan.final_erosion > 0.0
    if not live.any():
        return 0.0
    nodes = scan.nodes
    posts = nodes.jump_post[live]
    lhs = scan.final_erosion[live] - nodes.jump_sizes[live]     # = inf - xi_{t_i} <= 0
    lb = level_bins(nodes.times, scan.height, width)
    bins = lb.key[posts].astype(np.int64) - 1       # -1 for an atom at H = 0
    n_bins = max(int(bins.max()) + 1, 1)
    prof = occupation_profile(nodes.times, scan.height, width, n_bins, binned=lb)
    run = running_local_time(nodes.times, scan.height, width, binned=lb)
    rhs = np.where(bins >= 0, run[posts] - prof[np.maximum(bins, 0)], 0.0)
    return float(np.max(np.abs(lhs - rhs)))


def test_jump_erosion_residual_vacuous_without_jumps():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=1.0, seed=11))
    sc = scan_height(build_nodes(p), p.beta_eff)
    assert jump_erosion_residual(sc, 0.05) == 0.0


def test_jump_erosion_residual_zero_right_after_the_jump():
    # window ending at the jump vertex: both sides of the identity vanish
    times = np.array([0.0, 1.0, 1.5, 1.5])
    values = np.array([0.0, 1.0, 0.8, 2.8])
    nodes = Nodes(times=times, values=values,
                  jump_post=np.array([3]), jump_sizes=np.array([2.0]),
                  grid_index=np.array([0, 1]))
    sc = scan_height(nodes, 1.0)
    assert jump_erosion_residual(sc, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_jump_erosion_residual_shrinks_under_refinement():
    m = 150
    res = {2: [], 1: []}
    fine = SimConfig(dt=2.5e-4, horizon=2.0, seed=14)
    for i in range(m):
        p = sample_path(JUMPY, fine, path_index=i)
        if not len(p.jumps):
            continue
        for r in (2, 1):
            q = coarsen_path(p, r)
            sc = scan_height(build_nodes(q), q.beta_eff)
            res[r].append(jump_erosion_residual(sc, 2.0 * q.dt ** (1 / 3)))
    assert np.mean(res[2]) > np.mean(res[1])


# -- bandwidth plumbing ---------------------------------------------------------

def test_default_level_width_coupling():
    assert default_level_width(1e-3, 1.0) == pytest.approx(max(0.1, 4 * math.sqrt(1e-3)))
    assert default_level_width(1e-4, 0.5) == pytest.approx(max(1e-4 ** (1 / 3), 8 * 1e-2))


def test_aligned_level_width():
    w = aligned_level_width(0.063, [0.25, 0.5, 1.0])
    assert w == pytest.approx(0.0625)
    for a in (0.25, 0.5, 1.0):
        assert abs(a / w - round(a / w)) < 1e-9
