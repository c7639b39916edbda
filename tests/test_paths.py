import io
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from levyforest import BranchingMechanism, ConfigurationError, JumpMeasure, PowerLawTail
from levyforest import paths
from levyforest.exploration import scan_height
from levyforest.paths import (
    _assemble,
    JumpSet,
    LevyPath,
    SimConfig,
    build_nodes,
    coarsen_path,
    grid_step,
    node_prefix,
    path_stream,
    sample_path,
    sim_config_from_config,
    sim_config_to_config,
    time_reverse,
    truncate_at_level,
    write_csv,
)

FELLER = BranchingMechanism(0.5, 1.0)
JUMPY = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 0.5),)))
POWER = BranchingMechanism(0.5, 1.0, JumpMeasure(
    power_law=PowerLawTail(c=1.0, sigma=1.5, z_max=1.0)))


def make_path(values, jumps=None, dt=1.0, coeff=1.0):
    """Hand-built deterministic path (values drive everything in tests)."""
    values = np.asarray(values, dtype=float)
    return LevyPath(dt=dt, values=values,
                    brownian_increments=np.diff(values) / coeff if jumps is None
                    else np.zeros(len(values) - 1),
                    jumps=jumps or JumpSet(),
                    applied_drift=0.0, gaussian_coeff=coeff)


def test_null_mechanism_is_identically_zero():
    p = sample_path(BranchingMechanism(0.0, 0.0), SimConfig(dt=0.01, horizon=1.0, seed=3))
    assert np.all(p.values == 0.0)


def test_determinism_bit_exact():
    cfg = SimConfig(dt=1e-3, horizon=2.0, seed=42)
    a = sample_path(JUMPY, cfg, path_index=5)
    b = sample_path(JUMPY, cfg, path_index=5)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.jumps.times, b.jumps.times)
    c = sample_path(JUMPY, cfg, path_index=6)
    assert not np.array_equal(a.values, c.values)


def _same_state(a: dict, b: dict) -> bool:
    """Equal Philox states: the key, counter and buffer arrays and the rest."""
    sa, sb = a.pop("state"), b.pop("state")
    return (a.keys() == b.keys()
            and all(np.array_equal(a[k], b[k]) for k in a)
            and sa.keys() == sb.keys()
            and all(np.array_equal(sa[k], sb[k]) for k in sa))


@pytest.mark.parametrize("seed,index", [
    (0, 0), (3, 5), (17, (1 << 47) + 12), (2 ** 64 - 1, 0), (2 ** 64 - 1, 2 ** 64 - 1)])
def test_rekeyed_stream_is_a_fresh_philox(seed, index):
    # leave the thread's generator mid-buffer with a spare 32-bit half: the
    # re-key must clear both
    prev = path_stream(9, 9)
    prev.integers(0, 10, size=3, dtype=np.uint32)
    prev.random(3)
    assert prev.bit_generator.state["has_uint32"] == 1
    assert prev.bit_generator.state["buffer_pos"] < 4
    rng = path_stream(seed, index)
    fresh = np.random.Generator(np.random.Philox(
        key=np.array([seed, index], dtype=np.uint64)))
    assert _same_state(rng.bit_generator.state, fresh.bit_generator.state)
    for draw in (lambda g: g.normal(0.0, 0.5, size=7), lambda g: g.poisson(3.0, size=5),
                 lambda g: g.random(9), lambda g: g.integers(0, 7, size=3, dtype=np.uint32),
                 lambda g: g.normal(size=1000)):
        assert np.array_equal(draw(rng), draw(fresh))
    assert _same_state(rng.bit_generator.state, fresh.bit_generator.state)


def test_threads_draw_paths_from_their_own_streams(monkeypatch):
    # two threads take turns inside sample_path, swapping at every chunk's
    # jump draw: each re-keys its own generator, so their paths equal the
    # same paths drawn one after another
    mech = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((0.1, 20.0),)))
    cfg = SimConfig(dt=1e-3, horizon=8.0, seed=4)       # 8 chunks, each with jumps
    want = [sample_path(mech, cfg, path_index=i).values for i in range(4)]
    rate, draw, comp, var_rate = paths.simulated_law(mech, cfg)
    turn = threading.Barrier(2, timeout=30)

    def draw_in_turn(rng, n):
        turn.wait()
        return draw(rng, n)

    monkeypatch.setattr(paths, "simulated_law",
                        lambda *_: (rate, draw_in_turn, comp, var_rate))
    got = {}

    def work(i):
        got[i] = sample_path(mech, cfg, path_index=i).values

    for pair in ((0, 1), (2, 3)):
        threads = [threading.Thread(target=work, args=(i,)) for i in pair]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    assert all(np.array_equal(got.get(i), want[i]) for i in range(4))


def test_atoms_given_as_lists_draw_the_same_path():
    # the simulated law is cached per mechanism, so the measure must hash
    listed = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=[[1.0, 0.5]]))
    assert listed == JUMPY and hash(listed) == hash(JUMPY)
    cfg = SimConfig(dt=1e-3, horizon=2.0, seed=42)
    a, b = sample_path(listed, cfg), sample_path(JUMPY, cfg)
    assert len(a.jumps) > 0
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.jumps.sizes, b.jumps.sizes)


def test_reconstruction_residual():
    # the stored components (drift, Gaussian coefficient times the Brownian
    # cell increments, each cell's jumps) rebuild the values
    cfg = SimConfig(dt=1e-3, horizon=3.0, seed=9)
    for mech in (FELLER, JUMPY):
        p = sample_path(mech, cfg, path_index=1)
        inc = p.applied_drift * p.dt + p.gaussian_coeff * p.brownian_increments
        np.add.at(inc, p.jumps.cells, p.jumps.sizes)
        rebuilt = np.concatenate(([0.0], np.cumsum(inc)))
        scale = max(1.0, float(np.abs(p.values).max()))
        assert np.max(np.abs(rebuilt - p.values)) <= 1e-12 * scale


def test_stop_level_yields_bit_exact_prefix():
    # a full jump-free path draws its normals in one call, a stopped one in
    # chunks of 1024 cells: the FELLER prefix spans five of them
    cfg = SimConfig(dt=1e-3, horizon=6.0, seed=11)
    for mech, level in ((JUMPY, 0.7), (FELLER, 8.0)):
        full = sample_path(mech, cfg, path_index=2)
        stopped = sample_path(mech, cfg, path_index=2, stop_level=level)
        n = len(stopped.values)
        assert n <= len(full.values)
        assert np.array_equal(stopped.values, full.values[:n])
    assert n > 4 * 1024


def test_compensated_drift_mean():
    cfg = SimConfig(dt=2e-3, horizon=1.5, seed=101)
    m, t_idx = 1200, 700
    vals = np.array([sample_path(JUMPY, cfg, path_index=i).values[t_idx]
                     for i in range(m)])
    t = t_idx * cfg.dt
    se = vals.std(ddof=1) / math.sqrt(m)
    assert abs(vals.mean() - (-JUMPY.alpha * t)) <= 3 * se


def test_jump_counts_are_poisson():
    cfg = SimConfig(dt=2e-3, horizon=2.0, seed=55)
    m = 1200
    counts = np.array([len(sample_path(JUMPY, cfg, path_index=i).jumps)
                       for i in range(m)])
    lam = 0.5 * cfg.horizon
    se_mean = counts.std(ddof=1) / math.sqrt(m)
    assert abs(counts.mean() - lam) <= 3 * se_mean
    # variance must track the mean as well
    se_var = math.sqrt(2.0 / m) * lam * 2.0
    assert abs(counts.var(ddof=1) - lam) <= 3 * se_var


def test_empirical_laplace_matches_truncated_exponent():
    # the grid law is exact in distribution, so a coarse step suffices
    cfg = SimConfig(dt=0.01, horizon=1.01, seed=77)
    m, lam, t_idx = 1500, 0.8, 100
    vals = np.array([sample_path(JUMPY, cfg, path_index=i).values[t_idx]
                     for i in range(m)])
    samples = np.exp(-lam * vals)
    target = math.exp(1.0 * JUMPY.truncated_exponent(lam, 0.0))
    se = samples.std(ddof=1) / math.sqrt(m)
    assert abs(samples.mean() - target) <= 3 * se


def test_gaussian_correction_moves_the_exponent():
    mech = BranchingMechanism(0.2, 0.3, JumpMeasure(
        power_law=PowerLawTail(c=0.5, sigma=1.5, z_min=0.0, z_max=2.0)))
    cfg = SimConfig(dt=0.01, horizon=1.01, seed=13, truncation_delta=0.2,
                    small_jump_mode="gaussian_correction")
    m, lam, t_idx = 1500, 1.0, 100
    vals = np.array([sample_path(mech, cfg, path_index=i).values[t_idx]
                     for i in range(m)])
    samples = np.exp(-lam * vals)
    target = math.exp(mech.truncated_exponent(lam, 0.2, gaussian_correction=True))
    se = samples.std(ddof=1) / math.sqrt(m)
    assert abs(samples.mean() - target) <= 3 * se
    # and the path records the folded coefficient
    p = sample_path(mech, cfg, path_index=0)
    assert p.beta_eff == pytest.approx(mech.beta + 0.5 * mech.jumps.moment(2, 0.0, 0.2))


def test_power_law_to_zero_requires_truncation():
    mech = BranchingMechanism(0.0, 0.0, JumpMeasure(
        power_law=PowerLawTail(c=1.0, sigma=1.5, z_min=0.0)))
    with pytest.raises(ConfigurationError):
        sample_path(mech, SimConfig(dt=1e-3, horizon=1.0, seed=1))


def _supremum(p: LevyPath) -> np.ndarray:
    """Running supremum at the grid times, intra-cell jump peaks included."""
    nodes = build_nodes(p)
    return np.maximum.accumulate(nodes.values)[nodes.grid_index]


def _stack_at(p: LevyPath, t: float):
    """The exploration stack after the path up to grid time t."""
    nodes = build_nodes(p)
    return scan_height(node_prefix(nodes, int(nodes.grid_index[grid_step(p, t)]) + 1),
                       p.beta_eff).stack


def _hitting_time(p: LevyPath, x: float) -> float | None:
    """First time the path reaches -x; None if the horizon comes first."""
    cut = truncate_at_level(build_nodes(p), x)
    return None if cut is None else cut[1]


def test_supremum_sawtooth():
    p = make_path([0.0, 1.0, -1.0, 2.0])
    assert np.array_equal(_supremum(p), [0.0, 1.0, 1.0, 2.0])
    assert (_supremum(p) - p.values >= 0.0).all()


def test_supremum_includes_intra_cell_jump_top():
    # cell 1 carries cont -0.5 and a jump of 2 at frac 0.5: peak 2.75 inside
    jumps = JumpSet(times=np.array([1.5]), sizes=np.array([2.0]),
                    pre_values=np.array([0.75]), cells=np.array([1]),
                    fracs=np.array([0.5]))
    p = LevyPath(dt=1.0, values=np.array([0.0, 1.0, 2.5]),
                 brownian_increments=np.array([1.0, -0.5]), jumps=jumps,
                 applied_drift=0.0, gaussian_coeff=1.0)
    s = _supremum(p)
    assert np.array_equal(s, [0.0, 1.0, 2.75])
    # jump increment of the supremum: (xi_{t_i} - S_{t_i-})^+
    nodes = build_nodes(p)
    s_nodes = np.maximum.accumulate(nodes.values)
    post = nodes.jump_post[0]
    assert (nodes.values[post] - s_nodes[post - 1]) == pytest.approx(2.75 - 1.0)


@pytest.mark.parametrize("t", [-0.5, 0.30005, 2.5], ids=["negative", "off-grid", "past-horizon"])
@pytest.mark.parametrize("call", [time_reverse, _stack_at], ids=["time_reverse", "stack_at"])
def test_times_off_the_grid_are_rejected(call, t):
    p = sample_path(JUMPY, SimConfig(dt=1e-2, horizon=2.0, seed=3), path_index=1)
    assert (grid_step(p, 0.0), grid_step(p, 0.3), grid_step(p, 2.0)) == (0, 30, 200)
    with pytest.raises(ValueError, match="not a grid time"):
        call(p, t)


def test_time_reverse_is_bit_exact_involution():
    p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=4.0, seed=42), path_index=3)
    r = time_reverse(p, 2.0)
    rr = time_reverse(r, 2.0)
    assert np.array_equal(rr.values, p.values[:2001])
    assert np.array_equal(rr.jumps.times, p.jumps.times[p.jumps.cells < 2000])
    assert np.array_equal(rr.jumps.pre_values, p.jumps.pre_values[p.jumps.cells < 2000])


def test_time_reverse_endpoints_and_increments():
    p = sample_path(JUMPY, SimConfig(dt=1e-3, horizon=2.0, seed=8), path_index=0)
    r = time_reverse(p)
    assert r.values[0] == 0.0
    assert r.values[-1] == pytest.approx(p.values[-1], abs=1e-12)
    # reversal permutes the increments, preserving their empirical law exactly
    assert np.allclose(np.sort(np.diff(r.values)), np.sort(np.diff(p.values)))
    assert (r.jumps.sizes > 0).all()
    with pytest.raises(ValueError):
        time_reverse(p, 2.0005)
    with pytest.raises(ValueError):
        time_reverse(p, 5.0)


def test_hitting_time_pure_drift_exact():
    drift = BranchingMechanism(1.0, 0.0)
    p = sample_path(drift, SimConfig(dt=1e-3, horizon=2.0, seed=0))
    assert _hitting_time(p, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert _hitting_time(p, 0.0) == 0.0
    assert _hitting_time(p, 5.0) is None


def test_hitting_time_mean_matches_optional_stopping():
    cfg = SimConfig(dt=1e-3, horizon=40.0, seed=19)
    m = 500
    taus = []
    for i in range(m):
        p = sample_path(FELLER, cfg, path_index=i, stop_level=1.0)
        tau = _hitting_time(p, 1.0)
        if tau is not None:
            taus.append(tau)
    taus = np.array(taus)
    assert len(taus) >= 0.97 * m
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    assert abs(taus.mean() - 1.0 / FELLER.alpha) <= 3 * se + 0.02


def test_truncate_at_level_ends_exactly_at_minus_x():
    p = sample_path(FELLER, SimConfig(dt=1e-3, horizon=30.0, seed=5), stop_level=0.8)
    nodes, tau = truncate_at_level(build_nodes(p), 0.8)
    assert nodes.values[-1] == -0.8
    assert nodes.times[-1] == pytest.approx(tau)
    assert (nodes.values[:-1] > -0.8).all()


def test_coarsen_path_agrees_at_shared_grid_points():
    p = sample_path(JUMPY, SimConfig(dt=2.5e-4, horizon=2.0, seed=31), path_index=2)
    q = coarsen_path(p, 4)
    assert q.dt == pytest.approx(1e-3)
    assert np.allclose(q.values, p.values[::4], atol=1e-12)
    assert np.array_equal(q.jumps.times, p.jumps.times)
    with pytest.raises(ValueError):
        coarsen_path(p, 3)  # 8000 cells not divisible by 3 -> ValueError
    # exact time preservation under power-of-two recelling
    assert np.array_equal((q.jumps.cells + q.jumps.fracs) * q.dt,
                          (p.jumps.cells + p.jumps.fracs) * p.dt)


def test_sim_config_validation_and_roundtrip():
    cfg = SimConfig(dt=1e-3, horizon=2.0, truncation_delta=0.1,
                    small_jump_mode="gaussian_correction", seed=9)
    assert sim_config_from_config(sim_config_to_config(cfg)) == cfg
    with pytest.raises(ConfigurationError, match="dt"):
        SimConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ConfigurationError, match="horizon"):
        sim_config_from_config({"dt": 1e-3})
    with pytest.raises(ConfigurationError, match="small_jump_mode"):
        SimConfig(dt=1e-3, horizon=1.0, small_jump_mode="bogus")


def test_csv_exports():
    p = sample_path(JUMPY, SimConfig(dt=0.01, horizon=1.0, seed=2), path_index=7)
    buf = io.StringIO()
    write_csv(buf, ["time", "value"], p.grid_times(), p.values)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,value"
    assert len(lines) == p.n_cells + 2
    buf = io.StringIO()
    j = p.jumps
    write_csv(buf, ["time", "size", "pre_value"], j.times, j.sizes, j.pre_values)
    jlines = buf.getvalue().strip().splitlines()
    assert jlines[0] == "time,size,pre_value"
    assert len(jlines) == len(p.jumps) + 1


# -- the assembler against its sorting oracle ---------------------------------

def _assemble_oracle(db, cells, fracs, sizes, drift, coeff, dt):
    """(values, JumpSet) as the assembler built them when it sorted its jumps
    by (cell, frac) itself and added each cell's jump mass with np.add.at."""
    inc = drift * dt + coeff * db
    if len(cells):
        cell_jump = np.zeros(len(db))
        np.add.at(cell_jump, cells, sizes)
        inc += cell_jump
    values = np.empty(len(db) + 1)
    values[0] = 0.0
    np.cumsum(inc, out=values[1:])
    if not len(cells):
        return values, JumpSet()
    order = np.lexsort((fracs, cells))
    cells, fracs, sizes = cells[order], fracs[order], sizes[order]
    cum = np.cumsum(sizes) - sizes
    first = np.ones(len(cells), dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    cell_base = np.repeat(cum[first], np.diff(np.append(np.flatnonzero(first), len(cells))))
    pre = values[cells] + fracs * (drift * dt + coeff * db[cells]) + (cum - cell_base)
    return values, JumpSet(times=(cells + fracs) * dt, sizes=sizes, pre_values=pre,
                           cells=cells, fracs=fracs)


def _assert_matches_oracle(path, db, cells, fracs, sizes):
    values, jumps = _assemble_oracle(db, cells, fracs, sizes, path.applied_drift,
                                     path.gaussian_coeff, path.dt)
    assert np.array_equal(path.values, values)
    for name in ("times", "sizes", "pre_values", "cells", "fracs"):
        got, want = getattr(path.jumps, name), getattr(jumps, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("mech", [BranchingMechanism(0.5, 0.5, JumpMeasure(
    atoms=((1.0, 3.0), (0.25, 8.0)))), POWER], ids=["atoms", "power-law"])
def test_assemble_matches_the_sorting_oracle(mech):
    cfg = SimConfig(dt=1e-3, horizon=8.0, truncation_delta=0.03,
                    small_jump_mode="gaussian_correction", seed=12)
    full = sample_path(mech, cfg, path_index=3)
    stopped = sample_path(mech, cfg, path_index=3, stop_level=0.4, stop_grid_ratio=4)
    assert len(full.jumps) > len(stopped.jumps) > 0
    for p in (full, stopped):
        j = p.jumps
        _assert_matches_oracle(p, p.brownian_increments, j.cells, j.fracs, j.sizes)
        for ratio in (2, 4):
            n = p.n_cells - p.n_cells % ratio
            head = replace(p, values=p.values[:n + 1], brownian_increments=p.brownian_increments[:n],
                           jumps=JumpSet(*(getattr(j, f)[j.cells < n] for f in
                                           ("times", "sizes", "pre_values", "cells", "fracs"))))
            h = head.jumps
            _assert_matches_oracle(coarsen_path(head, ratio),
                                   head.brownian_increments.reshape(-1, ratio).sum(axis=1),
                                   h.cells // ratio, ((h.cells % ratio) + h.fracs) / ratio,
                                   h.sizes)
        m = p.n_cells // 2
        keep = j.cells < m
        _assert_matches_oracle(time_reverse(p, m * p.dt), p.brownian_increments[:m][::-1].copy(),
                               (m - 1) - j.cells[keep][::-1], 1.0 - j.fracs[keep][::-1],
                               j.sizes[keep][::-1])


def test_assemble_two_jumps_at_one_instant_matches_the_oracle():
    db = np.array([0.5, -0.25, 0.75, -1.0])
    cells, fracs = np.array([1, 1, 2]), np.array([0.5, 0.5, 0.25])
    sizes = np.array([1.0, 0.5, 0.125])
    p = _assemble(db, cells, fracs, sizes, -0.5, 1.0, 0.5)
    _assert_matches_oracle(p, db, cells, fracs, sizes)
    assert p.jumps.pre_values[1] == p.jumps.pre_values[0] + 1.0
    r = time_reverse(p)
    _assert_matches_oracle(r, db[::-1].copy(), 3 - cells[::-1], 1.0 - fracs[::-1], sizes[::-1])
    assert r.jumps.cells.tolist() == [1, 2, 2]
    _assert_matches_oracle(coarsen_path(p, 2), db.reshape(-1, 2).sum(axis=1),
                           cells // 2, ((cells % 2) + fracs) / 2, sizes)
