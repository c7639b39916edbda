import io
import math

import numpy as np
import pytest

from levyforest import BranchingMechanism, JumpMeasure
from levyforest.cb_flow import cb_marginals, simulate_cb
from levyforest.paths import SimConfig, write_csv

FELLER = BranchingMechanism(0.5, 1.0)
FELLER0 = BranchingMechanism(0.0, 1.0)
JUMPY = BranchingMechanism(0.5, 0.5, JumpMeasure(atoms=((1.0, 0.5),)))


def _flow(mech, xs, cfg) -> np.ndarray:
    """Coupled trajectories from ascending initial masses x_1 <= ... <= x_k,
    one row each: row i sums the independent layers simulate_cb(x_j - x_{j-1})
    for j <= i, layer j on stream 2 + j.  The flow in the initial mass has
    independent increments, so the rows have the right joint law and stay
    ordered at every step (a shared-Gaussian Euler coupling can flip the
    order near absorption).  A negative layer raises ValueError."""
    layers = [xs[0]] + [b - a for a, b in zip(xs, xs[1:])]
    return np.cumsum([simulate_cb(mech, y, cfg, stream_index=2 + j)
                      for j, y in enumerate(layers)], axis=0)


def test_zero_mass_is_absorbing():
    t = simulate_cb(FELLER, 0.0, SimConfig(dt=1e-3, horizon=1.0, seed=1))
    assert np.all(t == 0.0)


def test_absorption_is_permanent_and_values_nonnegative():
    t = simulate_cb(FELLER, 0.05, SimConfig(dt=1e-3, horizon=8.0, seed=5))
    assert (t >= 0.0).all()
    zeros = np.flatnonzero(t == 0.0)
    if len(zeros):
        assert np.all(t[zeros[0]:] == 0.0)


def test_mean_decay():
    cfg = SimConfig(dt=5e-4, horizon=1.01, seed=3)
    marg = cb_marginals(FELLER, 1.0, cfg, 4000, [0.5, 1.0])
    for t, xs in marg.items():
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - math.exp(-0.5 * t)) <= 3 * se + 0.01


def test_feller_marginal_laplace_matches_riccati():
    cfg = SimConfig(dt=2.5e-4, horizon=1.01, seed=9)
    marg = cb_marginals(FELLER0, 1.0, cfg, 4000, [1.0])
    lam, t = 1.0, 1.0
    lp = np.exp(-lam * marg[t])
    exact = math.exp(-lam / (1.0 + lam * t))
    se = lp.std(ddof=1) / math.sqrt(len(lp))
    assert abs(lp.mean() - exact) <= 3 * se + 0.01 * exact


def test_marginal_law_matches_cb_laplace_on_grid():
    cfg = SimConfig(dt=5e-4, horizon=1.01, seed=23)
    marg = cb_marginals(JUMPY, 1.0, cfg, 4000, [0.25, 1.0])
    for t, xs in marg.items():
        for lam in (0.5, 2.0):
            lp = np.exp(-lam * xs)
            exact = JUMPY.cb_laplace(1.0, t, lam)
            se = lp.std(ddof=1) / math.sqrt(len(lp))
            assert abs(lp.mean() - exact) <= 3 * se + 0.02 * exact


def test_branching_additivity_via_laplace_product():
    cfg = SimConfig(dt=5e-4, horizon=0.76, seed=31)
    lam, t = 1.0, 0.75
    a = cb_marginals(FELLER, 0.7, cfg, 4000, [t], stream_index=10)
    b = cb_marginals(FELLER, 1.3, cfg, 4000, [t], stream_index=20)
    c = cb_marginals(FELLER, 2.0, cfg, 4000, [t], stream_index=30)
    lp_prod = np.exp(-lam * a[t]) * np.exp(-lam * b[t])
    lp_sum = np.exp(-lam * c[t])
    se = math.hypot(lp_prod.std(ddof=1), lp_sum.std(ddof=1)) / math.sqrt(4000)
    assert abs(lp_prod.mean() - lp_sum.mean()) <= 3 * se + 0.01


def test_flow_is_pathwise_monotone():
    fl = _flow(JUMPY, [0.5, 1.0, 2.0], SimConfig(dt=1e-3, horizon=1.0, seed=21))
    assert np.all(np.diff(fl, axis=0) >= 0.0)
    assert (fl >= 0.0).all()


def test_flow_equal_masses_identical_trajectories():
    fl = _flow(FELLER, [1.0, 1.0], SimConfig(dt=1e-3, horizon=1.0, seed=2))
    assert np.array_equal(fl[0], fl[1])


def test_flow_increment_law():
    lam, t = 1.0, 1.0
    m = 800
    diffs = np.empty(m)
    for i in range(m):
        fl = _flow(JUMPY, [1.0, 2.0], SimConfig(dt=2e-3, horizon=1.0, seed=5000 + i))
        diffs[i] = fl[1, -1] - fl[0, -1]
    lp = np.exp(-lam * diffs)
    exact = math.exp(-1.0 * JUMPY.v(t, lam))
    se = lp.std(ddof=1) / math.sqrt(m)
    assert abs(lp.mean() - exact) <= 3 * se + 0.02 * exact


def test_flow_rejects_bad_masses():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        _flow(FELLER, [2.0, 1.0], cfg)
    with pytest.raises(ValueError):
        _flow(FELLER, [-1.0, 1.0], cfg)
    with pytest.raises(ValueError):
        simulate_cb(FELLER, -0.5, cfg)


def test_trajectory_csv():
    t = simulate_cb(JUMPY, 1.0, SimConfig(dt=0.01, horizon=0.5, seed=4))
    buf = io.StringIO()
    write_csv(buf, ["time", "value"], np.arange(len(t)) * 0.01, t)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,value"
    assert len(lines) == 52
