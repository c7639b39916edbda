import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyforest import (
    BranchingMechanism,
    ConfigurationError,
    JumpMeasure,
    PowerLawTail,
    mechanism_from_config,
    mechanism_to_config,
)
from levyforest.mechanism import _SERIES_SEAM, _tail_compensator

FELLER = BranchingMechanism(0.0, 1.0)
LINEAR = BranchingMechanism(1.0, 0.0)
ATOM = BranchingMechanism(0.0, 0.0, JumpMeasure(atoms=((1.0, 1.0),)))
MIXED = BranchingMechanism(0.5, 1.0, JumpMeasure(atoms=((1.0, 0.5), (0.3, 2.0))))
STABLE = BranchingMechanism(
    0.0, 0.0, JumpMeasure(power_law=PowerLawTail(c=1.0, sigma=1.5, z_min=0.0)))


def riemann_compensated_integral(jumps: JumpMeasure, lam: float) -> float:
    """Brute-force quadrature oracle on the numerically stable kernel.

    Geometric grid resolves the z^(1-sigma)/2 behavior at 0; analytic stubs
    cover the (0, lo) sliver and, for unbounded tails, the region beyond
    400/lam where exp(-lam z) is negligible.
    """
    total = sum(w * (lam * z + math.expm1(-lam * z)) for z, w in jumps.atoms)
    pl = jumps.power_law
    if pl is not None:
        s = pl.sigma
        lo = max(pl.z_min, 1e-9 / lam)
        unbounded = pl.z_max is None
        hi = 400.0 / lam if unbounded else pl.z_max
        z = np.geomspace(lo, hi, 2_000_000)
        total += np.trapezoid((np.expm1(-lam * z) + lam * z) * pl.c * z ** (-1 - s), z)
        if pl.z_min < lo:
            total += pl.c * lam ** 2 * lo ** (2 - s) / (2 * (2 - s))
        if unbounded:
            total += pl.c * (lam * hi ** (1 - s) / (s - 1) - hi ** (-s) / s)
    return total


def test_psi_pure_quadratic():
    assert FELLER.psi(2.0) == 4.0


def test_psi_pure_linear():
    assert LINEAR.psi(3.0) == 3.0


def test_psi_single_atom_closed_form():
    assert ATOM.psi(1.0) == pytest.approx(math.exp(-1.0) - 1.0 + 1.0, rel=1e-14)


def test_psi_zero_is_exact_zero():
    for mech in (FELLER, LINEAR, ATOM, MIXED, STABLE):
        assert mech.psi(0.0) == 0.0


def test_psi_rejects_negative_argument():
    with pytest.raises(ValueError):
        FELLER.psi(-0.1)


def test_psi_monotone_and_convex_on_grid():
    lam = np.linspace(0.0, 10.0, 41)
    for mech in (MIXED, STABLE, ATOM):
        vals = np.array([mech.psi(x) for x in lam])
        assert (np.diff(vals) >= -1e-12).all()
        assert (np.diff(vals, 2) >= -1e-9).all()


def test_power_law_psi_matches_riemann_oracle():
    for mech in (STABLE,
                 BranchingMechanism(0.1, 0.0, JumpMeasure(
                     power_law=PowerLawTail(c=0.5, sigma=1.7, z_min=0.2, z_max=5.0)))):
        for lam in (0.4, 1.0, 2.3, 6.0):
            oracle = riemann_compensated_integral(mech.jumps, lam)
            got = mech.jumps.compensated_integral_above(0.0, lam)
            assert got == pytest.approx(oracle, rel=1e-6)


def test_tail_compensator_at_zero_closed_form():
    for sigma in (1.2, 1.5, 1.8):
        assert _tail_compensator(0.0, sigma) == pytest.approx(
            math.gamma(2 - sigma) / (sigma * (sigma - 1)), rel=1e-14)


def test_tail_compensator_branch_continuity():
    for seam in (0.5, _SERIES_SEAM):
        for sigma in (1.05, 1.5, 1.95):
            lo = _tail_compensator(seam, sigma)
            hi = _tail_compensator(seam + 1e-12, sigma)
            assert lo == pytest.approx(hi, rel=1e-10)


def reference_tail_compensator(x: float, sigma: float) -> float:
    """The tail compensator as scipy's regularised gammaincc gives it: the
    series up to x = 0.5, then Gamma(-sigma, x) descended from Gamma(2-sigma, x)
    by Gamma(a, x) = (Gamma(a+1, x) - x**a e^-x) / a."""
    from scipy.special import gammaincc

    if x <= 0.5:
        acc, term_fact = 0.0, -1.0
        for k in range(2, 26):
            term_fact *= -1.0 / k
            contrib = term_fact * x ** (k - sigma) / (k - sigma)
            acc += contrib
            if abs(contrib) < 1e-17 * (1.0 + abs(acc)):
                break
        return math.gamma(2.0 - sigma) / (sigma * (sigma - 1.0)) - acc
    a = -sigma
    g = gammaincc(a + 2.0, x) * math.gamma(a + 2.0)
    g = (g - x ** (a + 1.0) * math.exp(-x)) / (a + 1.0)
    g = (g - x ** a * math.exp(-x)) / a
    return g - x ** (-sigma) / sigma + x ** (1.0 - sigma) / (sigma - 1.0)


@pytest.mark.parametrize("sigma", [1.01, 1.05, 1.3, 1.5, 1.7, 1.95, 1.99])
def test_tail_compensator_matches_scipy_incomplete_gamma(sigma):
    xs = [*np.geomspace(1e-3, 1e4, 200), _SERIES_SEAM - 1e-12, _SERIES_SEAM + 1e-12]
    for x in map(float, xs):
        assert _tail_compensator(x, sigma) == pytest.approx(
            reference_tail_compensator(x, sigma), rel=1e-13, abs=0.0), x


# -- the flow v_t(lam) -------------------------------------------------------

def test_v_initial_condition():
    for mech in (FELLER, MIXED):
        assert mech.v(0.0, 7.0) == 7.0


def test_riccati_closed_form_satisfies_ode():
    # substitution check of the oracle itself: v = lam/(1+lam t) solves v' = -v^2
    lam = 1.7
    for t in (0.2, 0.9, 2.1):
        v = lam / (1 + lam * t)
        h = 1e-6
        v_dot = (lam / (1 + lam * (t + h)) - lam / (1 + lam * (t - h))) / (2 * h)
        assert v_dot == pytest.approx(-v * v, rel=1e-7)


def test_exponential_closed_form_satisfies_ode():
    lam, alpha = 1.3, 0.7
    for t in (0.2, 1.1):
        v = lam * math.exp(-alpha * t)
        h = 1e-6
        v_dot = (lam * math.exp(-alpha * (t + h)) - lam * math.exp(-alpha * (t - h))) / (2 * h)
        assert v_dot == pytest.approx(-alpha * v, rel=1e-7)


def test_v_riccati_example():
    assert FELLER.v(1.0, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_v_exponential_example():
    assert LINEAR.v(math.log(2.0), 1.0) == pytest.approx(0.5, abs=1e-9)


def test_v_monotone_and_bounded():
    lam = 3.0
    prev = lam
    for t in np.linspace(0.05, 3.0, 20):
        cur = MIXED.v(float(t), lam)
        assert 0.0 <= cur <= lam
        assert cur <= prev + 1e-12
        prev = cur


@pytest.mark.parametrize("lam", [1e15, 1e20, 1e80])
@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
def test_v_matches_the_closed_form_at_large_lam(t, lam):
    # Feller alpha=0.5, beta=1: v_t(lam) = a lam e / (a + b lam (1 - e)),
    # e = exp(-a t); the first step is far below t * 1e-14 here
    a, b = 0.5, 1.0
    e = math.exp(-a * t)
    assert BranchingMechanism(a, b).v(t, lam) == pytest.approx(
        a * lam * e / (a + b * lam * (1.0 - e)), rel=1e-9)


@pytest.mark.parametrize("mech,lam", [(BranchingMechanism(0.5, 1.0), 1e160),
                                      (STABLE, 1e300)])
def test_v_rejects_a_lam_whose_psi_overflows(mech, lam):
    # beta lam^2 overflows to inf; lam ** sigma raises OverflowError
    assert mech.psi(lam) == math.inf
    with pytest.raises(ValueError, match="not finite"):
        mech.v(1.0, lam)


def test_flow_property():
    for mech in (FELLER, MIXED, STABLE):
        for (t, s, lam) in ((0.3, 0.7, 1.0), (1.0, 1.0, 2.5), (0.1, 2.0, 0.4)):
            lhs = mech.v(t + s, lam)
            rhs = mech.v(t, mech.v(s, lam))
            assert abs(lhs - rhs) <= 1e-10


# -- Grey's condition --------------------------------------------------------

def test_grey_cases():
    assert FELLER.grey_holds() is True
    assert MIXED.grey_holds() is True           # beta > 0
    assert LINEAR.grey_holds() is False         # int du/(alpha u) diverges
    assert ATOM.grey_holds() is False           # asymptotically linear
    assert STABLE.grey_holds() is True          # psi ~ lam^sigma, sigma in (1,2)
    trunc = BranchingMechanism(0.0, 0.0, JumpMeasure(
        power_law=PowerLawTail(c=1.0, sigma=1.5, z_min=0.1)))
    assert trunc.grey_holds() is False          # cutoff kills superlinearity


# -- derived laws ------------------------------------------------------------

def test_cb_laplace_trivials():
    assert FELLER.cb_laplace(0.0, 1.3, 2.0) == 1.0
    assert FELLER.cb_laplace(1.0, 1.3, 0.0) == 1.0


def test_cb_laplace_feller_value():
    assert FELLER.cb_laplace(1.0, 1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-9)


def test_cb_mean_examples():
    m = BranchingMechanism(0.5, 1.0)
    assert m.cb_mean(1.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert m.cb_mean(3.3, 0.0) == 3.3
    assert m.cb_mean(0.0, 5.0) == 0.0


def test_branching_property_in_initial_mass():
    x, y, t, lam = 0.7, 1.9, 0.8, 1.4
    lhs = MIXED.cb_laplace(x + y, t, lam)
    rhs = MIXED.cb_laplace(x, t, lam) * MIXED.cb_laplace(y, t, lam)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- jump-measure moments ----------------------------------------------------

def test_moment_closed_forms_against_quadrature():
    jm = JumpMeasure(atoms=((0.5, 1.0), (2.0, 0.25)),
                     power_law=PowerLawTail(c=0.4, sigma=1.4, z_min=0.0, z_max=3.0))
    z = np.linspace(1e-9, 3.0, 4_000_000)
    dens = 0.4 * z ** (-2.4)
    delta = 0.7
    assert jm.moment(0, delta) == pytest.approx(
        0.25 + np.trapezoid(dens[z > delta], z[z > delta]), rel=1e-4)
    assert jm.moment(1, delta) == pytest.approx(
        2.0 * 0.25 + np.trapezoid((z * dens)[z > delta], z[z > delta]), rel=1e-4)
    assert jm.moment(2, 0.0, delta) == pytest.approx(
        0.5 ** 2 + np.trapezoid((z * z * dens)[z <= delta], z[z <= delta]), rel=1e-3)
    assert jm.moment(0, 0.4, 2.5) == pytest.approx(
        1.0 + 0.25 + np.trapezoid(dens[(z > 0.4) & (z <= 2.5)], z[(z > 0.4) & (z <= 2.5)]),
        rel=1e-4)
    assert math.isfinite(jm.z_z2_mass())


def test_jump_measure_validation():
    with pytest.raises(ConfigurationError):
        JumpMeasure(atoms=((0.0, 1.0),))
    with pytest.raises(ConfigurationError):
        JumpMeasure(atoms=((1.0, -1.0),))
    with pytest.raises(ConfigurationError):
        PowerLawTail(c=1.0, sigma=2.0)
    with pytest.raises(ConfigurationError):
        PowerLawTail(c=1.0, sigma=1.5, z_min=2.0, z_max=1.0)
    with pytest.raises(ConfigurationError):
        BranchingMechanism(-0.1, 1.0)


def _choice_draw(jumps: JumpMeasure, delta: float):
    """sampler_above's draw spelled with rng.choice: (kinds, sizes)."""
    above = [(z, w) for z, w in jumps.atoms if z > delta]
    sizes = np.array([z for z, _ in above])
    pl = jumps.power_law
    pl_mass = JumpMeasure(power_law=pl).moment(0, delta)
    probs = np.append([w for _, w in above], pl_mass) / jumps.moment(0, delta)

    def draw(rng, n):
        kinds = rng.choice(len(probs), size=n, p=probs)
        out = np.empty(n)
        atom = kinds < len(sizes)
        out[atom] = sizes[kinds[atom]]
        if not atom.all():
            a, b = (x ** -pl.sigma for x in (max(delta, pl.z_min), pl.z_max or math.inf))
            u = rng.random(int((~atom).sum()))
            out[~atom] = (a - u * (a - b)) ** (-1.0 / pl.sigma)
        return kinds, out

    return draw, sizes


@pytest.mark.parametrize("jumps", [
    JumpMeasure(atoms=((1.0, 0.5), (0.3, 2.0), (0.02, 1.0))),
    JumpMeasure(power_law=PowerLawTail(c=1.0, sigma=1.5, z_max=1.0)),
    JumpMeasure(atoms=((1.0, 0.5), (0.3, 2.0)),
                power_law=PowerLawTail(c=1.0, sigma=1.5, z_min=0.0)),
], ids=["atoms", "power-law", "both"])
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_draw_consumes_the_stream_rng_choice_does(jumps, n):
    # a numpy release that changes Generator.choice would move every
    # jump-bearing report; this pins the draw to it
    delta = 0.03
    rate, draw = jumps.sampler_above(delta)
    oracle, atom_sizes = _choice_draw(jumps, delta)
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    kinds, want = oracle(a, n)
    got = draw(b, n)
    assert rate == jumps.moment(0, delta)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    got_kinds = np.array([atom_sizes.tolist().index(z) if z in atom_sizes else len(atom_sizes)
                          for z in got.tolist()], dtype=kinds.dtype)
    assert np.array_equal(got_kinds, kinds)
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()


# -- JSON config -------------------------------------------------------------

def test_mechanism_config_roundtrip():
    obj = mechanism_to_config(MIXED)
    again = mechanism_from_config(obj)
    assert again == MIXED


def test_mechanism_config_errors_name_fields():
    with pytest.raises(ConfigurationError, match="alpha"):
        mechanism_from_config({"beta": 1.0})
    with pytest.raises(ConfigurationError, match=r"atoms\[0\]"):
        mechanism_from_config({"alpha": 0.0, "beta": 1.0,
                               "jumps": {"atoms": [{"z": 1.0}]}})


# -- admissible mechanisms ---------------------------------------------------

@st.composite
def mechanisms(draw):
    """alpha, beta in [0, 3], 0-3 atoms, and an optional power law with sigma
    in (1.01, 1.99), z_min 0 or in (0, 0.5), and z_max None or above z_min."""
    atoms = draw(st.lists(st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 3.0)), max_size=3))
    power_law = None
    if draw(st.booleans()):
        z_min = draw(st.just(0.0) | st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
        gap = draw(st.none() | st.floats(0.01, 5.0))
        power_law = PowerLawTail(c=draw(st.floats(0.05, 3.0)),
                                 sigma=draw(st.floats(1.01, 1.99)), z_min=z_min,
                                 z_max=None if gap is None else z_min + gap)
    return BranchingMechanism(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)),
                              JumpMeasure(atoms=tuple(atoms), power_law=power_law))


def quad_moment(jm: JumpMeasure, p: int, lo: float, hi: float) -> float:
    """int_(lo,hi] z**p pi(dz) by quadrature of the density plus the atoms.

    The density is integrated in t = log z: near 0 the mass of z**(1-sigma)
    sits at scales far below what a quadrature rule in z resolves.
    """
    from scipy.integrate import quad

    total = sum(w * z ** p for z, w in jm.atoms if lo < z <= hi)
    pl = jm.power_law
    if pl is not None:
        a = max(lo, pl.z_min)
        b = hi if pl.z_max is None else min(hi, pl.z_max)
        if b > a:
            e = p - pl.sigma
            val, _ = quad(lambda t: pl.c * math.exp(e * t),
                          -math.inf if a == 0.0 else math.log(a), math.log(b),
                          epsabs=0.0, epsrel=1e-11, limit=200)
            total += val
    return total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mech=mechanisms(), lo=st.just(0.0) | st.floats(0.0, 3.0),
       width=st.none() | st.floats(0.01, 5.0), split=st.floats(0.0, 1.0))
def test_psi_shape_and_moments_of_admissible_mechanisms(mech, lo, width, split):
    # psi(0) = 0, nondecreasing and convex on the grid, up to rounding
    vals = np.array([mech.psi(x) for x in np.linspace(0.0, 8.0, 17)])
    assert vals[0] == 0.0
    d1 = np.diff(vals)
    assert (d1 >= -1e-9).all()
    assert (np.diff(d1) >= -1e-9 * (1.0 + vals[-1])).all()

    jm = mech.jumps
    hi = math.inf if width is None else lo + width
    mid = lo + split * (5.0 if width is None else width)
    for p in (0, 1, 2):
        got = jm.moment(p, lo, hi)
        if math.isfinite(got):
            assert got == pytest.approx(quad_moment(jm, p, lo, hi), rel=1e-7)
        assert jm.moment(p, lo, mid) + jm.moment(p, mid, hi) == pytest.approx(got, rel=1e-12)
