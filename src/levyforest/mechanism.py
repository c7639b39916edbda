"""Branching-mechanism calculus.

A mechanism is the triple (alpha, beta, pi) entering the convex exponent

    psi(lam) = alpha*lam + beta*lam**2 + int (exp(-lam*z) - 1 + lam*z) pi(dz)

of a spectrally positive Levy process.  Everything else in the package is
verified against the exact laws derived from psi: the Laplace-exponent flow
v_t(lam) (solution of dv/dt = -psi(v)), the branching-process transition
Laplace transform exp(-x*v_t(lam)), the first moment x*exp(-alpha*t), and
Grey's finiteness criterion for the tail integral of 1/psi.  The flow is
integrated with an embedded adaptive Runge-Kutta pair far below Monte Carlo
resolution, so these functions can serve as oracles for statistical tests.

Jump measures are restricted to shapes with closed-form moments: a finite
list of atoms plus an optional truncated power-law density c*z**(-1-sigma),
sigma in (1, 2), whose compensated integral is an upper incomplete gamma
evaluated here.  That keeps quadrature out of simulation inner loops and
scipy out of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "PowerLawTail",
    "JumpMeasure",
    "BranchingMechanism",
    "mechanism_from_config",
    "mechanism_to_config",
]


# ---------------------------------------------------------------------------
# numerically stable kernels
# ---------------------------------------------------------------------------

def _compensated_exp(u):
    """exp(-u) - 1 + u, stable down to u -> 0 where it behaves like u^2/2."""
    u = np.asarray(u, dtype=float)
    small = u < 1e-3
    out = np.where(small,
                   0.5 * u * u * (1.0 - u / 3.0 + u * u / 12.0 - u ** 3 / 60.0),
                   u + np.expm1(-np.where(small, 1.0, u)))
    return out if out.ndim else float(out)


def _upper_gamma(a: float, x: float) -> float:
    """Unnormalised upper incomplete gamma Gamma(a, x) for a < 0, x >= 2.

    Legendre's continued fraction
        Gamma(a, x) = e^-x x^a / (x+1-a - 1(1-a) / (x+3-a - 2(2-a) / (x+5-a - ...)))
    by modified Lentz (Gautschi, ACM TOMS 5, 1979).  For a < 0 Lentz's
    ratios stay positive, so they need no guard against zero; at x = 2 the
    fraction takes about 50 terms, fewer above.
    """
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 80):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= c * d
        if abs(c * d - 1.0) < 3e-16:
            break
    return math.exp(-x) * x ** a * h


_SERIES_SEAM = 2.0      # the series below, the continued fraction above


def _tail_compensator(x: float, sigma: float) -> float:
    """int_x^inf (exp(-u) - 1 + u) * u**(-1-sigma) du for sigma in (1, 2).

    Branches keep every regime well conditioned: the exact value at 0, a
    convergent series up to _SERIES_SEAM, the incomplete gamma's continued
    fraction above it.
    """
    full = math.gamma(2.0 - sigma) / (sigma * (sigma - 1.0))
    if x <= 0.0:
        return full
    if x <= _SERIES_SEAM:
        # subtract int_0^x, expanding exp(-u)-1+u = sum_{k>=2} (-u)^k / k!
        acc = 0.0
        term_fact = -1.0
        for k in range(2, 42):
            term_fact *= -1.0 / k
            contrib = term_fact * x ** (k - sigma) / (k - sigma)
            acc += contrib
            if abs(contrib) < 1e-17 * (1.0 + abs(acc)):
                break
        return full - acc
    return (_upper_gamma(-sigma, x)
            - x ** (-sigma) / sigma
            + x ** (1.0 - sigma) / (sigma - 1.0))


# ---------------------------------------------------------------------------
# jump measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawTail:
    """Density c * z**(-1-sigma) on (z_min, z_max); z_max=None means infinity."""

    c: float
    sigma: float
    z_min: float = 0.0
    z_max: float | None = None

    def __post_init__(self):
        if not self.c > 0.0:
            raise ConfigurationError("power_law.c must be > 0")
        if not 1.0 < self.sigma < 2.0:
            raise ConfigurationError("power_law.sigma must lie strictly in (1, 2)")
        if self.z_min < 0.0:
            raise ConfigurationError("power_law.z_min must be >= 0")
        if self.z_max is not None and not self.z_max > self.z_min:
            raise ConfigurationError("power_law.z_max must exceed z_min")


@dataclass(frozen=True)
class JumpMeasure:
    """Finite list of atoms (size z, weight w) plus optional power-law tail."""

    atoms: tuple[tuple[float, float], ...] = ()
    power_law: PowerLawTail | None = None

    def __post_init__(self):
        # tuples, so that the measure hashes (the simulated law is cached on it)
        object.__setattr__(self, "atoms", tuple((z, w) for z, w in self.atoms))
        for z, w in self.atoms:
            if not z > 0.0 or not w > 0.0:
                raise ConfigurationError("atom sizes and weights must be strictly positive")

    @property
    def is_zero(self) -> bool:
        return not self.atoms and self.power_law is None

    # -- closed-form moments --------------------------------------------------

    def _tail_cut(self, lo: float, hi: float):
        """The power law's support cut to (lo, hi] as (a, b), or None when
        that cut is empty or there is no power law."""
        pl = self.power_law
        if pl is None:
            return None
        a = max(lo, pl.z_min)
        b = hi if pl.z_max is None else min(hi, pl.z_max)
        return (a, b) if b > a else None

    def moment(self, p: int, lo: float = 0.0, hi: float = math.inf) -> float:
        """int_(lo,hi] z**p pi(dz) for p in {0, 1, 2}; inf where the power
        law's integral diverges at 0 or overflows just above it."""
        total = sum(w * (1.0, z, z * z)[p] for z, w in self.atoms if lo < z <= hi)
        cut = self._tail_cut(lo, hi)
        if cut is not None:
            a, b = cut
            e = p - self.power_law.sigma
            try:
                total += self.power_law.c * (b ** e - a ** e) / e
            except (ZeroDivisionError, OverflowError):     # 0.0 ** e or tiny a ** e, e < 0
                return math.inf
        return total

    def z_z2_mass(self) -> float:
        """int (z ^ z^2) pi(dz); finite for every admissible measure."""
        total = self.moment(2, 0.0, 1.0) + self.moment(1, 1.0)
        if not math.isfinite(total):
            raise ConfigurationError("jump measure has infinite (z ^ z^2) mass")
        return total

    def compensated_integral_above(self, delta: float, lam: float) -> float:
        """int_delta^inf (exp(-lam z) - 1 + lam z) pi(dz)."""
        total = sum(w * _compensated_exp(lam * z) for z, w in self.atoms if z > delta)
        cut = self._tail_cut(delta, math.inf)
        if cut is not None and lam > 0.0:
            a, b = cut
            s = self.power_law.sigma
            upper = 0.0 if b == math.inf else _tail_compensator(lam * b, s)
            total += self.power_law.c * lam ** s * (_tail_compensator(lam * a, s) - upper)
        return float(total)

    # -- sampling -------------------------------------------------------------

    def sampler_above(self, delta: float):
        """Return (rate, draw) where draw(rng, n) samples sizes from the
        normalised restriction of pi to (delta, inf)."""
        pl = self.power_law
        if pl is not None and pl.z_min == 0.0 and delta == 0.0:
            raise ConfigurationError("sim.truncation_delta: power-law jumps reaching 0 "
                                     "require truncation_delta > 0")
        rate = self.moment(0, delta)
        if rate <= 0.0:
            return 0.0, None
        sizes = np.array([z for z, _ in self.atoms if z > delta])
        weights = np.array([w for z, w in self.atoms if z > delta])
        pl_mass = JumpMeasure(power_law=pl).moment(0, delta)
        probs = np.append(weights, pl_mass) / rate
        # rng.choice(len(probs), size=n, p=probs) without its per-call checks:
        # the same cdf, the same uniforms, the same kinds
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        cut = self._tail_cut(delta, math.inf)
        if cut is not None:
            a_t, b_t = (x ** -pl.sigma for x in cut)

        def draw(rng: np.random.Generator, n: int) -> np.ndarray:
            kinds = cdf.searchsorted(rng.random(n), side="right")
            out = np.empty(n)
            atom_mask = kinds < len(sizes)
            if atom_mask.any():
                out[atom_mask] = sizes[kinds[atom_mask]]
            tail_mask = ~atom_mask
            if tail_mask.any():
                u = rng.random(int(tail_mask.sum()))
                out[tail_mask] = (a_t - u * (a_t - b_t)) ** (-1.0 / pl.sigma)
            return out

        return rate, draw


# ---------------------------------------------------------------------------
# mechanism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchingMechanism:
    """Drift alpha >= 0, diffusion beta >= 0, and a jump measure."""

    alpha: float
    beta: float
    jumps: JumpMeasure = field(default_factory=JumpMeasure)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(f"mechanism.{name}: must be finite and >= 0")
        self.jumps.z_z2_mass()

    # -- exponent -------------------------------------------------------------

    def psi(self, lam: float) -> float:
        if lam < 0.0:
            raise ValueError("psi requires lam >= 0")
        return self.truncated_exponent(lam, 0.0)

    def truncated_exponent(self, lam: float, delta: float, gaussian_correction: bool = False) -> float:
        """Exponent of the simulated process after dropping jumps <= delta.

        Dropped jumps are mean-zero (they stay compensated), so only their
        compensated integral disappears; gaussian_correction re-injects their
        variance as an extra quadratic term.
        """
        if lam < 0.0:
            raise ValueError("exponent requires lam >= 0")
        try:
            out = (self.alpha * lam + self.beta * lam * lam
                   + self.jumps.compensated_integral_above(delta, lam))
        except OverflowError:           # lam ** sigma of a power law past the float range
            return math.inf
        if gaussian_correction:
            out += 0.5 * self.jumps.moment(2, 0.0, delta) * lam * lam
        return out

    # -- the flow v_t(lam) ----------------------------------------------------

    def v(self, t: float, lam: float) -> float:
        """Integrate dv/dt = -psi(v), v_0 = lam, with an embedded RK 4(5) pair.

        The solution decreases monotonically and stays in [0, lam]; adaptive
        steps keep the local error near machine precision so that the flow
        identity v_{t+s} = v_t(v_s) holds to ~1e-10.  ValueError when
        psi(lam) is not a finite float.
        """
        if t < 0.0:
            raise ValueError("v requires t >= 0")
        if lam < 0.0:
            raise ValueError("v requires lam >= 0")
        if t == 0.0 or lam == 0.0:
            return float(lam)
        return _integrate_flow(self.psi, t, lam)

    # -- derived laws ---------------------------------------------------------

    def cb_laplace(self, x: float, t: float, lam: float) -> float:
        if x < 0.0 or t < 0.0 or lam < 0.0:
            raise ValueError("cb_laplace requires nonnegative arguments")
        return math.exp(-x * self.v(t, lam))

    def cb_mean(self, x: float, t: float) -> float:
        if x < 0.0 or t < 0.0:
            raise ValueError("cb_mean requires nonnegative arguments")
        return x * math.exp(-self.alpha * t)

    def grey_holds(self) -> bool:
        """Whether int^inf du/psi(u) is finite.

        Decided symbolically for the supported measure shapes (quadrature
        alone cannot distinguish slow divergence from convergence): with
        beta > 0, or a power law reaching down to 0, psi(u) grows like u**2
        or u**sigma with sigma > 1; otherwise the compensated-jump integral
        is asymptotically linear, int (e^{-uz}-1+uz) pi(dz) ~ u * int z pi(dz).
        """
        pl = self.jumps.power_law
        return self.beta > 0.0 or (pl is not None and pl.z_min == 0.0)


# ---------------------------------------------------------------------------
# RK 4(5) core (Fehlberg pair: 4th-order propagation, 5th-order error estimate)
# ---------------------------------------------------------------------------

_RK_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RK_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RK_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _integrate_flow(psi_fn, t_end: float, v0: float) -> float:
    t = 0.0
    y = float(v0)
    psi0 = psi_fn(v0)
    if not math.isfinite(psi0):
        raise ValueError(f"psi({v0}) is not finite")
    h = min(t_end, 0.1 / (1.0 + psi0 / max(v0, 1e-300)))
    # a floor above the first step (large v0) would force overshoots below 0
    h_min = min(t_end * 1e-14, h * 1e-2)
    k = [0.0] * 6
    while t < t_end:
        h = min(h, t_end - t)
        k[0] = -psi_fn(max(y, 0.0))
        for i in range(1, 6):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_RK_A[i]))
            k[i] = -psi_fn(max(yi, 0.0))
        err = abs(h * sum(e * k[i] for i, e in enumerate(_RK_ERR)))
        scale = 1e-13 + 1e-12 * abs(y)      # absolute and relative local error targets
        if err <= scale or h <= h_min:
            y = y + h * sum(b * k[i] for i, b in enumerate(_RK_B4))
            t += h
            if y <= 0.0:
                return 0.0
        ratio = (scale / err) ** 0.2 if err > 0.0 else 4.0
        h = max(h * min(4.0, max(0.1, 0.9 * ratio)), h_min)
    return min(max(y, 0.0), v0)


# ---------------------------------------------------------------------------
# JSON config
# ---------------------------------------------------------------------------

def mechanism_from_config(obj: dict) -> BranchingMechanism:
    """Build a mechanism from {"alpha":..., "beta":..., "jumps": {...}}."""
    if not isinstance(obj, dict):
        raise ConfigurationError("mechanism: expected a JSON object")
    try:
        alpha = float(obj["alpha"])
        beta = float(obj["beta"])
    except KeyError as exc:
        raise ConfigurationError(f"mechanism.{exc.args[0]}: missing") from None
    except (TypeError, ValueError):
        raise ConfigurationError("mechanism.alpha/beta: expected numbers") from None

    jumps_obj = obj.get("jumps") or {}
    if not isinstance(jumps_obj, dict):
        raise ConfigurationError("mechanism.jumps: expected an object")
    atoms = []
    for i, atom in enumerate(jumps_obj.get("atoms") or []):
        try:
            atoms.append((float(atom["z"]), float(atom["w"])))
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(f"mechanism.jumps.atoms[{i}]: expected {{'z': num, 'w': num}}") from None
    pl_obj = jumps_obj.get("power_law")
    power_law = None
    if pl_obj is not None:
        if not isinstance(pl_obj, dict):
            raise ConfigurationError("mechanism.jumps.power_law: expected an object")
        try:
            z_max = pl_obj.get("z_max")
            power_law = PowerLawTail(
                c=float(pl_obj["c"]),
                sigma=float(pl_obj["sigma"]),
                z_min=float(pl_obj.get("z_min", 0.0)),
                z_max=None if z_max is None else float(z_max),
            )
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError("mechanism.jumps.power_law: expected {'c','sigma','z_min','z_max'}") from None
    return BranchingMechanism(alpha=alpha, beta=beta,
                              jumps=JumpMeasure(atoms=tuple(atoms), power_law=power_law))


def mechanism_to_config(mech: BranchingMechanism) -> dict:
    pl = mech.jumps.power_law
    return {
        "alpha": mech.alpha,
        "beta": mech.beta,
        "jumps": {
            "atoms": [{"z": z, "w": w} for z, w in mech.jumps.atoms],
            "power_law": None if pl is None else
                {"c": pl.c, "sigma": pl.sigma, "z_min": pl.z_min, "z_max": pl.z_max},
        },
    }

