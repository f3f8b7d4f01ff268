"""Decay-rate verification: integral-lemma checker and envelope fitting.

The integral lemma (Martinez) turns a weighted-energy bound into an explicit
envelope: for nonincreasing E >= 0 and a strictly increasing phi with
phi(0) = 0, phi -> inf, if

    int_S^inf E^{1+sigma}(t) phi'(t) dt  <=  (1/omega) E^sigma(0) E(S)

for all S >= 0 (some sigma >= 0, omega > 0), then

    E(t) <= E(0) ((1+sigma)/(1+omega sigma phi(t)))^{1/sigma}   (sigma > 0)
    E(t) <= E(0) e^{1-omega phi(t)}                             (sigma = 0).

Here phi(t) = int_0^t xi is the accumulated decay rate of the kernel.  The
checker evaluates the hypothesis on an S-grid by trapezoid quadrature: a
partial integral already exceeding its bound is a definitive failure, a
pass additionally needs the tail under control (a supplied closed form, or
a negligible integrand at the final sample), otherwise the verdict is
inconclusive.

The envelope's omega is never explicit, so the sharpest finite-horizon
surrogate is measured instead:

    omega_max = min over samples of (1 + ln(E(0)/E(t))) / phi(t),

the largest omega for which the sigma = 0 envelope holds at every sample.
Horizon stability of omega_max and of the weighted-integral profile
rho(S) = int_S^T xi E dt / E(S) is diagnosed by comparing the full horizon
against its first half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .kernels import ConstantRate, RelaxationKernel
from .stepper import Trajectory


@dataclass(frozen=True)
class SampledEnergy:
    """Nonincreasing energy samples on a uniform time grid with phi = int xi."""

    t: np.ndarray
    E: np.ndarray
    phi: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        t, E, phi = self.t, self.E, self.phi
        if len(t) < 2:
            raise ValueError("need at least two samples")
        spacing = np.diff(t)
        if spacing.min() <= 0 or (spacing.max() - spacing.min()) > 1e-9 * spacing.max():
            raise ValueError("samples must sit on a uniform, increasing time grid")
        if phi[0] != 0.0 or np.any(np.diff(phi) <= 0):
            raise ValueError("phi must start at 0 and be strictly increasing")
        scale = max(abs(float(E[0])), 1e-300)
        if np.any(E < -1e-9 * scale):
            raise ValueError("energy samples must be nonnegative")

    @classmethod
    def from_samples(cls, t: np.ndarray, E: np.ndarray,
                     kernel: RelaxationKernel) -> "SampledEnergy":
        """Samples E at times t, with phi and xi from the kernel's rate."""
        return cls(t=t, E=E, phi=np.asarray(kernel.rate.phi(t), dtype=float),
                   xi=np.asarray(kernel.rate.xi(t), dtype=float))

    @classmethod
    def from_trajectory(cls, traj: Trajectory, kernel: RelaxationKernel) -> "SampledEnergy":
        return cls.from_samples(np.array(traj.times), np.array([r.total for r in traj.reports]),
                                kernel)

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    def restrict(self, t_max: float) -> "SampledEnergy":
        mask = self.t <= t_max + 1e-12 * max(1.0, t_max)
        return SampledEnergy(t=self.t[mask], E=self.E[mask],
                             phi=self.phi[mask], xi=self.xi[mask])


@dataclass(frozen=True)
class MartinezVerdict:
    hypothesis: str        # "pass" | "fail" | "inconclusive"
    conclusion: str        # "pass" | "fail"
    hypothesis_margin: float  # worst integral / bound ratio over the S-grid
    conclusion_margin: float  # worst E / envelope ratio over the samples


def _cumulative_right_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """I[i] = trapezoid integral of y over [t_i, t_end]."""
    seg = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    out = np.zeros(len(t))
    out[:-1] = seg[::-1].cumsum()[::-1]
    return out


def martinez_check(
    sampled: SampledEnergy,
    sigma: float,
    omega: float,
    tail=None,
    rtol: float = 1e-4,
) -> MartinezVerdict:
    """Verdict pair for the integral hypothesis and the decay conclusion.

    ``tail(S)`` may supply the closed-form remainder int_T^inf of the
    hypothesis integrand (math.inf marks divergence).  Without it, a passing
    partial integral is only accepted when the final integrand value is
    below 1e-6 of E(0)^sigma E(T); otherwise the hypothesis verdict is
    "inconclusive".  ``rtol`` absorbs the composite-trapezoid bias of the
    integral comparison, so hypotheses holding with exact equality still
    pass on a finite grid.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    E, t, phi, xi = sampled.E, sampled.t, sampled.phi, sampled.xi
    E0 = float(E[0])
    if np.diff(E).max(initial=0.0) > 1e-9 * max(E0, 1e-300):
        raise ValueError("energy must be nonincreasing (beyond tolerance)")

    if E0 <= 0.0:
        return MartinezVerdict("pass", "pass", 0.0, 0.0)

    integrand = E ** (1.0 + sigma) * xi
    partial = _cumulative_right_trapezoid(integrand, t)
    bound = (E0**sigma) * E / omega

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, partial / bound,
                          np.where(partial > 0, np.inf, 0.0))
    worst = float(np.max(ratios))

    if worst > 1.0 + rtol:
        hyp = "fail"
    elif tail is not None:
        totals = partial + np.array([float(tail(s)) for s in t])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(bound > 0, totals / bound,
                              np.where(totals > 0, np.inf, 0.0))
        worst = float(np.max(ratios))
        hyp = "pass" if worst <= 1.0 + rtol else "fail"
    elif integrand[-1] <= 1e-6 * (E0**sigma) * max(float(E[-1]), 1e-300):
        hyp = "pass"
    else:
        hyp = "inconclusive"

    if sigma == 0.0:
        envelope = E0 * np.exp(1.0 - omega * phi)
    else:
        envelope = E0 * ((1.0 + sigma) / (1.0 + omega * sigma * phi)) ** (1.0 / sigma)
    concl_ratio = float(np.max(E / envelope))
    concl = "pass" if concl_ratio <= 1.0 + 1e-9 else "fail"
    return MartinezVerdict(hyp, concl, worst, concl_ratio)


def fit_omega(sampled: SampledEnergy) -> tuple[float, dict]:
    """Largest omega with E(t) <= E(0) e^{1 - omega phi(t)} at every sample.

    A zero-energy history is the trivial case: the envelope holds for every
    omega and the sentinel (inf, {"trivial": True}) is returned.
    """
    E0 = float(sampled.E[0])
    if E0 <= 0.0:
        return math.inf, {"trivial": True}
    mask = sampled.phi > 0
    E = sampled.E[mask]
    phi = sampled.phi[mask]
    with np.errstate(divide="ignore"):
        cand = np.where(E > 0, (1.0 + np.log(E0 / np.maximum(E, 1e-300))) / phi, np.inf)
    i = int(np.argmin(cand))
    return float(cand[i]), {
        "trivial": False,
        "argmin_t": float(sampled.t[mask][i]),
        "n_samples": int(mask.sum()),
    }


def envelope_holds(sampled: SampledEnergy, omega: float, rtol: float = 1e-12) -> bool:
    """Whether E(t) <= E(0) e^{1 - omega phi(t)} holds at all samples."""
    E0 = float(sampled.E[0])
    bound = E0 * np.exp(1.0 - omega * sampled.phi)
    return bool(np.all(sampled.E <= bound * (1.0 + rtol)))


@dataclass(frozen=True)
class WeightedIntegralProfile:
    S: np.ndarray
    rho: np.ndarray
    max_rho: float
    violation: bool  # E(S) = 0 with mass still remaining


def weighted_integral_check(sampled: SampledEnergy, t0: float) -> WeightedIntegralProfile:
    """rho(S) = int_S^T xi E dt / E(S) on the sample points within [t0, T)."""
    t, E, xi = sampled.t, sampled.E, sampled.xi
    integral = _cumulative_right_trapezoid(xi * E, t)
    mask = (t >= t0) & (t < t[-1])
    if not mask.any():
        raise ValueError(f"no samples in [{t0}, {t[-1]})")
    S = t[mask]
    I = integral[mask]
    ES = E[mask]
    violation = bool(np.any((ES <= 0.0) & (I > 1e-15 * max(float(E[0]), 1e-300))))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(ES > 0, I / ES, np.where(I > 0, np.inf, 0.0))
    return WeightedIntegralProfile(
        S=S, rho=rho, max_rho=float(np.max(rho)), violation=violation
    )


def default_weighted_t0(kernel: RelaxationKernel) -> float:
    """Deterministic t0: the time accumulating half the kernel mass."""
    if isinstance(kernel.rate, ConstantRate):
        return math.log(2.0) / kernel.rate.alpha
    target = 0.5 * kernel.tail_mass
    hi = 1.0
    while kernel.partial_mass(hi) < target:
        hi *= 2.0
    return brentq(lambda s: kernel.partial_mass(s) - target, 0.0, hi)


def loglinear_fit(x: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope/intercept of log_y against x, plus R^2."""
    slope, intercept = np.polyfit(x, log_y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((log_y - pred) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class DecayReport:
    """Measured decay diagnostics for one trajectory."""

    omega_max: float
    omega_max_half: float
    omega_change: float
    trivial: bool
    tail_slope: float
    tail_r2: float
    t_tail: float
    rho_max: float
    rho_max_half: float
    rho_change: float
    t0: float
    horizon: float


def _rel_change(full: float, half: float) -> float:
    if half == 0.0:
        return 0.0 if full == 0.0 else math.inf
    if math.isinf(full) or math.isinf(half):
        return 0.0 if full == half else math.inf
    return abs(full - half) / abs(half)


def build_decay_report(sampled: SampledEnergy, t_tail: float, t0: float) -> DecayReport:
    """Envelope fit, tail regression and weighted-integral profile.

    Horizon stability compares each quantity on the full horizon against the
    first half of the run (the pre-doubling horizon), so t0 and t_tail must
    lie below half the final time.
    """
    T = sampled.horizon
    half = sampled.restrict(T / 2.0)
    if t0 >= half.horizon or t_tail >= half.horizon:
        raise ValueError(
            f"t0 = {t0} and t_tail = {t_tail} must lie below half the "
            f"horizon {T / 2.0} for the stability diagnostics"
        )

    omega_full, info = fit_omega(sampled)
    omega_half, _ = fit_omega(half)

    mask = (sampled.t >= t_tail) & (sampled.E > 0)
    if mask.sum() >= 3:
        slope, _, r2 = loglinear_fit(sampled.phi[mask], np.log(sampled.E[mask]))
    else:
        slope, r2 = 0.0, 0.0

    rho_full = weighted_integral_check(sampled, t0)
    rho_half = weighted_integral_check(half, t0)

    return DecayReport(
        omega_max=omega_full,
        omega_max_half=omega_half,
        omega_change=_rel_change(omega_full, omega_half),
        trivial=info.get("trivial", False),
        tail_slope=slope,
        tail_r2=r2,
        t_tail=t_tail,
        rho_max=rho_full.max_rho,
        rho_max_half=rho_half.max_rho,
        rho_change=_rel_change(rho_full.max_rho, rho_half.max_rho),
        t0=t0,
        horizon=T,
    )
