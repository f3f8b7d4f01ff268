"""Relaxation kernels generated from decay-rate functions.

A kernel g is built from a rate function xi by saturating the decay law
g'(t) = -xi(t) g(t), i.e. g(t) = g(0) exp(-int_0^t xi).  Saturation makes the
memory-rate terms of the energy identity exactly computable and guarantees
the decay hypothesis by construction.  Three rate families ship:

  constant     xi(t) = alpha                      g = g0 e^{-alpha t}
  power_law    xi(t) = alpha / (1 + t)            g = g0 (1 + t)^{-alpha}
  oscillatory  xi(t) = alpha (1 + eps e^{-t} sin t),  0 <= eps < 1

Each family carries analytic certificates: theta and r such that
|xi'|/xi^theta is integrable and int_t^{t+s} xi'/xi <= r for all t, s >= 0
(equivalently xi(t+s) <= e^r xi(t)).  For nonincreasing rates theta = r = 0.

Each family also writes its kernel as a sum of exponentials,
g(t) ~ Re sum_j c_j e^{-s_j t} with possibly complex rates s_j, carrying a
certified bound on the pointwise relative error (:class:`ExpSum`).  The
history buffer runs one exact trapezoid recursion per term, and the masses
int_0^t g of the oscillatory family are closed-form sums over the terms.

The boundary coefficients p, q are taken constant on the acoustic boundary,
so their positivity hypothesis reduces to p > 0, q > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainccinv, gammaincinv, gammaln

# Pointwise relative error every sum-of-exponentials expansion must meet.
SOE_REL_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryCoefficients:
    """Constant acoustic-boundary coefficients (p for y_t, q for y)."""

    p: float
    q: float


@dataclass(frozen=True, eq=False)
class ExpSum:
    """A kernel as a sum of exponentials, g(t) ~ Re sum_j c_j e^{-s_j t}.

    ``rel_error`` bounds the relative error on [0, ``horizon``] of the sum
    and of its derivative sum_j -s_j c_j e^{-s_j t} against g'; the memory
    recursion uses both.  Conjugate rate pairs are folded into one term with
    a doubled coefficient, so the expansion is the real part of the sum; the
    arrays are real when every rate is.  ``certification`` says how the
    bound was obtained: "exact" (g is one exponential), "analytic" (a series
    tail bound valid for all t >= 0, horizon = inf) or "grid" (the maximum
    over a dense sample of [0, horizon]).
    """

    coeffs: np.ndarray
    rates: np.ndarray
    rel_error: float
    horizon: float
    certification: str

    @property
    def n_terms(self) -> int:
        return len(self.rates)

    def scaled(self, factor: float) -> "ExpSum":
        return replace(self, coeffs=factor * self.coeffs)

    def partial_mass(self, t: float) -> float:
        """int_0^t of the expansion, closed form."""
        return float((self.coeffs * -np.expm1(-self.rates * t) / self.rates).sum().real)

    def total_mass(self) -> float:
        return float((self.coeffs / self.rates).sum().real)

    def to_dict(self) -> dict:
        return {
            "n_terms": self.n_terms,
            "certified_rel_error": self.rel_error,
            "certification": self.certification,
            "horizon": self.horizon if math.isfinite(self.horizon) else None,
        }


def _exp_sum(coeffs, rates, rel_error, horizon, certification) -> ExpSum:
    coeffs, rates = np.asarray(coeffs, dtype=complex), np.asarray(rates, dtype=complex)
    if not (np.any(coeffs.imag) or np.any(rates.imag)):
        coeffs, rates = coeffs.real.copy(), rates.real.copy()
    return ExpSum(coeffs, rates, float(rel_error), float(horizon), certification)


class RateFunction:
    """Closed-form rate function xi with decay certificates (theta, r)."""

    family: str = "abstract"
    theta: float = 0.0
    r: float = 0.0

    def xi(self, t):
        raise NotImplementedError

    def xi_prime(self, t):
        raise NotImplementedError

    def phi(self, t):
        """int_0^t xi(s) ds, closed form."""
        raise NotImplementedError

    def sup_xi(self) -> float:
        raise NotImplementedError

    def xi_prime_l1_bound(self) -> float:
        """Analytic bound for int_0^inf |xi'| / xi^theta."""
        raise NotImplementedError

    def xi_prime_l1_tail(self, t: float) -> float:
        """Analytic bound for int_t^inf |xi'| / xi^theta."""
        raise NotImplementedError

    def exp_sum(self, horizon: float | None) -> ExpSum:
        """exp(-phi(t)) = g(t)/g(0) as a sum of exponentials, with relative
        error at most SOE_REL_TOL on [0, horizon] (also for the derivative)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRate(RateFunction):
    alpha: float
    family: str = "constant"
    theta: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"constant rate needs alpha > 0, got {self.alpha}")

    def xi(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.alpha)

    def xi_prime(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def phi(self, t):
        return self.alpha * np.asarray(t, dtype=float)

    def sup_xi(self):
        return self.alpha

    def xi_prime_l1_bound(self):
        return 0.0

    def xi_prime_l1_tail(self, t):
        return 0.0

    def exp_sum(self, horizon=None):
        return _exp_sum([1.0], [self.alpha], 0.0, math.inf, "exact")


@dataclass(frozen=True)
class PowerLawRate(RateFunction):
    """xi = alpha/(1+t); nonincreasing, so theta = r = 0."""

    alpha: float
    family: str = "power_law"
    theta: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"power-law rate needs alpha > 0, got {self.alpha}")

    def xi(self, t):
        return self.alpha / (1.0 + np.asarray(t, dtype=float))

    def xi_prime(self, t):
        return -self.alpha / (1.0 + np.asarray(t, dtype=float)) ** 2

    def phi(self, t):
        return self.alpha * np.log1p(np.asarray(t, dtype=float))

    def sup_xi(self):
        return self.alpha

    def xi_prime_l1_bound(self):
        return self.alpha  # int_0^inf alpha/(1+t)^2

    def xi_prime_l1_tail(self, t):
        return self.alpha / (1.0 + t)

    def exp_sum(self, horizon):
        """Trapezoid rule in x = ln s on the Laplace form

            (1+t)^{-alpha} = Gamma(alpha)^{-1} int s^{alpha-1} e^{-s} e^{-s t} ds.

        The s-range drops at most SOE_REL_TOL/4 relative mass at each end for
        every t in [0, horizon] (regularized incomplete gamma functions); the
        step shrinks until the relative error of the sum and of its
        derivative, sampled densely in ln(1+t), meets the tolerance.  The
        terms depend on the horizon.
        """
        if horizon is None:
            raise ValueError("a power-law kernel needs a finite horizon for its "
                             "sum of exponentials")
        horizon = max(float(horizon), 1.0)
        a = self.alpha
        cut = 0.25 * SOE_REL_TOL
        x_lo = math.log(gammaincinv(a, cut) / (1.0 + horizon))
        x_hi = math.log(gammainccinv(a, cut))
        t = np.unique(np.concatenate([
            np.linspace(0.0, horizon, 1001),
            np.expm1(np.linspace(0.0, math.log1p(horizon), 2001)),
        ]))
        g = (1.0 + t) ** -a
        g_prime = -a * g / (1.0 + t)
        step = 0.5
        for _ in range(40):
            x = np.linspace(x_lo, x_hi, math.ceil((x_hi - x_lo) / step) + 1)
            rates = np.exp(x)
            coeffs = (x[1] - x[0]) * np.exp(a * x - rates - gammaln(a))
            decays = np.exp(-np.multiply.outer(t, rates))
            err = max(float(np.max(np.abs(decays @ coeffs - g) / g)),
                      float(np.max(np.abs(decays @ (-rates * coeffs) - g_prime) / -g_prime)))
            if err <= SOE_REL_TOL:
                return _exp_sum(coeffs, rates, err, horizon, "grid")
            step *= 0.9
        raise RuntimeError(f"power-law expansion missed {SOE_REL_TOL:g} (reached {err:.3g})")


def _exp_series_tail(c: float, n: int) -> float:
    """sum_{k > n} c^k / k! for c >= 0."""
    k, term, total = n + 1, c ** (n + 1) / math.factorial(n + 1), 0.0
    while term > 1e-17 * total:
        total += term
        k += 1
        term *= c / k
    return total


# max of e^{-t} sin t over t >= 0, attained at t = pi/4, and the magnitude
# of its min, attained at t = 5 pi/4
_OSC_MAX = math.exp(-math.pi / 4.0) * math.sin(math.pi / 4.0)
_OSC_NEG = math.exp(-5.0 * math.pi / 4.0) * math.sin(math.pi / 4.0)


@dataclass(frozen=True)
class OscillatoryRate(RateFunction):
    """Non-monotone rate xi = alpha (1 + eps e^{-t} sin t).

    Certified with theta = 0 (|xi'| <= alpha eps sqrt(2) e^{-t}) and
    r = ln((1+eps)/(1-eps)) from the crude envelope alpha(1-eps) <= xi <=
    alpha(1+eps).
    """

    alpha: float
    eps: float
    family: str = "oscillatory"
    theta: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"oscillatory rate needs alpha > 0, got {self.alpha}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"oscillatory rate needs 0 <= eps < 1, got {self.eps}")

    @property
    def r(self) -> float:
        return math.log((1.0 + self.eps) / (1.0 - self.eps))

    def xi(self, t):
        t = np.asarray(t, dtype=float)
        return self.alpha * (1.0 + self.eps * np.exp(-t) * np.sin(t))

    def xi_prime(self, t):
        t = np.asarray(t, dtype=float)
        return self.alpha * self.eps * np.exp(-t) * (np.cos(t) - np.sin(t))

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        osc = 0.5 * (1.0 - np.exp(-t) * (np.sin(t) + np.cos(t)))
        return self.alpha * (t + self.eps * osc)

    def sup_xi(self):
        return self.alpha * (1.0 + self.eps * _OSC_MAX)

    def xi_prime_l1_bound(self):
        return self.alpha * self.eps * math.sqrt(2.0)

    def xi_prime_l1_tail(self, t):
        return self.alpha * self.eps * math.sqrt(2.0) * math.exp(-t)

    def exp_sum(self, horizon=None):
        """Exact series, truncated where its analytic tail meets the tolerance.

        With c = alpha eps / 2 and w = e^{-t} (sin t + cos t),

            exp(-phi) = e^{-c} e^{-alpha t} sum_n (c w)^n / n!,

        and (sin t + cos t)^n = (a e^{it} + conj(a) e^{-it})^n with
        a = (1 - i)/2 expands binomially into exponentials of rate
        alpha + n - i(2k - n).  With T_N = sum_{n > N} c^n / n!, and as
        -e^{-pi} <= w <= 1 and |w'| = 2 e^{-t} |sin t|, the terms n <= N have
        relative error at most e^{c e^{-pi}} T_N in g and
        e^{c e^{-pi}} (alpha T_N + 2 m c T_{N-1}) / min xi in g' for every
        t >= 0, with m = max e^{-t} |sin t|.
        """
        c = 0.5 * self.alpha * self.eps
        xi_min = self.alpha * (1.0 - self.eps * _OSC_NEG)

        def bound(n: int) -> float:
            tail = _exp_series_tail(c, n)
            tail_prime = (self.alpha * tail + 2.0 * _OSC_MAX * c * _exp_series_tail(c, n - 1)) / xi_min
            return inflation * max(tail, tail_prime)

        try:
            inflation = math.exp(c * math.exp(-math.pi))  # 1 / min_t e^{c w}
            n_max = 0
            while bound(n_max) > SOE_REL_TOL:
                n_max += 1
        except OverflowError:
            raise ValueError(
                f"oscillatory rate: the exponential series in alpha*eps/2 = {c:.6g} "
                "overflows a float; lower alpha or eps"
            ) from None
        # bound(n_max) formed c^(n_max+1) / (n_max+1)!, so no term below overflows
        a = complex(0.5, -0.5)
        coeffs, rates = [], []
        for n in range(n_max + 1):
            base = math.exp(-c) * c**n / math.factorial(n)
            for k in range((n + 1) // 2, n + 1):  # 2k - n >= 0; conjugates folded
                m = 2 * k - n
                coef = base * math.comb(n, k) * a**k * a.conjugate() ** (n - k)
                coeffs.append(coef if m == 0 else 2.0 * coef)
                rates.append(complex(self.alpha + n, -m))
        return _exp_sum(coeffs, rates, bound(n_max), math.inf, "analytic")


RATE_FAMILIES = ("constant", "power_law", "oscillatory")


def make_rate(family: str, alpha: float, eps: float = 0.0) -> RateFunction:
    if family == "constant":
        return ConstantRate(alpha)
    if family == "power_law":
        return PowerLawRate(alpha)
    if family == "oscillatory":
        return OscillatoryRate(alpha, eps)
    raise ValueError(f"unknown rate family '{family}'; valid: {RATE_FAMILIES}")


@dataclass(frozen=True)
class RelaxationKernel:
    """Memory kernel g(t) = g0 exp(-int_0^t xi) with its derived constants.

    ``tail_mass`` is int_0^inf g and ``l_value`` = a - tail_mass > 0.
    ``expansion`` is g as a sum of exponentials for the families whose
    expansion holds on every horizon (constant, oscillatory), else None.
    """

    rate: RateFunction
    g0: float
    a_coeff: float
    tail_mass: float
    l_value: float
    expansion: ExpSum | None = field(default=None, compare=False)

    def exp_sum(self, horizon: float | None = None) -> ExpSum:
        """g as a sum of exponentials certified on [0, horizon]."""
        if self.expansion is not None:
            return self.expansion
        return self.rate.exp_sum(horizon).scaled(self.g0)

    def g(self, t):
        return self.g0 * np.exp(-self.rate.phi(t))

    def g_prime(self, t):
        return -self.rate.xi(t) * self.g(t)

    def partial_mass(self, t0: float) -> float:
        """int_0^{t0} g(s) ds, closed form where the family admits one."""
        if t0 < 0:
            raise ValueError(f"t0 must be nonnegative, got {t0}")
        rate = self.rate
        if isinstance(rate, ConstantRate):
            return self.g0 * (1.0 - math.exp(-rate.alpha * t0)) / rate.alpha
        if isinstance(rate, PowerLawRate):
            am1 = rate.alpha - 1.0
            return self.g0 * (1.0 - (1.0 + t0) ** (-am1)) / am1
        return self.expansion.partial_mass(t0)


def build_kernel(rate: RateFunction, g0: float, a: float) -> RelaxationKernel:
    """Construct a kernel saturating g' = -xi g and check the mass budget.

    Rejects configurations violating hypothesis (H2): g(0) must be positive
    and the wave coefficient must exceed the kernel's total mass.
    """
    if g0 <= 0:
        raise ValueError(f"(H2) violated: g(0) must be positive, got {g0}")
    if a <= 0:
        raise ValueError(f"wave coefficient a must be positive, got {a}")

    expansion = None
    if isinstance(rate, PowerLawRate):
        if rate.alpha <= 1.0:
            raise ValueError(
                f"(H2) violated: power-law rate alpha = {rate.alpha} <= 1 gives an "
                "infinite kernel mass (g = g0 (1+t)^(-alpha))"
            )
        tail = g0 / (rate.alpha - 1.0)
    else:
        expansion = rate.exp_sum(None).scaled(g0)
        # a subnormal alpha gives an infinite mass, which (H2) rejects below
        with np.errstate(over="ignore", invalid="ignore"):
            tail = expansion.total_mass()

    l_value = a - tail
    if l_value <= 0:
        raise ValueError(
            f"(H2) violated: a - int_0^inf g = {l_value:.6g} <= 0 "
            f"(a = {a}, kernel mass = {tail:.6g})"
        )
    return RelaxationKernel(
        rate=rate, g0=g0, a_coeff=a, tail_mass=tail, l_value=l_value, expansion=expansion
    )


@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    margin: float
    note: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    """Numerical verdicts for the kernel/boundary hypotheses.

    Verdicts are grid checks over [0, horizon] combined with the per-family
    analytic tail certificates; a condition passes only if every sampled
    inequality holds within its stated tolerance.  ``memory_expansion``
    describes the kernel's sum of exponentials on the same horizon: term
    count, certified relative error and how it was certified.
    """

    conditions: dict[str, ConditionVerdict]
    theta: float
    r_claimed: float
    r_measured: float
    e_r: float
    l_value: float
    sup_xi: float
    xi_prime_l1: float
    horizon: float
    grid_size: int
    memory_expansion: dict
    passed: bool  # every condition passed

    def failures(self) -> list[str]:
        return [f"{k}: {v.note}" for k, v in self.conditions.items() if not v.passed]


def _check_grid(horizon: float) -> np.ndarray:
    # composite grid: uniform coverage plus geometric refinement near t = 0
    uniform = np.linspace(0.0, horizon, 401)
    geometric = np.geomspace(1e-6 * horizon, horizon, 200)
    return np.unique(np.concatenate([uniform, geometric]))


def validate_hypotheses(
    kernel: RelaxationKernel,
    coeffs: BoundaryCoefficients,
    horizon: float,
) -> HypothesisReport:
    """Check hypotheses (H1)-(H2) and the rate certificates on a sample grid.

    Failures are verdicts, not exceptions: a report with a failing condition
    names the violated hypothesis in the condition note.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")

    rate = kernel.rate
    grid = _check_grid(horizon)
    xi = rate.xi(grid)
    g = kernel.g(grid)
    gp = kernel.g_prime(grid)
    conditions: dict[str, ConditionVerdict] = {}

    conditions["h1_p_positive"] = ConditionVerdict(
        passed=coeffs.p > 0,
        margin=coeffs.p,
        note=f"(H1) requires p > 0 on the acoustic boundary, got p = {coeffs.p}",
    )
    conditions["h1_q_positive"] = ConditionVerdict(
        passed=coeffs.q > 0,
        margin=coeffs.q,
        note=f"(H1) requires q > 0 on the acoustic boundary, got q = {coeffs.q}",
    )
    conditions["h2_g0_positive"] = ConditionVerdict(
        passed=kernel.g0 > 0,
        margin=kernel.g0,
        note=f"(H2) requires g(0) > 0, got {kernel.g0}",
    )
    conditions["h2_l_positive"] = ConditionVerdict(
        passed=kernel.l_value > 0,
        margin=kernel.l_value,
        note=f"(H2) requires a - int g = l > 0, got l = {kernel.l_value:.6g}",
    )
    conditions["xi_positive"] = ConditionVerdict(
        passed=bool(np.all(xi > 0)),
        margin=float(xi.min()),
        note="rate function must map into (0, inf)",
    )

    # divergence of int_0^inf xi: all families diverge analytically (linear or
    # logarithmic growth of the closed-form antiderivative); the numeric check
    # confirms strict growth on the sampled horizon.
    growth = float(rate.phi(horizon) - rate.phi(horizon / 2.0))
    conditions["xi_integral_diverges"] = ConditionVerdict(
        passed=growth > 0,
        margin=growth,
        note=f"int xi over [H/2, H] = {growth:.6g}; family '{rate.family}' diverges analytically",
    )

    conditions["g_nonincreasing"] = ConditionVerdict(
        passed=bool(np.all(gp <= 0)),
        margin=float(-gp.max()),
        note="g' = -xi g must be nonpositive",
    )

    # finite-difference consistency of the closed forms: g built from phi must
    # differentiate back to -xi g
    sub = grid[(grid > 0)][:: max(1, len(grid) // 64)]
    delta = 1e-6 * np.maximum(1.0, sub)
    fd = (kernel.g(sub + delta) - kernel.g(sub - delta)) / (2.0 * delta)
    rel = np.abs(fd + rate.xi(sub) * kernel.g(sub)) / np.maximum(
        rate.xi(sub) * kernel.g(sub), 1e-300
    )
    conditions["g_prime_identity"] = ConditionVerdict(
        passed=bool(np.all(rel <= 1e-6)),
        margin=float(rel.max()),
        note="finite-difference check of g' = -xi g against the closed forms",
    )

    # int_t^{t+s} xi'/xi = ln(xi(t+s)/xi(t)) <= r: scan grid pairs via a
    # running minimum of ln xi
    log_xi = np.log(np.maximum(xi, 1e-300))
    running_min = np.minimum.accumulate(log_xi)
    r_measured = float(np.max(log_xi - running_min))
    r_claimed = float(rate.r)
    conditions["xi_ratio_bounded"] = ConditionVerdict(
        passed=r_measured <= r_claimed + 1e-9,
        margin=r_claimed - r_measured,
        note=f"measured sup ln(xi(t+s)/xi(t)) = {r_measured:.6g}, certificate r = {r_claimed:.6g}",
    )

    # |xi'|/xi^theta in L^1: adaptive quadrature plus analytic tail
    theta = float(rate.theta)
    l1_grid, _ = quad(
        lambda s: abs(float(rate.xi_prime(s))) / float(rate.xi(s)) ** theta,
        0.0,
        horizon,
        epsrel=1e-9,
        limit=400,
    )
    l1 = l1_grid + float(rate.xi_prime_l1_tail(horizon))
    bound = rate.xi_prime_l1_bound()
    conditions["xi_prime_integrable"] = ConditionVerdict(
        passed=bool(np.isfinite(l1)) and l1 <= bound * (1.0 + 1e-6) + 1e-12,
        margin=bound - l1,
        note=f"int |xi'|/xi^theta = {l1:.6g}, analytic bound {bound:.6g}",
    )

    return HypothesisReport(
        conditions=conditions,
        theta=theta,
        r_claimed=r_claimed,
        r_measured=r_measured,
        e_r=math.exp(r_claimed),
        l_value=kernel.l_value,
        sup_xi=float(max(xi.max(), rate.sup_xi())),
        xi_prime_l1=l1,
        horizon=horizon,
        grid_size=len(grid),
        memory_expansion=kernel.exp_sum(horizon).to_dict(),
        passed=all(v.passed for v in conditions.values()),
    )
