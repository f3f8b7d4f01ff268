import math

import numpy as np
import pytest

from viscowave import SampledEnergy, build_decay_report, fit_omega, martinez_check
from viscowave.decay import default_weighted_t0, loglinear_fit
from viscowave.kernels import build_kernel, make_rate


def _sampled(t, E, xi_fn, phi_fn):
    t = np.asarray(t, dtype=float)
    return SampledEnergy(
        t=t, E=np.asarray(E, dtype=float),
        phi=np.asarray(phi_fn(t), dtype=float),
        xi=np.asarray(xi_fn(t), dtype=float),
    )


def _unit_rate(t):
    return np.ones_like(t)


def _ident(t):
    return t


def test_sampled_energy_validation():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError, match="nonnegative"):
        _sampled(t, -np.ones_like(t), _unit_rate, _ident)
    with pytest.raises(ValueError, match="uniform"):
        SampledEnergy(t=np.array([0.0, 0.1, 0.5]), E=np.ones(3),
                      phi=np.array([0.0, 0.1, 0.5]), xi=np.ones(3))
    with pytest.raises(ValueError, match="phi"):
        SampledEnergy(t=t, E=np.ones_like(t), phi=t + 1.0, xi=np.ones_like(t))
    for bad in (math.nan, math.inf):
        E = np.exp(-t)
        E[5] = bad
        with pytest.raises(ValueError, match="finite"):
            _sampled(t, E, _unit_rate, _ident)


def test_martinez_exponential_case_sigma_zero():
    # E = E0 e^{-phi}, phi = t: the hypothesis holds with equality at
    # omega = 1 (int_S^inf E phi' = E(S)), and the conclusion bound
    # e^{1 - phi} dominates e^{-phi}
    t = np.linspace(0.0, 30.0, 3001)
    E0 = 2.0
    E = E0 * np.exp(-t)
    s = _sampled(t, E, _unit_rate, _ident)
    tail = lambda S: E0 * math.exp(-t[-1])  # int_T^inf E dt
    verdict = martinez_check(s, sigma=0.0, omega=1.0, tail=tail)
    assert verdict.hypothesis == "pass"
    assert verdict.conclusion == "pass"
    assert verdict.hypothesis_margin == pytest.approx(1.0, rel=1e-4)


def test_martinez_polynomial_case_sigma_positive():
    # E = E0 (1+t)^{-1/sigma} with sigma = 1/2, phi = t:
    # int_S^inf E^{3/2} dt = sigma E0^{1/2} E(S), hypothesis equality at
    # omega = 1/sigma = 2
    sigma = 0.5
    t = np.linspace(0.0, 400.0, 40001)
    E0 = 1.0
    E = E0 * (1.0 + t) ** (-1.0 / sigma)
    s = _sampled(t, E, _unit_rate, _ident)
    T = t[-1]
    tail = lambda S: sigma * (1.0 + T) ** (-1.0 / sigma)  # exact remainder
    verdict = martinez_check(s, sigma=sigma, omega=1.0 / sigma, tail=tail)
    assert verdict.hypothesis == "pass"
    assert verdict.conclusion == "pass"


def test_martinez_zero_energy_passes_with_zero_margins():
    # E = 0 throughout meets the hypothesis and the envelope for every omega
    t = np.linspace(0.0, 2.0, 21)
    s = _sampled(t, np.zeros_like(t), _unit_rate, _ident)
    verdict = martinez_check(s, sigma=0.0, omega=1.0)
    assert (verdict.hypothesis, verdict.conclusion,
            verdict.hypothesis_margin, verdict.conclusion_margin) == ("pass", "pass", 0.0, 0.0)


def test_martinez_negligible_final_integrand_passes_without_a_tail():
    # xi = 1e-7 makes the final integrand E(T) xi(T) fall below 1e-6 E(T):
    # with no closed-form tail, the partial integral within its bound is a
    # pass on its own
    t = np.linspace(0.0, 5.0, 501)
    E = np.exp(-t)
    s = _sampled(t, E, lambda t: np.full_like(t, 1e-7), lambda t: 1e-7 * t)
    assert s.xi[-1] * s.E[-1] <= 1e-6 * s.E[-1]
    verdict = martinez_check(s, sigma=0.0, omega=1.0)
    assert verdict.hypothesis == "pass"
    assert verdict.conclusion == "pass"
    assert 0.0 < verdict.hypothesis_margin < 1e-6


def test_martinez_constant_energy_fails():
    # constant E > 0: the weighted integral diverges, so the partial
    # integral alone breaks the bound on a long enough grid
    t = np.linspace(0.0, 50.0, 5001)
    E = np.full_like(t, 3.0)
    s = _sampled(t, E, _unit_rate, _ident)
    verdict = martinez_check(s, sigma=0.0, omega=1.0)
    assert verdict.hypothesis == "fail"
    assert verdict.conclusion == "fail"


def test_martinez_refuses_a_negative_sigma():
    # sigma is the exponent of E^sigma in the hypothesis integrand, >= 0
    t = np.linspace(0.0, 2.0, 21)
    s = _sampled(t, np.exp(-t), _unit_rate, _ident)
    with pytest.raises(ValueError, match="sigma must be nonnegative, got -0.5"):
        martinez_check(s, sigma=-0.5, omega=1.0)


def test_martinez_inconclusive_without_tail_control():
    # short grid: the partial integral stays below the bound but the
    # integrand at the last sample is nowhere near negligible and no tail
    # is supplied
    t = np.linspace(0.0, 5.0, 501)
    E = np.exp(-t)
    s = _sampled(t, E, _unit_rate, _ident)
    verdict = martinez_check(s, sigma=0.0, omega=1.0)
    assert verdict.hypothesis == "inconclusive"
    assert verdict.conclusion == "pass"


def test_martinez_rejects_bad_inputs():
    t = np.linspace(0.0, 1.0, 11)
    s = _sampled(t, np.exp(-t), _unit_rate, _ident)
    with pytest.raises(ValueError, match="omega"):
        martinez_check(s, sigma=0.0, omega=0.0)
    rising = _sampled(t, np.exp(t), _unit_rate, _ident)
    with pytest.raises(ValueError, match="nonincreasing"):
        martinez_check(rising, sigma=0.0, omega=1.0)


def test_fit_omega_exponential_profile():
    # E = E0 e^{-phi}: candidates (1 + phi)/phi decrease, so the minimum
    # sits at the final sample
    t = np.linspace(0.0, 10.0, 1001)
    E = 0.7 * np.exp(-t)
    s = _sampled(t, E, _unit_rate, _ident)
    omega = fit_omega(s)
    assert omega == pytest.approx((1.0 + 10.0) / 10.0, rel=1e-9)
    assert np.all(E <= 0.7 * np.exp(1.0 - omega * s.phi) * (1.0 + 1e-12))
    assert not np.all(E <= 0.7 * np.exp(1.0 - 1.01 * omega * s.phi))


def test_fit_omega_constant_profile():
    t = np.linspace(0.0, 8.0, 801)
    E = np.full_like(t, 0.3)
    s = _sampled(t, E, _unit_rate, _ident)
    omega = fit_omega(s)
    assert omega == pytest.approx(1.0 / 8.0, rel=1e-9)
    assert np.all(E <= 0.3 * np.exp(1.0 - omega * s.phi) * (1.0 + 1e-12))
    assert not np.all(E <= 0.3 * np.exp(1.0 - 1.01 * omega * s.phi))


def test_fit_omega_zero_energy_sentinel():
    t = np.linspace(0.0, 1.0, 11)
    s = _sampled(t, np.zeros_like(t), _unit_rate, _ident)
    assert math.isinf(fit_omega(s))


def test_weighted_integral_exponential_profile():
    # E = E0 e^{-t}, xi = 1: rho(S) = 1 - e^{-(T-S)} <= 1
    t = np.linspace(0.0, 20.0, 4001)
    E = 1.3 * np.exp(-t)
    s = _sampled(t, E, _unit_rate, _ident)
    rep, (S, rho) = build_decay_report(s, t_tail=5.0, t0=1.0)
    assert np.array_equal(S, t[(t >= 1.0) & (t < t[-1])])
    expect = 1.0 - np.exp(-(t[-1] - S))
    assert np.allclose(rho, expect, rtol=1e-5)
    assert rep.rho_max == rho.max()
    assert rep.rho_max <= 1.0 + 1e-5  # trapezoid bias on the convex integrand


def test_weighted_integral_powerlaw_profile():
    # E = E0/(1+t)^2, xi = 2/(1+t): rho(S) = 1 - ((1+S)/(1+T))^2
    t = np.linspace(0.0, 40.0, 8001)
    E = 0.9 / (1.0 + t) ** 2
    s = _sampled(t, E, lambda tt: 2.0 / (1.0 + tt), lambda tt: 2.0 * np.log1p(tt))
    _, (S, rho) = build_decay_report(s, t_tail=5.0, t0=1.0)
    expect = 1.0 - ((1.0 + S) / (1.0 + t[-1])) ** 2
    assert np.allclose(rho, expect, rtol=1e-4)


def test_weighted_integral_zero_energy_trivial():
    t = np.linspace(0.0, 10.0, 101)
    s = _sampled(t, np.zeros_like(t), _unit_rate, _ident)
    rep, (_, rho) = build_decay_report(s, t_tail=2.0, t0=1.0)
    assert np.all(rho == 0.0)
    assert rep.trivial and math.isinf(rep.omega_max)
    assert rep.rho_max == rep.rho_max_half == rep.rho_change == 0.0


def test_half_horizon_figures_match_a_report_on_the_first_half():
    # the half-horizon figures are prefix reductions of the one pass; they
    # must agree with a report built on a separately sampled first half
    kernel = build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 3.0)
    t = np.linspace(0.0, 20.0, 2001)
    E = np.exp(-0.4 * t) * (1.2 + np.sin(3.0 * t))
    full = SampledEnergy.from_samples(t, E, kernel)
    first = SampledEnergy.from_samples(t[:1001], E[:1001], kernel)
    rep, _ = build_decay_report(full, t_tail=2.0, t0=1.0)
    ref, _ = build_decay_report(first, t_tail=2.0, t0=1.0)
    assert rep.omega_max_half == ref.omega_max
    assert rep.rho_max_half == pytest.approx(ref.rho_max, rel=1e-13)
    assert rep.omega_max < rep.omega_max_half


def test_default_t0_is_half_mass_time():
    # the constant family's bisection lands within one ulp of ln 2 / alpha
    for alpha in (0.5, 1.0, 2.0, 3.7):
        k = build_kernel(make_rate("constant", alpha), 1.0, 3.0)
        t0 = default_weighted_t0(k)
        assert abs(t0 - math.log(2.0) / alpha) <= math.ulp(t0)
        assert k.partial_mass(t0) == pytest.approx(0.5 * k.tail_mass, rel=1e-9)
    kp = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    t0p = default_weighted_t0(kp)
    assert kp.partial_mass(t0p) == pytest.approx(0.5 * kp.tail_mass, rel=1e-9)


def test_loglinear_fit_recovers_exact_line():
    x = np.linspace(0.0, 5.0, 100)
    y = -2.5 * x + 0.7
    slope, intercept, r2 = loglinear_fit(x, y)
    assert slope == pytest.approx(-2.5)
    assert intercept == pytest.approx(0.7)
    assert r2 == pytest.approx(1.0)


def test_decay_report_on_synthetic_exponential():
    t = np.linspace(0.0, 20.0, 2001)
    E = np.exp(-0.8 * t)
    s = _sampled(t, E, _unit_rate, _ident)
    rep, _ = build_decay_report(s, t_tail=5.0, t0=1.0)
    assert rep.omega_max > 0
    assert rep.omega_change < 0.2
    assert rep.tail_slope == pytest.approx(-0.8, rel=1e-6)
    assert rep.tail_r2 > 0.999
    assert rep.rho_change < 0.2
    assert not rep.trivial
    # diagnostics need t0, t_tail below half the horizon
    with pytest.raises(ValueError, match="half"):
        build_decay_report(s, t_tail=15.0, t0=1.0)
