import math

import numpy as np
import pytest
from scipy.integrate import quad

from viscowave import build_kernel, kernels, make_rate, validate_hypotheses
from viscowave.cli import PRESETS, _strict
from viscowave.kernels import BoundaryCoefficients, ConstantRate, OscillatoryRate, PowerLawRate


def test_exponential_kernel_construction():
    k = build_kernel(make_rate("constant", 1.0), g0=1.0, a=2.0)
    assert k.tail_mass == pytest.approx(1.0)  # int_0^inf e^{-t}
    assert k.l_value == pytest.approx(1.0)
    soe = k.exp_sum(None)
    assert soe.n_terms == 1 and soe.rel_error == 0.0 and soe.certification == "exact"
    ts = np.linspace(0.0, 5.0, 11)
    assert np.allclose(k.g(ts), np.exp(-ts))


def test_power_law_kernel_construction():
    k = build_kernel(make_rate("power_law", 2.0), g0=1.0, a=3.0)
    assert k.tail_mass == pytest.approx(1.0)  # int (1+t)^-2
    assert k.l_value == pytest.approx(2.0)
    with pytest.raises(ValueError, match="horizon"):
        k.exp_sum(None)
    soe = k.exp_sum(40.0)
    assert soe.certification == "grid" and soe.horizon == 40.0
    assert soe.rel_error <= 1e-10
    ts = np.linspace(0.0, 5.0, 11)
    assert np.allclose(k.g(ts), (1.0 + ts) ** -2)


def test_mass_budget_violation_cites_h2():
    # tail = 1/0.1 = 10 > a = 2
    with pytest.raises(ValueError, match=r"\(H2\)"):
        build_kernel(make_rate("constant", 0.1), g0=1.0, a=2.0)


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_nonpositive_wave_coefficient_rejected(a):
    with pytest.raises(ValueError, match="wave coefficient a must be positive"):
        build_kernel(make_rate("constant", 1.0), g0=1.0, a=a)


def test_heavy_power_tail_rejected():
    with pytest.raises(ValueError, match="infinite"):
        build_kernel(make_rate("power_law", 1.0), g0=1.0, a=5.0)


def test_oscillatory_rate_parameter_range():
    with pytest.raises(ValueError):
        make_rate("oscillatory", 1.0, eps=1.0)
    with pytest.raises(ValueError):
        make_rate("unknown", 1.0)


@pytest.mark.parametrize("make", [
    lambda: ConstantRate(1.0, theta=5.0, r=-1.0),
    lambda: ConstantRate(1.0, family="power_law"),
    lambda: PowerLawRate(2.0, family="constant"),
    lambda: PowerLawRate(2.0, r=0.5),
    lambda: OscillatoryRate(1.0, 0.5, theta=1.0),
    lambda: OscillatoryRate(1.0, 0.5, family="constant"),
])
def test_certificates_are_no_constructor_arguments(make):
    # the family and its certificates (theta, r) are what validate_hypotheses
    # reports, so no caller may set them
    with pytest.raises(TypeError):
        make()


def test_certificates_belong_to_the_family():
    assert (ConstantRate(1.0).family, ConstantRate(1.0).theta, ConstantRate(1.0).r) == (
        "constant", 0.0, 0.0)
    assert (PowerLawRate(2.0).family, PowerLawRate(2.0).theta, PowerLawRate(2.0).r) == (
        "power_law", 0.0, 0.0)
    osc = OscillatoryRate(1.0, 0.5)
    assert (osc.family, osc.theta, osc.r) == ("oscillatory", 0.0, math.log(3.0))


@pytest.mark.parametrize("method,args", [("xi", (0.5,)), ("phi", (0.5,)),
                                         ("xi_prime_l1_tail", (0.0,)), ("exp_sum", (1.0,))])
def test_the_rate_base_class_leaves_every_closed_form_to_a_family(method, args):
    # RateFunction names the interface; a rate without a family's closed
    # forms raises instead of returning a value, and turns nowhere
    rate = kernels.RateFunction()
    assert rate.family == "abstract" and rate.theta == rate.r == 0.0
    with pytest.raises(NotImplementedError):
        getattr(rate, method)(*args)
    assert rate.turning_points(1.0).size == 0


def test_partial_mass_examples():
    k = build_kernel(make_rate("constant", 1.0), 1.0, 2.0)
    assert k.partial_mass(1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert k.partial_mass(80.0) == pytest.approx(k.tail_mass)
    kp = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    assert kp.partial_mass(1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("preset", ["exp-inwell", "powerlaw-inwell", "oscillatory-inwell"])
def test_partial_mass_of_the_record_grid_matches_the_float_calls(preset):
    # a run fills its int_0^t g table with one call on its record grid; each
    # entry is what a float call, the root search's path, gives there
    config = PRESETS[preset].parse()
    stepping = config.stepping
    kernel = config.build_kernel()
    times = np.arange(0, stepping.n_steps + 1, stepping.record_every) * stepping.dt
    table = kernel.partial_mass(times)
    floats = [kernel.partial_mass(float(t)) for t in times]
    assert all(type(m) is float for m in floats)
    assert np.all(np.abs(table - floats) <= 2 * np.spacing(np.maximum(table, floats)))
    with pytest.raises(ValueError, match="nonnegative"):
        kernel.partial_mass(np.array([0.0, 1.0, -1e-3]))
    with pytest.raises(ValueError, match="nonnegative"):
        kernel.partial_mass(-1e-3)


def test_partial_mass_keeps_its_digits_at_small_times():
    # 1 - e^{-x} is formed without cancellation as t -> 0; the power law's
    # 1 - (1 + t)^{-1} is t / (1 + t)
    k = build_kernel(make_rate("constant", 2.0), 3.0, 4.0)
    kp = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    for t in (1e-12, 1e-8, 1e-4, 0.5):
        series = sum((-2.0) ** (j - 1) * t**j / math.factorial(j) for j in range(1, 30))
        assert k.partial_mass(t) == pytest.approx(3.0 * series, rel=1e-15)
        assert kp.partial_mass(t) == pytest.approx(t / (1.0 + t), rel=1e-15)


def test_mass_split_consistency():
    # l = a - partial(t0) - analytic remainder, remainder = g0 e^{-a t0}/alpha
    k = build_kernel(make_rate("constant", 2.0), g0=3.0, a=4.0)
    t0 = 1.7
    remainder = 3.0 * math.exp(-2.0 * t0) / 2.0
    assert k.l_value == pytest.approx(4.0 - k.partial_mass(t0) - remainder, rel=1e-8)


@pytest.mark.parametrize("alpha,eps,g0", [(1.0, 0.5, 1.0), (2.0, 0.25, 0.7), (4.0, 0.9, 3.0)])
def test_oscillatory_masses_match_quadrature(alpha, eps, g0):
    # closed-form sums over the expansion against adaptive quadrature of g
    k = build_kernel(make_rate("oscillatory", alpha, eps), g0, a=10.0)
    total, _ = quad(lambda s: float(k.g(s)), 0.0, np.inf, epsrel=1e-12, limit=400)
    assert k.tail_mass == pytest.approx(total, rel=1e-9)
    for t in (0.05, 0.8, 3.0, 17.0):
        part, _ = quad(lambda s: float(k.g(s)), 0.0, t, epsrel=1e-12, limit=400)
        assert k.partial_mass(t) == pytest.approx(part, rel=1e-9)


@pytest.mark.parametrize(
    "family,alpha,eps,horizon",
    [("constant", 1.5, 0.0, None), ("oscillatory", 1.0, 0.5, None),
     ("oscillatory", 3.0, 0.8, None), ("power_law", 2.0, 0.0, 40.0),
     ("power_law", 1.5, 0.0, 3.0)],
)
def test_expansion_meets_its_certificate(family, alpha, eps, horizon):
    # g and g' from the sum of exponentials, sampled on a grid other than the
    # one the power-law construction checks
    k = build_kernel(make_rate(family, alpha, eps), 1.3, a=20.0)
    soe = k.exp_sum(horizon)
    assert soe.rel_error <= 1e-10
    ts = np.unique(np.concatenate([np.linspace(0.0, horizon or 40.0, 7919),
                                   np.geomspace(1e-7, horizon or 40.0, 997)]))
    decays = np.exp(-np.multiply.outer(ts, soe.rates))
    g, gp = k.g(ts), k.g_prime(ts)
    slack = 1.0 + 1e-3
    assert np.max(np.abs((decays @ soe.coeffs).real - g) / g) <= slack * soe.rel_error + 1e-15
    assert np.max(np.abs((decays @ (-soe.rates * soe.coeffs)).real - gp) / -gp) <= (
        slack * soe.rel_error + 1e-15
    )


def test_power_law_expansion_that_misses_its_tolerance_raises(monkeypatch):
    # a tolerance below roundoff cannot be met: the step shrinks until the
    # construction gives up and names both the target and what it reached
    monkeypatch.setattr(kernels, "SOE_REL_TOL", 1e-17)
    with pytest.raises(RuntimeError, match=r"power-law expansion missed 1e-17 \(reached "):
        PowerLawRate(2.0).exp_sum(2.0)


@pytest.mark.parametrize(
    "family,alpha,eps,a",
    [("constant", 1.0, 0.0, 2.0), ("power_law", 2.0, 0.0, 3.0),
     ("oscillatory", 1.0, 0.5, 2.0)],
)
def test_kernel_pointwise_properties(family, alpha, eps, a):
    k = build_kernel(make_rate(family, alpha, eps), 1.0, a)
    ts = np.unique(np.concatenate([np.linspace(0, 30, 301), np.geomspace(1e-6, 30, 120)]))
    g = k.g(ts)
    assert np.all(g > 0)
    # g' = -xi g exactly (saturated construction)
    assert np.allclose(k.g_prime(ts), -k.rate.xi(ts) * g, rtol=1e-12)
    # monotone decay
    assert np.all(np.diff(g) <= 0)
    # rate ratio never exceeds the certificate: xi(t+s) <= e^r xi(t)
    xi = k.rate.xi(ts)
    running_min = np.minimum.accumulate(xi)
    assert np.max(xi / running_min) <= math.exp(k.rate.r) * (1 + 1e-9)


def test_validate_constant_rate_passes_with_zero_certificates():
    k = build_kernel(make_rate("constant", 1.0), 1.0, 2.0)
    rep = validate_hypotheses(k, BoundaryCoefficients(1.0, 1.0), horizon=20.0)
    assert rep.passed
    assert rep.theta == 0.0
    assert rep.r_claimed == 0.0
    assert rep.e_r == 1.0
    assert rep.r_measured <= 1e-12


def test_validate_power_law_passes():
    k = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    rep = validate_hypotheses(k, BoundaryCoefficients(0.5, 2.0), horizon=20.0)
    assert rep.passed
    assert rep.r_claimed == 0.0
    # |xi'| integrates to alpha = 2 (grid portion + analytic tail)
    assert rep.xi_prime_l1 == pytest.approx(2.0, rel=1e-3)


def test_validate_oscillatory_certificates():
    k = build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 2.0)
    rep = validate_hypotheses(k, BoundaryCoefficients(1.0, 1.0), horizon=20.0)
    assert rep.passed
    assert rep.theta == 0.0
    # r = ln((1+eps)/(1-eps)) = ln 3 for eps = 1/2
    assert rep.r_claimed == pytest.approx(math.log(3.0))
    assert rep.e_r == pytest.approx(3.0)
    assert rep.r_measured <= rep.r_claimed
    # |xi'| <= alpha eps sqrt(2) e^{-t}, integrable
    assert rep.xi_prime_l1 <= 0.5 * math.sqrt(2.0) + 1e-6
    assert rep.sup_xi == pytest.approx(1.0 + 0.5 * math.exp(-math.pi / 4) * math.sin(math.pi / 4))


def _oscillatory_report(rate, horizon):
    return validate_hypotheses(build_kernel(rate, 1.0, 3.0), BoundaryCoefficients(1.0, 1.0),
                               horizon)


# (alpha, eps, horizon); the first is the oscillatory-inwell preset's
EXACT_GRID_CASES = [(1.0, 0.5, 40.0), (2.0, 0.25, 15.0)]


# xi = alpha (1 + eps e^{-t} sin t) peaks at pi/4 and dips lowest at 5 pi/4,
# both turning points that the check grid holds


@pytest.mark.parametrize("alpha, eps, horizon", EXACT_GRID_CASES)
def test_ratio_sup_is_read_from_xi_0_to_its_peak(alpha, eps, horizon):
    rate = OscillatoryRate(alpha, eps)
    rep = _oscillatory_report(rate, horizon)
    exact_r = math.log(float(rate.xi(math.pi / 4.0)) / float(rate.xi(0.0)))
    assert rep.r_measured == pytest.approx(exact_r, rel=1e-14, abs=0.0)
    assert rep.grid_size == 600 + len(np.arange(math.pi / 4.0, horizon, math.pi))


@pytest.mark.parametrize("alpha, eps, horizon", EXACT_GRID_CASES)
def test_xi_positive_margin_is_the_least_xi(alpha, eps, horizon):
    rate = OscillatoryRate(alpha, eps)
    rep = _oscillatory_report(rate, horizon)
    assert rep.conditions["xi_positive"].margin == pytest.approx(
        float(rate.xi(5.0 * math.pi / 4.0)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha, eps, horizon", EXACT_GRID_CASES)
def test_xi_prime_l1_is_the_variation_plus_the_tail(alpha, eps, horizon):
    def abs_xi_prime(t):
        return alpha * eps * math.exp(-t) * abs(math.cos(t) - math.sin(t))

    on_horizon, _ = quad(abs_xi_prime, 0.0, horizon, epsrel=1e-12, limit=400)
    tail = alpha * eps * math.sqrt(2.0) * math.exp(-horizon)
    rep = _oscillatory_report(OscillatoryRate(alpha, eps), horizon)
    assert rep.xi_prime_l1 == pytest.approx(on_horizon + tail, rel=1e-9)


class _TightRate(OscillatoryRate):
    # a certificate between the sup of ln(xi(t+s)/xi(t)) on a grid without
    # the turning points (0.1494233) and the exact sup (0.1494526)
    r = 0.14944


def test_certificate_below_the_exact_ratio_sup_fails():
    rep = _oscillatory_report(_TightRate(1.0, 0.5), 40.0)
    assert rep.failures() == [f"xi_ratio_bounded: {rep.conditions['xi_ratio_bounded'].note}"]
    assert rep.conditions["xi_ratio_bounded"].margin < -1e-5


def test_zero_boundary_coefficient_fails_h1():
    k = build_kernel(make_rate("constant", 1.0), 1.0, 2.0)
    rep = validate_hypotheses(k, BoundaryCoefficients(0.0, 1.0), horizon=10.0)
    assert not rep.passed
    assert not rep.conditions["h1_p_positive"].passed
    assert any("(H1)" in msg for msg in rep.failures())


def test_validate_rejects_bad_horizon():
    k = build_kernel(make_rate("constant", 1.0), 1.0, 2.0)
    with pytest.raises(ValueError):
        validate_hypotheses(k, BoundaryCoefficients(1.0, 1.0), horizon=0.0)


def test_report_serializes():
    k = build_kernel(make_rate("oscillatory", 2.0, 0.25), 1.0, 3.0)
    rep = validate_hypotheses(k, BoundaryCoefficients(1.0, 1.0), horizon=15.0)
    d, token = _strict(rep)
    assert token is None
    assert d["passed"] == rep.passed
    assert set(d["conditions"]) == set(rep.conditions)
    assert d["memory_expansion"] == {"n_terms": k.exp_sum(None).n_terms,
                                     "certified_rel_error": k.exp_sum(None).rel_error,
                                     "certification": "analytic", "horizon": None}
