"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are the frozen config defaults (c_id, c_energy) plus the
fixed thresholds stated inline; nothing is calibrated at test time.
"""

import json
import math
import time

import numpy as np
import pytest

from viscowave import (
    SampledEnergy,
    StepperConfig,
    assemble,
    build_kernel,
    build_mesh,
    compute_well_constants,
    check_initial_membership,
    estimate_embedding_constant,
    estimate_trace_constant,
    fit_omega,
    make_rate,
    martinez_check,
    potential_F,
    rate_identity_residual,
    run,
    validate_hypotheses,
    verify_invariance,
)
from viscowave.cli import DEFAULT_TOLERANCES, PRESETS, initial_data, run_mms_ladder
from viscowave.decay import build_decay_report, default_weighted_t0, loglinear_fit
from viscowave.kernels import BoundaryCoefficients
from viscowave.stableset import well_constants_from_B

ORACLE_S4_1D = 0.7098279  # frozen brute-force oracle value (see test_stableset)


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {label}: {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def _run_preset(name: str):
    cfg = PRESETS[name].parse()
    mesh = build_mesh(cfg.domain)
    ops = assemble(mesh)
    kernel = cfg.build_kernel()
    u0, u1, y0 = initial_data(cfg, mesh)
    t0 = time.time()
    traj = run(u0, u1, y0, ops, kernel, cfg.physics, cfg.stepping)
    return {
        "config": cfg,
        "mesh": mesh,
        "ops": ops,
        "kernel": kernel,
        "traj": traj,
        "runtime": time.time() - t0,
        "initial": (u0, u1, y0),
    }


@pytest.fixture(scope="module")
def exp_run():
    return _run_preset("exp-inwell")


@pytest.fixture(scope="module")
def powerlaw_run():
    return _run_preset("powerlaw-inwell")


@pytest.fixture(scope="module")
def oscillatory_run():
    return _run_preset("oscillatory-inwell")


def _identity_residual_scale(bundle):
    cfg = bundle["config"]
    h = cfg.domain.extent[0] / cfg.domain.resolution[0]
    E0 = bundle["traj"].reports[0].total
    return (cfg.stepping.dt**2 + h**2) * E0


def test_criterion_1_energy_identity(exp_run):
    t_start = time.time()
    _, res = rate_identity_residual(exp_run["traj"].reports)
    max_res = float(np.abs(res).max())
    tol = DEFAULT_TOLERANCES["c_id"] * _identity_residual_scale(exp_run)

    # halved run: 128 elements, dt = 5e-4
    cfg = exp_run["config"]
    raw = cfg.to_dict()
    raw["domain"]["resolution"] = [128]
    raw["stepping"]["dt"] = 5e-4
    from viscowave.cli import parse_config

    cfg_h = parse_config(json.dumps(raw))
    mesh_h = build_mesh(cfg_h.domain)
    ops_h = assemble(mesh_h)
    u0, u1, y0 = initial_data(cfg_h, mesh_h)
    traj_h = run(u0, u1, y0, ops_h, cfg_h.build_kernel(), cfg_h.physics, cfg_h.stepping)
    _, res_h = rate_identity_residual(traj_h.reports)
    max_res_h = float(np.abs(res_h).max())
    ratio = max_res / max_res_h
    runtime = time.time() - t_start + exp_run["runtime"]

    ok = max_res <= tol and ratio >= 3.0 and runtime < 30.0
    _report(
        1, "energy identity",
        ok,
        f"max residual {max_res:.3e} <= {tol:.3e}, halving ratio {ratio:.2f} >= 3, "
        f"runtime {runtime:.1f}s < 30s",
    )


def test_criterion_2_energy_monotonicity(exp_run, powerlaw_run, oscillatory_run):
    details = []
    ok = True
    for bundle in (exp_run, powerlaw_run, oscillatory_run):
        E = np.array([r.total for r in bundle["traj"].reports])
        rise = float(np.diff(E).max())
        tol = DEFAULT_TOLERANCES["c_energy"] * _identity_residual_scale(bundle)
        ok = ok and rise <= tol
        details.append(f"{bundle['config'].kernel_family}: rise {rise:.2e} <= {tol:.2e}")
    _report(2, "energy monotonicity", ok, "; ".join(details))


def test_criterion_3_well_constant_oracles():
    t0 = time.time()
    from viscowave import DomainSpec

    mesh1 = build_mesh(DomainSpec(1, (1.0,), frozenset({"right"}), (64,)))
    ops1 = assemble(mesh1)
    c2 = estimate_embedding_constant(mesh1, ops1, 2.0)
    tr = estimate_trace_constant(mesh1, ops1)
    c4 = estimate_embedding_constant(mesh1, ops1, 4.0)
    mesh2 = build_mesh(DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (32, 32)))
    ops2 = assemble(mesh2)
    c2d = estimate_embedding_constant(mesh2, ops2, 2.0)
    runtime = time.time() - t0

    e1 = abs(c2 - 2 / math.pi) / (2 / math.pi)
    e2 = abs(tr - 1.0)
    e3 = abs(c2d - 2 / (math.pi * math.sqrt(5))) / (2 / (math.pi * math.sqrt(5)))
    e4 = abs(c4 - ORACLE_S4_1D) / ORACLE_S4_1D
    ok = e1 < 0.01 and e2 < 0.01 and e3 < 0.02 and e4 < 0.01 and runtime < 60.0
    _report(
        3, "well-constant oracle equivalence",
        ok,
        f"1D k=2 err {e1:.1e} (<1%), trace err {e2:.1e} (<1%), "
        f"2D k=2 err {e3:.1e} (<2%), 1D k=4 vs oracle err {e4:.1e} (<1%), "
        f"runtime {runtime:.1f}s < 60s",
    )


def test_criterion_4_stable_set_invariance(exp_run):
    t_start = time.time()
    cfg = exp_run["config"]
    mesh, ops, kernel = exp_run["mesh"], exp_run["ops"], exp_run["kernel"]
    params = cfg.physics
    constants = compute_well_constants(mesh, ops, params, kernel, seed=cfg.seed)

    rng = np.random.default_rng(7)
    x = mesh.nodes[:, 0]
    modes = [np.sin((i + 0.5) * np.pi * x) for i in range(4)]
    step_cfg = StepperConfig(dt=5e-3, t_end=20.0, record_every=20)
    h = cfg.domain.extent[0] / cfg.domain.resolution[0]

    worst_gap = math.inf
    for trial in range(20):
        u0 = sum(c * m for c, m in zip(rng.normal(size=4), modes))
        u1 = 0.3 * sum(c * m for c, m in zip(rng.normal(size=4), modes))
        y0 = np.array([rng.uniform(-0.3, 0.3)])
        u0[mesh.gamma0_nodes] = 0.0
        u1[mesh.gamma0_nodes] = 0.0
        scale = 1.0
        while True:
            rep = check_initial_membership(scale * u0, scale * u1, scale * y0,
                                           constants, ops, params, kernel)
            if rep.gamma0 <= 0.9 * constants.lambda1 and rep.E0 <= 0.9 * constants.d1:
                break
            scale *= 0.8
        traj = run(scale * u0, scale * u1, scale * y0, ops, kernel, params, step_cfg)
        verdict = verify_invariance(traj, constants)
        assert verdict.passed, f"trial {trial}: violation at {verdict.first_violation_time}"
        tol = DEFAULT_TOLERANCES["c_energy"] * (step_cfg.dt**2 + h**2) * traj.reports[0].total
        for rec in traj.reports:
            gap = rec.total - potential_F(rec.gamma_fn, constants.b_omega, params.k_exp)
            worst_gap = min(worst_gap, gap + tol)
        assert worst_gap >= 0.0, f"trial {trial}: E < F(gamma) beyond tolerance"
    runtime = time.time() - t_start
    ok = runtime < 300.0
    _report(
        4, "stable-set invariance",
        ok,
        f"20 randomized in-well runs to T=20 completed, gamma<lambda1 and E<d1 "
        f"at every record, min E-F(gamma)+tol = {worst_gap:.2e} >= 0, "
        f"runtime {runtime:.1f}s < 300s",
    )


def test_criterion_5_decay_form(exp_run, powerlaw_run, oscillatory_run):
    details = []
    # exponential-rate preset: ln E against Phi(t)
    s = SampledEnergy.from_trajectory(exp_run["traj"], exp_run["kernel"])
    cfg = exp_run["config"]
    mask = (s.t >= cfg.analysis.t_tail) & (s.E > 0)
    slope, _, r2 = loglinear_fit(s.phi[mask], np.log(s.E[mask]))
    ok = slope < 0 and r2 >= 0.95
    details.append(f"exp: slope {slope:.3f} < 0, R2 {r2:.3f} >= 0.95")

    # power-law preset: ln E against ln(1+t)
    s = SampledEnergy.from_trajectory(powerlaw_run["traj"], powerlaw_run["kernel"])
    cfg = powerlaw_run["config"]
    mask = (s.t >= cfg.analysis.t_tail) & (s.E > 0)
    slope, _, r2 = loglinear_fit(np.log1p(s.t[mask]), np.log(s.E[mask]))
    ok = ok and slope < 0 and r2 >= 0.95
    details.append(f"powerlaw: slope {slope:.3f} < 0, R2 {r2:.3f} >= 0.95")

    # oscillatory-rate preset: positive, horizon-stable omega
    s = SampledEnergy.from_trajectory(oscillatory_run["traj"], oscillatory_run["kernel"])
    cfg = oscillatory_run["config"]
    rep = build_decay_report(s, t_tail=cfg.analysis.t_tail,
                             t0=default_weighted_t0(oscillatory_run["kernel"]))
    ok = ok and rep.omega_max > 0 and rep.omega_change < 0.20
    details.append(
        f"oscillatory: omega {rep.omega_max:.3f} > 0, horizon change "
        f"{rep.omega_change:.3f} < 0.20"
    )
    _report(5, "decay form", ok, "; ".join(details))


def test_criterion_6_weighted_integral(exp_run, powerlaw_run, oscillatory_run):
    details = []
    ok = True
    for bundle in (exp_run, powerlaw_run, oscillatory_run):
        s = SampledEnergy.from_trajectory(bundle["traj"], bundle["kernel"])
        cfg = bundle["config"]
        rep = build_decay_report(s, t_tail=cfg.analysis.t_tail,
                                 t0=default_weighted_t0(bundle["kernel"]))
        ok = ok and math.isfinite(rep.rho_max) and rep.rho_change < 0.20
        details.append(
            f"{cfg.kernel_family}: max rho {rep.rho_max:.3f}, "
            f"horizon change {rep.rho_change:.3f} < 0.20"
        )
    _report(6, "weighted-integral inequality", ok, "; ".join(details))


def test_criterion_7_martinez_checker():
    # case 1: exponential equality at sigma = 0
    t = np.linspace(0.0, 30.0, 3001)
    s1 = SampledEnergy(t=t, E=np.exp(-t), phi=t, xi=np.ones_like(t))
    v1 = martinez_check(s1, sigma=0.0, omega=1.0, tail=lambda S: math.exp(-30.0))
    # case 2: polynomial decay at sigma = 1/2
    t2 = np.linspace(0.0, 400.0, 40001)
    s2 = SampledEnergy(t=t2, E=(1 + t2) ** -2.0, phi=t2, xi=np.ones_like(t2))
    v2 = martinez_check(s2, sigma=0.5, omega=2.0,
                        tail=lambda S: 0.5 * (1 + 400.0) ** -2.0)
    # case 3: constant energy must fail
    t3 = np.linspace(0.0, 50.0, 5001)
    s3 = SampledEnergy(t=t3, E=np.full_like(t3, 2.0), phi=t3, xi=np.ones_like(t3))
    v3 = martinez_check(s3, sigma=0.0, omega=1.0)

    ok = (
        (v1.hypothesis, v1.conclusion) == ("pass", "pass")
        and (v2.hypothesis, v2.conclusion) == ("pass", "pass")
        and (v3.hypothesis, v3.conclusion) == ("fail", "fail")
    )
    _report(
        7, "Martinez checker",
        ok,
        f"exp sigma=0 ({v1.hypothesis}/{v1.conclusion}), "
        f"poly sigma=1/2 ({v2.hypothesis}/{v2.conclusion}), "
        f"constant ({v3.hypothesis}/{v3.conclusion})",
    )


def test_criterion_8_mms_convergence():
    t0 = time.time()
    ladder = run_mms_ladder(PRESETS["mms-ladder"].parse(), levels=3)
    runtime = time.time() - t0
    ratios = ladder["ratios"]
    ok = all(r >= 3.5 for r in ratios) and runtime < 120.0
    _report(
        8, "MMS convergence",
        ok,
        f"errors {['%.2e' % e for e in ladder['errors']]}, "
        f"ratios {['%.2f' % r for r in ratios]} all >= 3.5, "
        f"runtime {runtime:.1f}s < 120s",
    )


def test_criterion_9_kernel_hypotheses():
    coeffs = BoundaryCoefficients(1.0, 1.0)
    r_exp = validate_hypotheses(build_kernel(make_rate("constant", 1.0), 1.0, 2.0),
                                coeffs, horizon=20.0)
    r_pow = validate_hypotheses(build_kernel(make_rate("power_law", 2.0), 1.0, 3.0),
                                coeffs, horizon=20.0)
    r_osc = validate_hypotheses(build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 2.0),
                                coeffs, horizon=20.0)
    certs_ok = (
        r_exp.passed and (r_exp.theta, r_exp.r_claimed) == (0.0, 0.0)
        and r_pow.passed and (r_pow.theta, r_pow.r_claimed) == (0.0, 0.0)
        and r_osc.passed and r_osc.theta == 0.0
        and r_osc.r_claimed == pytest.approx(math.log(3.0))
    )

    # constructed violations name the hypothesis
    l_violation = ""
    try:
        build_kernel(make_rate("constant", 0.1), 1.0, 2.0)  # mass 10 > a
    except ValueError as exc:
        l_violation = str(exc)
    p_report = validate_hypotheses(build_kernel(make_rate("constant", 1.0), 1.0, 2.0),
                                   BoundaryCoefficients(0.0, 1.0), horizon=10.0)
    violations_ok = (
        "(H2)" in l_violation
        and not p_report.passed
        and any("(H1)" in msg for msg in p_report.failures())
    )
    ok = certs_ok and violations_ok
    _report(
        9, "kernel hypotheses",
        ok,
        f"families pass with certificates (theta, r) = (0,0), (0,0), (0, ln3); "
        f"l<=0 rejected citing (H2); p=0 fails citing (H1)",
    )
