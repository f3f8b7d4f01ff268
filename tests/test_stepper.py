import copy
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from viscowave import (
    ManufacturedSolution,
    PhysicalParams,
    SimulationAbort,
    StepperConfig,
    assemble,
    build_kernel,
    build_manufactured_case,
    build_mesh,
    lk_norm_pow,
    make_rate,
    run,
    sine_solution,
    source_vector,
)
from viscowave import assembly, cli, compute_energy, stepper
from viscowave.cli import PRESETS, initial_data, parse_config, run_mms_ladder
from viscowave.energy import _reports
from viscowave.history import HistoryBuffer
from viscowave.kernels import RelaxationKernel
from viscowave.stepper import AcousticClosure, Forcing, init_state, step

from conftest import (
    as_dia_matrix,
    default_params,
    exp_kernel,
    interval_mesh,
    sine_profile,
    square_mesh,
    zero_kernel,
)
from history_oracle import FullHistory


def _recorded_states(u0, u1, y0, ops, kernel, params, cfg):
    """The states and reports of every record of ``run``, stepped by hand
    with init_state/step/compute_energy at the same steps, the reports read
    off the hand-written table; checked against ``run`` itself, so a test
    can look at per-record fields that the trajectory does not keep.  Each
    state is a deep copy: later steps write the arrays of the run's pair
    again."""
    closure = AcousticClosure(ops, kernel, params, cfg)
    state = init_state(u0, u1, y0, closure)
    compute_energy(state)
    states = [copy.deepcopy(state)]
    for i in range(1, cfg.n_steps + 1):
        state = step(state)
        if i % cfg.record_every == 0:
            compute_energy(state)
            states.append(copy.deepcopy(state))
    reports = _reports(closure.form.columns())
    traj = run(u0, u1, y0, ops, kernel, params, cfg)
    assert traj.reports == reports
    assert all(np.array_equal(y, s.y) for y, s in zip(traj.ys, states, strict=True))
    assert np.array_equal(traj.final.u, states[-1].u)
    return list(zip(states, reports))


def test_zero_data_is_a_fixed_point():
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    z = np.zeros(mesh.n_nodes)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, record_every=10)
    records = _recorded_states(z, z, np.zeros(1), ops, kernel, params, cfg)
    assert len(records) == 6
    for state, rep in records:
        assert np.all(state.u == 0.0)
        assert np.all(state.v == 0.0)
        assert np.all(state.y == 0.0)
        assert rep.total == 0.0


def test_hand_computed_step_three_node_mesh():
    # L = 1, two elements (h = 1/2), a = 1, b = 0, no memory, source off,
    # p = q = 1, dt = 0.1.  K = [[2,-2,0],[-2,4,-2],[0,-2,2]],
    # M_lump = [1/4, 1/2, 1/4], acoustic node 2 with weight 1.
    #
    # u0 = (0, 1/4, 1/2), v0 = 0, y0 = 0.2:
    #   K u0 = (-1/2, 0, 1/2); y_t0 = -(0 + 0.2)/1 = -0.2
    #   accel0 = (-K u0)/M + w y_t0 / M at node 2 = (0, 0, -2) + (0,0,-0.8)
    #          = (0, 0, -2.8)
    # step:
    #   v_half = (0, 0, -0.14); u1 = (0, 0.25, 0.486)
    #   K u1 = (-0.5, 0.028, 0.472); base = (-K u1)/M = (0, -0.056, -1.888)
    #   A = -0.14 + 0.05*(-1.888) = -0.2344; c = 0.05/0.25 = 0.2
    #   z = (0.2344 - 0.2 + 0.01)/1.25 = 0.03552
    #   v1 = (0, -0.0028, -0.2344 + 0.2*0.03552) = (0, -0.0028, -0.227296)
    #   y1 = 0.2 + 0.05*(-0.2 + 0.03552) = 0.191776
    #   accel1 = base + (0, 0, z/0.25) = (0, -0.056, -1.74592)
    mesh = interval_mesh(2)
    params = default_params(a=1.0, b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    cfg = StepperConfig(dt=0.1, t_end=0.1)
    closure = AcousticClosure(ops, zero_kernel(params.a), params, cfg)
    s0 = init_state(np.array([0.0, 0.25, 0.5]), np.zeros(3), np.array([0.2]), closure)
    assert np.allclose(s0.accel, [0.0, 0.0, -2.8])
    s1 = step(s0)
    assert np.allclose(s1.u, [0.0, 0.25, 0.486])
    assert np.allclose(s1.v, [0.0, -0.0028, -0.227296])
    assert s1.y[0] == pytest.approx(0.191776)
    assert s1.y_t[0] == pytest.approx(0.03552)
    assert np.allclose(s1.accel, [0.0, -0.056, -1.74592])


def test_zero_kernel_run_has_no_memory():
    # the fixture of the memory-free tests: a zero force after every push,
    # zero memory quantities at every record and the full coefficient a
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = zero_kernel(params.a)
    cfg = StepperConfig(dt=1e-3, t_end=0.05)
    closure = AcousticClosure(ops, kernel, params, cfg)
    buf = closure.buffer
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]), closure)
    for _ in range(50):
        assert buf.n_entries == state.n + 1
        assert not buf.convolution_force(0.0, np.empty(mesh.n_nodes)).any()
        compute_energy(state)
        rep = _reports(closure.form.columns())[-1]
        assert rep.memory == rep.g_prime_diamond == rep.g_at_t == 0.0
        assert rep.elastic == 0.5 * params.a * rep.grad_sq
        assert rep.grad_sq > 0.0
        state = step(state)


def test_damped_linear_wave_against_independent_integrator():
    # g = 0, b = 0, source off: the semi-discrete system is linear; compare
    # 20 leapfrog steps against a tight-tolerance Runge-Kutta solution of the
    # same ODE system assembled independently here.
    mesh = interval_mesh(8)
    params = default_params(a=1.0, b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    K = as_dia_matrix(ops.stiffness).toarray()
    Ml = ops.mass_lumped
    g0n, g1n, w = mesh.gamma0_nodes, mesh.gamma1_nodes, mesh.gamma1_weights
    n = mesh.n_nodes

    u0 = sine_profile(mesh, 0.3)
    y0 = np.array([0.3])

    def rhs(t, z):
        u, v, y = z[:n], z[n : 2 * n], z[2 * n :]
        y_t = -(v[g1n] + y) / 1.0
        acc = -(K @ u) / Ml
        acc[g1n] += w * y_t / Ml[g1n]
        acc[g0n] = 0.0
        du = v.copy()
        du[g0n] = 0.0
        return np.concatenate([du, acc, y_t])

    dt, n_steps = 1e-3, 20
    T = n_steps * dt
    sol = solve_ivp(rhs, [0.0, T], np.concatenate([u0, np.zeros(n), y0]),
                    rtol=1e-11, atol=1e-13, dense_output=True)
    ref = sol.sol(T)

    cfg = StepperConfig(dt=dt, t_end=T, record_every=n_steps)
    traj = run(u0, np.zeros(n), y0, ops, zero_kernel(params.a), params, cfg)
    final = traj.final
    assert np.abs(final.u - ref[:n]).max() < 1e-5
    assert np.abs(final.v - ref[n : 2 * n]).max() < 1e-5
    assert abs(final.y[0] - ref[2 * n]) < 1e-5


def test_record_decimation_and_zero_horizon():
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    u0 = sine_profile(mesh, 0.1)
    z = np.zeros(mesh.n_nodes)

    traj0 = run(u0, z, np.zeros(1), ops, kernel, params,
                StepperConfig(dt=1e-3, t_end=0.0))
    assert traj0.n_records == 1
    assert traj0.times == [0.0]

    traj = run(u0, z, np.zeros(1), ops, kernel, params,
               StepperConfig(dt=1e-3, t_end=0.1, record_every=10))
    assert traj.n_records == 11  # records at steps 0, 10, ..., 100


def test_determinism():
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    u0 = sine_profile(mesh, 0.2)
    z = np.zeros(mesh.n_nodes)
    cfg = StepperConfig(dt=1e-3, t_end=0.5, record_every=50)
    a = _recorded_states(u0, z, np.zeros(1), ops, kernel, params, cfg)
    b = _recorded_states(u0, z, np.zeros(1), ops, kernel, params, cfg)
    assert len(a) == len(b) == 11
    for (sa, _), (sb, _) in zip(a, b):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.v, sb.v)
        assert np.array_equal(sa.y, sb.y)


def test_cfl_violation_aborts_with_diagnostic():
    mesh = interval_mesh(64)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    u0 = sine_profile(mesh, 0.1)
    z = np.zeros(mesh.n_nodes)
    with pytest.raises(SimulationAbort) as exc:
        run(u0, z, np.zeros(1), ops, kernel, params,
            StepperConfig(dt=0.05, t_end=1.0))
    assert exc.value.info.time == 0.0
    assert exc.value.info.reason == ("CFL violation: dt = 5.000e-02 exceeds 9.675e-03 "
                                     "(Kirchhoff coefficient 2.01234)")
    assert exc.value.trajectory.n_records == 0


# m_kir_max on 64 cells by dt, as the CFL margins have always made it
_CFL_BOUNDS_64 = {1e-3: 188.36541964276762, 2e-3: 47.091354910691905,
                  0.038: 0.13044696651161192, 0.05: 0.07534616785710704}


@pytest.mark.parametrize("mesh_name", ["1d-64", "2d-6x6"])
def test_cfl_bound_is_the_stepper_margins_on_the_exact_eigenvalue(mesh_name):
    # the operators carry the exact eigenvalue and the stepper its two
    # margins, applied in the order that keeps the bound bitwise
    mesh = interval_mesh(64) if mesh_name == "1d-64" else square_mesh(6)
    ops = assemble(mesh)
    assert (stepper.CFL_SAFETY, stepper.LAM_MARGIN) == (0.9, 1.05)
    for dt, pinned in _CFL_BOUNDS_64.items():
        cfg = StepperConfig(dt=dt, t_end=1.0)
        closure = AcousticClosure(ops, exp_kernel(), default_params(), cfg)
        assert closure.m_kir_max == (2.0 * 0.9 / dt) ** 2 / (1.05 * ops.lam_max)
        if mesh_name == "1d-64":
            assert closure.m_kir_max == pinned


def test_cfl_bound_crossed_after_the_start_aborts_at_that_step():
    # u0 = 0 starts the Kirchhoff coefficient at a, where dt = 0.038 is
    # below the bound 0.0389; the velocity raises |grad u|^2, and with it
    # M_kir, until the bound falls under dt at step 9
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    with pytest.raises(SimulationAbort) as exc:
        run(np.zeros(mesh.n_nodes), sine_profile(mesh, 1.0), np.zeros(1), ops, exp_kernel(),
            default_params(), StepperConfig(dt=0.038, t_end=2.0))
    assert exc.value.info.time == 9 * 0.038
    assert exc.value.info.reason == ("CFL violation: dt = 3.800e-02 exceeds 3.791e-02 "
                                     "(Kirchhoff coefficient 2.10171)")
    assert exc.value.trajectory.n_records == 9


def test_out_of_well_blowup_aborts_flagged():
    # b = 0 removes the stabilizing nonlocal term; a large amplitude drives
    # the source |u|^2 u into finite-time blow-up of the discrete system
    mesh = interval_mesh(32)
    params = default_params(b=0.0, kappa=0.0)
    ops = assemble(mesh)
    kernel = exp_kernel()
    u0 = sine_profile(mesh, 40.0)
    z = np.zeros(mesh.n_nodes)
    with pytest.raises(SimulationAbort, match="blow-up or instability") as exc:
        run(u0, z, np.zeros(1), ops, kernel, params,
            StepperConfig(dt=1e-3, t_end=10.0, record_every=10))
    assert exc.value.trajectory is not None
    assert exc.value.info.time <= 10.0


def _zeros(x):
    return np.zeros(len(x))


def test_manufactured_zero_field_gives_zero_case():
    # u = 0 leaves only y = sin t: the flux line is forced by -y_t alone
    mesh = interval_mesh(8)
    params = default_params(b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    kernel = exp_kernel(a=2.0)
    msol = ManufacturedSolution(profile=_zeros, lap=_zeros, flux=_zeros, grad_sq=0.0)
    case = build_manufactured_case(msol, ops, params, kernel, t_end=1.0)
    assert np.all(case.u0 == 0.0)
    assert np.all(case.u1 == 0.0)
    assert np.all(case.y0 == 0.0)
    assert np.all(case.forcing.f_omega(0.3) == 0.0)
    assert np.all(case.forcing.f_flux(0.3) == -math.cos(0.3))
    assert case.boundary_residual["flux_max"] == 1.0


def test_manufactured_dirichlet_violation_rejected():
    mesh = interval_mesh(8)
    params = default_params(b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    msol = ManufacturedSolution(
        profile=lambda x: 1.0 + x[:, 0],  # nonzero at the Dirichlet end
        lap=_zeros,
        flux=lambda x: np.ones(len(x)),
        grad_sq=1.0,
    )
    with pytest.raises(ValueError, match="Dirichlet"):
        build_manufactured_case(msol, ops, params, exp_kernel(), t_end=1.0)


def test_sine_solution_forcing_matches_hand_value():
    # u = sin x cos t, y = sin t on [0, 1], a = 2, b = kappa = 1, k = 4,
    # source on, g = e^{-t}: at t = 0.7, |grad u|^2 = (1/2 + sin 2 / 4) cos^2 t
    # and int_0^t e^{-(t-s)} cos s ds = (cos t + sin t - e^{-t}) / 2
    mesh = interval_mesh(8)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel(a=2.0)
    case = build_manufactured_case(sine_solution((1.0,)), ops, params, kernel, t_end=1.0)
    t = 0.7
    c, s = math.cos(t), math.sin(t)
    stress = (2.0 + (0.5 + math.sin(2.0) / 4.0) * c * c) * c - (c + s - math.exp(-t)) / 2.0
    x = mesh.nodes[:, 0]
    u = np.sin(x) * c
    # u_tt - M lap u + memory of lap u - u^3, with lap u = -u
    assert np.allclose(case.forcing.f_omega(t), -u + stress * np.sin(x) - u**3,
                       rtol=1e-13, atol=0.0)
    assert case.forcing.f_flux(t)[0] == pytest.approx(stress * math.cos(1.0) - c, rel=1e-13)
    assert case.forcing.f_acoustic(t)[0] == pytest.approx(c + s - math.sin(1.0) * s, rel=1e-13)


_FAMILIES = {
    "constant": {"family": "constant", "alpha": 1.0},
    "power_law": {"family": "power_law", "alpha": 2.0},
    "oscillatory": {"family": "oscillatory", "alpha": 1.0, "eps": 0.5},
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_manufactured_memory_matches_quadrature_of_the_exact_kernel(family):
    # profile 0, lap 1 and b = 0 make f_Omega = -(a cos t - memory): the
    # closed form over the expansion against quad on the exact g
    mesh = interval_mesh(4)
    ops = assemble(mesh)
    params = default_params(a=3.0, b=0.0, source_enabled=False)
    spec = _FAMILIES[family]
    kernel = build_kernel(make_rate(family, spec["alpha"], spec.get("eps", 0.0)), 1.0, 3.0)
    msol = ManufacturedSolution(profile=_zeros, lap=lambda x: np.ones(len(x)), flux=_zeros,
                                grad_sq=0.0)
    case = build_manufactured_case(msol, ops, params, kernel, t_end=2.0)
    for t in (0.3, 1.0, 2.0):
        memory = case.forcing.f_omega(t)[0] + params.a * math.cos(t)
        exact, _ = quad(lambda s: float(kernel.g(t - s)) * math.cos(s), 0.0, t,
                        epsabs=0.0, epsrel=1e-12, limit=200)
        assert memory == pytest.approx(exact, rel=1e-9)


def test_undamped_limit_conserves_discrete_energy():
    # huge p freezes the acoustic field (y_t ~ 0): no dissipation channel
    # remains, and the reported energy must stay put up to the O(h^2)
    # consistent/lumped mass offset (dt-independent, quartering with h)
    devs = []
    for res, dt in ((64, 1e-3), (128, 5e-4)):
        mesh = interval_mesh(res)
        params = default_params(a=1.0, b=0.0, kappa=0.0, p_c=1e9,
                                source_enabled=False)
        ops = assemble(mesh)
        u0 = sine_profile(mesh, 0.3)
        z = np.zeros(mesh.n_nodes)
        traj = run(u0, z, np.zeros(1), ops, zero_kernel(params.a), params,
                   StepperConfig(dt=dt, t_end=5.0, record_every=50))
        E = np.array([r.total for r in traj.reports])
        devs.append(np.abs(E - E[0]).max() / E[0])
        assert devs[-1] < 1.0 / res**2
    assert devs[0] / devs[1] > 3.0


def test_left_acoustic_end_dissipates():
    # same physics with the acoustic face on the left: orientation enters
    # only through node indices and weights, and energy must still decay
    mesh = interval_mesh(32, gamma1=("left",))
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    u0 = 0.3 * np.sin(0.5 * np.pi * (1.0 - mesh.nodes[:, 0]))
    u0[mesh.gamma0_nodes] = 0.0
    z = np.zeros(mesh.n_nodes)
    traj = run(u0, z, np.zeros(1), ops, kernel, params,
               StepperConfig(dt=2e-3, t_end=3.0, record_every=25))
    E = np.array([r.total for r in traj.reports])
    tol = (2e-3**2 + (1 / 32) ** 2) * E[0]
    assert np.diff(E).max() <= tol
    assert E[-1] < 0.8 * E[0]


def test_2d_inwell_run_monotone_and_invariant():
    from viscowave import DomainSpec, build_mesh, compute_well_constants, verify_invariance
    from viscowave.cli import profile_field

    spec = DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (12, 12))
    mesh = build_mesh(spec)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    constants = compute_well_constants(ops, params, kernel, seed=2024)
    u0 = profile_field("sine", mesh, 0.3)
    z = np.zeros(mesh.n_nodes)
    y0 = np.zeros(len(mesh.gamma1_nodes))
    cfg = StepperConfig(dt=2e-3, t_end=3.0, record_every=25)
    traj = run(u0, z, y0, ops, kernel, params, cfg)
    E = np.array([r.total for r in traj.reports])
    tol = (cfg.dt**2 + (1 / 12) ** 2) * E[0]
    assert np.diff(E).max() <= tol
    verdict = verify_invariance(traj, constants)
    assert verdict.passed


def _mms_config(family, dim, **physics):
    """The mms-ladder preset with the given kernel family and physics; in 2D
    the unit square from 8 x 8 cells and dt = 1e-2, its right face acoustic."""
    raw = copy.deepcopy(PRESETS["mms-ladder"].config)
    raw["kernel"].update(_FAMILIES[family])
    raw["physics"].update(physics)
    if dim == 2:
        raw["domain"].update({"dimension": 2, "extent": [1.0, 1.0], "resolution": [8, 8]})
        raw["stepping"]["dt"] = 1e-2
    return parse_config(json.dumps(raw))


# Ladder levels by dimension: 1D reads 4.00 from the first pair on, and a 1%
# error in the forcing stalls it within three; 2D needs its fourth level
# (64 x 64) for the ratio to settle and for every such error to show.
_LEVELS = {1: 3, 2: 4}


@pytest.mark.parametrize("family, dim, physics", [
    *(pytest.param(f, d, {}, id=f"{f}-{d}d") for f in sorted(_FAMILIES) for d in (1, 2)),
    pytest.param("constant", 1, {"b": 0.0, "kappa": 0.0, "source_enabled": False},
                 id="constant-1d-memory-only"),
])
def test_manufactured_ladder_converges(family, dim, physics):
    # every term of the system forced
    ratios = run_mms_ladder(_mms_config(family, dim, **physics), levels=_LEVELS[dim])["ratios"]
    assert 3.5 <= ratios[-1] <= 4.5


_PERTURBATIONS = {
    "expansion": lambda params, kernel, t_end: (
        params, dataclasses.replace(kernel, expansion=kernel.exp_sum(t_end).scaled(1.01))),
    "k_exp": lambda params, kernel, t_end: (dataclasses.replace(params, k_exp=4.04), kernel),
    "kappa": lambda params, kernel, t_end: (dataclasses.replace(params, kappa=1.01), kernel),
    "b": lambda params, kernel, t_end: (dataclasses.replace(params, b=1.01 * params.b), kernel),
}


# Rows whose forcing takes one memory line from the case built with the 1%
# wrong expansion and every other line from the exact case, so that the
# interior and the flux memory are each tested alone.
_ONE_LINE = {"expansion-interior": "f_omega", "expansion-flux": "f_flux"}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("perturbation", sorted(_PERTURBATIONS) + sorted(_ONE_LINE))
def test_manufactured_ladder_fails_on_a_perturbed_forcing(monkeypatch, perturbation, dim):
    # the forcing alone is built from a 1% wrong input while the run keeps
    # the true one: the error stalls and the finest ratio misses the gate
    build = cli.build_manufactured_case

    def perturbed(msol, ops, params, kernel, t_end):
        if perturbation not in _ONE_LINE:
            return build(msol, ops, *_PERTURBATIONS[perturbation](params, kernel, t_end), t_end)
        exact = build(msol, ops, params, kernel, t_end)
        wrong = build(msol, ops, *_PERTURBATIONS["expansion"](params, kernel, t_end), t_end)
        line = _ONE_LINE[perturbation]
        forcing = dataclasses.replace(exact.forcing, **{line: getattr(wrong.forcing, line)})
        return dataclasses.replace(exact, forcing=forcing)

    monkeypatch.setattr(cli, "build_manufactured_case", perturbed)
    ratios = run_mms_ladder(_mms_config("oscillatory", dim), levels=_LEVELS[dim])["ratios"]
    assert ratios[-1] < 3.5


@pytest.mark.parametrize("preset", ["oscillatory-inwell", "powerlaw-inwell"])
def test_preset_energies_match_full_history_oracle(preset, monkeypatch):
    # shortened preset run: the sum-of-exponentials memory against the
    # full-history trapezoid with the exact kernel, within the identity budget
    raw = copy.deepcopy(PRESETS[preset].config)
    raw["stepping"]["t_end"] = 2.0
    cfg = parse_config(json.dumps(raw))
    mesh = build_mesh(cfg.domain)
    ops = assemble(mesh)
    kernel = cfg.build_kernel()
    u0, u1, y0 = initial_data(cfg, mesh)
    energies = []
    for buffer_class in (HistoryBuffer, FullHistory):
        monkeypatch.setattr(stepper, "HistoryBuffer", buffer_class)
        traj = stepper.run(u0, u1, y0, ops, kernel, cfg.physics, cfg.stepping)
        energies.append(np.array([r.total for r in traj.reports]))
    soe, oracle = energies
    h = max(e / r for e, r in zip(cfg.domain.extent, cfg.domain.resolution))
    budget = cfg.c_id * (cfg.stepping.dt ** 2 + h ** 2) * oracle[0]
    assert len(soe) == len(oracle) >= 51
    assert np.max(np.abs(soe - oracle)) <= budget


@pytest.mark.parametrize("name", ["exp-inwell", "oscillatory-inwell"])
def test_record_times_are_exact_multiples_of_the_step(name):
    cfg = PRESETS[name].parse()
    mesh = build_mesh(cfg.domain)
    ops = assemble(mesh)
    u0, u1, y0 = initial_data(cfg, mesh)
    traj = run(u0, u1, y0, ops, cfg.build_kernel(), cfg.physics, cfg.stepping)
    every, dt = cfg.stepping.record_every, cfg.stepping.dt
    assert traj.times == [i * every * dt for i in range(traj.n_records)]
    assert [r.t for r in traj.reports] == traj.times
    assert traj.times[-1] == cfg.stepping.t_end


@pytest.mark.parametrize("case", ["1d", "2d", "1d-forced-on-gamma0"])
def test_state_norms_feed_the_energy_report(case):
    # the step's own u.K u and u.S(u) reach the report, and the single pin
    # of the force keeps u, v and accel exactly zero on Gamma_0, even under
    # an interior forcing that is nonzero there
    if case == "2d":
        mesh = square_mesh(8)
        cfg = StepperConfig(dt=2e-3, t_end=0.2, record_every=10)
    else:
        mesh = interval_mesh(16)
        forcing = None
        if case == "1d-forced-on-gamma0":
            forcing = Forcing(f_omega=lambda t: np.full(mesh.n_nodes, 1.0 + t))
        cfg = StepperConfig(dt=1e-3, t_end=0.2, record_every=20, forcing=forcing)
    params = default_params()
    ops = assemble(mesh)
    u0 = 0.8 * np.sin(np.pi * mesh.nodes[:, 0])
    u0[mesh.gamma0_nodes] = 0.0
    y0 = np.full(len(mesh.gamma1_nodes), 0.1)
    records = _recorded_states(u0, np.zeros(mesh.n_nodes), y0, ops, exp_kernel(), params, cfg)
    assert len(records) == 11
    g0 = mesh.gamma0_nodes
    for state, rep in records:
        assert rep.grad_sq == _stiffness_pairing(ops, state)
        lk = lk_norm_pow(ops, state.u, params.k_exp)
        assert lk > 0.0
        assert -params.k_exp * rep.source == pytest.approx(lk, rel=1e-14, abs=0.0)
        for field in (state.u, state.v, state.accel):
            assert np.all(field[g0] == 0.0)


def _placed_like(a: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A copy of the float vector ``a`` at the address of ``like`` mod 64.
    Under some BLAS kernels (OpenBLAS's SSE3 one, for one) a dot product's
    last bit depends on where its operands sit, and a step's operands sit
    at 8-byte offsets in the state array and the history ring; a product
    recomputed on copies placed alike is bitwise the step's."""
    pad = np.empty(len(a) + 8)
    shift = (like.ctypes.data - pad.ctypes.data) % 64 // 8
    out = pad[shift:shift + len(a)]
    out[:] = a
    return out


def _stiffness_pairing(ops, state):
    """u.K u of a recorded ``state`` (a copy) of a run with exp_kernel,
    recomputed from its u alone on copies placed as the step's operands
    were: u in the array of the run's pair that held the state, and K u in
    the history's one ring row, which every push of a one-term kernel
    writes."""
    u = _placed_like(state.u, state.closure.pair[state.n % 2].u)
    ring = state.closure.buffer.next_ku
    return float(u.dot(assembly.dia_product(ops.stiffness, u, _placed_like(ring, ring))))


def _source_pairing(ops, state, k_exp):
    """u.S(u) of ``state``, recomputed from its u alone on copies placed as
    its u and source slots are, which ``lk`` reads."""
    u = _placed_like(state.u, state.u)
    source = state.x[state.closure.source]
    return float(u.dot(source_vector(ops, u, k_exp, _placed_like(source, source))))


def test_lk_is_read_from_the_source_slot_at_every_record():
    # a step writes S(u) into its state's source slot and no step forms
    # u.S(u); a record reads it, bitwise the pairing recomputed from u, at
    # every record of exp-inwell and on the run's final state, whose
    # source column it fills.  A deep copy of the last state keeps its
    # value and steps on to the same pairing (the hand-run closure's config
    # runs one step longer, for the extra step).
    cfg = PRESETS["exp-inwell"].parse()
    mesh = build_mesh(cfg.domain)
    ops = assemble(mesh)
    params, stepping = cfg.physics, cfg.stepping
    assert params.source_enabled
    u0, u1, y0 = initial_data(cfg, mesh)
    kernel = cfg.build_kernel()
    longer = dataclasses.replace(stepping, t_end=stepping.t_end + stepping.dt)
    assert longer.n_steps == stepping.n_steps + 1
    state = init_state(u0, u1, y0, AcousticClosure(ops, kernel, params, longer))
    lks = [state.lk]
    for i in range(1, stepping.n_steps + 1):
        state = step(state)
        if i % stepping.record_every == 0:
            lks.append(state.lk)
            assert state.lk == _source_pairing(ops, state, params.k_exp) > 0.0
    traj = run(u0, u1, y0, ops, kernel, params, stepping)
    assert len(lks) == traj.n_records == 5001
    assert traj.final.lk == _source_pairing(ops, traj.final, params.k_exp) == lks[-1]
    assert (-np.array(lks) / params.k_exp).tobytes() == traj.energy["source"].tobytes()

    copied = copy.deepcopy(state)
    assert copied.lk == state.lk
    resumed = step(copied)
    assert resumed.x is not copied.x
    assert resumed.lk == _source_pairing(ops, resumed, params.k_exp)
    assert copied.lk == _source_pairing(ops, copied, params.k_exp) == lks[-1]


def test_the_recomputed_step_products_hold_under_the_sse3_blas_kernel():
    # OpenBLAS picks its kernel at run time, and under its SSE3 one
    # (Prescott) a dot product's last bit depends on where its operands
    # sit: the four tests that recompute a step's u.K u and u.S(u) bitwise
    # run in a child process on that kernel.  A BLAS that ignores the
    # variable runs them on its own kernel, where they pass as well
    here = Path(__file__)
    tests = [f"{here}::test_state_norms_feed_the_energy_report",
             f"{here}::test_lk_is_read_from_the_source_slot_at_every_record"]
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    child = subprocess.run(command, capture_output=True, text=True, cwd=here.parent.parent,
                           env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"})
    assert child.returncode == 0, child.stdout
    assert "4 passed" in child.stdout


def test_lk_is_exactly_zero_with_the_source_off():
    # the source slot is never written with the source off, and lk reads
    # +0.0 whatever the sign of u, on every state and on the run's final one
    mesh = interval_mesh(16)
    params = default_params(source_enabled=False)
    ops = assemble(mesh)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, record_every=5)
    u0 = -sine_profile(mesh, 0.3)
    closure = AcousticClosure(ops, exp_kernel(), params, cfg)
    state = init_state(u0, np.zeros(mesh.n_nodes), np.array([0.1]), closure)
    states = [state]
    for _ in range(cfg.n_steps):
        state = step(state)
        states.append(state)
        states.append(copy.deepcopy(state))
    traj = run(u0, np.zeros(mesh.n_nodes), np.array([0.1]), ops, exp_kernel(), params, cfg)
    for s in [*states, traj.final]:
        assert type(s.lk) is float
        assert s.lk == 0.0 and math.copysign(1.0, s.lk) == 1.0
        assert not s.x[s.closure.source].any()
    assert np.all(traj.energy["source"] == 0.0)


@pytest.mark.parametrize("family", ["constant", "oscillatory"])
def test_step_pushes_once_and_reads_the_force_once(family):
    # one push and one force read per step: the benchmark's history layer
    # metrics divide their time by the number of steps
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    spec = _FAMILIES[family]
    kernel = build_kernel(make_rate(family, spec["alpha"], spec.get("eps", 0.0)), 1.0, 3.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    closure = AcousticClosure(ops, kernel, params, cfg)
    buffer = closure.buffer
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]), closure)
    calls = []
    for name in ("push", "convolution_force"):
        def counted(*args, _name=name, _method=getattr(buffer, name)):
            calls.append(_name)
            return _method(*args)
        setattr(buffer, name, counted)
    for n in range(1, 4):
        state = step(state)
        assert sorted(calls) == ["convolution_force"] * n + ["push"] * n


def test_two_runs_stepped_in_turn_record_what_each_records_alone():
    # every state carries its run (operators, coefficients, config, history
    # and record form): three runs of different kernels, coefficients, dt
    # and record_every, stepped and recorded in turn in one process, each
    # record byte for byte what the same run records alone
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    cfg = StepperConfig(dt=1e-3, t_end=0.04, record_every=4)
    z, y0 = np.zeros(mesh.n_nodes), np.array([0.1])
    cases = [(sine_profile(mesh, 0.3), default_params(),
              build_kernel(make_rate("constant", 1.0), 1.0, 3.0), cfg),
             (sine_profile(mesh, -0.2), default_params(p_c=0.7, q_c=1.3, b=0.5),
              build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 3.0), cfg),
             (sine_profile(mesh, 0.25), default_params(q_c=0.8),
              build_kernel(make_rate("power_law", 2.0), 1.0, 3.0),
              StepperConfig(dt=5e-4, t_end=0.04, record_every=8))]
    closures = [AcousticClosure(ops, kernel, params, c) for _, params, kernel, c in cases]
    states = [init_state(u0, z, y0, closure) for (u0, *_), closure in zip(cases, closures)]
    for state in states:
        compute_energy(state)
    for i in range(1, max(c.cfg.n_steps for c in closures) + 1):
        for k, state in enumerate(states):
            run_cfg = state.closure.cfg
            if i <= run_cfg.n_steps:
                states[k] = state = step(state)
                if i % run_cfg.record_every == 0:
                    compute_energy(state)
    for (u0, params, kernel, run_cfg), state, closure in zip(cases, states, closures):
        alone = run(u0, z, y0, ops, kernel, params, run_cfg)
        assert alone.n_records == 11 and state.n == run_cfg.n_steps
        energy = closure.form.columns()
        assert all(energy[name].tobytes() == c.tobytes() for name, c in alone.energy.items())
        assert closure.form.ys().tobytes() == alone.ys.tobytes()
        assert state.x.tobytes() == alone.final.x.tobytes()


def test_a_stale_copy_is_refused_and_pushes_nothing():
    # a step pushes into its run's buffer, which holds the newest state's
    # history alone: a copy taken at step 1, stepped after the run went on
    # to step 3, is refused naming both counts, and the run steps on
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    closure = AcousticClosure(ops, exp_kernel(), default_params(), cfg)
    state = step(init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]),
                            closure))
    stale = copy.deepcopy(state)
    state = step(step(state))
    with pytest.raises(ValueError, match=r"state of step 1 .* \(4 pushes\)"):
        step(stale)
    assert closure.buffer.n_entries == 4
    assert step(state).n == 4


def _finished_run(completed):
    """A 16-cell run that completes its 40 steps, or one whose Kirchhoff
    coefficient crosses the CFL bound at step 9 (nine records kept)."""
    mesh = interval_mesh(16)
    if completed:
        u0, u1, cfg = sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), StepperConfig(
            dt=1e-3, t_end=0.04, record_every=4)
    else:
        u0, u1, cfg = np.zeros(mesh.n_nodes), sine_profile(mesh, 1.0), StepperConfig(
            dt=0.038, t_end=2.0)
    return u0, u1, np.zeros(1), assemble(mesh), exp_kernel(), default_params(), cfg


@pytest.mark.parametrize("completed", [True, False], ids=["returned", "raised"])
def test_a_finished_run_holds_no_buffer_table_or_pair(completed, monkeypatch):
    # returned or raised, a run lets its closure's history buffer, record
    # form (with its table and snapshot block) and state pair go once it
    # has derived the columns: the trajectory keeps none of them alive, and
    # its final state, a copy of the newest snapshot, still reads its own
    # array through the run's layout
    held = []
    build = stepper.AcousticClosure

    def spy(*args):
        closure = build(*args)
        form = closure.form
        held.extend(weakref.ref(obj) for obj in (closure.buffer, form, form.rows, form.snapshots,
                                                 *(slots.x for slots in closure.pair)))
        return closure

    monkeypatch.setattr(stepper, "AcousticClosure", spy)
    u0, u1, y0, ops, kernel, params, cfg = _finished_run(completed)
    try:
        traj = run(u0, u1, y0, ops, kernel, params, cfg)
    except SimulationAbort as abort:
        traj = abort.trajectory
    gc.collect()
    assert traj.n_records == (11 if completed else 9) and len(held) == 6
    assert [ref() for ref in held] == [None] * 6
    final = traj.final
    closure = final.closure
    assert closure.buffer is closure.form is closure.pair is None
    assert final.x.base is None and final.x.size == closure.size
    assert final.y.tobytes() == traj.ys[-1].tobytes()
    assert final.t == traj.times[-1] and final.lk > 0.0


@pytest.mark.parametrize("completed", [True, False], ids=["returned", "raised"])
def test_the_state_of_a_finished_run_is_refused(completed):
    # a trajectory's final state is a snapshot: it can be neither stepped
    # nor recorded, as its run released the history it would push into
    u0, u1, y0, ops, kernel, params, cfg = _finished_run(completed)
    try:
        final = run(u0, u1, y0, ops, kernel, params, cfg).final
    except SimulationAbort as abort:
        final = abort.trajectory.final
    before = final.x.tobytes()
    for call in (step, compute_energy):
        with pytest.raises(ValueError, match=f"state of step {final.n} belongs to a finished run"):
            call(final)
    assert final.x.tobytes() == before


def _forced_case(forced):
    """A 16-cell run of 40 steps, with every forcing line on or none."""
    mesh = interval_mesh(16)
    forcing = None
    if forced:
        forcing = Forcing(f_omega=lambda t: np.full(mesh.n_nodes, t),
                          f_flux=lambda t: np.array([0.1 * t]), f_acoustic=lambda t: 0.2)
    cfg = StepperConfig(dt=1e-3, t_end=0.04, record_every=4, forcing=forcing)
    return mesh, assemble(mesh), default_params(), exp_kernel(), cfg


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_step_never_writes_the_array_of_the_state_it_was_given(forced):
    # step writes the other array of the run's pair, so the state it reads
    # keeps every byte through the step; both closure branches are covered
    mesh, ops, params, kernel, cfg = _forced_case(forced)
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]),
                       AcousticClosure(ops, kernel, params, cfg))
    for _ in range(cfg.n_steps):
        before = state.x.tobytes()
        new = step(state)
        assert new.x is not state.x
        assert state.x.tobytes() == before
        state = new


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_steps_alternate_the_two_arrays_of_the_closure(forced, monkeypatch):
    # two steps come back to the array they started from, and every state a
    # run passes through, given to step or returned by it, lives in one of
    # the closure's two arrays
    mesh, ops, params, kernel, cfg = _forced_case(forced)
    u0, z, y0 = sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1])
    s0 = init_state(u0, z, y0, AcousticClosure(ops, kernel, params, cfg))
    arrays = [slots.x for slots in s0.closure.pair]
    assert s0.x is arrays[0] and arrays[0] is not arrays[1]
    s1 = step(s0)
    s2 = step(s1)
    assert s1.x is arrays[1] and s2.x is s0.x

    seen, pairs = [], []
    real_step = stepper.step

    def spy(state):
        pairs.append(state.closure.pair)  # read while the run is live
        new = real_step(state)
        seen.append((state, new))
        return new

    monkeypatch.setattr(stepper, "step", spy)
    traj = stepper.run(u0, z, y0, ops, kernel, params, cfg)
    assert len(seen) == cfg.n_steps
    assert all(p is pairs[0] for p in pairs)
    pair = [slots.x for slots in pairs[0]]
    for i, (given, returned) in enumerate(seen):
        assert given.x is pair[i % 2] and returned.x is pair[(i + 1) % 2]
    assert all(traj.final.x is not x for x in pair)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_run_records_equal_deep_copies_taken_while_stepping_by_hand(forced):
    # every record of a run owns its arrays: its final state and every y
    # equal copies taken at the record steps of the same run stepped by hand
    mesh, ops, params, kernel, cfg = _forced_case(forced)
    u0, z, y0 = sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1])
    state = init_state(u0, z, y0, AcousticClosure(ops, kernel, params, cfg))
    kept = [copy.deepcopy(state)]
    for i in range(1, cfg.n_steps + 1):
        state = step(state)
        if i % cfg.record_every == 0:
            kept.append(copy.deepcopy(state))
    traj = run(u0, z, y0, ops, kernel, params, cfg)
    assert traj.n_records == len(kept) == 11
    for y, snapshot in zip(traj.ys, kept, strict=True):
        assert y.tobytes() == snapshot.y.tobytes()
    for name in ("t", "x", "m_kir", "grad_sq", "lk", "n"):  # all but the run's closure
        assert (np.asarray(getattr(traj.final, name)).tobytes()
                == np.asarray(getattr(kept[-1], name)).tobytes())


def test_one_stiffness_product_per_step_and_one_record_product_per_record(products,
                                                                         monkeypatch):
    # the step's one K u, a product with the stencil ops holds, feeds the
    # force, the history and the energy report; a record adds one product
    # with the run's record operator, built on M's offsets, and no mass
    # product, and reads int_0^t g off a table that one partial_mass call
    # fills for the whole run.  A run builds no stencil: assemble built K's
    # and M's, and took the lumped mass as one product with M.
    masses = []
    partial_mass = RelaxationKernel.partial_mass

    def counted(self, t0):
        masses.append(np.shape(t0))
        return partial_mass(self, t0)

    monkeypatch.setattr(RelaxationKernel, "partial_mass", counted)
    stencils = []
    cell_stencil = assembly._cell_stencil

    def counted_stencil(mesh, corners, elements):
        stencils.append(mesh)
        return cell_stencil(mesh, corners, elements)

    monkeypatch.setattr(assembly, "_cell_stencil", counted_stencil)
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    assert len(stencils) == 2  # the spy sees assemble build K's and M's
    assert len(products) == 1 and products[0] is ops.mass  # the lumped mass
    del stencils[:], products[:]
    u0 = sine_profile(mesh, 0.3)
    z = np.zeros(mesh.n_nodes)
    cfg = StepperConfig(dt=1e-3, t_end=0.1, record_every=10)
    traj = run(u0, z, np.zeros(1), ops, exp_kernel(), params, cfg)
    stiffness = sum(A is ops.stiffness for A in products)
    records = [A for A in products if A is not ops.stiffness]
    assert stiffness == 1 + 100  # the initial evaluation, then one per step
    assert traj.n_records == 11
    assert sum(A is ops.mass for A in products) == 0
    assert len(records) == traj.n_records
    assert all(A is records[0] for A in records)  # one operator per run
    assert records[0].shape == (2 * mesh.n_nodes + 2, 2 * mesh.n_nodes + 2)
    assert records[0].offsets.tolist() == ops.mass.offsets.tolist()
    assert stencils == []
    assert masses == [(traj.n_records,)]


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_acoustic_closure_map_matches_the_trapezoid_formulas(forced):
    # the per-run closure map against the trapezoidal solve written out, on
    # a square whose acoustic faces meet at a free corner (unequal weights
    # and masses); the pre-closure kick is rebuilt from the public pieces,
    # and init_state builds the closure once, every step handing it on
    mesh = square_mesh(4, gamma1=("right", "top"))
    g1, w = mesh.gamma1_nodes, mesh.gamma1_weights
    m = len(g1)
    params = default_params(p_c=0.7, q_c=1.3)
    p, q = params.p_c, params.q_c
    ops = assemble(mesh)
    forcing = None
    if forced:
        forcing = Forcing(f_flux=lambda t: np.linspace(0.3, 0.7, m) * (1.0 + t),
                          f_acoustic=lambda t: np.linspace(-0.2, 0.4, m) + t)
    cfg = StepperConfig(dt=1e-3, t_end=0.01, forcing=forcing)
    hdt = 0.5 * cfg.dt
    closure = AcousticClosure(ops, exp_kernel(), params, cfg)
    state = init_state(sine_profile(mesh, 0.3), sine_profile(mesh, -0.2),
                       np.linspace(0.1, 0.3, m), closure)
    m_g = ops.mass_lumped[g1]
    c = hdt * w / m_g
    denom = p + c + hdt * q
    free = np.ones(mesh.n_nodes, bool)
    free[mesh.gamma0_nodes] = False

    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    for _ in range(10):
        new = step(state)
        assert new.closure is closure
        f3 = forcing.f_flux(new.t) if forced else 0.0
        f4 = forcing.f_acoustic(new.t) if forced else 0.0
        # the kicked velocity and the force's acceleration, without the
        # boundary terms
        force = (-new.m_kir * (as_dia_matrix(ops.stiffness) @ new.u)
                 + closure.buffer.convolution_force(0.0, np.empty(mesh.n_nodes))
                 + source_vector(ops, new.u, params.k_exp, np.empty(mesh.n_nodes)))
        accel = np.where(free, force / ops.mass_lumped, 0.0)
        v = state.v + hdt * state.accel + hdt * accel
        A = v[g1] + c * f3
        z = (f4 - A - q * state.y - hdt * q * state.y_t) / denom
        v[g1] = A + c * z
        y = state.y + hdt * (state.y_t + z)
        accel[g1] += w * (z + f3) / m_g
        assert rel_err(new.v[g1], v[g1]) <= 1e-14
        assert rel_err(new.y, y) <= 1e-14
        assert rel_err(new.y_t, z) <= 1e-14
        assert rel_err(new.accel, accel) <= 1e-14
        assert rel_err(new.v, v) <= 1e-14
        state = new


def test_records_own_their_acoustic_arrays():
    # a run keeps y in one (records, m) array of its own; were it a view of
    # a state's array or of the run's raw table, the trajectory would keep
    # that whole array alive
    mesh = square_mesh(8, gamma1=("right", "top"))
    ops = assemble(mesh)
    assert len(mesh.gamma1_nodes) > 1
    cfg = StepperConfig(dt=1e-3, t_end=0.02, record_every=2)
    traj = run(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.zeros(1), ops,
               exp_kernel(), default_params(), cfg)
    assert traj.n_records == 11
    assert traj.ys.shape == (11, len(mesh.gamma1_nodes))
    assert traj.ys.base is None


_BLOW_STEP = 7


def _at_blow_step(dt, value, otherwise):
    return lambda t: value if round(t / dt) == _BLOW_STEP else otherwise


@pytest.mark.parametrize("entry", ["acoustic-law", "interior-force", "boundary-acceleration"])
def test_the_finiteness_check_catches_each_field_at_its_step(entry):
    # u and y cannot turn non-finite alone in one step, so each case is
    # named by where the non-finite value enters:
    #   acoustic-law           f4 = inf: y and v on the acoustic node, step k
    #   interior-force         f = inf at one interior node: v there alone, step k
    #   boundary-acceleration  a finite f4 overflows the acoustic node's
    #                          acceleration, which no field holds at step k;
    #                          u, v and y follow at step k + 1
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    dt = 1e-3
    zero = np.zeros(mesh.n_nodes)
    interior = zero.copy()
    interior[5] = math.inf
    forcing, abort_step = {
        "acoustic-law": (Forcing(f_acoustic=_at_blow_step(dt, math.inf, 0.0)), _BLOW_STEP),
        "interior-force": (Forcing(f_omega=_at_blow_step(dt, interior, zero)), _BLOW_STEP),
        "boundary-acceleration": (Forcing(f_acoustic=_at_blow_step(dt, 1e307, 0.0)),
                                  _BLOW_STEP + 1),
    }[entry]
    # no record before the abort: an energy report would see the huge v
    cfg = StepperConfig(dt=dt, t_end=0.02, record_every=10, forcing=forcing)
    with pytest.raises(SimulationAbort, match="non-finite field values") as exc:
        run(sine_profile(mesh, 0.3), zero, np.zeros(1), ops, exp_kernel(), default_params(), cfg)
    assert exc.value.info.time == abort_step * dt
    assert exc.value.trajectory.n_records == 1


_PLANT_NODE = 5  # an interior node, off both boundaries of a 16-cell interval


def _planted_run(field, value, monkeypatch):
    """A 16-cell run (records every 5 steps) whose finiteness check finds
    ``value`` in ``field`` of the state at step _BLOW_STEP: the check reads
    the new state's array with the entry planted, and the entry is restored
    afterwards.  Returns the trajectory, or the abort, and the arrays the
    check read, which are the run's pair."""
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    params = default_params()
    cfg = StepperConfig(dt=1e-3, t_end=0.02, record_every=5)
    layout = AcousticClosure(ops, exp_kernel(), params, cfg)
    index = getattr(layout, field).start + (_PLANT_NODE if field in ("u", "v") else 0)
    check = stepper._check_finite
    arrays = []

    def planted(t, values, zero):
        x = values.base
        if all(x is not a for a in arrays):
            arrays.append(x)
        if round(t / cfg.dt) != _BLOW_STEP:
            return check(t, values, zero)
        assert x.size == layout.size
        kept, x[index] = x[index], value
        try:
            return check(t, values, zero)
        finally:
            x[index] = kept

    monkeypatch.setattr(stepper, "_check_finite", planted)
    try:
        return run(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.zeros(1), ops,
                   exp_kernel(), params, cfg), arrays
    except SimulationAbort as abort:
        return abort, arrays


@pytest.mark.parametrize("field", ["u", "v", "y", "y_t"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_entry_aborts_at_its_step(field, value, monkeypatch):
    # the one dot product with zeros turns each of +inf, -inf and nan in any
    # checked slot into the abort of that very step; the trajectory's final
    # state is the last record's, a copy, not the aborting step's array
    abort, pair = _planted_run(field, value, monkeypatch)
    assert isinstance(abort, SimulationAbort)
    assert abort.info.reason == "blow-up or instability: non-finite field values"
    assert abort.info.time == _BLOW_STEP * 1e-3
    traj = abort.trajectory
    assert traj.times == [0.0, 5e-3]
    final = traj.final
    assert final.n == 5 and final.t == traj.times[-1]
    assert final.y.tobytes() == traj.ys[-1].tobytes()
    assert np.isfinite(final.x).all()
    assert len(pair) == 2 and all(final.x is not x for x in pair)


@pytest.mark.parametrize("field", ["u", "v", "y", "y_t"])
def test_a_huge_finite_entry_does_not_abort(field, monkeypatch):
    # 0 * 1e308 is 0: the check passes a finite entry however large, and
    # the run completes
    traj, _ = _planted_run(field, 1e308, monkeypatch)
    assert not isinstance(traj, SimulationAbort)
    assert traj.times[-1] == 0.02


def test_an_overflowing_report_field_aborts_at_its_record(monkeypatch):
    # the raw rows stay finite and the Kirchhoff potential of the third
    # record overflows: the pass after the run raises the energy abort at
    # that record's time and keeps the two records before it; the snapshot
    # block (all five records) still holds the second one's state, which is
    # the final one, bit for bit that of the run stopped at step 5
    potential = PhysicalParams.kirchhoff_potential
    calls = []

    def overflowing(self, grad_sq):
        calls.append(grad_sq)
        return math.inf if len(calls) == 3 else potential(self, grad_sq)

    monkeypatch.setattr(PhysicalParams, "kirchhoff_potential", overflowing)
    mesh = interval_mesh(16)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, record_every=5)
    with pytest.raises(SimulationAbort) as exc:
        run(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.zeros(1), assemble(mesh),
            exp_kernel(), default_params(), cfg)
    assert exc.value.info.reason == "blow-up or instability: non-finite energy"
    assert exc.value.info.time == 10 * cfg.dt
    assert len(calls) == 5  # the run completed its five records first
    traj = exc.value.trajectory
    assert traj.times == [0.0, 5 * cfg.dt]
    assert traj.n_records == len(traj.reports) == 2 and traj.ys.shape == (2, 1)
    assert all(len(c) == 2 and np.isfinite(c).all() for c in traj.energy.values())
    monkeypatch.undo()
    alone = run(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.zeros(1), assemble(mesh),
                exp_kernel(), default_params(), dataclasses.replace(cfg, t_end=5 * cfg.dt)).final
    assert traj.final.n == alone.n == 5 and traj.final.x.tobytes() == alone.x.tobytes()
    assert (traj.final.m_kir, traj.final.grad_sq) == (alone.m_kir, alone.grad_sq)


def test_a_run_keeps_its_records_in_columns():
    # exp-inwell's 5001 records: the trajectory a run returns holds its
    # fields as fifteen float columns and y as one array, with no report
    # tuples and no per-record arrays (3.4 MB when every record built them)
    cfg = PRESETS["exp-inwell"].parse()
    mesh = build_mesh(cfg.domain)
    ops = assemble(mesh)
    kernel = cfg.build_kernel()
    u0, u1, y0 = initial_data(cfg, mesh)
    tracemalloc.start()
    try:
        traj = run(u0, u1, y0, ops, kernel, cfg.physics, cfg.stepping)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_records == 5001
    assert held < 1.6e6


def test_the_finiteness_check_reads_y_on_its_own():
    # y at the float maximum, and y_t too, with a weak restoring q: y1 =
    # y + dt/2 (y_t + z) overflows while z, and with it u, v and the
    # acceleration, stays finite, so only the check of y can stop the step
    mesh = interval_mesh(16)
    params = default_params(q_c=1e-3)
    ops = assemble(mesh)
    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.zeros(1),
                       AcousticClosure(ops, exp_kernel(), params, cfg))
    state = dataclasses.replace(state, x=state.x.copy())
    state.y[:] = state.y_t[:] = np.finfo(float).max
    # step enters no errstate of its own; run holds one for the whole run
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationAbort, match="non-finite field values") as exc:
            step(state)
    assert exc.value.info.time == cfg.dt


def test_run_ignores_overflow_inside_and_restores_the_error_state():
    # run holds one np.errstate(over="ignore", invalid="ignore") around
    # init_state, every step and every record: a blow-up overflows on its
    # way to inf and ends in the finiteness abort, not in a RuntimeWarning,
    # and the caller's error state holds again after the run either way
    raw = copy.deepcopy(PRESETS["out-of-well"].config)
    raw["stepping"]["t_end"] = 1.75  # the preset aborts at t = 1.687
    cfg = parse_config(json.dumps(raw))
    mesh = build_mesh(cfg.domain)
    ops = assemble(mesh)
    kernel = cfg.build_kernel()
    u0, u1, y0 = initial_data(cfg, mesh)
    short = dataclasses.replace(cfg.stepping, t_end=0.1)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        completed = run(u0, u1, y0, ops, kernel, cfg.physics, short)
        assert np.geterr() == before
        with pytest.raises(SimulationAbort, match="non-finite field values") as exc:
            run(u0, u1, y0, ops, kernel, cfg.physics, cfg.stepping)
    assert np.geterr() == before
    assert completed.times[-1] == 0.1
    assert exc.value.info.time == 3374 * cfg.stepping.dt
    assert exc.value.trajectory.n_records > 1
