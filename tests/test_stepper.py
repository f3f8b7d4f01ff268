import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from viscowave import (
    SimulationAbort,
    StepperConfig,
    assemble,
    build_manufactured_case,
    build_mesh,
    grad_norm_sq,
    linear_profile_solution,
    lk_norm_pow,
    run,
)
from viscowave import compute_energy, stepper
from viscowave.cli import PRESETS, initial_data, parse_config
from viscowave.history import HistoryBuffer
from viscowave.stepper import Forcing, init_state, step

from conftest import (
    CountingMatrix,
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
    with init_state/step/compute_energy at the same steps; checked against
    ``run`` itself, so a test can look at per-record fields that the
    trajectory does not keep."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    buffer = HistoryBuffer(kernel, ops.n_nodes, horizon=n_steps * cfg.dt)
    state = init_state(u0, u1, y0, ops, params, buffer, cfg)
    records = [(state, compute_energy(state, buffer, kernel, params, ops))]
    for i in range(1, n_steps + 1):
        state = step(state, ops, params, buffer, cfg)
        if i % cfg.record_every == 0:
            records.append((state, compute_energy(state, buffer, kernel, params, ops)))
    traj = run(u0, u1, y0, ops, kernel, params, cfg)
    assert traj.reports == [rep for _, rep in records]
    assert all(np.array_equal(y, s.y) for y, (s, _) in zip(traj.ys, records, strict=True))
    assert np.array_equal(traj.final.u, records[-1][0].u)
    return records


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
    buf = HistoryBuffer(zero_kernel(params.a), mesh.n_nodes)
    s0 = init_state(
        np.array([0.0, 0.25, 0.5]), np.zeros(3), np.array([0.2]),
        ops, params, buf, cfg,
    )
    assert np.allclose(s0.accel, [0.0, 0.0, -2.8])
    s1 = step(s0, ops, params, buf, cfg)
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
    buf = HistoryBuffer(kernel, mesh.n_nodes)
    cfg = StepperConfig(dt=1e-3, t_end=0.05)
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]),
                       ops, params, buf, cfg)
    for _ in range(50):
        assert buf.n_entries == state.n + 1
        assert not buf.convolution_force(state.t).any()
        rep = compute_energy(state, buf, kernel, params, ops)
        assert rep.memory == rep.g_prime_diamond == rep.g_at_t == 0.0
        assert rep.elastic == 0.5 * params.a * rep.grad_sq
        assert rep.grad_sq > 0.0
        state = step(state, ops, params, buf, cfg)


def test_damped_linear_wave_against_independent_integrator():
    # g = 0, b = 0, source off: the semi-discrete system is linear; compare
    # 20 leapfrog steps against a tight-tolerance Runge-Kutta solution of the
    # same ODE system assembled independently here.
    mesh = interval_mesh(8)
    params = default_params(a=1.0, b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    K = ops.stiffness.toarray()
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
    with pytest.raises(SimulationAbort, match="CFL"):
        run(u0, z, np.zeros(1), ops, kernel, params,
            StepperConfig(dt=0.05, t_end=1.0))


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


def test_manufactured_zero_field_gives_zero_case():
    mesh = interval_mesh(8)
    params = default_params(b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    kernel = exp_kernel(a=2.0)
    from viscowave import ManufacturedSolution

    msol = ManufacturedSolution(
        u=lambda x, t: np.zeros(len(x)),
        u_t=lambda x, t: np.zeros(len(x)),
        u_tt=lambda x, t: np.zeros(len(x)),
        y=lambda t: 0.0,
        y_t=lambda t: 0.0,
        flux_space=lambda xg: np.zeros(len(xg)),
        flux_time=lambda t: 0.0,
    )
    case = build_manufactured_case(msol, ops, params, kernel, t_end=1.0)
    assert np.all(case.u0 == 0.0)
    assert np.all(case.u1 == 0.0)
    assert np.all(case.forcing.f_omega(0.3, mesh.nodes) == 0.0)
    assert case.boundary_residual["flux_max"] == 0.0


def test_manufactured_dirichlet_violation_rejected():
    mesh = interval_mesh(8)
    params = default_params(b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    from viscowave import ManufacturedSolution

    msol = ManufacturedSolution(
        u=lambda x, t: 1.0 + x[:, 0],  # nonzero at the Dirichlet end
        u_t=lambda x, t: np.zeros(len(x)),
        u_tt=lambda x, t: np.zeros(len(x)),
        y=lambda t: 0.0,
        y_t=lambda t: 0.0,
        flux_space=lambda xg: np.ones(len(xg)),
        flux_time=lambda t: 1.0,
    )
    with pytest.raises(ValueError, match="Dirichlet"):
        build_manufactured_case(msol, ops, params, exp_kernel(), t_end=1.0)


def test_linear_profile_interior_forcing_matches_hand_value():
    # u = x cos t with a linear profile: Laplacian terms vanish and
    # f_Omega = u_tt = -x cos t
    mesh = interval_mesh(8)
    params = default_params(a=2.0, b=0.0, kappa=0.0, source_enabled=False)
    ops = assemble(mesh)
    kernel = exp_kernel(a=2.0)
    msol = linear_profile_solution(kernel)
    case = build_manufactured_case(msol, ops, params, kernel, t_end=1.0)
    for t in (0.0, 0.4, 1.0):
        f = case.forcing.f_omega(t, mesh.nodes)
        assert np.allclose(f, -mesh.nodes[:, 0] * math.cos(t))
    # flux forcing at t uses the closed-form memory integral
    t = 0.7
    mem = (math.cos(t) + math.sin(t) - math.exp(-t)) / 2.0
    expect = 2.0 * math.cos(t) - mem - math.cos(t)
    assert case.forcing.f_flux(t)[0] == pytest.approx(expect, rel=1e-12)


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
    constants = compute_well_constants(mesh, ops, params, kernel)
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


def test_manufactured_two_level_convergence():
    params = default_params(a=2.0, b=0.0, kappa=0.0, source_enabled=False)
    errs = []
    for res, dt in ((16, 4e-3), (32, 2e-3)):
        mesh = interval_mesh(res)
        ops = assemble(mesh)
        kernel = exp_kernel(a=2.0)
        msol = linear_profile_solution(kernel)
        case = build_manufactured_case(msol, ops, params, kernel, t_end=1.0)
        cfg = StepperConfig(dt=dt, t_end=1.0, record_every=int(1.0 / dt),
                            forcing=case.forcing)
        traj = run(case.u0, case.u1, case.y0, ops, kernel, params, cfg)
        final = traj.final
        exact = mesh.nodes[:, 0] * math.cos(final.t)
        diff = final.u - exact
        errs.append(math.sqrt(float(diff @ (ops.mass @ diff))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


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
            forcing = Forcing(f_omega=lambda t, x: np.full(len(x), 1.0 + t))
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
        assert rep.grad_sq == grad_norm_sq(ops, state.u)
        lk = lk_norm_pow(ops, state.u, params.k_exp)
        assert lk > 0.0
        assert -params.k_exp * rep.source == pytest.approx(lk, rel=1e-14, abs=0.0)
        for field in (state.u, state.v, state.accel):
            assert np.all(field[g0] == 0.0)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_step_never_mutates_a_returned_state(forced):
    # Trajectory keeps states by reference, so step must build every array
    # of a new state afresh; both closure branches are covered
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    forcing = None
    if forced:
        forcing = Forcing(f_omega=lambda t, x: np.full(len(x), t),
                          f_flux=lambda t: np.array([0.1 * t]), f_acoustic=lambda t: 0.2)
    cfg = StepperConfig(dt=1e-3, t_end=0.04, forcing=forcing)
    buffer = HistoryBuffer(kernel, mesh.n_nodes, horizon=cfg.t_end)
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]),
                       ops, params, buffer, cfg)
    kept = []
    for _ in range(20):
        kept.append((state, copy.deepcopy(state)))
        state = step(state, ops, params, buffer, cfg)
    for _ in range(20):
        state = step(state, ops, params, buffer, cfg)
    for original, snapshot in kept:
        for name, value in vars(snapshot).items():
            assert np.asarray(getattr(original, name)).tobytes() == np.asarray(value).tobytes()


def test_one_stiffness_product_per_step_and_two_mass_products_per_record():
    # the step's one K u feeds the force, the history and the energy
    # report; a record adds M v and M u and nothing else
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    stiffness, mass = CountingMatrix(ops.stiffness), CountingMatrix(ops.mass)
    counted = dataclasses.replace(ops, stiffness=stiffness, mass=mass)
    u0 = sine_profile(mesh, 0.3)
    z = np.zeros(mesh.n_nodes)
    cfg = StepperConfig(dt=1e-3, t_end=0.1, record_every=10)
    traj = run(u0, z, np.zeros(1), counted, exp_kernel(), params, cfg)
    assert stiffness.products == 1 + 100  # the initial evaluation, then one per step
    assert traj.n_records == 11
    assert mass.products == 2 * traj.n_records
    assert traj.reports == run(u0, z, np.zeros(1), ops, exp_kernel(), params, cfg).reports
