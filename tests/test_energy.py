import math

import numpy as np
import pytest

from viscowave import (
    StepperConfig,
    assemble,
    compute_energy,
    rate_identity_residual,
    run,
)
from viscowave.history import HistoryBuffer
from viscowave.stepper import init_state

from conftest import (
    default_params,
    exp_kernel,
    interval_mesh,
    sine_profile,
    trapezoid_x4,
    zero_kernel,
)


def _state_at_zero(mesh, ops, params, kernel, u0, u1, y0):
    buf = HistoryBuffer(kernel, mesh.n_nodes)
    cfg = StepperConfig(dt=1e-4, t_end=0.0)
    state = init_state(u0, u1, y0, ops, params, buf, cfg)
    return state, buf


def test_zero_state_zero_energy(mesh64, ops64):
    params = default_params()
    kernel = exp_kernel()
    z = np.zeros(mesh64.n_nodes)
    state, buf = _state_at_zero(mesh64, ops64, params, kernel, z, z, np.zeros(1))
    rep = compute_energy(state, buf, kernel, params, ops64)
    assert rep.total == 0.0
    assert all(v == 0.0 for v in rep.components().values())
    assert rep.gamma_fn == 0.0
    assert rep.rhs_identity == 0.0


def test_hand_evaluated_initial_energy(mesh64, ops64):
    # a=2, b=1, kappa=1, k=4, q=1, u0 = x, u1 = 0, y0 = 0, exponential kernel:
    # E(0) = 1/2*2*1 + 1/4*1 + 0 + 0 - lk/4, with lk the trapezoid sum of x^4
    lk = trapezoid_x4(1.0 / 64)
    params = default_params()
    kernel = exp_kernel()
    u0 = mesh64.nodes[:, 0].copy()
    z = np.zeros(mesh64.n_nodes)
    state, buf = _state_at_zero(mesh64, ops64, params, kernel, u0, z, np.zeros(1))
    rep = compute_energy(state, buf, kernel, params, ops64)
    assert rep.total == pytest.approx(1.25 - lk / 4, rel=1e-12)
    assert rep.elastic == pytest.approx(1.0)
    assert rep.kirchhoff == pytest.approx(0.25)
    assert rep.source == pytest.approx(-lk / 4, rel=1e-12)
    assert rep.total == pytest.approx(sum(rep.components().values()))
    # gamma_fn(0) = sqrt(l*1 + (b/2)*1) = sqrt(1.5)
    assert rep.gamma_fn == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_boundary_only_energy():
    mesh = interval_mesh(16)
    params = default_params(q_c=2.0)
    ops = assemble(mesh)
    kernel = exp_kernel()
    z = np.zeros(mesh.n_nodes)
    state, buf = _state_at_zero(mesh, ops, params, kernel, z, z, np.ones(1))
    rep = compute_energy(state, buf, kernel, params, ops)
    # E = 1/2 * q * y^2 = 1/2 * 2 * 1 = 1 (acoustic weight 1 in 1D)
    assert rep.total == pytest.approx(1.0)
    assert rep.boundary == pytest.approx(1.0)


def test_gamma_fn_monotone_in_boundary_magnitude(mesh64, ops64):
    params = default_params()
    kernel = exp_kernel()
    u0 = sine_profile(mesh64, 0.3)
    z = np.zeros(mesh64.n_nodes)
    s1, b1 = _state_at_zero(mesh64, ops64, params, kernel, u0, z, np.array([0.5]))
    s2, b2 = _state_at_zero(mesh64, ops64, params, kernel, u0, z, np.array([1.0]))
    assert (compute_energy(s2, b2, kernel, params, ops64).gamma_fn
            > compute_energy(s1, b1, kernel, params, ops64).gamma_fn)


def test_identity_rhs_terms_nonpositive():
    mesh = interval_mesh(32)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    u0 = sine_profile(mesh, 0.3)
    z = np.zeros(mesh.n_nodes)
    cfg = StepperConfig(dt=2e-3, t_end=1.0, record_every=25)
    traj = run(u0, z, np.array([0.1]), ops, kernel, params, cfg)
    for rep in traj.reports:
        assert -0.5 * rep.g_at_t * rep.grad_sq <= 0.0
        assert rep.g_prime_diamond <= 0.0
        assert rep.boundary_damping >= 0.0
        assert rep.rhs_identity <= 0.0


def test_residual_requires_uniform_window():
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    u0 = sine_profile(mesh, 0.1)
    z = np.zeros(mesh.n_nodes)
    traj = run(u0, z, np.zeros(1), ops, kernel, params,
               StepperConfig(dt=1e-3, t_end=0.02, record_every=10))
    with pytest.raises(ValueError, match=">= 3"):
        rate_identity_residual(traj.reports[:2])


def test_zero_trajectory_zero_residual():
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    z = np.zeros(mesh.n_nodes)
    traj = run(z, z, np.zeros(1), ops, kernel, params,
               StepperConfig(dt=1e-3, t_end=0.05, record_every=10))
    ts, res = rate_identity_residual(traj.reports)
    assert np.all(res == 0.0)


def test_linear_case_residual_second_order():
    # g = 0, b = 0, source off: residual reduces to |dE/dt + p int y_t^2|
    # and shrinks ~4x under joint (h, dt) halving; the time part alone sits
    # on an O(h^2) floor from the lumped/consistent mass mismatch.
    # Compatible initial data (y0 = 0 matching the zero initial flux) keep
    # the startup smooth.
    params = default_params(a=1.0, b=0.0, kappa=0.0, source_enabled=False)
    maxres = []
    for res_n, dt in ((32, 2e-3), (64, 1e-3)):
        mesh = interval_mesh(res_n)
        ops = assemble(mesh)
        u0 = sine_profile(mesh, 0.3)
        z = np.zeros(mesh.n_nodes)
        traj = run(u0, z, np.zeros(1), ops, zero_kernel(params.a), params,
                   StepperConfig(dt=dt, t_end=1.0, record_every=2))
        _, res = rate_identity_residual(traj.reports)
        maxres.append(np.abs(res).max())
    assert maxres[0] / maxres[1] > 3.0


def test_energy_dominates_potential_of_gamma():
    # E(t) >= F(gamma_fn(t)) along an in-well run
    from viscowave import compute_well_constants, potential_F

    mesh = interval_mesh(32)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    constants = compute_well_constants(mesh, ops, params, kernel)
    u0 = sine_profile(mesh, 0.4)
    z = np.zeros(mesh.n_nodes)
    cfg = StepperConfig(dt=2e-3, t_end=4.0, record_every=25)
    traj = run(u0, z, np.zeros(1), ops, kernel, params, cfg)
    h = 1.0 / 32
    tol = (cfg.dt**2 + h**2) * traj.reports[0].total
    kk = params.k_exp
    for rep in traj.reports:
        assert rep.total >= potential_F(rep.gamma_fn, constants.b_omega, kk) - tol
        if rep.gamma_fn < constants.lambda1:
            bound = (kk - 2.0) / (2.0 * kk) * rep.gamma_fn**2
            assert rep.total > bound - tol
