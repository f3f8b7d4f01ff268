import math

import numpy as np
import pytest

from viscowave import (
    StepperConfig,
    assemble,
    boundary_quadratic,
    build_kernel,
    build_manufactured_case,
    compute_energy,
    grad_norm_sq,
    lk_norm_pow,
    make_rate,
    rate_identity_residual,
    run,
    sine_solution,
)
from viscowave.assembly import l2_norm_sq
from viscowave.energy import _reports, identity_residual
from viscowave.stepper import AcousticClosure, init_state, step

from conftest import (
    as_dia_matrix,
    default_params,
    exp_kernel,
    interval_mesh,
    sine_profile,
    square_mesh,
    trapezoid_x4,
    zero_kernel,
)


def _report_at_zero(mesh, ops, params, kernel, u0, u1, y0):
    """The energy report of the initial state of a run of no steps, read
    off the record table."""
    closure = AcousticClosure(ops, kernel, params, StepperConfig(dt=1e-4, t_end=0.0))
    compute_energy(init_state(u0, u1, y0, closure))
    return _reports(closure.form.columns())[0]


def test_zero_state_zero_energy(mesh64, ops64):
    params = default_params()
    kernel = exp_kernel()
    z = np.zeros(mesh64.n_nodes)
    rep = _report_at_zero(mesh64, ops64, params, kernel, z, z, np.zeros(1))
    assert rep.total == 0.0
    assert all(v == 0.0 for v in (rep.kinetic, rep.elastic, rep.kirchhoff, rep.boundary,
                                  rep.memory, rep.source))
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
    rep = _report_at_zero(mesh64, ops64, params, kernel, u0, z, np.zeros(1))
    assert rep.total == pytest.approx(1.25 - lk / 4, rel=1e-12)
    assert rep.elastic == pytest.approx(1.0)
    assert rep.kirchhoff == pytest.approx(0.25)
    assert rep.source == pytest.approx(-lk / 4, rel=1e-12)
    assert rep.total == pytest.approx(rep.kinetic + rep.elastic + rep.kirchhoff + rep.boundary
                                      + rep.memory + rep.source)
    # gamma_fn(0) = sqrt(l*1 + (b/2)*1) = sqrt(1.5)
    assert rep.gamma_fn == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_boundary_only_energy():
    mesh = interval_mesh(16)
    params = default_params(q_c=2.0)
    ops = assemble(mesh)
    kernel = exp_kernel()
    z = np.zeros(mesh.n_nodes)
    rep = _report_at_zero(mesh, ops, params, kernel, z, z, np.ones(1))
    # E = 1/2 * q * y^2 = 1/2 * 2 * 1 = 1 (acoustic weight 1 in 1D)
    assert rep.total == pytest.approx(1.0)
    assert rep.boundary == pytest.approx(1.0)


def test_gamma_fn_monotone_in_boundary_magnitude(mesh64, ops64):
    params = default_params()
    kernel = exp_kernel()
    u0 = sine_profile(mesh64, 0.3)
    z = np.zeros(mesh64.n_nodes)
    r1 = _report_at_zero(mesh64, ops64, params, kernel, u0, z, np.array([0.5]))
    r2 = _report_at_zero(mesh64, ops64, params, kernel, u0, z, np.array([1.0]))
    assert r2.gamma_fn > r1.gamma_fn


_FAMILIES = {"constant": (1.0, 0.0), "power_law": (2.0, 0.0), "oscillatory": (1.0, 0.5)}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("domain", ["interval", "square-free-corner"])
def test_record_form_matches_the_written_out_report(domain, family):
    # every field of a record, read off the per-run tables and the one
    # record product, against the formulas written out with the public
    # forms and kernel calls; a state off the record grid is refused.
    # columns completes the rows taken, so each record is read as soon as
    # it is taken
    if domain == "interval":
        mesh = interval_mesh(16)
    else:  # acoustic faces meeting at a free corner: unequal weights
        mesh = square_mesh(6, gamma1=("right", "top"))
    params = default_params(p_c=0.7, q_c=1.3)
    ops = assemble(mesh)
    alpha, eps = _FAMILIES[family]
    kernel = build_kernel(make_rate(family, alpha, eps), 1.0, 3.0)
    cfg = StepperConfig(dt=2e-3, t_end=0.1, record_every=5)
    closure = AcousticClosure(ops, kernel, params, cfg)
    y0 = np.linspace(0.1, 0.3, len(mesh.gamma1_nodes))
    state = init_state(sine_profile(mesh, 0.3), sine_profile(mesh, -0.2), y0, closure)
    records = 0
    while True:
        if state.n % cfg.record_every:
            with pytest.raises(ValueError, match="record grid"):
                compute_energy(state)
        else:
            compute_energy(state)
            records += 1
            report = _reports(closure.form.columns())[-1]
            _check_report(report, state, closure.buffer, kernel, params, ops, cfg.dt)
        if state.n == cfg.n_steps:
            break
        state = step(state)
    assert records == 11


def test_a_state_behind_its_buffer_is_refused():
    # a record reads the memory functionals off the run's history buffer at
    # its newest push, so a state one step behind that push is refused,
    # naming both counts, and the newest state records
    mesh = interval_mesh(16)
    params = default_params()
    ops = assemble(mesh)
    kernel = exp_kernel()
    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    closure = AcousticClosure(ops, kernel, params, cfg)
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]), closure)
    compute_energy(state)
    newer = step(state)
    with pytest.raises(ValueError, match=r"state of step 0 .* \(2 pushes\)"):
        compute_energy(state)
    compute_energy(newer)
    form = closure.form
    assert form.count == 2
    assert form.columns()["t"].tolist() == [0.0, cfg.dt]


def _check_report(rep, state, buf, kernel, params, ops, dt):
    t, u = state.n * dt, state.u
    gns = grad_norm_sq(ops, u)
    acoustic = boundary_quadratic(ops, state.y, params.q_c)
    kirchhoff_pot = params.kirchhoff_potential(gns)
    gdia, gpdia = buf.g_diamond(), buf.g_prime_diamond()
    g_at_t = float(kernel.g(t))
    damping = boundary_quadratic(ops, state.y_t, params.p_c)
    parts = {
        "kinetic": 0.5 * l2_norm_sq(ops, state.v),
        "elastic": 0.5 * (params.a - kernel.partial_mass(t)) * gns,
        "kirchhoff": 0.5 * kirchhoff_pot,
        "boundary": 0.5 * acoustic,
        "memory": 0.5 * gdia,
        "source": -lk_norm_pow(ops, u, params.k_exp) / params.k_exp,
    }
    expected = {
        "t": t,
        "total": sum(parts.values()),
        **parts,
        "gamma_fn": math.sqrt(kernel.l_value * gns + kirchhoff_pot + acoustic + gdia),
        "grad_sq": gns,
        "l2_sq": l2_norm_sq(ops, u),
        "g_at_t": g_at_t,
        "g_prime_diamond": gpdia,
        "boundary_damping": damping,
        "rhs_identity": -0.5 * g_at_t * gns + 0.5 * gpdia - damping,
    }
    assert list(expected) == list(rep._fields)
    for name, value in expected.items():
        assert getattr(rep, name) == pytest.approx(value, rel=1e-14, abs=0.0), name


def _scalar_report(state, buffer, form, i):
    """The report of record i, one scalar operation at a time in the order
    of a record that builds its own report: the oracle of the table's one
    vectorized pass."""
    params = form.params
    z = state.x[state.closure.checked]
    sums = np.add.reduceat(np.append(z * (as_dia_matrix(form.operator) @ z), 0.0), form.starts).tolist()
    l2_sq, twice_kinetic, acoustic, damping = sums
    gns = state.grad_sq
    g_at_t = float(form.g[i])
    kinetic = 0.5 * twice_kinetic
    elastic = 0.5 * (params.a - float(form.mass[i])) * gns
    kirchhoff_pot = params.kirchhoff_potential(gns)
    kirchhoff = 0.5 * kirchhoff_pot
    boundary = 0.5 * acoustic
    gdia = buffer.g_diamond()
    memory = 0.5 * gdia
    source = -state.lk / params.k_exp if params.source_enabled else 0.0
    total = kinetic + elastic + kirchhoff + boundary + memory + source
    gpdia = buffer.g_prime_diamond()
    rhs = -0.5 * g_at_t * gns + 0.5 * gpdia - damping
    well = form.l_value * gns + kirchhoff_pot + acoustic + gdia
    return (state.t, total, kinetic, elastic, kirchhoff, boundary, memory, source,
            math.sqrt(max(well, 0.0)), gns, l2_sq, g_at_t, gpdia, damping, rhs)


@pytest.mark.parametrize("case", ["unforced", "forced", "unforced-linear"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("domain", ["interval", "square-free-corner"])
def test_every_column_is_bitwise_the_scalar_report(domain, family, case):
    # the fields a run derives from its raw table, for every record, are
    # bit for bit those of the scalar formulas applied record by record;
    # "linear" turns the Kirchhoff term and the source off, so that the
    # potential and the source read 0.0
    if domain == "interval":
        mesh = interval_mesh(16)
    else:
        mesh = square_mesh(6, gamma1=("right", "top"))
    if case == "unforced-linear":
        params = default_params(p_c=0.7, q_c=1.3, b=0.0, source_enabled=False)
    else:
        params = default_params(p_c=0.7, q_c=1.3)
    ops = assemble(mesh)
    alpha, eps = _FAMILIES[family]
    kernel = build_kernel(make_rate(family, alpha, eps), 1.0, 3.0)
    t_end = 0.1
    forcing = None
    u0, u1 = sine_profile(mesh, 0.3), sine_profile(mesh, -0.2)
    y0 = np.linspace(0.1, 0.3, len(mesh.gamma1_nodes))
    if case == "forced":
        forced = build_manufactured_case(sine_solution(mesh.spec.extent), ops, params, kernel,
                                         t_end)
        forcing, u0, u1, y0 = forced.forcing, forced.u0, forced.u1, forced.y0
    cfg = StepperConfig(dt=2e-3, t_end=t_end, record_every=5, forcing=forcing)
    closure = AcousticClosure(ops, kernel, params, cfg)
    state = init_state(u0, u1, y0, closure)
    expected, ys = [], []
    while True:
        i, off = divmod(state.n, cfg.record_every)
        if not off:
            expected.append(_scalar_report(state, closure.buffer, closure.form, i))
            ys.append(state.y.copy())
        if state.n == cfg.n_steps:
            break
        state = step(state)
    traj = run(u0, u1, y0, ops, kernel, params, cfg)
    assert len(expected) == traj.n_records == 11
    columns = np.array(list(traj.energy.values()))
    assert columns.tobytes() == np.array(expected).T.tobytes()
    assert np.array([tuple(r) for r in traj.reports]).tobytes() == np.array(expected).tobytes()
    assert traj.ys.tobytes() == np.array(ys).tobytes()
    assert traj.times == [r[0] for r in expected]
    # the residual of the columns is the residual of the reports
    ts, res = identity_residual(traj.energy["t"], traj.energy["total"],
                                traj.energy["rhs_identity"])
    ts_r, res_r = rate_identity_residual(traj.reports)
    assert ts.tobytes() == ts_r.tobytes() and res.tobytes() == res_r.tobytes()


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


@pytest.mark.parametrize("t, message", [
    ([0.0, 0.1, 0.1, 0.2], "strictly increasing"),
    ([0.0, 0.2, 0.1, 0.3], "strictly increasing"),
    ([0.0, 0.1, 0.2, 0.4], "uniformly spaced"),
])
def test_identity_residual_refuses_times_off_a_uniform_grid(t, message):
    # the central difference divides by t[i+1] - t[i-1]: repeated,
    # decreasing or unequal steps would give a residual of another quantity
    t = np.array(t)
    with pytest.raises(ValueError, match=message):
        identity_residual(t, np.ones_like(t), np.zeros_like(t))


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
    constants = compute_well_constants(ops, params, kernel, seed=2024)
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
