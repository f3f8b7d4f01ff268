import dataclasses
import json
import math

import numpy as np
import pytest

from viscowave import (
    StepperConfig,
    assemble,
    check_initial_membership,
    compute_well_constants,
    estimate_B_Omega,
    estimate_embedding_constant,
    estimate_trace_constant,
    potential_F,
    run,
    verify_invariance,
    well_constants_from_B,
)
from viscowave import stableset

from conftest import (
    CountingMatrix,
    default_params,
    exp_kernel,
    interval_mesh,
    sine_profile,
    square_mesh,
    trapezoid_x4,
)

# Independent brute-force oracle for sup ||u||_4 / ||u'||_2 on [0, 1] with
# u(0) = 0: L-BFGS over 1024-interval piecewise-linear fields gave
# 0.70982786, ODE shooting (ground state of w'' = -w^3) gave 0.70982794.
ORACLE_S4_1D = 0.7098279


def test_potential_examples():
    assert potential_F(0.0, 1.0, 4.0) == 0.0
    assert potential_F(1.0, 1.0, 4.0) == pytest.approx(0.25)  # 1/2 - 1/4


@pytest.mark.parametrize("B,k", [(1.0, 4.0), (0.7, 4.0), (1.3, 3.0), (0.5, 6.0), (2.0, 2.5)])
def test_well_constants_and_maximum(B, k):
    lam1, d1 = well_constants_from_B(B, k)
    assert lam1 > 0 and d1 > 0
    assert potential_F(lam1, B, k) == pytest.approx(d1, rel=1e-12)
    # lam1 is the critical point: central difference of F' below 1e-8
    eps = 1e-6
    deriv = (potential_F(lam1 + eps, B, k) - potential_F(lam1 - eps, B, k)) / (2 * eps)
    assert abs(deriv) <= 1e-8
    # increasing left of lam1, decreasing right of it
    xs = np.linspace(1e-6, lam1, 1000)
    assert np.all(np.diff(potential_F(xs, B, k)) > 0)
    xs = np.linspace(lam1, 3 * lam1, 1000)
    assert np.all(np.diff(potential_F(xs, B, k)) < 0)


def test_well_constants_from_B_examples():
    lam1, d1 = well_constants_from_B(1.0, 4.0)
    assert lam1 == pytest.approx(1.0)
    assert d1 == pytest.approx(0.25)
    for k in (3.0, 4.0, 7.0):
        assert well_constants_from_B(1.0, k)[0] == pytest.approx(1.0)


def test_embedding_constant_1d_k2():
    mesh = interval_mesh(64)
    ops = assemble(mesh)
    val = estimate_embedding_constant(mesh, ops, 2.0)
    assert val == pytest.approx(2.0 / math.pi, rel=0.01)


def test_embedding_constant_1d_k4_against_oracle():
    mesh = interval_mesh(64)
    ops = assemble(mesh)
    val = estimate_embedding_constant(mesh, ops, 4.0)
    assert val == pytest.approx(ORACLE_S4_1D, rel=0.01)


def test_embedding_constant_2d_k2():
    mesh = square_mesh(24)
    ops = assemble(mesh)
    val = estimate_embedding_constant(mesh, ops, 2.0)
    assert val == pytest.approx(2.0 / (math.pi * math.sqrt(5.0)), rel=0.02)


def test_embedding_nonincreasing_under_refinement():
    # the nodal lk bounds int |u_h|^k from above, and B_h comes down to B
    # under refinement: 0.710155, 0.709910, 0.709848 on 16, 32, 64 cells
    vals = []
    for res in (16, 32, 64):
        mesh = interval_mesh(res)
        ops = assemble(mesh)
        vals.append(estimate_embedding_constant(mesh, ops, 4.0))
    assert vals[0] >= vals[1] >= vals[2]


def test_trace_constant_1d_closed_form():
    # sup u(L)^2 / int u'^2 = L, attained by u = x, which P1 contains: the
    # discrete constant is sqrt(L) up to roundoff
    for length in (1.0, 2.0):
        mesh = interval_mesh(64, length=length)
        ops = assemble(mesh)
        assert estimate_trace_constant(mesh, ops) == pytest.approx(math.sqrt(length), rel=1e-12)


def test_trace_constant_2d_steklov_closed_form():
    # unit square, Dirichlet on left/bottom/top, acoustic on the right: the
    # trace quotient is maximized by the separable Steklov mode
    # sinh(pi x) sin(pi y), giving sup^2 = tanh(pi)/pi
    mesh = square_mesh(16)
    ops = assemble(mesh)
    val = estimate_trace_constant(mesh, ops)
    assert val == pytest.approx(math.sqrt(math.tanh(math.pi) / math.pi), rel=0.01)


def test_trace_sup_dominates_interior_candidate():
    mesh = interval_mesh(64)
    ops = assemble(mesh)
    best = estimate_trace_constant(mesh, ops)
    # bump supported away from the acoustic end gives quotient 0
    u = np.sin(np.pi * mesh.nodes[:, 0]) ** 2
    u[mesh.gamma0_nodes] = 0.0
    u[mesh.gamma1_nodes] = 0.0
    from viscowave import grad_norm_sq, trace_norm_sq

    q = math.sqrt(trace_norm_sq(ops, u)) / math.sqrt(grad_norm_sq(ops, u))
    assert q == 0.0 < best


def test_empty_acoustic_boundary_has_trace_constant_zero(tmp_path):
    # the sup over an empty boundary is 0; the retired ascent reported the
    # 1e-300 floor of its objective, c_bar_star = 1e-150
    from viscowave import cli

    config = cli.parse_config(json.dumps({
        "domain": {"gamma1_faces": [], "resolution": [16]},
        "stepping": {"t_end": 0.1},
    }))
    cli.run_scenario(config, out_dir=tmp_path / "run")
    saved = json.loads((tmp_path / "run" / "well_constants.json").read_text())
    assert saved["c_bar_star"] == 0.0
    mesh = interval_mesh(16, gamma1=())
    with pytest.raises(ValueError, match="nonempty acoustic boundary"):
        estimate_trace_constant(mesh, assemble(mesh))


def test_b_omega_reductions():
    mesh = interval_mesh(64)
    p1 = default_params(kappa=1.0, b=1.0)
    ops = assemble(mesh)
    # the embedding ascent supplies both the constant and its best iterate
    u_star, diag = stableset._ascend(ops, stableset._free_stiffness_lu(ops),
                                     stableset._embedding_objective(ops, 4.0), 2024,
                                     stableset._N_STARTS)
    s4 = diag.value
    assert s4 == estimate_embedding_constant(mesh, ops, 4.0)
    b1, info1 = estimate_B_Omega(mesh, ops, p1, l_value=1.0, s_k=s4, u_star=u_star)
    assert b1 == pytest.approx(s4, rel=1e-12)  # kappa > 0: S_k / sqrt(l)
    assert info1["verified"]

    p0 = default_params(kappa=0.0, b=3.0)
    ops0 = assemble(mesh)
    b0, _ = estimate_B_Omega(mesh, ops0, p0, l_value=1.0, s_k=s4, u_star=u_star)
    assert b0 == pytest.approx(s4 / 2.0, rel=1e-12)  # sqrt(l + b) = 2

    # larger l strictly shrinks B
    b_bigger_l, _ = estimate_B_Omega(mesh, ops, p1, l_value=2.0, s_k=s4, u_star=u_star)
    assert b_bigger_l < b1


def test_initial_membership_examples(mesh64, ops64):
    params = default_params()
    kernel = exp_kernel()
    constants = compute_well_constants(mesh64, ops64, params, kernel)
    z = np.zeros(mesh64.n_nodes)

    rep0 = check_initial_membership(z, z, np.zeros(1), constants, ops64, params, kernel)
    assert rep0.in_well
    assert rep0.E0 == 0.0 and rep0.gamma0 == 0.0

    # the hand-evaluated u0 = x configuration: E0 = 1.25 - lk/4 with lk the
    # trapezoid sum of x^4, gamma0 = sqrt(1.5); in the well iff both strict
    # inequalities hold, and E0 exceeds this mesh's well depth d1 ~ 0.985
    u0 = mesh64.nodes[:, 0].copy()
    lk = trapezoid_x4(1.0 / 64)
    rep1 = check_initial_membership(u0, z, np.zeros(1), constants, ops64, params, kernel)
    assert rep1.E0 == pytest.approx(1.25 - lk / 4, rel=1e-12)
    assert rep1.gamma0 == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert not rep1.in_well

    rep2 = check_initial_membership(0.1 * u0, z, np.zeros(1), constants, ops64, params, kernel)
    assert rep2.E0 == pytest.approx(0.01002, rel=1e-3)
    assert rep2.gamma0 == pytest.approx(0.10025, rel=1e-3)
    assert rep2.in_well


def test_invariance_verdicts(mesh64, ops64):
    params = default_params()
    kernel = exp_kernel()
    constants = compute_well_constants(mesh64, ops64, params, kernel)
    z = np.zeros(mesh64.n_nodes)

    zero_traj = run(z, z, np.zeros(1), ops64, kernel, params,
                    StepperConfig(dt=1e-3, t_end=0.05, record_every=10))
    assert verify_invariance(zero_traj, constants).passed

    u0 = sine_profile(mesh64, 0.4)
    traj = run(u0, z, np.zeros(1), ops64, kernel, params,
               StepperConfig(dt=2e-3, t_end=5.0, record_every=50))
    verdict = verify_invariance(traj, constants)
    assert verdict.passed
    assert verdict.max_gamma_ratio < 1.0
    assert verdict.max_energy_ratio < 1.0

    # tamper with one record: scaled far out of the well
    bad = dataclasses.replace(traj.reports[3], total=traj.reports[3].total * 100,
                              gamma_fn=traj.reports[3].gamma_fn * 100)
    traj.reports[3] = bad
    verdict2 = verify_invariance(traj, constants)
    assert not verdict2.passed
    assert verdict2.first_violation_time == pytest.approx(traj.times[3])


def test_ascent_evaluates_each_iterate_once():
    mesh = interval_mesh(32)
    ops = assemble(mesh)
    objective = stableset._embedding_objective(ops, 4.0)
    calls = []

    def counted(u):
        out = objective(u)
        calls.append((u.tobytes(), out[0]))
        return out

    _, diag = stableset._ascend(ops, stableset._free_stiffness_lu(ops), counted,
                                seed=5, n_starts=3)
    # one evaluation per start plus one per line-search trial, and every
    # iteration makes at least one trial
    assert len(calls) == sum(diag.evaluations)
    assert all(e >= 1 + it for e, it in zip(diag.evaluations, diag.iterations))
    # a trial is accepted when it raises the start's best value; the next
    # call must be a new trial, not the accepted point evaluated again
    pos = 0
    for n_eval in diag.evaluations:
        group = calls[pos:pos + n_eval]
        pos += n_eval
        best = group[0][1]
        for (point, value), (next_point, _) in zip(group[1:], group[2:]):
            if value > best:
                best = value
                assert next_point != point


def test_well_constants_run_eight_starts_and_one_trace_solve_and_verify_the_best(monkeypatch):
    mesh = interval_mesh(32)
    params = default_params()
    ops = assemble(mesh)
    ascents, traces, verified = [], [], []
    ascend, trace, estimate = (stableset._ascend, stableset._trace_constant,
                               stableset.estimate_B_Omega)

    def spy_ascend(ops, lu, objective, seed, n_starts, *args, **kwargs):
        out = ascend(ops, lu, objective, seed, n_starts, *args, **kwargs)
        ascents.append((n_starts, out))
        return out

    def spy_trace(*args, **kwargs):
        traces.append(trace(*args, **kwargs))
        return traces[-1]

    def spy_estimate(*args, **kwargs):
        verified.append(kwargs.get("u_star"))
        return estimate(*args, **kwargs)

    monkeypatch.setattr(stableset, "_ascend", spy_ascend)
    monkeypatch.setattr(stableset, "_trace_constant", spy_trace)
    monkeypatch.setattr(stableset, "estimate_B_Omega", spy_estimate)
    constants = stableset.compute_well_constants(mesh, ops, params, exp_kernel())
    assert [n for n, _ in ascents] == [8]  # embedding only
    assert traces == [constants.c_bar_star]
    assert constants.diagnostics["trace"] == {"method": "exact", "iterations": [0]}
    u_best, emb_diag = ascents[0][1]
    assert verified == [u_best]
    assert verified[0] is u_best
    assert emb_diag.value == max(emb_diag.start_values) == constants.c_star
    ln_val, _ = stableset._embedding_objective(ops, params.k_exp)(u_best)
    assert math.exp(ln_val) == constants.c_star


MESHES = {"1d-32": lambda: interval_mesh(32), "2d-8x8": lambda: square_mesh(8)}


def _trace_oracle_objective(ops):
    """Objective of the retired trace ascent, the oracle for the exact trace
    constant: ln sqrt(w . u_g^2) and its gradient, for ``stableset._ascend``
    (which keeps u^T K u = 1)."""
    g1 = ops.mesh.gamma1_nodes
    w = ops.mesh.gamma1_weights

    def log_num_grad(u):
        num = max(float(w @ (u[g1] * u[g1])), 1e-300)
        grad = np.zeros(len(u))
        grad[g1] = w * u[g1] / num
        return 0.5 * math.log(num), grad

    return log_num_grad


def _objective(ops, which):
    if which == "embedding":
        return stableset._embedding_objective(ops, 4.0)
    return _trace_oracle_objective(ops)


@pytest.mark.parametrize("stop", ["stationary", "exhausted"])
@pytest.mark.parametrize("which", ["embedding", "trace"])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_every_start_stops_stationary_or_with_an_exhausted_line_search(mesh_name, which, stop,
                                                                       monkeypatch):
    if stop == "exhausted":  # no stationary stop: only the line-search fallback ends a start
        monkeypatch.setattr(stableset, "_STATIONARY_TOL", 0.0)
    mesh = MESHES[mesh_name]()
    ops = assemble(mesh)
    objective = _objective(ops, which)
    calls = []

    def recorded(u):
        ln_val, grad = objective(u)
        calls.append((u.copy(), ln_val, grad))
        return ln_val, grad

    lu = stableset._free_stiffness_lu(ops)
    _, diag = stableset._ascend(ops, lu, recorded, seed=3, n_starts=8)
    assert diag.all_converged
    K = ops.stiffness

    def k_norm(w):
        return math.sqrt(w @ (K @ w))

    pos = 0
    stationary = 0
    for n_eval, steps in zip(diag.evaluations, diag.iterations):
        group = calls[pos:pos + n_eval]
        pos += n_eval
        # a trial is accepted exactly when it raises the start's value
        accepted = [0]
        for i in range(1, n_eval):
            if group[i][1] > group[accepted[-1]][1]:
                accepted.append(i)
        assert steps == len(accepted) - 1
        u, _, grad = group[accepted[-1]]
        d = stableset._ascent_direction(ops, lu, u, K @ u, grad)
        if accepted[-1] == n_eval - 1:
            # stopped before any trial at its last iterate
            assert k_norm(d) < stableset._STATIONARY_TOL
            stationary += 1
        else:
            # every trial after the last step was rejected, down to a step
            # of at most 2e-14 along d (plus the roundoff of renormalizing)
            assert k_norm(group[-1][0] - u) <= 3e-14 * k_norm(d) + 1e-14
    assert stationary == (len(diag.evaluations) if stop == "stationary" else 0)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_stationary_stop_matches_an_ascent_run_to_exhaustion(mesh_name, monkeypatch):
    mesh = MESHES[mesh_name]()
    params = default_params()
    ops = assemble(mesh)
    stopped = compute_well_constants(mesh, ops, params, exp_kernel())
    monkeypatch.setattr(stableset, "_STATIONARY_TOL", 0.0)
    exhausted = compute_well_constants(mesh, ops, params, exp_kernel())
    assert stopped.c_star == pytest.approx(exhausted.c_star, rel=1e-14, abs=0.0)
    assert stopped.c_bar_star == exhausted.c_bar_star  # exact: no ascent, no stop rule
    assert (sum(stopped.diagnostics["embedding"]["evaluations"])
            < sum(exhausted.diagnostics["embedding"]["evaluations"]))


def test_one_stiffness_factorisation_per_well_constants(monkeypatch):
    factors, options, used = [], [], []
    splu, ascend, trace = stableset.splu, stableset._ascend, stableset._trace_constant

    def spy_splu(matrix, **kwargs):
        options.append(kwargs)
        factors.append(splu(matrix, **kwargs))
        return factors[-1]

    def spy_ascend(ops, lu, *args, **kwargs):
        used.append(("ascent", lu))
        return ascend(ops, lu, *args, **kwargs)

    def spy_trace(ops, lu):
        used.append(("trace", lu))
        return trace(ops, lu)

    monkeypatch.setattr(stableset, "splu", spy_splu)
    monkeypatch.setattr(stableset, "_ascend", spy_ascend)
    monkeypatch.setattr(stableset, "_trace_constant", spy_trace)
    mesh = square_mesh(8)
    params = default_params()
    ops = assemble(mesh)
    compute_well_constants(mesh, ops, params, exp_kernel())
    assert len(factors) == 1
    assert options == [{"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                        "options": {"SymmetricMode": True}}]
    assert [name for name, _ in used] == ["ascent", "trace"]
    assert all(lu is factors[0] for _, lu in used)
    n_free = len(mesh.free_nodes)
    assert factors[0].shape == (n_free, n_free)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_free_stiffness_factor_solves_k_to_roundoff(mesh_name):
    mesh = MESHES[mesh_name]()
    ops = assemble(mesh)
    free = mesh.free_nodes
    k_free = ops.stiffness[np.ix_(free, free)]
    b = np.random.default_rng(4).standard_normal(len(free))
    x = stableset._free_stiffness_lu(ops).solve(b)
    assert np.linalg.norm(k_free @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_ascent_makes_one_stiffness_product_per_start_and_per_direction(mesh_name):
    # K u travels with u: a start's K u, then one K d per direction, and the
    # line-search trials reuse both
    mesh = MESHES[mesh_name]()
    ops = assemble(mesh)
    lu = stableset._free_stiffness_lu(ops)
    stiffness = CountingMatrix(ops.stiffness)
    counted = dataclasses.replace(ops, stiffness=stiffness)
    u_best, diag = stableset._ascend(counted, lu, stableset._embedding_objective(counted, 4.0),
                                     seed=3, n_starts=8)
    assert diag.all_converged
    # a converged start evaluates one direction per accepted step plus the
    # one it stops on
    directions = sum(steps + 1 for steps in diag.iterations)
    assert stiffness.products == len(diag.iterations) + directions
    assert max(diag.evaluations) > 2  # line searches did make trials
    # the carried K u has not drifted: the best iterate is on the sphere
    assert abs(u_best @ (ops.stiffness @ u_best) - 1.0) <= 1e-12
    same_u, same = stableset._ascend(ops, lu, stableset._embedding_objective(ops, 4.0),
                                     seed=3, n_starts=8)
    assert same == diag
    assert same_u.tobytes() == u_best.tobytes()


TRACE_MESHES = {**MESHES, "2d-16x16-steklov": lambda: square_mesh(16)}


@pytest.mark.parametrize("mesh_name", sorted(TRACE_MESHES))
def test_exact_trace_constant_bounds_and_matches_the_oracle_ascent(mesh_name):
    mesh = TRACE_MESHES[mesh_name]()
    ops = assemble(mesh)
    lu = stableset._free_stiffness_lu(ops)
    exact = stableset._trace_constant(ops, lu)
    _, oracle = stableset._ascend(ops, lu, _trace_oracle_objective(ops), seed=2024, n_starts=8)
    assert oracle.all_converged
    # no start beats the exact sup; the ascent's values carry the roundoff of
    # renormalizing to u^T K u = 1 (up to 8e-15 relative seen), hence 1e-14
    assert all(v <= exact * (1.0 + 1e-14) for v in oracle.start_values)
    assert exact == pytest.approx(oracle.value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kappa, b", [(1.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_closed_form_amplitude_sweep_matches_the_direct_quotient(mesh_name, kappa, b,
                                                                 monkeypatch):
    mesh = MESHES[mesh_name]()
    params = default_params(kappa=kappa, b=b)
    ops = assemble(mesh)
    kernel = exp_kernel()
    swept = []
    sweep = stableset._amplitude_quotients

    def spy(ops, params, l_value, u):
        q = sweep(ops, params, l_value, u)
        swept.append((u, q))
        return q

    monkeypatch.setattr(stableset, "_amplitude_quotients", spy)
    constants = compute_well_constants(mesh, ops, params, kernel)
    assert len(swept) == 4  # the ascent's best iterate and three random fields
    from viscowave import grad_norm_sq, lk_norm_pow

    k, c_b = params.k_exp, params.b / (params.kappa + 1.0)
    for u, q in swept:
        direct = []
        for amp in np.geomspace(1e-8, 10.0, 40):
            gns = grad_norm_sq(ops, amp * u)
            den = kernel.l_value * gns + c_b * gns ** (params.kappa + 1.0)
            direct.append(lk_norm_pow(ops, amp * u, k) ** (1.0 / k) / math.sqrt(den))
        np.testing.assert_allclose(q, direct, rtol=1e-13, atol=0.0)
    info = constants.diagnostics["b_omega_verification"]
    assert info["verified"]
    assert info["finite_amplitude_max"] == max(q.max() for _, q in swept)
