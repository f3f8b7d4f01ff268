import math

import numpy as np
import pytest

from viscowave import HistoryBuffer, assemble, build_kernel, make_rate

from conftest import exp_kernel, interval_mesh
from history_oracle import FullHistory


def _push_series(buffer, K, times, u_of_t):
    for t in times:
        u = u_of_t(t)
        buffer.push(t, u, K @ u)


def test_first_push_and_monotonicity():
    buf = HistoryBuffer(exp_kernel(), n_dofs=3)
    with pytest.raises(ValueError, match="start at t = 0"):
        buf.push(0.5, np.zeros(3), np.zeros(3))
    buf.push(0.0, np.zeros(3), np.zeros(3))
    assert buf.n_entries == 1
    with pytest.raises(ValueError, match="non-monotone"):
        buf.push(0.0, np.zeros(3), np.zeros(3))


def test_empty_history_quantities_vanish():
    mesh = interval_mesh(8)
    ops = assemble(mesh)
    buf = HistoryBuffer(exp_kernel(), mesh.n_nodes)
    u = mesh.nodes[:, 0].copy()
    buf.push(0.0, u, ops.stiffness @ u)
    assert np.all(buf.convolution_force(0.0) == 0.0)
    assert buf.g_diamond(0.0, u) == 0.0
    assert buf.g_prime_diamond(0.0, u) == 0.0


def test_fast_path_constant_history_closed_form():
    # constant Ku = c: int_0^t g0 e^{-a(t-s)} c ds = c g0 (1 - e^{-a t})/a
    alpha, g0 = 2.0, 1.5
    kernel = build_kernel(make_rate("constant", alpha), g0, a=5.0)
    buf = HistoryBuffer(kernel, 1)
    dt, n = 1e-3, 400
    c = 0.7
    for i in range(n + 1):
        buf.push(i * dt, np.array([1.0]), np.array([c]))
    t = n * dt
    expect = c * g0 * (1.0 - math.exp(-alpha * t)) / alpha
    assert buf.convolution_force(t)[0] == pytest.approx(expect, rel=1e-6)


def test_convolution_constant_in_time_factorizes():
    # u(s) = const: force = (int_0^t g) K u
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    buf = HistoryBuffer(kernel, mesh.n_nodes, horizon=2.0)
    u = np.sin(np.pi * mesh.nodes[:, 0])
    ku = ops.stiffness @ u
    times = np.linspace(0.0, 2.0, 2001)
    for t in times:
        buf.push(t, u, ku)
    force = buf.convolution_force(2.0)
    assert np.allclose(force, kernel.partial_mass(2.0) * ku, rtol=1e-6)
    # constant history has zero increments (up to roundoff in the expansion)
    assert buf.g_diamond(2.0, u) == pytest.approx(0.0, abs=1e-12)
    assert buf.g_prime_diamond(2.0, u) == pytest.approx(0.0, abs=1e-12)


def test_linear_history_closed_forms():
    # g = e^{-tau}, u(s) = s w:
    #   conv force  = (t - 1 + e^{-t}) K w
    #   g o grad u  = (2 - e^{-t}(t^2 + 2t + 2)) |grad w|^2
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    kernel = exp_kernel(alpha=1.0, g0=1.0, a=2.0)
    w = np.sin(np.pi * mesh.nodes[:, 0])
    w[mesh.gamma0_nodes] = 0.0
    kw = ops.stiffness @ w
    gw2 = float(w @ kw)

    t_end, dt = 1.5, 1e-3
    times = np.arange(0.0, t_end + dt / 2, dt)
    for make in (HistoryBuffer, FullHistory):
        buf = make(kernel, mesh.n_nodes)
        _push_series(buf, ops.stiffness, times, lambda t: t * w)
        force = buf.convolution_force(t_end)
        expect = (t_end - 1.0 + math.exp(-t_end)) * kw
        assert np.allclose(force, expect, rtol=1e-5, atol=1e-12)
        gd = buf.g_diamond(t_end, t_end * w)
        expect_gd = (2.0 - math.exp(-t_end) * (t_end**2 + 2 * t_end + 2)) * gw2
        assert gd == pytest.approx(expect_gd, rel=1e-5)
        # constant-rate kernel: g' = -alpha g pointwise, so the rate form
        # is exactly -alpha times the plain form
        assert buf.g_prime_diamond(t_end, t_end * w) == pytest.approx(-gd, rel=1e-9)


def test_diamond_signs_for_random_history():
    mesh = interval_mesh(12)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 2.0)
    buf = HistoryBuffer(kernel, mesh.n_nodes)
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 101)
    u = None
    for t in times:
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        buf.push(t, u, ops.stiffness @ u)
    assert buf.g_diamond(1.0, u) >= 0.0
    assert buf.g_prime_diamond(1.0, u) <= 0.0


def test_fast_path_equals_full_trapezoid():
    # cross-validation on a 100-step horizon; both paths implement the same
    # trapezoid sum, so agreement is far below the 1e-6 requirement
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    kernel = exp_kernel(alpha=1.3, g0=0.8, a=2.0)
    fast = HistoryBuffer(kernel, mesh.n_nodes)
    full = FullHistory(kernel, mesh.n_nodes)
    rng = np.random.default_rng(11)
    dt = 5e-3
    u = None
    for i in range(101):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        ku = ops.stiffness @ u
        fast.push(i * dt, u, ku)
        full.push(i * dt, u, ku)
    t = 100 * dt
    f1, f2 = fast.convolution_force(t), full.convolution_force(t)
    scale = np.abs(f2).max()
    assert np.abs(f1 - f2).max() <= 1e-6 * scale
    assert fast.g_diamond(t, u) == pytest.approx(full.g_diamond(t, u), rel=1e-9)


def test_quadrature_second_order_in_dt():
    # error against the closed-form linear-history force drops ~4x per halving
    mesh = interval_mesh(8)
    ops = assemble(mesh)
    kernel = exp_kernel()
    w = np.sin(np.pi * mesh.nodes[:, 0])
    w[mesh.gamma0_nodes] = 0.0
    kw = ops.stiffness @ w
    t_end = 1.0
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        buf = HistoryBuffer(kernel, mesh.n_nodes)
        times = np.arange(0.0, t_end + dt / 2, dt)
        _push_series(buf, ops.stiffness, times, lambda t: (t**3) * w)
        force = buf.convolution_force(t_end)
        # int_0^t e^{-(t-s)} s^3 ds = t^3 - 3 t^2 + 6 t - 6 + 6 e^{-t}
        coef = t_end**3 - 3 * t_end**2 + 6 * t_end - 6 + 6 * math.exp(-t_end)
        errs.append(np.abs(force - coef * kw).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_diamond_invariant_under_constant_shift():
    mesh = interval_mesh(10)
    ops = assemble(mesh)
    kernel = exp_kernel()
    rng = np.random.default_rng(5)
    shift = rng.standard_normal(mesh.n_nodes)
    shift[mesh.gamma0_nodes] = 0.0
    times = np.linspace(0.0, 0.5, 51)
    snaps = []
    for t in times:
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        snaps.append(u)
    vals = []
    for offset in (np.zeros(mesh.n_nodes), shift):
        buf = HistoryBuffer(kernel, mesh.n_nodes)
        for t, u in zip(times, snaps):
            v = u + offset
            buf.push(t, v, ops.stiffness @ v)
        vals.append(buf.g_diamond(times[-1], snaps[-1] + offset))
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)


FAMILIES = [("constant", 1.3, 0.0, 2.0), ("power_law", 2.0, 0.0, 3.0),
            ("oscillatory", 1.0, 0.5, 2.0)]


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_exp_sum_buffer_matches_full_trapezoid(family, alpha, eps, a):
    # random history with a change of step: the recursion must equal the
    # trapezoid sum with the exact g up to the expansion's certified error
    # times the trapezoid mass of each quantity, plus roundoff
    mesh = interval_mesh(12)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate(family, alpha, eps), 0.9, a)
    times = np.concatenate([np.linspace(0.0, 1.0, 201), np.linspace(1.01, 3.0, 200)])
    buf = HistoryBuffer(kernel, mesh.n_nodes, horizon=times[-1])
    oracle = FullHistory(kernel, mesh.n_nodes)
    rng = np.random.default_rng(17)
    snaps = []
    for t in times:
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        snaps.append((u, ops.stiffness @ u))
        buf.push(t, u, snaps[-1][1])
        oracle.push(t, u, snaps[-1][1])
    t = times[-1]
    u_now = snaps[-1][0]
    err = buf.expansion.rel_error

    w = np.array([(times[min(i + 1, len(times) - 1)] - times[max(i - 1, 0)]) / 2.0
                  for i in range(len(times))])
    gw, gpw = w * kernel.g(t - times), w * np.abs(kernel.g_prime(t - times))
    ku_abs = np.abs(np.array([ku for _, ku in snaps]))
    force_mass = gw @ ku_abs
    force = buf.convolution_force(t)
    assert np.all(np.abs(force - oracle.convolution_force(t))
                  <= err * force_mass + 1e-13 * force_mass.max())

    # scale of the cancelling terms in |grad(u(t) - u(s))|^2 = q_now - 2 u.Ku + q
    terms = np.array([abs(u_now @ snaps[-1][1]) + 2 * abs(u_now @ ku) + abs(u @ ku)
                      for u, ku in snaps])
    for got, want, wt in ((buf.g_diamond(t, u_now), oracle.g_diamond(t, u_now), gw),
                          (buf.g_prime_diamond(t, u_now), oracle.g_prime_diamond(t, u_now), gpw)):
        assert abs(got - want) <= err * abs(want) + 1e-13 * (wt @ terms)


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_history_memory_flat_in_pushes(family, alpha, eps, a):
    kernel = build_kernel(make_rate(family, alpha, eps), 1.0, a)
    buf = HistoryBuffer(kernel, 9, horizon=10.0)
    held = {}
    for i in range(801):
        u = np.full(9, math.sin(i))
        buf.push(i * 1e-2, u, 2.0 * u)
        if i in (400, 800):
            held[i] = buf.bytes_held
    assert buf.n_entries == 801
    assert held[400] == held[800] > 0
    assert buf.diagnostics() == {"n_terms": buf.expansion.n_terms, "bytes_held": held[800],
                                 "certified_rel_error": buf.expansion.rel_error}


def test_push_past_certified_horizon_rejected():
    kernel = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    buf = HistoryBuffer(kernel, 2, horizon=1.0)
    buf.push(0.0, np.zeros(2), np.zeros(2))
    buf.push(1.0, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="horizon"):
        buf.push(1.5, np.ones(2), np.ones(2))
