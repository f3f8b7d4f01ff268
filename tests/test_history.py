import math
import tracemalloc

import numpy as np
import pytest

from viscowave import HistoryBuffer, assemble, assembly, build_kernel, make_rate
from viscowave.history import BLOCK_STEPS

from conftest import as_dia_matrix, exp_kernel, interval_mesh, square_mesh
from history_oracle import FullHistory


def _push_series(buffer, K, times, u_of_t):
    for t in times:
        u = u_of_t(t)
        ku = K @ u
        buffer.push(u, ku, u @ ku)


def test_empty_history_quantities_vanish():
    mesh = interval_mesh(8)
    ops = assemble(mesh)
    u = mesh.nodes[:, 0].copy()
    ku = as_dia_matrix(ops.stiffness) @ u
    # one exponential, and a sum of many whose read weights cancel only
    # up to roundoff at t = 0
    for kernel in (exp_kernel(), build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 2.0)):
        buf = HistoryBuffer(kernel, mesh.n_nodes, 1e-3, 10)
        buf.push(u, ku, u @ ku)
        assert np.all(buf.convolution_force(0.0, np.empty(mesh.n_nodes)) == 0.0)
        assert buf.g_diamond() == 0.0
        assert buf.g_prime_diamond() == 0.0


def test_fast_path_constant_history_closed_form():
    # constant Ku = c: int_0^t g0 e^{-a(t-s)} c ds = c g0 (1 - e^{-a t})/a
    alpha, g0 = 2.0, 1.5
    kernel = build_kernel(make_rate("constant", alpha), g0, a=5.0)
    dt, n = 1e-3, 400
    buf = HistoryBuffer(kernel, 1, dt, n)
    c = 0.7
    for _ in range(n + 1):
        buf.push(np.array([1.0]), np.array([c]), c)
    t = n * dt
    expect = c * g0 * (1.0 - math.exp(-alpha * t)) / alpha
    assert buf.convolution_force(0.0, np.empty(1))[0] == pytest.approx(expect, rel=1e-6)


def test_convolution_constant_in_time_factorizes():
    # u(s) = const: force = (int_0^t g) K u
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    buf = HistoryBuffer(kernel, mesh.n_nodes, 1e-3, 2000)
    u = np.sin(np.pi * mesh.nodes[:, 0])
    ku = as_dia_matrix(ops.stiffness) @ u
    for _ in range(2001):
        buf.push(u, ku, u @ ku)
    force = buf.convolution_force(0.0, np.empty(mesh.n_nodes))
    assert np.allclose(force, kernel.partial_mass(2.0) * ku, rtol=1e-6)
    # constant history has zero increments (up to roundoff in the expansion)
    assert buf.g_diamond() == pytest.approx(0.0, abs=1e-12)
    assert buf.g_prime_diamond() == pytest.approx(0.0, abs=1e-12)


def test_linear_history_closed_forms():
    # g = e^{-tau}, u(s) = s w:
    #   conv force  = (t - 1 + e^{-t}) K w
    #   g o grad u  = (2 - e^{-t}(t^2 + 2t + 2)) |grad w|^2
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    kernel = exp_kernel(alpha=1.0, g0=1.0, a=2.0)
    w = np.sin(np.pi * mesh.nodes[:, 0])
    w[mesh.gamma0_nodes] = 0.0
    kw = as_dia_matrix(ops.stiffness) @ w
    gw2 = float(w @ kw)

    t_end, dt, n = 1.5, 1e-3, 1500
    times = dt * np.arange(n + 1)
    for make in (HistoryBuffer, FullHistory):
        buf = make(kernel, mesh.n_nodes, dt, n)
        _push_series(buf, as_dia_matrix(ops.stiffness), times, lambda t: t * w)
        force = buf.convolution_force(0.0, np.empty(mesh.n_nodes))
        expect = (t_end - 1.0 + math.exp(-t_end)) * kw
        assert np.allclose(force, expect, rtol=1e-5, atol=1e-12)
        gd = buf.g_diamond()
        expect_gd = (2.0 - math.exp(-t_end) * (t_end**2 + 2 * t_end + 2)) * gw2
        assert gd == pytest.approx(expect_gd, rel=1e-5)
        # constant-rate kernel: g' = -alpha g pointwise, so the rate form
        # is exactly -alpha times the plain form
        assert buf.g_prime_diamond() == pytest.approx(-gd, rel=1e-9)


def test_diamond_signs_for_random_history():
    mesh = interval_mesh(12)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 2.0)
    buf = HistoryBuffer(kernel, mesh.n_nodes, 1e-2, 100)
    rng = np.random.default_rng(3)
    u = None
    for _ in range(101):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        ku = as_dia_matrix(ops.stiffness) @ u
        buf.push(u, ku, u @ ku)
    assert buf.g_diamond() >= 0.0
    assert buf.g_prime_diamond() <= 0.0


def test_fast_path_equals_full_trapezoid():
    # cross-validation on a 100-step horizon; both paths implement the same
    # trapezoid sum, so agreement is far below the 1e-6 requirement
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    kernel = exp_kernel(alpha=1.3, g0=0.8, a=2.0)
    fast = HistoryBuffer(kernel, mesh.n_nodes, 5e-3, 100)
    full = FullHistory(kernel, mesh.n_nodes, 5e-3, 100)
    rng = np.random.default_rng(11)
    u = None
    for _ in range(101):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        ku = as_dia_matrix(ops.stiffness) @ u
        fast.push(u, ku, u @ ku)
        full.push(u, ku, u @ ku)
    f1, f2 = (h.convolution_force(0.0, np.empty(mesh.n_nodes)) for h in (fast, full))
    scale = np.abs(f2).max()
    assert np.abs(f1 - f2).max() <= 1e-6 * scale
    assert fast.g_diamond() == pytest.approx(full.g_diamond(), rel=1e-9)


def test_quadrature_second_order_in_dt():
    # error against the closed-form linear-history force drops ~4x per halving
    mesh = interval_mesh(8)
    ops = assemble(mesh)
    kernel = exp_kernel()
    w = np.sin(np.pi * mesh.nodes[:, 0])
    w[mesh.gamma0_nodes] = 0.0
    kw = as_dia_matrix(ops.stiffness) @ w
    t_end = 1.0
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = round(t_end / dt)
        buf = HistoryBuffer(kernel, mesh.n_nodes, dt, n)
        times = dt * np.arange(n + 1)
        _push_series(buf, as_dia_matrix(ops.stiffness), times, lambda t: (t**3) * w)
        force = buf.convolution_force(0.0, np.empty(mesh.n_nodes))
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
    snaps = []
    for _ in range(51):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        snaps.append(u)
    vals = []
    for offset in (np.zeros(mesh.n_nodes), shift):
        buf = HistoryBuffer(kernel, mesh.n_nodes, 1e-2, 50)
        for u in snaps:
            v = u + offset
            kv = as_dia_matrix(ops.stiffness) @ v
            buf.push(v, kv, v @ kv)
        vals.append(buf.g_diamond())
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)


FAMILIES = [("constant", 1.3, 0.0, 2.0), ("power_law", 2.0, 0.0, 3.0),
            ("oscillatory", 1.0, 0.5, 2.0)]


@pytest.mark.parametrize("family,alpha,eps,a,dim", [
    pytest.param(*f, dim, id=f[0] if dim == 1 else f"{f[0]}-2d") for dim in (1, 2) for f in FAMILIES
])
def test_exp_sum_buffer_matches_full_trapezoid(family, alpha, eps, a, dim):
    # random history on a uniform grid over [0, 3]: the recursion must
    # equal the trapezoid sum with the exact g up to the expansion's
    # certified error times the trapezoid mass of each quantity, plus
    # roundoff; in 2D on a square with the right face acoustic
    mesh = interval_mesh(12) if dim == 1 else square_mesh(8)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate(family, alpha, eps), 0.9, a)
    dt, n = 5e-3, 600
    times = dt * np.arange(n + 1)
    buf = HistoryBuffer(kernel, mesh.n_nodes, dt, n)
    oracle = FullHistory(kernel, mesh.n_nodes, dt, n)
    rng = np.random.default_rng(17)
    snaps = []
    for _ in times:
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        snaps.append((u, as_dia_matrix(ops.stiffness) @ u))
        buf.push(u, snaps[-1][1], u @ snaps[-1][1])
        oracle.push(u, snaps[-1][1], u @ snaps[-1][1])
    t = times[-1]
    u_now = snaps[-1][0]
    err = buf.expansion.rel_error

    w = np.array([(times[min(i + 1, len(times) - 1)] - times[max(i - 1, 0)]) / 2.0
                  for i in range(len(times))])
    gw, gpw = w * kernel.g(t - times), w * np.abs(kernel.g_prime(t - times))
    ku_abs = np.abs(np.array([ku for _, ku in snaps]))
    force_mass = gw @ ku_abs
    force = buf.convolution_force(0.0, np.empty(mesh.n_nodes))
    assert np.all(np.abs(force - oracle.convolution_force(0.0, np.empty(mesh.n_nodes)))
                  <= err * force_mass + 1e-13 * force_mass.max())

    # scale of the cancelling terms in |grad(u(t) - u(s))|^2 = q_now - 2 u.Ku + q
    terms = np.array([abs(u_now @ snaps[-1][1]) + 2 * abs(u_now @ ku) + abs(u @ ku)
                      for u, ku in snaps])
    for got, want, wt in ((buf.g_diamond(), oracle.g_diamond(), gw),
                          (buf.g_prime_diamond(), oracle.g_prime_diamond(), gpw)):
        assert abs(got - want) <= err * abs(want) + 1e-13 * (wt @ terms)


@pytest.mark.parametrize("family,alpha,eps,a,dim", [
    pytest.param(*f, dim, id=f[0] if dim == 1 else f"{f[0]}-2d") for dim in (1, 2) for f in FAMILIES
])
def test_every_block_position_matches_full_trapezoid(family, alpha, eps, a, dim):
    # 2B + 5 pushes read every in-block position and the reads after two
    # folds; the force and both functionals are checked at every push, with
    # g' o grad u read first at every third, at the tolerance of the
    # full-horizon comparison above
    mesh = interval_mesh(12) if dim == 1 else square_mesh(8)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate(family, alpha, eps), 0.9, a)
    dt, n = 5e-3, 2 * BLOCK_STEPS + 4
    buf = HistoryBuffer(kernel, mesh.n_nodes, dt, n)
    oracle = FullHistory(kernel, mesh.n_nodes, dt, n)
    err = buf.expansion.rel_error
    rng = np.random.default_rng(29)
    snaps = []
    for i in range(n + 1):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        ku = as_dia_matrix(ops.stiffness) @ u
        snaps.append((u, ku))
        buf.push(u, ku, u @ ku)
        oracle.push(u, ku, u @ ku)
        ages = dt * np.arange(i, -1, -1)
        w = np.full(i + 1, dt)
        w[[0, -1]] = dt / 2.0
        gw, gpw = w * kernel.g(ages), w * np.abs(kernel.g_prime(ages))
        force_mass = gw @ np.abs(np.array([s[1] for s in snaps]))
        m = 0.7
        force, want = (h.convolution_force(m, np.empty(mesh.n_nodes)) for h in (buf, oracle))
        assert np.all(np.abs(force - want)
                      <= err * force_mass + 1e-13 * (force_mass.max() + m * np.abs(ku).max()))
        terms = np.array([abs(u @ ku) + 2 * abs(u @ s_ku) + abs(s_u @ s_ku) for s_u, s_ku in snaps])
        reads = [(buf.g_diamond, oracle.g_diamond, gw),
                 (buf.g_prime_diamond, oracle.g_prime_diamond, gpw)]
        for got, want, wt in (reads[::-1] if i % 3 == 0 else reads):
            want = want()
            assert abs(got() - want) <= err * abs(want) + 1e-13 * (wt @ terms)


def test_one_term_block_is_the_two_pass_recursion():
    # a constant-rate kernel folds at every push, as C <- d C + r, and
    # reads the force and both functionals bitwise as that recursion does
    kernel = build_kernel(make_rate("constant", 1.3), 0.9, 2.0)
    mesh = interval_mesh(12)
    ops = assemble(mesh)
    dt = 5e-3
    buf = HistoryBuffer(kernel, mesh.n_nodes, dt, 50)
    assert buf.diagnostics()["block_steps"] == 1
    c, s = buf.expansion.coeffs, buf.expansion.rates
    decay = np.exp(-s * dt)[:, None]
    W = np.zeros((2, 2))
    W[0, :-1] = dt * c
    W[1, :-1] = -s * W[0, :-1]
    W[:, -1] = -0.5 * W[:, :-1].sum(axis=1)
    acc = np.zeros((1, mesh.n_nodes + 2))
    rng = np.random.default_rng(31)
    for i in range(50):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        ku = as_dia_matrix(ops.stiffness) @ u
        buf.push(u, ku, u @ ku)
        row = np.concatenate([ku, [u @ ku, 1.0]])
        m = 10.0 ** rng.uniform(-2.0, 3.0)
        if i == 0:  # the empty integrals at t = 0
            np.multiply(row, 0.5, out=acc)
            assert np.array_equal(buf.convolution_force(m, np.empty(mesh.n_nodes)), -m * ku)
            assert buf.g_diamond() == buf.g_prime_diamond() == 0.0
            continue
        acc *= decay
        acc += row
        ext = np.vstack([acc, row])
        assert np.array_equal(buf.convolution_force(m, np.empty(mesh.n_nodes)),
                              np.array([W[0, 0], W[0, -1] - m]) @ ext[:, :-2])
        gd, gpd = W @ (ext @ np.concatenate([-2.0 * u, [1.0, row[-2]]]))
        assert buf.g_diamond() == max(gd, 0.0)
        assert buf.g_prime_diamond() == min(gpd, 0.0)


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_diamonds_keep_their_signs_on_a_history_constant_in_time(family, alpha, eps, a):
    # a constant history has both functionals exactly zero, and the one read
    # of the buffer lands on either side of zero by roundoff (in 36-40%
    # of these reads, down to -6e-13 for g o grad u and up to +8e-13 for
    # g' o grad u); the read clamps them to their signs
    kernel = build_kernel(make_rate(family, alpha, eps), 1.0, a)
    mesh = interval_mesh(16)
    ops = assemble(mesh)
    for seed in range(20):
        u = np.random.default_rng(seed).standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        ku = as_dia_matrix(ops.stiffness) @ u
        buf = HistoryBuffer(kernel, mesh.n_nodes, 1e-2, 50)
        for n in range(1, 51):
            buf.push(u, ku, u @ ku)
            if n >= 3:
                assert buf.g_diamond() >= 0.0
                assert buf.g_prime_diamond() <= 0.0


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_g_prime_diamond_read_first_equals_the_read_after_g_diamond(family, alpha, eps, a):
    # either functional read first after a push makes the one read both share
    kernel = build_kernel(make_rate(family, alpha, eps), 1.0, a)
    mesh = interval_mesh(12)
    ops = assemble(mesh)
    rng = np.random.default_rng(11)
    first, second = (HistoryBuffer(kernel, mesh.n_nodes, 1e-2, 40) for _ in range(2))
    for _ in range(41):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        ku = as_dia_matrix(ops.stiffness) @ u
        first.push(u, ku, u @ ku)
        second.push(u, ku, u @ ku)
        gpd = first.g_prime_diamond()
        gd = second.g_diamond()
        assert gpd == second.g_prime_diamond()
        assert gd == first.g_diamond()
    assert gpd < 0.0 < gd


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_history_memory_flat_in_pushes(family, alpha, eps, a):
    kernel = build_kernel(make_rate(family, alpha, eps), 1.0, a)
    buf = HistoryBuffer(kernel, 9, 1e-2, 1000)
    held = {}
    for i in range(801):
        u = np.full(9, math.sin(i))
        buf.push(u, 2.0 * u, u @ (2.0 * u))
        if i in (400, 800):
            held[i] = buf.bytes_held
    assert buf.n_entries == 801
    assert held[400] == held[800] > 0
    assert buf.diagnostics() == {"n_terms": buf.expansion.n_terms, "bytes_held": held[800],
                                 "block_steps": 1 if family == "constant" else 16,
                                 "certified_rel_error": buf.expansion.rel_error}


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_bytes_held_counts_every_array_of_the_buffer_once(family, alpha, eps, a):
    # views share their base's memory, so each base array counts once
    buf = HistoryBuffer(build_kernel(make_rate(family, alpha, eps), 1.0, a), 9, 0.1, 10)
    for i in range(3):
        buf.push(np.full(9, float(i)), np.full(9, float(i)), 9.0 * i * i)
    buf.convolution_force(0.5, np.empty(9))
    bases = {}
    for name, value in vars(buf).items():
        # the newest pushed state is the caller's array, which the buffer
        # refers to but does not own
        if isinstance(value, np.ndarray) and name != "_u":
            base = value if value.base is None else value.base
            bases[id(base)] = base
    assert buf.bytes_held == sum(b.nbytes for b in bases.values())


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_force_read_takes_the_stiffness_term_on_the_newest_row(family, alpha, eps, a):
    # the Kirchhoff term -m K u(t) rides on the newest row's read weight:
    # exactly -m K u at the first push, where the integral is empty, and
    # the memory force less m K u to roundoff after it, in 1D and 2D
    kernel = build_kernel(make_rate(family, alpha, eps), 0.9, a)
    rng = np.random.default_rng(23)
    for mesh in (interval_mesh(12), square_mesh(8)):
        ops = assemble(mesh)
        buf = HistoryBuffer(kernel, mesh.n_nodes, 5e-3, 200)
        for i in range(201):
            u = rng.standard_normal(mesh.n_nodes)
            u[mesh.gamma0_nodes] = 0.0
            ku = as_dia_matrix(ops.stiffness) @ u
            buf.push(u, ku, u @ ku)
            m = 10.0 ** rng.uniform(-2.0, 3.0)
            fused = buf.convolution_force(m, np.empty(mesh.n_nodes))
            if i == 0:
                assert np.array_equal(fused, -m * ku)
                continue
            memory = buf.convolution_force(0.0, np.empty(mesh.n_nodes))
            scale = np.abs(memory).max() + m * np.abs(ku).max()
            assert np.abs(fused - (memory - m * ku)).max() <= 1e-14 * scale


def test_convolution_force_shares_no_memory_with_the_buffer():
    # the force is written into the caller's array (the stepper's accel
    # slot), and the buffer overwrites its state at the next push
    kernel = build_kernel(make_rate("oscillatory", 1.0, 0.5), 1.0, 2.0)
    for buf in (HistoryBuffer(exp_kernel(), 5, 0.1, 1), HistoryBuffer(kernel, 5, 0.1, 1)):
        for _ in range(2):  # the first push's read and a weighted one
            buf.push(np.ones(5), np.ones(5), 5.0)
            out = np.empty(5)
            force = buf.convolution_force(0.5, out)
            assert force is out
            assert not any(np.shares_memory(force, value) for value in vars(buf).values()
                           if isinstance(value, np.ndarray))


def test_push_past_certified_horizon_rejected():
    kernel = build_kernel(make_rate("power_law", 2.0), 1.0, 3.0)
    buf = HistoryBuffer(kernel, 2, 1.0, 1)
    buf.push(np.zeros(2), np.zeros(2), 0.0)
    buf.push(np.ones(2), np.ones(2), 2.0)
    with pytest.raises(ValueError, match="horizon"):
        buf.push(np.ones(2), np.ones(2), 2.0)
    # an expansion the kernel keeps for a shorter horizon than the grid's
    with pytest.raises(ValueError, match="horizon"):
        HistoryBuffer(kernel.on_horizon(1.0), 2, 1.0, 2)


@pytest.mark.parametrize("family,alpha,eps,a,dim", [
    pytest.param(*f, dim, id=f[0] if dim == 1 else f"{f[0]}-2d") for dim in (1, 2) for f in FAMILIES
])
def test_push_of_the_ring_view_equals_a_push_of_a_copy(family, alpha, eps, a, dim):
    # the stepper forms K u in the ring row the next push keeps, and that
    # push copies nothing; a push of the same values from an array of the
    # caller's is copied in.  Both hold ext, the force and both functionals
    # bitwise alike at every block position, over 2B + 5 pushes.
    mesh = interval_mesh(12) if dim == 1 else square_mesh(8)
    ops = assemble(mesh)
    n = mesh.n_nodes
    kernel = build_kernel(make_rate(family, alpha, eps), 0.9, a)
    dt, n_steps = 5e-3, 2 * BLOCK_STEPS + 4
    viewed, copied = (HistoryBuffer(kernel, n, dt, n_steps) for _ in range(2))
    rng = np.random.default_rng(37)
    for i in range(n_steps + 1):
        u = rng.standard_normal(n)
        u[mesh.gamma0_nodes] = 0.0
        view = viewed.next_ku
        assert view is viewed.next_ku  # bound once
        ku = assembly.dia_product(ops.stiffness, u, view)
        assert ku is view and np.shares_memory(view, viewed._ext)
        q = float(u.dot(ku))
        viewed.push(u, ku, q)
        copied.push(u, ku.copy(), q)
        assert viewed._ext.tobytes() == copied._ext.tobytes()
        m = 0.7
        assert (viewed.convolution_force(m, np.empty(n)).tobytes()
                == copied.convolution_force(m, np.empty(n)).tobytes())
        assert viewed.g_diamond() == copied.g_diamond()
        assert viewed.g_prime_diamond() == copied.g_prime_diamond()


@pytest.mark.parametrize("family,alpha,eps,a", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_force_read_allocates_no_copy_of_the_history(family, alpha, eps, a):
    # the force read multiplies a weight row into the K u columns of ext, a
    # strided slice of its rows; ndarray.dot copies such an operand first
    # (the whole history, 0.3 MB for the power law here, and 4.3 MB on
    # 64 x 64), the matmul ufunc reads it in place.  After the first push,
    # the force read and the functionals together allocate less than one
    # row, at every block position.
    mesh = square_mesh(16)
    ops = assemble(mesh)
    n = mesh.n_nodes
    kernel = build_kernel(make_rate(family, alpha, eps), 0.9, a)
    buf = HistoryBuffer(kernel, n, 5e-3, 2 * BLOCK_STEPS + 4)
    rng = np.random.default_rng(41)
    out = np.empty(n)
    u = rng.standard_normal(n)
    u[mesh.gamma0_nodes] = 0.0
    ku = as_dia_matrix(ops.stiffness) @ u
    q = float(u.dot(ku))
    peaks = []
    for i in range(2 * BLOCK_STEPS + 5):
        buf.push(u, ku, q)
        if i == 0:  # the empty integrals
            continue
        tracemalloc.start()
        try:
            buf.convolution_force(0.5, out)
            buf.g_diamond()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    if family != "constant":  # a copy of ext would show
        assert buf._ext.nbytes > 50 * 8 * n
    assert max(peaks) < 8 * n
