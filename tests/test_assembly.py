import itertools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from viscowave import (
    PhysicalParams,
    assemble,
    boundary_quadratic,
    grad_norm_sq,
    lk_norm_pow,
    source_vector,
    trace_norm_sq,
)
from viscowave.assembly import l2_norm_sq

from conftest import interval_mesh, square_mesh, trapezoid_x4


def test_two_element_stiffness_stencil():
    mesh = interval_mesh(2)
    ops = assemble(mesh)
    K = ops.stiffness.toarray()
    # h = 1/2: interior row is (-2, 4, -2)
    assert np.allclose(K[1], [-2.0, 4.0, -2.0])
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-13)


def test_consistent_mass_row_sums():
    mesh = interval_mesh(4)
    ops = assemble(mesh)
    sums = np.asarray(ops.mass.sum(axis=1)).ravel()
    h = 0.25
    assert sums[0] == pytest.approx(h / 2)
    assert sums[2] == pytest.approx(h)
    assert sums.sum() == pytest.approx(1.0)
    assert np.allclose(ops.mass_lumped, sums)


def test_grad_norm_examples(mesh64, ops64):
    zero = np.zeros(mesh64.n_nodes)
    assert grad_norm_sq(ops64, zero) == 0.0
    u = mesh64.nodes[:, 0].copy()
    assert grad_norm_sq(ops64, u) == pytest.approx(1.0)  # exact for linears
    assert grad_norm_sq(ops64, 2 * u) == pytest.approx(4.0)


def test_lk_norm_examples(mesh64, ops64):
    u = mesh64.nodes[:, 0].copy()
    assert lk_norm_pow(ops64, np.zeros_like(u), 4.0) == 0.0
    trap = trapezoid_x4(1.0 / 64)
    assert lk_norm_pow(ops64, u, 4.0) == pytest.approx(trap, rel=1e-12)
    t = 1.7
    assert lk_norm_pow(ops64, t * u, 4.0) == pytest.approx(t**4 * trap, rel=1e-12)


def test_lk_norm_monotone_in_pointwise_magnitude(mesh64, ops64):
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh64.n_nodes)
    bigger = u * 1.3
    assert lk_norm_pow(ops64, bigger, 3.5) > lk_norm_pow(ops64, u, 3.5)


def test_source_vector_examples(mesh64, ops64):
    u = np.sin(np.pi * mesh64.nodes[:, 0])
    u[mesh64.gamma0_nodes] = 0.0
    assert np.all(source_vector(ops64, np.zeros_like(u), 4.0) == 0.0)
    s_pos = source_vector(ops64, u, 4.0)
    s_neg = source_vector(ops64, -u, 4.0)
    assert np.allclose(s_neg, -s_pos)
    # duality: u . S(u) = int |u|^k, the nodal rule on both sides
    assert u @ s_pos == pytest.approx(lk_norm_pow(ops64, u, 4.0), rel=1e-13)
    assert np.all(s_pos[mesh64.gamma0_nodes] == 0.0)


def test_trace_norm_examples(mesh64, ops64):
    u = mesh64.nodes[:, 0].copy()
    assert trace_norm_sq(ops64, np.zeros_like(u)) == 0.0
    assert trace_norm_sq(ops64, u) == pytest.approx(1.0)  # point value 1^2

    mesh2 = square_mesh(4)
    ops2 = assemble(mesh2)
    ones = np.ones(mesh2.n_nodes)
    assert trace_norm_sq(ops2, ones) == pytest.approx(1.0)  # side length x 1


def test_boundary_quadratic_weighting(mesh64, ops64):
    y = np.array([2.0])
    assert boundary_quadratic(ops64, y, 3.0) == pytest.approx(12.0)


def test_stiffness_nullspace_is_constants():
    mesh = square_mesh(3)
    ops = assemble(mesh)
    K = ops.stiffness.toarray()
    ones = np.ones(mesh.n_nodes)
    assert np.abs(K @ ones).max() < 1e-12
    evals = np.linalg.eigvalsh(K)
    assert abs(evals[0]) < 1e-10
    assert evals[1] > 1e-8  # nullspace is exactly one-dimensional


def test_2d_gradient_exact_for_linear_interpolant():
    mesh = square_mesh(5, gamma1=("right", "top", "bottom"))  # Dirichlet: left
    ops = assemble(mesh)
    u = mesh.nodes[:, 0].copy()  # vanishes on the Dirichlet face x = 0
    assert grad_norm_sq(ops, u) == pytest.approx(1.0)  # |grad x|^2 * area
    assert l2_norm_sq(ops, u) == pytest.approx(1.0 / 3.0)  # int x^2 over square


def test_2d_lk_quadrature_polynomial_exactness():
    mesh = square_mesh(3, gamma1=("right", "top", "bottom"))
    ops = assemble(mesh)
    u = mesh.nodes[:, 0].copy()
    # each column's lumped masses sum to the 1D trapezoid weight, so the
    # nodal rule for x^4 is the 1D trapezoid sum: 0.2366255144032922
    assert lk_norm_pow(ops, u, 4.0) == pytest.approx(trapezoid_x4(1.0 / 3), rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError, match="k must exceed 2"):
        PhysicalParams(a=1.0, b=0.0, kappa=0.0, k_exp=2.0, p_c=1.0, q_c=1.0)
    with pytest.raises(ValueError, match=r"\(H1\)"):
        PhysicalParams(a=1.0, b=0.0, kappa=0.0, k_exp=3.0, p_c=0.0, q_c=1.0)
    with pytest.raises(ValueError, match="a must be positive"):
        PhysicalParams(a=0.0, b=0.0, kappa=0.0, k_exp=3.0, p_c=1.0, q_c=1.0)
    p = PhysicalParams(a=2.0, b=0.5, kappa=0.0, k_exp=3.0, p_c=1.0, q_c=1.0)
    # kappa = 0: coefficient is a + b even at u = 0
    assert p.kirchhoff_coefficient(0.0) == pytest.approx(2.5)
    # b = 0: the Kirchhoff terms are exact even where |grad u|^(2 kappa) overflows
    p0 = PhysicalParams(a=2.0, b=0.0, kappa=2.0, k_exp=3.0, p_c=1.0, q_c=1.0)
    assert p0.kirchhoff_coefficient(1e160) == 2.0
    assert p0.kirchhoff_potential(1e160) == 0.0


def test_2d_source_duality():
    mesh = square_mesh(16)
    ops = assemble(mesh)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.n_nodes)
    u[mesh.gamma0_nodes] = 0.0
    s = source_vector(ops, u, 4.0)
    assert u @ s == pytest.approx(lk_norm_pow(ops, u, 4.0), rel=1e-13)
    assert np.all(s[mesh.gamma0_nodes] == 0.0)
    assert np.allclose(source_vector(ops, -u, 4.0), -s, rtol=0, atol=1e-15)


def _exact_lk(mesh, u, k):
    """int |u_h|^k for an even integer k, in closed form: on a d-simplex T,
    int (sum_i u_i lambda_i)^k = |T| d! k! / (k + d)! h_k(u), where h_k is
    the complete homogeneous symmetric polynomial of the vertex values."""
    d = mesh.dimension
    verts = mesh.nodes[mesh.elements]
    volume = np.abs(np.linalg.det(verts[:, 1:, :] - verts[:, :1, :])) / math.factorial(d)
    vals = u[mesh.elements]
    h_k = sum(np.prod(vals[:, list(c)], axis=1)
              for c in itertools.combinations_with_replacement(range(d + 1), k))
    return float(volume @ h_k) * math.factorial(d) * math.factorial(k) / math.factorial(k + d)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("k_exp", [4, 6])
def test_nodal_lk_bounds_the_exact_integral_from_above(dimension, k_exp):
    # lk integrates the P1 interpolant of |u_h|^k, which lies above the
    # convex |u_h|^k on every element
    mesh = interval_mesh(32) if dimension == 1 else square_mesh(8)
    ops = assemble(mesh)
    x = mesh.nodes[:, 0].copy()
    assert _exact_lk(mesh, x, 4) == pytest.approx(0.2, rel=1e-12)  # the oracle: int x^4
    rng = np.random.default_rng(10 * k_exp + dimension)
    for _ in range(5):
        u = rng.standard_normal(mesh.n_nodes)
        assert lk_norm_pow(ops, u, float(k_exp)) >= _exact_lk(mesh, u, k_exp)


def _nodal_errors(meshes, field, k_exp):
    """Per mesh, the errors of lk(I_h u) against int |u|^k and of
    x . S(I_h u) against int x |u|^{k-2} u, both by scipy quadrature."""
    integrands = (lambda *p: abs(field(*p)) ** k_exp,
                  lambda *p: p[0] * abs(field(*p)) ** (k_exp - 2.0) * field(*p))
    if meshes[0].dimension == 1:
        exact = [quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
                 for f in integrands]
    else:
        exact = [dblquad(lambda y, x, f=f: f(x, y), 0.0, 1.0, 0.0, 1.0,
                         epsabs=1e-13, epsrel=1e-13)[0] for f in integrands]
    errors = []
    for mesh in meshes:
        ops = assemble(mesh)
        u = field(*mesh.nodes.T)
        u[mesh.gamma0_nodes] = 0.0
        pairing = mesh.nodes[:, 0] @ source_vector(ops, u, k_exp)
        errors.append((abs(lk_norm_pow(ops, u, k_exp) - exact[0]), abs(pairing - exact[1])))
    return np.array(errors)


@pytest.mark.parametrize("dimension", [1, 2])
def test_nodal_rule_is_second_order(dimension):
    # sin(3 pi x / 4), not sin(pi x / 2): the odd derivatives of the latter's
    # integrands vanish at both ends, leaving the trapezoid error at roundoff
    if dimension == 1:
        meshes = [interval_mesh(n) for n in (16, 32, 64, 128)]
        errors = _nodal_errors(meshes, lambda x: np.sin(0.75 * np.pi * x), 4.0)
    else:
        meshes = [square_mesh(n) for n in (8, 16, 32, 64)]
        errors = _nodal_errors(
            meshes, lambda x, y: np.sin(0.75 * np.pi * x) * np.sin(np.pi * y), 4.0)
    assert np.all(errors[:-1] / errors[1:] >= 3.5)  # measured 3.92-4.02


def test_nodal_pairing_error_scales_as_h2_through_a_sign_change():
    # k = 3 and u = sin(1.5 pi x) changes sign: the kink of |u| u falls at a
    # different place between nodes on each level, so the pairing's ratios
    # are erratic (2.5, 4.9, 3.6); its error times n^2 stays within a factor 2
    ns = np.array([16, 32, 64, 128])
    errors = _nodal_errors([interval_mesh(n) for n in ns],
                           lambda x: np.sin(1.5 * np.pi * x), 3.0)
    scaled = errors[:, 1] * ns**2
    assert scaled.max() <= 2.0 * scaled.min()
    assert np.all(errors[:-1, 0] / errors[1:, 0] >= 3.5)
