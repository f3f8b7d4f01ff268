import math

import numpy as np
import pytest

from viscowave import (
    PhysicalParams,
    assemble,
    boundary_quadratic,
    grad_norm_sq,
    lk_norm_pow,
    source_vector,
    trace_norm_sq,
)
from viscowave.assembly import _quad_rule_1d, _quad_rule_triangle, l2_norm_sq

from conftest import default_params, interval_mesh, square_mesh


def test_two_element_stiffness_stencil():
    mesh = interval_mesh(2)
    ops = assemble(mesh, default_params())
    K = ops.stiffness.toarray()
    # h = 1/2: interior row is (-2, 4, -2)
    assert np.allclose(K[1], [-2.0, 4.0, -2.0])
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-13)


def test_consistent_mass_row_sums():
    mesh = interval_mesh(4)
    ops = assemble(mesh, default_params())
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
    assert lk_norm_pow(ops64, u, 4.0) == pytest.approx(0.2, rel=1e-12)  # int x^4
    t = 1.7
    assert lk_norm_pow(ops64, t * u, 4.0) == pytest.approx(t**4 * 0.2, rel=1e-12)


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
    # duality: u . S(u) = int |u|^k, same quadrature rule on both sides
    assert u @ s_pos == pytest.approx(lk_norm_pow(ops64, u, 4.0), rel=1e-13)
    assert np.all(s_pos[mesh64.gamma0_nodes] == 0.0)


def test_trace_norm_examples(mesh64, ops64):
    u = mesh64.nodes[:, 0].copy()
    assert trace_norm_sq(ops64, np.zeros_like(u)) == 0.0
    assert trace_norm_sq(ops64, u) == pytest.approx(1.0)  # point value 1^2

    mesh2 = square_mesh(4)
    ops2 = assemble(mesh2, default_params())
    ones = np.ones(mesh2.n_nodes)
    assert trace_norm_sq(ops2, ones) == pytest.approx(1.0)  # side length x 1


def test_boundary_quadratic_weighting(mesh64, ops64):
    y = np.array([2.0])
    assert boundary_quadratic(ops64, y, 3.0) == pytest.approx(12.0)


def test_stiffness_nullspace_is_constants():
    mesh = square_mesh(3)
    ops = assemble(mesh, default_params())
    K = ops.stiffness.toarray()
    ones = np.ones(mesh.n_nodes)
    assert np.abs(K @ ones).max() < 1e-12
    evals = np.linalg.eigvalsh(K)
    assert abs(evals[0]) < 1e-10
    assert evals[1] > 1e-8  # nullspace is exactly one-dimensional


def test_2d_gradient_exact_for_linear_interpolant():
    mesh = square_mesh(5, gamma1=("right", "top", "bottom"))  # Dirichlet: left
    ops = assemble(mesh, default_params())
    u = mesh.nodes[:, 0].copy()  # vanishes on the Dirichlet face x = 0
    assert grad_norm_sq(ops, u) == pytest.approx(1.0)  # |grad x|^2 * area
    assert l2_norm_sq(ops, u) == pytest.approx(1.0 / 3.0)  # int x^2 over square


def test_2d_lk_quadrature_polynomial_exactness():
    mesh = square_mesh(3, gamma1=("right", "top", "bottom"))
    ops = assemble(mesh, default_params(k_exp=4.0))
    u = mesh.nodes[:, 0].copy()
    # int_square x^4 = 1/5, representable exactly by the P1 interpolant of x
    assert lk_norm_pow(ops, u, 4.0) == pytest.approx(0.2, rel=1e-12)


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


def test_quadrature_order_scales_with_exponent():
    mesh = interval_mesh(4)
    low = assemble(mesh, default_params(k_exp=3.0))
    high = assemble(mesh, default_params(k_exp=6.0))
    assert high.quad_order > low.quad_order



def _old_rule_forms(ops, u, k_exp):
    """lk and source vector as computed before: ceil(k) + 1 Gauss points per
    direction, |u_h|^k integrated directly and an np.add.at scatter."""
    mesh = ops.mesh
    n_quad = math.ceil(k_exp) + 1
    if mesh.dimension == 1:
        shape, w = _quad_rule_1d(n_quad)
        w = w * mesh.spec.extent[0] / mesh.spec.resolution[0]
    else:
        shape, w = _quad_rule_triangle(n_quad)
        # reference weights sum to 1/2; a triangle is half a cell
        w = w * np.prod(np.divide(mesh.spec.extent, mesh.spec.resolution))
    vals = u[mesh.elements] @ shape.T
    lk = float((np.abs(vals) ** k_exp @ w).sum())
    contrib = (np.abs(vals) ** (k_exp - 2.0) * vals * w) @ shape
    vec = np.zeros(mesh.n_nodes)
    np.add.at(vec, mesh.elements, contrib)
    vec[mesh.gamma0_nodes] = 0.0
    return lk, vec


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("k_exp", [4.0, 6.0])
def test_smallest_rule_matches_old_rule(dimension, k_exp):
    mesh = interval_mesh(64) if dimension == 1 else square_mesh(16)
    ops = assemble(mesh, default_params(k_exp=k_exp))
    # ceil((k+1)/2) points on a segment, ceil((k+2)/2)^2 on a triangle
    assert ops.quad_order == math.ceil((k_exp + dimension) / 2)
    rng = np.random.default_rng(int(10 * k_exp) + dimension)
    for _ in range(3):
        u = rng.standard_normal(mesh.n_nodes)
        u[mesh.gamma0_nodes] = 0.0
        lk_old, vec_old = _old_rule_forms(ops, u, k_exp)
        assert lk_norm_pow(ops, u, k_exp) == pytest.approx(lk_old, rel=1e-12)
        vec = source_vector(ops, u, k_exp)
        assert np.max(np.abs(vec - vec_old)) <= 1e-12 * np.max(np.abs(vec_old))


@pytest.mark.parametrize("dimension", [1, 2])
def test_smallest_rule_exact_for_odd_k_on_one_sign(dimension):
    # k = 3: |u|^3 = x^3 on x >= 0 is a cubic; int x^3 = 1/4 on [0,1] and [0,1]^2
    mesh = interval_mesh(8) if dimension == 1 else square_mesh(4)
    ops = assemble(mesh, default_params(k_exp=3.0))
    u = mesh.nodes[:, 0].copy()
    assert lk_norm_pow(ops, u, 3.0) == pytest.approx(0.25, rel=1e-13)


def test_2d_source_duality():
    mesh = square_mesh(16)
    ops = assemble(mesh, default_params(k_exp=4.0))
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.n_nodes)
    u[mesh.gamma0_nodes] = 0.0
    s = source_vector(ops, u, 4.0)
    assert u @ s == pytest.approx(lk_norm_pow(ops, u, 4.0), rel=1e-13)
    assert np.all(s[mesh.gamma0_nodes] == 0.0)
    assert np.allclose(source_vector(ops, -u, 4.0), -s, rtol=0, atol=1e-15)
