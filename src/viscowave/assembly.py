"""P1 finite-element forms: mass, stiffness, boundary mass, L^k quantities.

Piecewise-linear elements on the uniform meshes of :mod:`viscowave.geometry`.
Mass and stiffness are assembled exactly.  The L^k norm and the odd source
term |u|^{k-2} u share one Gauss rule (Duffy-collapsed on triangles) whose
point count is the smallest that integrates polynomials of degree
d = ceil(k) exactly: ceil((d+1)/2) points on a segment and ceil((d+2)/2)
per direction on a triangle, where the collapse adds one degree in the
first direction (3 and 9 points at k = 4).  On a P1 element |u_h|^k and
|u_h|^{k-2} u_h phi_i are polynomials of degree k for every even integer k,
and for every odd integer k on elements where u_h keeps one sign, so the
rule is exact there.  For other k, and for odd k where u_h changes sign,
the integrands are not polynomials and no rule is exact; they get the same
point count, fewer than the ceil(k) + 1 per direction used before, so the
quadrature error there is larger than it was.

One pass evaluates s = |u_h|^{k-2} u_h at the points and scatters the
weak-form vector with ``np.bincount`` against a weighted shape table built
at assembly.  ``lk_norm_pow`` takes int |u|^k as sum w s u_h by the same
rule, so for u zero on Gamma_0, u . source_vector(u) == lk_norm_pow(u) up
to roundoff; the stepper and the well-constant ascent use the dot product.

Fields are plain numpy arrays with one value per mesh node; entries at
Dirichlet nodes are pinned to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the wave system.

    ``kappa`` is the exponent of the nonlocal stiffness a + b |grad u|^(2 kappa)
    and ``k_exp`` the source exponent (> 2; unrestricted above that in one and
    two dimensions).  ``b = 0`` switches the nonlocal term off and
    ``source_enabled = False`` drops the source term (reference and
    manufactured-solution runs).
    """

    a: float
    b: float
    kappa: float
    k_exp: float
    p_c: float
    q_c: float
    source_enabled: bool = True

    def __post_init__(self):
        errors = self.validation_errors()
        if errors:
            raise ValueError("; ".join(errors))

    def validation_errors(self) -> list[str]:
        errs = []
        if self.a <= 0:
            errs.append(f"a must be positive, got {self.a}")
        if self.b < 0:
            errs.append(f"b must be nonnegative, got {self.b}")
        if self.kappa < 0:
            errs.append(f"kappa must be nonnegative, got {self.kappa}")
        if self.k_exp <= 2:
            errs.append(f"source exponent k must exceed 2, got {self.k_exp}")
        if self.p_c <= 0:
            errs.append(f"(H1) requires p > 0, got {self.p_c}")
        if self.q_c <= 0:
            errs.append(f"(H1) requires q > 0, got {self.q_c}")
        return errs

    def kirchhoff_coefficient(self, grad_sq: float) -> float:
        return self.a + self.b * float_pow(grad_sq, self.kappa)


def float_pow(x: float, p: float) -> float:
    """x ** p for x >= 0, with inf where the float power overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled forms plus the quadrature tables for the nonlinear terms."""

    mesh: Mesh
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    mass_lumped: np.ndarray
    shape_at_quad: np.ndarray   # (nq, nodes per element)
    quad_weights: np.ndarray    # (nq,), physical weights (uniform elements)
    weighted_shape: np.ndarray  # (nq, nodes per element), quad_weights * shape
    quad_order: int             # Gauss points per direction
    lam_max_unit: float         # max eig of M_lump^{-1} K at unit coefficient

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes


def _quad_rule_1d(n: int):
    xg, wg = np.polynomial.legendre.leggauss(n)
    z = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    shape = np.column_stack([1.0 - z, z])  # (nq, 2)
    return shape, w


def _quad_rule_triangle(n: int):
    # Duffy collapse of an n x n Gauss rule onto the reference triangle
    xg, wg = np.polynomial.legendre.leggauss(n)
    a = 0.5 * (xg + 1.0)
    wa = 0.5 * wg
    A, B = np.meshgrid(a, a, indexing="ij")
    WA, WB = np.meshgrid(wa, wa, indexing="ij")
    x = A.ravel()
    y = (B * (1.0 - A)).ravel()
    w = (WA * WB * (1.0 - A)).ravel()  # integrates to area 1/2
    shape = np.column_stack([1.0 - x - y, x, y])  # (nq, 3)
    return shape, w


def _gauss_points(k_exp: float, dimension: int) -> int:
    """Smallest Gauss count per direction exact for degree ceil(k) on an element."""
    return (int(math.ceil(k_exp)) + dimension + 1) // 2


def assemble(mesh: Mesh, params: PhysicalParams) -> DiscreteOperators:
    """Assemble mass/stiffness/boundary forms and the quadrature tables."""
    n_quad = _gauss_points(params.k_exp, mesh.dimension)
    if mesh.dimension == 1:
        K, M = _assemble_1d(mesh)
        shape, w = _quad_rule_1d(n_quad)
        h = mesh.spec.extent[0] / mesh.spec.resolution[0]
        qw = w * h
    else:
        K, M = _assemble_2d(mesh)
        shape, w = _quad_rule_triangle(n_quad)
        lx, ly = mesh.spec.extent
        nx, ny = mesh.spec.resolution
        area = (lx / nx) * (ly / ny) / 2.0
        qw = w * 2.0 * area

    K = K.tocsr()
    M = M.tocsr()
    lumped = np.asarray(M.sum(axis=1)).ravel()
    lam = _estimate_lam_max(K, lumped, mesh)
    return DiscreteOperators(
        mesh=mesh,
        stiffness=K,
        mass=M,
        mass_lumped=lumped,
        shape_at_quad=shape,
        quad_weights=qw,
        weighted_shape=qw[:, None] * shape,
        quad_order=n_quad,
        lam_max_unit=lam,
    )


def _assemble_1d(mesh: Mesh):
    m = mesh.spec.resolution[0]
    h = mesh.spec.extent[0] / m
    n = mesh.n_nodes
    main_k = np.full(n, 2.0 / h)
    main_k[0] = main_k[-1] = 1.0 / h
    K = sp.diags([np.full(n - 1, -1.0 / h), main_k, np.full(n - 1, -1.0 / h)], [-1, 0, 1])
    main_m = np.full(n, 4.0 * h / 6.0)
    main_m[0] = main_m[-1] = 2.0 * h / 6.0
    M = sp.diags([np.full(n - 1, h / 6.0), main_m, np.full(n - 1, h / 6.0)], [-1, 0, 1])
    return K.tolil(), M.tolil()


def _assemble_2d(mesh: Mesh):
    n = mesh.n_nodes
    elems = mesh.elements
    pts = mesh.nodes
    p0, p1, p2 = pts[elems[:, 0]], pts[elems[:, 1]], pts[elems[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * np.abs(det)
    # gradients of the barycentric coordinates
    g0 = np.column_stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]]) / det[:, None]
    g1 = np.column_stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]]) / det[:, None]
    g2 = np.column_stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]]) / det[:, None]
    grads = np.stack([g0, g1, g2], axis=1)  # (ne, 3, 2)

    ke = np.einsum("eid,ejd,e->eij", grads, grads, area)
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * me_ref[None, :, :]

    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n))
    M = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n))
    return K, M


def _estimate_lam_max(K: sp.csr_matrix, lumped: np.ndarray, mesh: Mesh,
                      iters: int = 300) -> float:
    """Largest eigenvalue of diag(M_lump)^{-1} K on the free subspace.

    Deterministic power iteration with a 5% inflation so the CFL check errs
    on the safe side.
    """
    n = mesh.n_nodes
    v = np.zeros(n)
    v[mesh.free_nodes] = np.sin(np.arange(1, len(mesh.free_nodes) + 1, dtype=float))
    v /= np.linalg.norm(v)
    inv_m = 1.0 / lumped
    for _ in range(iters):
        w = inv_m * (K @ v)
        w[mesh.gamma0_nodes] = 0.0
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    lam = float(v @ (K @ v)) / float(v @ (lumped * v))
    return 1.05 * lam


def pin_gamma0(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Copy of ``u`` with Dirichlet entries forced to zero."""
    out = np.array(u, dtype=float)
    out[mesh.gamma0_nodes] = 0.0
    return out


def grad_norm_sq(ops: DiscreteOperators, u: np.ndarray) -> float:
    """|grad u|_2^2 = u^T K u (exact for P1)."""
    return float(u @ (ops.stiffness @ u))


def l2_norm_sq(ops: DiscreteOperators, u: np.ndarray) -> float:
    """|u|_2^2 via the consistent mass form."""
    return float(u @ (ops.mass @ u))


def _source_at_quad(ops: DiscreteOperators, u: np.ndarray, k_exp: float):
    """(s, u_h) at every quadrature point, s = |u_h|^{k-2} u_h; both (ne, nq)."""
    vals = u[ops.mesh.elements] @ ops.shape_at_quad.T
    return np.abs(vals) ** (k_exp - 2.0) * vals, vals


def _scatter(ops: DiscreteOperators, s: np.ndarray) -> np.ndarray:
    contrib = s @ ops.weighted_shape  # (ne, nodes per element)
    out = np.bincount(ops.mesh.elements.ravel(), weights=contrib.ravel(),
                      minlength=ops.n_nodes)
    out[ops.mesh.gamma0_nodes] = 0.0
    return out


def lk_norm_pow(ops: DiscreteOperators, u: np.ndarray, k_exp: float) -> float:
    """int |u_h|^k by the element quadrature rule, as sum w |u_h|^{k-2} u_h u_h."""
    s, vals = _source_at_quad(ops, u, k_exp)
    return float(((s * vals) @ ops.quad_weights).sum())


def source_vector(ops: DiscreteOperators, u: np.ndarray, k_exp: float) -> np.ndarray:
    """Weak form of the odd source: entries int |u_h|^{k-2} u_h phi_i.

    Uses the rule of :func:`lk_norm_pow`, so for u zero on Gamma_0,
    u . source_vector(u) == lk_norm_pow(u) to roundoff.
    """
    s, _ = _source_at_quad(ops, u, k_exp)
    return _scatter(ops, s)


def trace_norm_sq(ops: DiscreteOperators, u: np.ndarray) -> float:
    """|u|^2 over the acoustic boundary (weighted sum; point value in 1D)."""
    vals = u[ops.mesh.gamma1_nodes]
    return float(ops.mesh.gamma1_weights @ (vals * vals))


def boundary_quadratic(ops: DiscreteOperators, y_vals: np.ndarray, weight: float) -> float:
    """weight * int_{Gamma_1} y^2 for values aligned with the gamma1 nodes."""
    return float(weight * (ops.mesh.gamma1_weights @ (y_vals * y_vals)))

