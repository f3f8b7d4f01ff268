"""P1 finite-element forms: mass, stiffness, boundary mass, L^k quantities.

Piecewise-linear elements on the uniform meshes of :mod:`viscowave.geometry`.
Mass and stiffness are assembled exactly; the lumped mass m_i is the row sum
of the consistent mass, m_i = int phi_i.

The two nonlinear integrals use the nodal ("product approximation") rule,
which needs the lumped mass alone:

  int |u_h|^k                  ~  lk(u)  = sum_i m_i |u_i|^k
  int |u_h|^{k-2} u_h phi_i    ~  S(u)_i = m_i |u_i|^{k-2} u_i   (0 on Gamma_0)

S is the exact gradient of lk/k on the free nodes, so for u zero on Gamma_0,
u . source_vector(u) == lk_norm_pow(u) up to roundoff; the stepper and the
well-constant ascent use the dot product.  lk is the integral of the P1
interpolant of |u_h|^k, and that interpolant lies above |u_h|^k on every
element (t -> |t|^k is convex), so lk >= int |u_h|^k for every field.  For
smooth u both rules are O(h^2) accurate for every exponent k > 2.

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
        """a + b |grad u|^(2 kappa); exactly a when b = 0, however large the power."""
        if self.b == 0.0:
            return self.a
        return self.a + self.b * float_pow(grad_sq, self.kappa)

    def kirchhoff_potential(self, grad_sq: float) -> float:
        """b/(kappa+1) |grad u|^(2(kappa+1)), the Kirchhoff term of the well
        functional and twice that of the energy; 0.0 when b = 0, where the
        power may overflow."""
        if self.b == 0.0:
            return 0.0
        return self.b / (self.kappa + 1.0) * float_pow(grad_sq, self.kappa + 1.0)


def float_pow(x: float, p: float) -> float:
    """x ** p for x >= 0, with inf where the float power overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled linear forms; the lumped mass also carries the nonlinear terms."""

    mesh: Mesh
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    mass_lumped: np.ndarray
    lam_max_unit: float         # max eig of M_lump^{-1} K at unit coefficient

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes


def assemble(mesh: Mesh) -> DiscreteOperators:
    """Assemble stiffness, consistent and lumped mass, and the CFL eigenvalue."""
    K, M = _assemble_1d(mesh) if mesh.dimension == 1 else _assemble_2d(mesh)
    K = K.tocsr()
    M = M.tocsr()
    lumped = np.asarray(M.sum(axis=1)).ravel()
    return DiscreteOperators(
        mesh=mesh,
        stiffness=K,
        mass=M,
        mass_lumped=lumped,
        lam_max_unit=_estimate_lam_max(K, lumped, mesh),
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


_POWER_ITERATIONS = 300


def _estimate_lam_max(K: sp.csr_matrix, lumped: np.ndarray, mesh: Mesh) -> float:
    """Largest eigenvalue of diag(M_lump)^{-1} K on the free subspace.

    Deterministic power iteration with a 5% inflation so the CFL check errs
    on the safe side.
    """
    n = mesh.n_nodes
    v = np.zeros(n)
    v[mesh.free_nodes] = np.sin(np.arange(1, len(mesh.free_nodes) + 1, dtype=float))
    v /= np.linalg.norm(v)
    inv_m = 1.0 / lumped
    for _ in range(_POWER_ITERATIONS):
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


def lk_norm_pow(ops: DiscreteOperators, u: np.ndarray, k_exp: float) -> float:
    """int |u_h|^k by the nodal rule, sum_i m_i |u_i|^k."""
    return float(ops.mass_lumped @ np.abs(u) ** k_exp)


def source_vector(ops: DiscreteOperators, u: np.ndarray, k_exp: float) -> np.ndarray:
    """Nodal weak form of the odd source, m_i |u_i|^{k-2} u_i, zero on Gamma_0.

    The gradient of lk_norm_pow(u) / k, so for u zero on Gamma_0,
    u . source_vector(u) == lk_norm_pow(u) to roundoff.
    """
    out = ops.mass_lumped * (np.abs(u) ** (k_exp - 2.0) * u)
    out[ops.mesh.gamma0_nodes] = 0.0
    return out


def trace_norm_sq(ops: DiscreteOperators, u: np.ndarray) -> float:
    """|u|^2 over the acoustic boundary (weighted sum; point value in 1D)."""
    vals = u[ops.mesh.gamma1_nodes]
    return float(ops.mesh.gamma1_weights @ (vals * vals))


def boundary_quadratic(ops: DiscreteOperators, y_vals: np.ndarray, weight: float) -> float:
    """weight * int_{Gamma_1} y^2 for values aligned with the gamma1 nodes."""
    return float(weight * (ops.mesh.gamma1_weights @ (y_vals * y_vals)))

