"""Potential-well constants and stable-set monitoring.

The well is governed by the potential F(x) = x^2/2 - (B^k/k) x^k, whose
single positive critical point lambda1 = B^(-k/(k-2)) and depth
d1 = F(lambda1) = ((k-2)/(2k)) B^(-2k/(k-2)) depend on an embedding-type
constant B over the Dirichlet-constrained space:

  B = sup ||u||_k / sqrt( l |grad u|^2 + b/(kappa+1) |grad u|^(2(kappa+1)) ).

For kappa > 0 the supremum is attained only in the vanishing-amplitude
limit, where the quotient reduces to S_k / sqrt(l) with S_k the plain
embedding constant sup ||u||_k / ||grad u||_2; for kappa = 0 the reduction
is S_k / sqrt(l + b).  S_k is estimated by projected gradient ascent on the
discrete quotient (normalized to ||grad u||_2 = 1 each iteration, seeded
multi-starts).  A start stops at first-order stationarity: when the K-norm
of its projected ascent direction falls below 1e-7, where the quotient is
within about 1e-14 of its local maximum.  The trace constant is a quadratic
quotient, so it is computed exactly: c_bar_star^2 is the largest eigenvalue
of W^(1/2) (K^-1)_{Gamma_1,Gamma_1} W^(1/2), a |Gamma_1| x |Gamma_1| matrix
(W the boundary weights).  The ascent and that block solve share one sparse
factorization of K on the free nodes (SPD, so a symmetric fill-reducing
ordering with diagonal pivots), made for ``compute_well_constants`` only.
The amplitude-limit reduction is verified against a direct finite-amplitude
search; both norms are homogeneous, so the whole amplitude sweep of a
candidate follows in closed form from its |grad u|^2 and ||u||_k^k.

Initial data with E(0) < d1 and gamma_fn(0) < lambda1 stay in the well:
every later record must keep gamma_fn(t) < lambda1 and E(t) < d1, which
``verify_invariance`` checks on recorded trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import (
    DiscreteOperators,
    PhysicalParams,
    boundary_quadratic,
    grad_norm_sq,
    l2_norm_sq,
    lk_norm_pow,
    source_vector,
)
from .geometry import Mesh
from .kernels import RelaxationKernel
from .stepper import Trajectory


def potential_F(x, B: float, k_exp: float):
    """F(x) = x^2/2 - (B^k/k) x^k (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    val = 0.5 * x**2 - (B**k_exp / k_exp) * x**k_exp
    return float(val) if val.ndim == 0 else val


def well_constants_from_B(B: float, k_exp: float) -> tuple[float, float]:
    """(lambda1, d1): critical point and depth of the well potential."""
    if B <= 0:
        raise ValueError(f"B must be positive, got {B}")
    if k_exp <= 2:
        raise ValueError(f"k must exceed 2, got {k_exp}")
    lambda1 = B ** (-k_exp / (k_exp - 2.0))
    d1 = (k_exp - 2.0) / (2.0 * k_exp) * B ** (-2.0 * k_exp / (k_exp - 2.0))
    return lambda1, d1


@dataclass(frozen=True)
class AscentDiagnostics:
    value: float
    start_values: tuple[float, ...]
    iterations: tuple[int, ...]  # accepted steps per start
    converged: tuple[bool, ...]
    evaluations: tuple[int, ...]  # objective calls per start: 1 + line-search trials

    @property
    def spread(self) -> float:
        return max(self.start_values) - min(self.start_values)

    @property
    def all_converged(self) -> bool:
        return all(self.converged)


# A start stops once the K-norm of its projected ascent direction is below
# this.  Near a maximum the quotient's error is O(|d|_K^2), about 1e-14; a
# tolerance at the roundoff floor of |d|_K (1e-8) would rarely stop a start.
_STATIONARY_TOL = 1e-7
# Starts per ascent, and the accepted steps a start may take.
_N_STARTS = 8
_MAX_ASCENT_STEPS = 2000


def _free_stiffness_lu(ops: DiscreteOperators):
    """Sparse factor of K restricted to the free nodes.

    K there is SPD: the fill-reducing ordering is symmetric (minimum degree
    on K + K^T) and the pivots stay on the diagonal.
    """
    free = ops.mesh.free_nodes
    return splu(ops.stiffness[np.ix_(free, free)].tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _ascent_direction(ops: DiscreteOperators, lu, u: np.ndarray, ku: np.ndarray,
                      grad_n: np.ndarray) -> np.ndarray:
    """K-metric gradient of ln numerator at u (u^T K u = 1, ku = K u),
    projected onto the tangent space of the constraint sphere; ``lu``
    factors K on the free nodes."""
    free = ops.mesh.free_nodes
    d = np.zeros(ops.n_nodes)
    d[free] = lu.solve(grad_n[free])
    d -= u  # minus the constraint part: K^{-1} K u = u at u^T K u = 1
    d -= float(d @ ku) * u  # K-orthogonal tangent projection
    return d


def _ascend(ops: DiscreteOperators, lu, log_num_grad, seed: int, n_starts: int):
    """Projected gradient ascent of a homogeneous quotient on the K-sphere.

    ``log_num_grad(u)`` returns (ln numerator, gradient of ln numerator) and
    is called once per start and once per line-search trial; the accepted
    trial's gradient drives the next step.  Iterates are renormalized to
    u^T K u = 1, so the quotient equals the numerator.  The ascent direction
    is the gradient in the inner product induced by K (Riesz representative
    through ``lu``, the caller's factor of K on the free nodes), which makes
    the convergence rate mesh-independent; the direction is projected onto
    the tangent space of the constraint sphere before stepping.  K u travels
    with u, so a start costs one product with K plus one per direction: a
    trial's K (u + eta d) is K u + eta K d.

    A start stops, converged, when the K-norm of that direction falls below
    ``_STATIONARY_TOL``, before any line search at that point.  As a
    fallback it also stops, converged, when a line search halves its step
    below 1e-14 without raising the quotient.  ``iterations`` counts the
    accepted steps.  Returns the best iterate and per-start diagnostics.
    """
    K = ops.stiffness
    free = ops.mesh.free_nodes
    rng = np.random.default_rng(seed)

    best_u = None
    best_val = -math.inf
    finals, iters, convs, evals = [], [], [], []

    for _ in range(n_starts):
        u = np.zeros(ops.n_nodes)
        u[free] = rng.standard_normal(len(free))
        ku = K @ u
        nrm = math.sqrt(max(u @ ku, 1e-300))
        u /= nrm
        ku /= nrm
        ln_val, grad_n = log_num_grad(u)
        n_eval = 1
        eta = 1.0
        converged = False
        steps = 0
        while steps < _MAX_ASCENT_STEPS:
            d = _ascent_direction(ops, lu, u, ku, grad_n)
            kd = K @ d
            if d @ kd < _STATIONARY_TOL**2:
                converged = True
                break
            accepted = False
            while eta > 1e-14:
                trial = u + eta * d
                k_trial = ku + eta * kd
                nrm = math.sqrt(max(trial @ k_trial, 1e-300))
                trial /= nrm
                k_trial /= nrm
                ln_trial, grad_trial = log_num_grad(trial)
                n_eval += 1
                if ln_trial > ln_val:
                    u, ku, ln_val, grad_n = trial, k_trial, ln_trial, grad_trial
                    eta = min(eta * 1.3, 10.0)
                    accepted = True
                    break
                eta *= 0.5
            if not accepted:
                converged = True
                break
            steps += 1

        val = math.exp(ln_val)
        finals.append(val)
        iters.append(steps)
        convs.append(converged)
        evals.append(n_eval)
        if val > best_val:
            best_val = val
            best_u = u

    diag = AscentDiagnostics(
        value=best_val,
        start_values=tuple(finals),
        iterations=tuple(iters),
        converged=tuple(convs),
        evaluations=tuple(evals),
    )
    return best_u, diag


def _embedding_objective(ops: DiscreteOperators, k_exp: float):
    def log_num_grad(u):
        vec = source_vector(ops, u, k_exp)
        lk = max(float(u @ vec), 1e-300)
        return math.log(lk) / k_exp, vec / lk

    return log_num_grad


# Unit columns per trace solve: one block of all |Gamma_1| columns (63 on the
# 64x64 square) raised the peak memory of a run by about 4 MB.
_TRACE_BLOCK = 8


def _trace_constant(ops: DiscreteOperators, lu) -> float:
    """Exact discrete sup ||u||_{2,Gamma_1} / ||grad u||_2, 0 for an empty
    Gamma_1.

    The square of the sup of w . u_g^2 / u^T K u is the largest eigenvalue of
    W^(1/2) (K^-1)_{Gamma_1,Gamma_1} W^(1/2); the Gamma_1 block of K^-1 comes
    from solving ``lu`` (K on the free nodes) for the unit columns at the
    Gamma_1 nodes, ``_TRACE_BLOCK`` at a time.
    """
    free = ops.mesh.free_nodes
    pos = np.searchsorted(free, ops.mesh.gamma1_nodes)  # free_nodes is sorted
    m = len(pos)
    if m == 0:
        return 0.0
    block = np.empty((m, m))
    for j in range(0, m, _TRACE_BLOCK):
        cols = pos[j:j + _TRACE_BLOCK]
        rhs = np.zeros((len(free), len(cols)))
        rhs[cols, np.arange(len(cols))] = 1.0
        block[:, j:j + len(cols)] = lu.solve(rhs)[pos]
    sw = np.sqrt(ops.mesh.gamma1_weights)
    block *= np.outer(sw, sw)
    return math.sqrt(np.linalg.eigvalsh(0.5 * (block + block.T))[-1])


def estimate_embedding_constant(
    mesh: Mesh,
    ops: DiscreteOperators,
    k_exp: float,
    seed: int = 2024,
) -> float:
    """Discrete sup ||u||_k / ||grad u||_2, with ||u||_k^k by the nodal rule.

    The nodal rule bounds int |u_h|^k from above, and the value comes down
    to the continuum constant under uniform refinement (k = 4 on the unit
    interval: 0.710155, 0.709910, 0.709848 on 16, 32, 64 cells).  B is thus
    approached from above, so d1 and lambda1 come out slightly small and the
    in-well check errs on the conservative side.
    """
    if k_exp < 2:
        raise ValueError(f"k must be >= 2, got {k_exp}")
    _, diag = _ascend(ops, _free_stiffness_lu(ops), _embedding_objective(ops, k_exp), seed,
                      _N_STARTS)
    return diag.value


def estimate_trace_constant(mesh: Mesh, ops: DiscreteOperators) -> float:
    """Discrete sup ||u||_{2,Gamma_1} / ||grad u||_2, computed exactly."""
    if len(mesh.gamma1_nodes) == 0:
        raise ValueError("trace constant needs a nonempty acoustic boundary")
    return _trace_constant(ops, _free_stiffness_lu(ops))


_AMPLITUDES = np.geomspace(1e-8, 10.0, 40)


def _amplitude_quotients(ops: DiscreteOperators, params: PhysicalParams, l_value: float,
                         u: np.ndarray) -> np.ndarray:
    """Finite-amplitude quotient ||a u||_k / sqrt(l g(a) + b/(kappa+1) g(a)^(kappa+1))
    with g(a) = |grad (a u)|^2, at every a in ``_AMPLITUDES``.

    Both norms are homogeneous, ||a u||_k^k = a^k ||u||_k^k and
    g(a) = a^2 |grad u|^2, so one lk_norm_pow and one stiffness product
    serve the whole sweep.
    """
    gns = grad_norm_sq(ops, u)
    if gns == 0.0:
        return np.zeros(len(_AMPLITUDES))
    k = params.k_exp
    g = _AMPLITUDES**2 * gns
    den = l_value * g + params.b / (params.kappa + 1.0) * g ** (params.kappa + 1.0)
    return _AMPLITUDES * lk_norm_pow(ops, u, k) ** (1.0 / k) / np.sqrt(den)


def estimate_B_Omega(
    mesh: Mesh,
    ops: DiscreteOperators,
    params: PhysicalParams,
    l_value: float,
    s_k: float,
    u_star: np.ndarray,
    seed: int = 2024,
) -> tuple[float, dict]:
    """Well constant B via the amplitude-limit reduction, plus verification.

    ``s_k`` is the embedding constant found by the embedding ascent and
    ``u_star`` the best iterate of that ascent; this function runs no ascent
    of its own.  ``u_star`` is the first candidate of the verification, with
    three random directions drawn from ``seed`` + 1.  Returns (value, info);
    info["verified"] reports whether a direct finite-amplitude search stayed
    below the limit value, and a failure raises since lambda1 and d1 would
    be wrong.
    """
    if l_value <= 0:
        raise ValueError(f"needs l > 0, got {l_value}")

    if params.kappa == 0.0:
        limit = s_k / math.sqrt(l_value + params.b)
    else:
        limit = s_k / math.sqrt(l_value)

    # verification: the finite-amplitude quotient must never beat the limit
    rng = np.random.default_rng(seed + 1)
    candidates = [u_star]
    for _ in range(3):
        v = np.zeros(ops.n_nodes)
        v[mesh.free_nodes] = rng.standard_normal(len(mesh.free_nodes))
        v /= math.sqrt(grad_norm_sq(ops, v))
        candidates.append(v)
    worst = 0.0
    for cand in candidates:
        worst = max(worst, float(_amplitude_quotients(ops, params, l_value, cand).max()))

    verified = worst <= limit * (1.0 + 1e-6)
    info = {"verified": verified, "finite_amplitude_max": worst, "s_k": s_k}
    if not verified:
        raise RuntimeError(
            f"B_Omega verification failed: finite-amplitude quotient {worst:.12g} "
            f"exceeds the amplitude-limit value {limit:.12g}"
        )
    return limit, info


@dataclass(frozen=True)
class WellConstants:
    """Well constants on a fixed mesh, with optimizer diagnostics."""

    c_star: float
    c_bar_star: float
    b_omega: float
    lambda1: float
    d1: float
    k_exp: float
    dimension: int
    resolution: tuple[int, ...]
    diagnostics: dict


def compute_well_constants(
    mesh: Mesh,
    ops: DiscreteOperators,
    params: PhysicalParams,
    kernel: RelaxationKernel,
    seed: int = 2024,
) -> WellConstants:
    """Embedding/trace constants, B, lambda1 and d1 for one configuration."""
    lu = _free_stiffness_lu(ops)
    u_star, emb_diag = _ascend(ops, lu, _embedding_objective(ops, params.k_exp), seed,
                               _N_STARTS)
    s_k = emb_diag.value
    c_bar_star = _trace_constant(ops, lu)
    b_omega, info = estimate_B_Omega(mesh, ops, params, kernel.l_value, s_k=s_k,
                                     u_star=u_star, seed=seed)
    lambda1, d1 = well_constants_from_B(b_omega, params.k_exp)

    return WellConstants(
        c_star=s_k,
        c_bar_star=c_bar_star,
        b_omega=b_omega,
        lambda1=lambda1,
        d1=d1,
        k_exp=params.k_exp,
        dimension=mesh.dimension,
        resolution=mesh.spec.resolution,
        diagnostics={
            "embedding": {
                "start_values": list(emb_diag.start_values),
                "iterations": list(emb_diag.iterations),
                "evaluations": list(emb_diag.evaluations),
                "spread": emb_diag.spread,
                "all_converged": emb_diag.all_converged,
            },
            # exact, no ascent; "iterations" stays because perfbench/run.py
            # sums it over both entries
            "trace": {"method": "exact", "iterations": [0]},
            "b_omega_verification": info,
            "seed": seed,
        },
    )


@dataclass(frozen=True)
class StableSetReport:
    """Initial-data membership check against the well constants."""

    E0: float
    gamma0: float
    lambda1: float
    d1: float
    in_well: bool
    energy_ratio: float
    gamma_ratio: float


def check_initial_membership(
    u0: np.ndarray,
    u1: np.ndarray,
    y0: np.ndarray,
    constants: WellConstants,
    ops: DiscreteOperators,
    params: PhysicalParams,
    kernel: RelaxationKernel,
) -> StableSetReport:
    """Strict inequalities E(0) < d1 and gamma_fn(0) < lambda1.

    gamma_fn(0) has no memory term; the energy at t = 0 has no accumulated
    kernel mass.
    """
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (len(ops.mesh.gamma1_nodes),))
    gns = grad_norm_sq(ops, u0)
    kirchhoff = params.kirchhoff_potential(gns)
    boundary = boundary_quadratic(ops, y0, params.q_c)
    gamma0 = math.sqrt(kernel.l_value * gns + kirchhoff + boundary)
    E0 = (
        0.5 * l2_norm_sq(ops, u1)
        + 0.5 * params.a * gns
        + 0.5 * kirchhoff
        + 0.5 * boundary
    )
    if params.source_enabled:
        # overflowing data give int |u|^k = inf, so E0 = -inf and the
        # gamma0 inequality decides membership
        with np.errstate(over="ignore"):
            E0 -= lk_norm_pow(ops, u0, params.k_exp) / params.k_exp
    in_well = (E0 < constants.d1) and (gamma0 < constants.lambda1)
    return StableSetReport(
        E0=E0,
        gamma0=gamma0,
        lambda1=constants.lambda1,
        d1=constants.d1,
        in_well=in_well,
        energy_ratio=E0 / constants.d1,
        gamma_ratio=gamma0 / constants.lambda1,
    )


@dataclass(frozen=True)
class InvarianceVerdict:
    passed: bool
    n_checked: int
    max_gamma_ratio: float
    max_energy_ratio: float
    first_violation_time: float | None = None


def verify_invariance(trajectory: Trajectory, constants: WellConstants) -> InvarianceVerdict:
    """Check gamma_fn(t) < lambda1 and E(t) < d1 at every recorded state."""
    max_g = 0.0
    max_e = -math.inf
    first_bad = None
    for rep in trajectory.reports:
        max_g = max(max_g, rep.gamma_fn / constants.lambda1)
        max_e = max(max_e, rep.total / constants.d1)
        bad = rep.gamma_fn >= constants.lambda1 or rep.total >= constants.d1
        if bad and first_bad is None:
            first_bad = rep.t
    return InvarianceVerdict(
        passed=first_bad is None,
        n_checked=len(trajectory.reports),
        max_gamma_ratio=max_g,
        max_energy_ratio=max_e,
        first_violation_time=first_bad,
    )
