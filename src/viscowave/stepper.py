"""Explicit time stepping for the coupled (u, u_t, y) system.

Semi-discrete form (lumped mass M, stiffness K, acoustic weights w):

  M u'' = -(a + b (u^T K u)^kappa) K u + int_0^t g(t-s) K u(s) ds
          + |u|^{k-2} u + w y_t           on the free nodes,
  y'    = (f4 - u_t - q y) / p            on the acoustic nodes,

where the boundary term enters through the natural boundary contribution of
the weak form.  The integrator is velocity Verlet (kick-drift-kick leapfrog)
with the Kirchhoff coefficient evaluated at the current iterate; the final
kick and the y-update treat the acoustic law by a trapezoidal rule, solved
pointwise in closed form at each acoustic node (the coupling is diagonal),
which keeps the scheme explicit and second order in dt.

Stability is monitored each step against the current Kirchhoff coefficient:
dt must stay below 2 * cfl_safety / sqrt(lam_max * M_kir), with lam_max
``lam_max_unit``, 1.05 times the largest generalized stiffness eigenvalue
(in 1D this reduces to the classical dt <= cfl_safety * h / sqrt(M_kir)).

Each new iterate is evaluated once (``_evaluate``): the force, and
|grad u|^2 and int |u|^k for the energy report, from one stiffness product
(``csr_product``) and one nodal source vector.

Floating-point errors: :func:`run` enters one
``np.errstate(over="ignore", invalid="ignore")`` around ``init_state``,
every step and every record, and restores the caller's state on the way
out.  On the way to a blow-up an overflow gives inf or nan, which the
finiteness checks turn into an abort, not a warning.  :func:`init_state`
enters its own as well (it runs once); :func:`step` does not, so a caller
that steps by hand enters it around its calls.

Aborts (CFL violation, non-finite fields or energy) raise
:class:`SimulationAbort` carrying the partial trajectory and the abort time;
blow-up of out-of-well data is an expected abort, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .assembly import (
    DiscreteOperators,
    PhysicalParams,
    csr_product,
    pin_gamma0,
    source_vector,
)
from .energy import EnergyReport, compute_energy
from .history import HistoryBuffer
from .kernels import RelaxationKernel


@dataclass(frozen=True)
class Forcing:
    """Optional source terms for manufactured-solution runs.

    ``f_omega(t)`` acts on the interior equation and returns one value per
    node, ``f_flux(t)`` on the flux boundary line and ``f_acoustic(t)`` on
    the acoustic law; the boundary callables return values aligned with the
    acoustic nodes.
    """

    f_omega: Callable | None = None
    f_flux: Callable | None = None
    f_acoustic: Callable | None = None


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    record_every: int = 1
    cfl_safety: float = 0.9
    forcing: Forcing | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")

    @property
    def n_steps(self) -> int:
        """Steps of a run; it ends at n_steps * dt, the nearest to t_end."""
        return int(round(self.t_end / self.dt))


class AcousticClosure(NamedTuple):
    """Per-run constants of the trapezoidal acoustic closure, one entry per
    acoustic node: the lumped mass m_g, c = dt/2 w / m_g and the denominator
    p + c + dt/2 q of the closed-form solve."""

    m_g: np.ndarray
    c: np.ndarray
    denom: np.ndarray


@dataclass
class SimState:
    """Solution snapshot; u, v live on all nodes (Dirichlet entries zero),
    y and y_t on the acoustic nodes.  ``accel`` caches the acceleration at t
    for the next Verlet kick; ``grad_sq`` = u.K u and ``lk`` = u.S(u) (0 with
    the source off) come from the same evaluation and feed the energy report.
    ``n`` counts the steps taken; t is n * dt, never a running sum of dt.
    ``closure`` depends only on dt, the operators and the coefficients:
    :func:`init_state` computes it and every step hands it on.

    :func:`step` builds a new state and never writes to the arrays of the
    one it was given, so a returned state can be kept without a copy.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    y_t: np.ndarray
    m_kir: float
    accel: np.ndarray
    grad_sq: float
    lk: float
    closure: AcousticClosure
    n: int = 0


@dataclass(frozen=True)
class AbortInfo:
    reason: str
    time: float


class SimulationAbort(RuntimeError):
    def __init__(self, reason: str, time: float, trajectory: "Trajectory | None" = None):
        super().__init__(f"{reason} at t = {time:.6g}")
        self.info = AbortInfo(reason=reason, time=time)
        self.trajectory = trajectory


@dataclass
class Trajectory:
    """What a run keeps: per record its time, energy report and acoustic
    field y, plus the state of the last record as ``final`` (None before
    the first).  States are kept by reference, never copied.  ``memory``
    is the history buffer's ``diagnostics()``."""

    memory: dict
    times: list[float] = field(default_factory=list)
    reports: list[EnergyReport] = field(default_factory=list)
    ys: list[np.ndarray] = field(default_factory=list)
    final: SimState | None = None

    def record(self, state: SimState, report: EnergyReport) -> None:
        """Append the record of ``state``; a report with a field that is
        not finite aborts the run instead."""
        if not all(map(math.isfinite, report)):
            raise SimulationAbort("blow-up or instability: non-finite energy", state.t)
        self.times.append(state.t)
        self.reports.append(report)
        self.ys.append(state.y)
        self.final = state

    @property
    def n_records(self) -> int:
        return len(self.times)


def _check_cfl(dt: float, m_kir: float, ops: DiscreteOperators, cfg: StepperConfig, t: float):
    lam = ops.lam_max_unit * m_kir
    if lam <= 0:
        return
    dt_max = 2.0 * cfg.cfl_safety / math.sqrt(lam)
    if dt > dt_max:
        raise SimulationAbort(
            f"CFL violation: dt = {dt:.3e} exceeds {dt_max:.3e} "
            f"(Kirchhoff coefficient {m_kir:.6g})",
            t,
        )


def _evaluate(
    t: float,
    u: np.ndarray,
    buffer: HistoryBuffer,
    params: PhysicalParams,
    ops: DiscreteOperators,
    forcing: Forcing | None,
):
    """Push the new iterate ``u`` at t and evaluate it once.

    Returns (F / M_lump, M_kir, u.K u, u.S(u)).  Zeroing F on Gamma_0 is
    the step's one Dirichlet pin: it keeps u, v and accel zero there.  As u
    is zero on Gamma_0, u.S(u) is int |u_h|^k by the source's own rule.
    """
    ku = csr_product(ops.stiffness, u)
    grad_sq = float(u @ ku)
    buffer.push(t, ku, grad_sq)
    m_kir = params.kirchhoff_coefficient(grad_sq)
    F = ku  # the buffer copied K u; F is built in its place
    F *= -m_kir
    F += buffer.convolution_force(t)
    lk = 0.0
    if params.source_enabled:
        S = source_vector(ops, u, params.k_exp)
        F += S
        lk = float(u @ S)
    if forcing is not None and forcing.f_omega is not None:
        F += ops.mass_lumped * forcing.f_omega(t)
    F[ops.mesh.gamma0_nodes] = 0.0
    F /= ops.mass_lumped
    return F, m_kir, grad_sq, lk


def _check_finite(t: float, *fields: np.ndarray) -> None:
    for f in fields:
        if not np.isfinite(f).all():
            raise SimulationAbort("blow-up or instability: non-finite field values", t)


def _boundary_forcing(forcing: Forcing | None, t: float, n_gamma1: int):
    """(f3, f4) at t on the acoustic nodes; None stands for a term that is
    absent, which the closure skips instead of adding zeros."""
    if forcing is None:
        return None, None
    return tuple(
        None if f is None else np.broadcast_to(np.asarray(f(t), dtype=float), (n_gamma1,))
        for f in (forcing.f_flux, forcing.f_acoustic)
    )


def init_state(
    u0: np.ndarray,
    u1: np.ndarray,
    y0: np.ndarray,
    ops: DiscreteOperators,
    params: PhysicalParams,
    buffer: HistoryBuffer,
    cfg: StepperConfig,
) -> SimState:
    """Initial state at t = 0; pushes the initial snapshot into the buffer."""
    mesh = ops.mesh
    u = pin_gamma0(mesh, u0)
    v = pin_gamma0(mesh, u1)
    y = np.broadcast_to(np.asarray(y0, dtype=float), (len(mesh.gamma1_nodes),)).copy()

    with np.errstate(over="ignore", invalid="ignore"):
        accel, m_kir, grad_sq, lk = _evaluate(0.0, u, buffer, params, ops, cfg.forcing)
    f3, f4 = _boundary_forcing(cfg.forcing, 0.0, len(mesh.gamma1_nodes))
    m_g = ops.mass_lumped[mesh.gamma1_nodes]
    c = 0.5 * cfg.dt * mesh.gamma1_weights / m_g
    closure = AcousticClosure(m_g=m_g, c=c, denom=params.p_c + c + 0.5 * cfg.dt * params.q_c)
    v_g = v[mesh.gamma1_nodes]
    y_t = ((-v_g if f4 is None else f4 - v_g) - params.q_c * y) / params.p_c
    accel[mesh.gamma1_nodes] += mesh.gamma1_weights * (y_t if f3 is None else y_t + f3) / m_g
    _check_finite(0.0, u, v, y, accel)
    _check_cfl(cfg.dt, m_kir, ops, cfg, 0.0)
    return SimState(t=0.0, u=u, v=v, y=y, y_t=y_t, m_kir=m_kir, accel=accel,
                    grad_sq=grad_sq, lk=lk, closure=closure)


def step(
    state: SimState,
    ops: DiscreteOperators,
    params: PhysicalParams,
    buffer: HistoryBuffer,
    cfg: StepperConfig,
) -> SimState:
    """Advance one step of size cfg.dt (buffer must be current at state.t).

    u1 and v1 are the two halves of one new array, so one finiteness test
    covers both; y1 has an array of its own, as a record keeps it.

    ``step`` enters no ``np.errstate`` of its own: :func:`run` enters one
    around the whole run.  A caller that steps by hand wraps its calls in
    ``np.errstate(over="ignore", invalid="ignore")`` too, or an overflow
    on the way to a blow-up warns before the finiteness check aborts.
    """
    dt = cfg.dt
    hdt = 0.5 * dt
    g1 = ops.mesh.gamma1_nodes
    w1 = ops.mesh.gamma1_weights
    n = ops.n_nodes
    n1 = state.n + 1
    t1 = n1 * dt

    uv = np.empty(2 * n)
    u1, v1 = uv[:n], uv[n:]
    v_half = state.accel * hdt
    v_half += state.v
    np.multiply(v_half, dt, out=u1)
    u1 += state.u

    accel1, m_kir1, grad_sq1, lk1 = _evaluate(t1, u1, buffer, params, ops, cfg.forcing)
    np.multiply(accel1, hdt, out=v1)
    v1 += v_half

    f3 = f4 = None
    if cfg.forcing is not None:
        f3, f4 = _boundary_forcing(cfg.forcing, t1, len(g1))
    m_g, c, denom = state.closure
    # trapezoidal closure of the boundary triple (v, y, y_t), pointwise:
    #   v1 = A + c z,  y1 = y + dt/2 (y_t + z),  p z = f4 - v1 - q y1
    # with A = v_half + dt/2 a_g, which is v1 as it stands without f3;
    # z = ((f4 - A) - q y - dt/2 q y_t) / denom, built in place
    if f3 is None:
        A = v1[g1]
    else:
        A = v_half[g1] + hdt * (accel1[g1] + w1 * f3 / m_g)
    z = np.negative(A) if f4 is None else f4 - A
    z -= params.q_c * state.y
    z -= hdt * params.q_c * state.y_t
    z /= denom

    v1[g1] = A + c * z
    y1 = np.add(state.y_t, z)
    y1 *= hdt
    np.add(state.y, y1, out=y1)
    accel1[g1] += w1 * (z if f3 is None else z + f3) / m_g

    _check_finite(t1, uv, y1)
    _check_cfl(dt, m_kir1, ops, cfg, t1)

    return SimState(t=t1, u=u1, v=v1, y=y1, y_t=z, m_kir=m_kir1, accel=accel1,
                    grad_sq=grad_sq1, lk=lk1, closure=state.closure, n=n1)


def run(
    u0: np.ndarray,
    u1: np.ndarray,
    y0: np.ndarray,
    ops: DiscreteOperators,
    kernel: RelaxationKernel,
    params: PhysicalParams,
    cfg: StepperConfig,
) -> Trajectory:
    """Integrate to t_end, recording every record_every-th step.

    The memory term is always on: a memory-free reference run passes a
    kernel with g0 = 0, whose every memory quantity is exactly zero.  For
    uniformly spaced records choose t_end as a multiple of
    record_every * dt.  On abort the partial trajectory is attached to the
    raised :class:`SimulationAbort`.
    """
    n_steps = cfg.n_steps
    buffer = HistoryBuffer(kernel, ops.n_nodes, horizon=n_steps * cfg.dt)
    traj = Trajectory(memory=buffer.diagnostics())
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            state = init_state(u0, u1, y0, ops, params, buffer, cfg)
            traj.record(state, compute_energy(state, buffer, kernel, params, ops))
            for i in range(1, n_steps + 1):
                state = step(state, ops, params, buffer, cfg)
                if i % cfg.record_every == 0:
                    traj.record(state, compute_energy(state, buffer, kernel, params, ops))
    except SimulationAbort as ab:
        raise SimulationAbort(ab.info.reason, ab.info.time, trajectory=traj) from None
    return traj


# ----------------------------------------------------------------------
# manufactured solutions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ManufacturedSolution:
    """The field u(x, t) = profile(x) cos t with y(t) = sin t.

    ``profile``, its Laplacian ``lap`` and its outward normal derivative
    ``flux`` map node coordinates (an (n, dim) array) to values; ``flux`` is
    read at the acoustic nodes.  ``grad_sq`` is int |grad profile|^2, so
    that |grad u(t)|^2 = grad_sq cos^2 t.
    """

    profile: Callable
    lap: Callable
    flux: Callable
    grad_sq: float


@dataclass(frozen=True)
class ManufacturedCase:
    forcing: Forcing
    u0: np.ndarray
    u1: np.ndarray
    y0: np.ndarray
    boundary_residual: dict


# Sample times in [0, t_end] at which the boundary residual is taken.
_N_CHECK = 33


def build_manufactured_case(
    msol: ManufacturedSolution,
    ops: DiscreteOperators,
    params: PhysicalParams,
    kernel: RelaxationKernel,
    t_end: float,
) -> ManufacturedCase:
    """Forcing and initial data that make ``msol`` an exact solution.

    Every memory term is a profile term times int_0^t g(t - tau) cos tau dtau,
    taken in closed form over the kernel's sum of exponentials on [0, t_end],
    g ~ Re sum_j c_j e^{-s_j t}, the expansion the run steps with:

      Re sum_j c_j (s_j cos t + sin t - s_j e^{-s_j t}) / (s_j^2 + 1).

    Rejects a profile violating the Dirichlet condition.  The acoustic pair
    is forced exactly (line-3 and line-4 forcing); the returned boundary
    residual reports how incompatible the unforced pair would be.
    """
    mesh = ops.mesh
    coords = mesh.nodes
    # the nodal fields, evaluated once: each step of f_Omega only scales them
    profile, lap = msol.profile(coords), msol.lap(coords)
    worst_g0 = float(np.max(np.abs(profile[mesh.gamma0_nodes]), initial=0.0))
    if worst_g0 > 1e-12:
        raise ValueError(
            f"manufactured field violates the Dirichlet condition: max |u| on "
            f"Gamma_0 is {worst_g0:.3e}"
        )
    expansion = kernel.exp_sum(t_end)
    c, s = expansion.coeffs, expansion.rates
    flux = msol.flux(coords[mesh.gamma1_nodes])
    profile_g1 = profile[mesh.gamma1_nodes]
    k = params.k_exp
    source = np.abs(profile) ** (k - 2.0) * profile if params.source_enabled else None

    def stress(t: float) -> float:
        """M(|grad u|^2) cos t - int_0^t g(t - tau) cos tau dtau, the time
        factor of the Kirchhoff term net of the memory."""
        cos_t, sin_t = math.cos(t), math.sin(t)
        memory = (c * (s * cos_t + sin_t - s * np.exp(-s * t)) / (s * s + 1.0)).sum().real
        return params.kirchhoff_coefficient(msol.grad_sq * cos_t**2) * cos_t - float(memory)

    def f_omega(t):
        cos_t = math.cos(t)
        out = profile * -cos_t
        out -= stress(t) * lap
        if source is not None:  # |u|^{k-2} u with u = profile cos t
            out -= abs(cos_t) ** (k - 2.0) * cos_t * source
        return out

    def f_flux(t):
        return stress(t) * flux - math.cos(t)

    def f_acoustic(t):
        return params.p_c * math.cos(t) + params.q_c * math.sin(t) - profile_g1 * math.sin(t)

    t_samples = np.linspace(0.0, max(t_end, 1e-12), _N_CHECK)
    residual = {
        "flux_max": max(float(np.max(np.abs(f_flux(t)))) for t in t_samples),
        "acoustic_max": max(float(np.max(np.abs(f_acoustic(t)))) for t in t_samples),
    }
    forcing = Forcing(f_omega=f_omega, f_flux=f_flux, f_acoustic=f_acoustic)
    return ManufacturedCase(forcing=forcing, u0=pin_gamma0(mesh, profile),
                            u1=np.zeros(mesh.n_nodes), y0=np.zeros(len(profile_g1)),
                            boundary_residual=residual)


def sine_solution(extent: tuple[float, ...]) -> ManufacturedSolution:
    """sin x in 1D and sin x sin(pi y / L_y) in 2D, on [0, L_x] (x [0, L_y]).

    The profile vanishes on every face but the right one, where its normal
    derivative cos L_x (times sin(pi y / L_y)) drives the flux and boundary
    memory terms: the case for a domain whose acoustic face is the right
    face alone.
    """
    lx = extent[0]
    cos_sq = 0.5 * lx + 0.25 * math.sin(2.0 * lx)  # int_0^L_x cos^2 x dx
    if len(extent) == 1:
        return ManufacturedSolution(
            profile=lambda x: np.sin(x[:, 0]),
            lap=lambda x: -np.sin(x[:, 0]),
            flux=lambda x: np.cos(x[:, 0]),
            grad_sq=cos_sq,
        )
    k = math.pi / extent[1]
    # sin^2(k y) and cos^2(k y) both integrate to L_y / 2 over [0, L_y]
    return ManufacturedSolution(
        profile=lambda x: np.sin(x[:, 0]) * np.sin(k * x[:, 1]),
        lap=lambda x: -(1.0 + k * k) * np.sin(x[:, 0]) * np.sin(k * x[:, 1]),
        flux=lambda x: np.cos(x[:, 0]) * np.sin(k * x[:, 1]),
        grad_sq=0.5 * extent[1] * (cos_sq + k * k * (lx - cos_sq)),
    )
