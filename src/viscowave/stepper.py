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
dt must stay below 2 * cfl_safety / sqrt(lam_max * M_kir), with lam_max the
assembled estimate of the largest generalized stiffness eigenvalue (in 1D
this reduces to the classical dt <= cfl_safety * h / sqrt(M_kir)).

Each new iterate is evaluated once (``_evaluate``): the force, and
|grad u|^2 and int |u|^k for the energy report, from one stiffness product
and one nodal source vector.

Aborts (CFL violation, non-finite fields or energy) raise
:class:`SimulationAbort` carrying the partial trajectory and the abort time;
blow-up of out-of-well data is an expected abort, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .assembly import DiscreteOperators, PhysicalParams, pin_gamma0, source_vector
from .energy import EnergyReport, compute_energy
from .history import HistoryBuffer
from .kernels import ConstantRate, RelaxationKernel


@dataclass(frozen=True)
class Forcing:
    """Optional source terms for manufactured-solution runs.

    ``f_omega(t, coords)`` acts on the interior equation, ``f_flux(t)`` on
    the flux boundary line and ``f_acoustic(t)`` on the acoustic law; the
    boundary callables return values aligned with the acoustic nodes.
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


@dataclass
class SimState:
    """Solution snapshot; u, v live on all nodes (Dirichlet entries zero),
    y and y_t on the acoustic nodes.  ``accel`` caches the acceleration at t
    for the next Verlet kick; ``grad_sq`` = u.K u and ``lk`` = u.S(u) (0 with
    the source off) come from the same evaluation and feed the energy report.
    ``n`` counts the steps taken; t is n * dt, never a running sum of dt.

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
        """Append the record of ``state``; a report that is not finite
        aborts the run instead."""
        if not all(map(math.isfinite, vars(report).values())):
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
    ku = ops.stiffness @ u
    grad_sq = float(u @ ku)
    buffer.push(t, ku, grad_sq)
    m_kir = params.kirchhoff_coefficient(grad_sq)
    F = -m_kir * ku + buffer.convolution_force(t)
    lk = 0.0
    if params.source_enabled:
        S = source_vector(ops, u, params.k_exp)
        F += S
        lk = float(u @ S)
    if forcing is not None and forcing.f_omega is not None:
        F += ops.mass_lumped * forcing.f_omega(t, ops.mesh.nodes)
    F[ops.mesh.gamma0_nodes] = 0.0
    return F / ops.mass_lumped, m_kir, grad_sq, lk


def _check_finite(t: float, *fields: np.ndarray) -> None:
    if not np.isfinite(np.concatenate(fields)).all():
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
    v_g = v[mesh.gamma1_nodes]
    y_t = ((-v_g if f4 is None else f4 - v_g) - params.q_c * y) / params.p_c
    accel[mesh.gamma1_nodes] += (
        mesh.gamma1_weights * (y_t if f3 is None else y_t + f3)
        / ops.mass_lumped[mesh.gamma1_nodes]
    )
    _check_finite(0.0, u, v, y, accel)
    _check_cfl(cfg.dt, m_kir, ops, cfg, 0.0)
    return SimState(t=0.0, u=u, v=v, y=y, y_t=y_t, m_kir=m_kir, accel=accel,
                    grad_sq=grad_sq, lk=lk)


def step(
    state: SimState,
    ops: DiscreteOperators,
    params: PhysicalParams,
    buffer: HistoryBuffer,
    cfg: StepperConfig,
) -> SimState:
    """Advance one step of size cfg.dt (buffer must be current at state.t)."""
    dt = cfg.dt
    g1 = ops.mesh.gamma1_nodes
    w1 = ops.mesh.gamma1_weights
    n1 = state.n + 1
    t1 = n1 * dt

    v_half = state.v + 0.5 * dt * state.accel
    u1 = state.u + dt * v_half

    with np.errstate(over="ignore", invalid="ignore"):
        accel1, m_kir1, grad_sq1, lk1 = _evaluate(t1, u1, buffer, params, ops, cfg.forcing)

        f3, f4 = _boundary_forcing(cfg.forcing, t1, len(g1))
        m_g = ops.mass_lumped[g1]
        # trapezoidal closure of the boundary triple (v, y, y_t), pointwise:
        #   v1 = A + c z,  y1 = y + dt/2 (y_t + z),  p z = f4 - v1 - q y1
        a_g = accel1[g1] if f3 is None else accel1[g1] + w1 * f3 / m_g
        A = v_half[g1] + 0.5 * dt * a_g
        c = 0.5 * dt * w1 / m_g
        z = ((-A if f4 is None else f4 - A) - params.q_c * state.y
             - 0.5 * dt * params.q_c * state.y_t) / (params.p_c + c + 0.5 * dt * params.q_c)

        v1 = v_half + 0.5 * dt * accel1
        v1[g1] = A + c * z
        y1 = state.y + 0.5 * dt * (state.y_t + z)
        accel1[g1] += w1 * (z if f3 is None else z + f3) / m_g

    _check_finite(t1, u1, v1, y1)
    _check_cfl(dt, m_kir1, ops, cfg, t1)

    return SimState(t=t1, u=u1, v=v1, y=y1, y_t=z, m_kir=m_kir1, accel=accel1,
                    grad_sq=grad_sq1, lk=lk1, n=n1)


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
    n_steps = int(round(cfg.t_end / cfg.dt))
    buffer = HistoryBuffer(kernel, ops.n_nodes, horizon=n_steps * cfg.dt)
    traj = Trajectory(memory=buffer.diagnostics())
    try:
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
    """Closed-form space-time field with the derivatives the forcing needs.

    The Laplacian and the boundary flux must be separable,
    lap(x, t) = lap_space(x) * lap_time(t) and likewise for the flux; their
    memory convolutions are then scalar integrals, taken from the optional
    closed-form callables when given and by adaptive quadrature otherwise.
    ``grad_sq(t)`` (= |grad u|^2) is required only when b > 0.
    """

    u: Callable
    u_t: Callable
    u_tt: Callable
    y: Callable
    y_t: Callable
    lap_space: Callable | None = None
    lap_time: Callable | None = None
    lap_memory: Callable | None = None
    flux_space: Callable | None = None
    flux_time: Callable | None = None
    flux_memory: Callable | None = None
    grad_sq: Callable | None = None


@dataclass(frozen=True)
class ManufacturedCase:
    forcing: Forcing
    u0: np.ndarray
    u1: np.ndarray
    y0: np.ndarray
    boundary_residual: dict


def _memory_scalar(kernel, time_factor, closed_form, t):
    if closed_form is not None:
        return float(closed_form(t))
    if t == 0.0:
        return 0.0
    val, _ = quad(lambda s: float(kernel.g(t - s)) * float(time_factor(s)), 0.0, t,
                  epsrel=1e-10, limit=200)
    return val


# Sample times in [0, t_end] at which the manufactured field's Dirichlet
# trace is checked.
_N_CHECK = 33


def build_manufactured_case(
    msol: ManufacturedSolution,
    ops: DiscreteOperators,
    params: PhysicalParams,
    kernel: RelaxationKernel,
    t_end: float,
) -> ManufacturedCase:
    """Forcing and initial data that make ``msol`` an exact solution.

    Rejects fields violating the Dirichlet condition.  The acoustic pair is
    forced exactly (line-3 and line-4 forcing); the returned boundary
    residual reports how incompatible the unforced pair would be.
    """
    mesh = ops.mesh
    coords = mesh.nodes
    g1_coords = coords[mesh.gamma1_nodes]
    t_samples = np.linspace(0.0, max(t_end, 1e-12), _N_CHECK)

    worst_g0 = max(
        float(np.max(np.abs(msol.u(coords[mesh.gamma0_nodes], t)), initial=0.0))
        for t in t_samples
    )
    if worst_g0 > 1e-12:
        raise ValueError(
            f"manufactured field violates the Dirichlet condition: max |u| on "
            f"Gamma_0 is {worst_g0:.3e}"
        )

    def m_kir_of(t: float) -> float:
        if params.b == 0.0:
            return params.a
        if msol.grad_sq is None:
            raise ValueError("grad_sq closed form is required when b > 0")
        return params.kirchhoff_coefficient(float(msol.grad_sq(t)))

    def f_omega(t, x):
        out = np.asarray(msol.u_tt(x, t), dtype=float).copy()
        if msol.lap_space is not None:
            lap = np.asarray(msol.lap_space(x), dtype=float)
            out -= m_kir_of(t) * lap * float(msol.lap_time(t))
            out += lap * _memory_scalar(kernel, msol.lap_time, msol.lap_memory, t)
        if params.source_enabled:
            uval = np.asarray(msol.u(x, t), dtype=float)
            out -= np.abs(uval) ** (params.k_exp - 2.0) * uval
        return out

    def f_flux(t):
        flux = np.asarray(msol.flux_space(g1_coords), dtype=float)
        total = m_kir_of(t) * flux * float(msol.flux_time(t))
        total -= flux * _memory_scalar(kernel, msol.flux_time, msol.flux_memory, t)
        return total - msol.y_t(t)

    def f_acoustic(t):
        return (
            np.asarray(msol.u_t(g1_coords, t), dtype=float)
            + params.p_c * msol.y_t(t)
            + params.q_c * msol.y(t)
        )

    residual = {
        "flux_max": max(float(np.max(np.abs(f_flux(t)))) for t in t_samples),
        "acoustic_max": max(float(np.max(np.abs(f_acoustic(t)))) for t in t_samples),
    }

    u0 = pin_gamma0(mesh, np.asarray(msol.u(coords, 0.0), dtype=float))
    u1 = pin_gamma0(mesh, np.asarray(msol.u_t(coords, 0.0), dtype=float))
    y0 = np.broadcast_to(np.asarray(msol.y(0.0), dtype=float),
                         (len(mesh.gamma1_nodes),)).copy()
    forcing = Forcing(f_omega=f_omega, f_flux=f_flux, f_acoustic=f_acoustic)
    return ManufacturedCase(forcing=forcing, u0=u0, u1=u1, y0=y0,
                            boundary_residual=residual)


def linear_profile_solution(kernel: RelaxationKernel,
                            length: float = 1.0) -> ManufacturedSolution:
    """The shipped 1D case u(x, t) = x cos t with y(t) = sin t.

    The profile is linear in x, so the Laplacian vanishes, the interior
    forcing is -x cos t, and the P1 space reproduces the field exactly:
    the measured error isolates the time integrator.  Needs the Dirichlet
    face at the left end and the acoustic face at the right end.
    """
    alpha = kernel.rate.alpha if isinstance(kernel.rate, ConstantRate) else None

    def flux_memory(t):
        # int_0^t g0 e^{-alpha (t-s)} cos s ds, closed form
        return kernel.g0 * (alpha * math.cos(t) + math.sin(t)
                            - alpha * math.exp(-alpha * t)) / (1.0 + alpha * alpha)

    return ManufacturedSolution(
        u=lambda x, t: x[:, 0] * math.cos(t),
        u_t=lambda x, t: -x[:, 0] * math.sin(t),
        u_tt=lambda x, t: -x[:, 0] * math.cos(t),
        y=lambda t: math.sin(t),
        y_t=lambda t: math.cos(t),
        flux_space=lambda xg: np.ones(len(xg)),
        flux_time=lambda t: math.cos(t),
        flux_memory=flux_memory if alpha is not None else None,
        grad_sq=lambda t: length * math.cos(t) ** 2,
    )
