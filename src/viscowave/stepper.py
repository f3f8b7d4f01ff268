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

Stability is monitored each step against the current Kirchhoff coefficient
M_kir.  This module alone owns the CFL margins: with lam_max the largest
eigenvalue of M_lump^{-1} K (``ops.lam_max``, exact), dt must stay below

  2 CFL_SAFETY / sqrt(LAM_MARGIN lam_max M_kir),  CFL_SAFETY = 0.9,
                                                  LAM_MARGIN = 1.05.

On an interval of m cells, pinned at the left end and acoustic at the
right, lam_max is (4 / h^2) cos^2(pi / 4m), so the bound reads
dt <= 0.9 h / (sqrt(1.05 M_kir) cos(pi / 4m)): about 2.4% below the
classical 0.9 h / sqrt(M_kir) on 64 cells.

A run is one :class:`AcousticClosure`: the operators, coefficients and
config it is built with, the history buffer and record form it builds,
and the constants derived from them.  Every state refers to its run, so
``step(state)`` and ``compute_energy(state)`` take nothing else.

A state is one float array (layout in :class:`AcousticClosure`): accel,
u, v, y and y_t, then the closure's slots for the boundary increments of v
and accel, f3 and f4, the previous (y, y_t), and last the source vector
S(u).  A run owns two such arrays, and every view a step reads or writes of
each is bound once, by the closure.  A step writes the new state
into the array of the pair that the old state does not hold, in fixed
stages:

  drift     one (2, 3) product maps the rows (accel, u, v) to (u1, v_half);
  force     the new iterate is evaluated once (``_evaluate``): one
            product with K's stencil (``ops.stiffness``) writes K u into
            the history ring's row that the next push keeps
            (``HistoryBuffer.next_ku``), and the push stores it with
            |grad u|^2 = u.K u and copies nothing (a multi-term kernel's
            every 16th push folds the ring into the history's
            accumulators, a one-term kernel's every push); one real
            product of the weight row of the push's block position with
            the history's K u columns writes the memory force less
            M_kir K u into accel, as the newest row holds K u; the nodal
            source vector, written into the source slot, is added to it;
            one multiply by 1 / M_lump, zero on Gamma_0, makes it accel.
            No step forms int |u|^k = u.S(u): a record reads it off the
            source slot (``SimState.lk``);
  closure   after the kick, one per-run sparse map takes (v on Gamma_1, f3,
            f4, y_prev, y_t_prev) to (y1, y_t1, dv, da), and one scatter
            adds dv and da into v and accel on Gamma_1.  Absent forcing
            leaves f3 and f4 zero, so every step takes the same path;
  check     one dot product of the run of u, v, y and y_t with zeros (an
            ``ndarray.dot``, as is every product of a step and a record
            with contiguous operands: the ``@`` operator dispatches through
            the matmul ufunc at a higher cost for the same product): 0 x is
            0 for every finite x and nan for an infinite or nan one, so the
            product is finite exactly when every entry is.  accel and S are left
            out: a non-finite one reaches u and v, and aborts, one step
            later.  Then one comparison of M_kir with the run's CFL bound
            ``m_kir_max``.

So a step allocates no state array, and a state it returned stays valid
until the second step after it, which writes its array again.

A record (every record_every-th step, and t = 0) is one
:func:`~viscowave.energy.compute_energy` call on the new state.  It writes
what needs the history at that push, |grad u|^2 and the history's two memory
functionals, into the record's raw row of a table allocated once per run,
and copies the state's array, source slot included, into the next row of the
run's snapshot block.  The record that fills the block runs the block pass,
which derives the rest of every row of the block from its snapshots at once:
the time, u.S(u) off the source slot, y and the four quadratics, from each
snapshot's sparse product over its run of u, v, y and y_t
(``closure.checked``), multiplied and summed once for the block.  It then
checks each row, as the step's check does a state; a row with a value that
is not finite aborts the run at its record's time.  The block holds as many
snapshots as a byte budget allows, 32 at most: 32 on a 64-cell interval, 7
on a 32 x 32 square, one on a 64 x 64 square.  The closure's ``form`` holds
the per-run constants of a record, built once: the table, the snapshot
block, the tables of g(t) and int_0^t g on the record grid and the
block-diagonal record operator.  After the last step, or an abort, the block
pass runs on the last, partial block; then one vectorized pass derives the
report fields of every record from the table
(:meth:`~viscowave.energy._RecordForm.columns`), the snapshot of the last
record kept is the trajectory's final state (a copy, unless the block holds
one row), and :func:`run` lets the closure's buffer, form and pair go.

Floating-point errors: :func:`run` enters one
``np.errstate(over="ignore", invalid="ignore")`` around ``init_state``,
every step, every record and the derivation of the report fields, and
restores the caller's state on the way out.  On the way to a blow-up an overflow gives inf or nan, which the
finiteness check turns into an abort, not a warning.  :func:`init_state`
enters its own as well (it runs once); :func:`step` does not, so a caller
that steps by hand enters it around its calls.

Aborts (CFL violation, non-finite fields or energy) raise
:class:`SimulationAbort` carrying the partial trajectory and the abort time;
blow-up of out-of-well data is an expected abort, not a bug.  A raw row
that is not finite aborts at its record's time, with the records before it,
once the block pass that checks it runs: when its block is full, or after
a later abort of the run inside that block, which it replaces as the
earlier one.  A report field can overflow from finite raw values only when
they exceed about 1e150; the pass after the last step finds such a field
and raises the same abort at that record's time, with the records before
it, in place of any later abort of the run.  After an energy abort the
trajectory's final state is the last record kept while the snapshot block
still holds it, and None once a later record of the block wrote over it:
when the first record of a block aborts, and so at every energy abort of a
run whose block holds one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .assembly import (
    DiscreteOperators,
    PhysicalParams,
    _csr_accumulate,
    dia_product,
    pin_gamma0,
    source_vector,
)
from .energy import EnergyReport, _not_current, _RecordForm, _reports, compute_energy
from .history import HistoryBuffer
from .kernels import RelaxationKernel

# The CFL margins of the bound the module docstring derives.
CFL_SAFETY = 0.9
LAM_MARGIN = 1.05


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
    forcing: Forcing | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    @property
    def n_steps(self) -> int:
        """Steps of a run; it ends at n_steps * dt, the nearest to t_end."""
        return int(round(self.t_end / self.dt))


class _Slots:
    """One state array ``x`` of a run and the views of it that a step reads
    (as the old state) or writes (as the new one), bound once; the names are
    those of the slices of :class:`AcousticClosure`, and ``drift_in``,
    ``drift_out`` and ``forcing`` are shaped (3, n), (2, n) and (2, m)."""

    __slots__ = ("x", "drift_in", "drift_out", "cleared", "previous", "acoustic", "forcing",
                 "accel", "u", "v", "closed", "increments", "checked", "source")

    def __init__(self, x: np.ndarray, closure: AcousticClosure):
        self.x = x
        for name in self.__slots__[1:]:
            setattr(self, name, x[getattr(closure, name)])
        self.drift_in = self.drift_in.reshape(3, -1)
        self.drift_out = self.drift_out.reshape(2, -1)
        self.forcing = self.forcing.reshape(2, -1)


class AcousticClosure:
    """A run: the ``ops``, ``params`` and ``cfg`` it is built with, the
    history ``buffer`` and record ``form`` it builds, and the per-run
    constants of a step.  Every step hands the same object on, and a deep
    copy of a state shares it.  When :func:`run` returns or raises, it sets
    ``buffer``, ``form`` and ``pair`` to None; the layout stays.

    A state lives in one float array ``x``, in slots of n (nodes) or m
    (acoustic nodes) entries:

      accel | u | v | y | y_t | dv | da | f3 | f4 | y_prev | y_t_prev | S
        n     n   n   m   m    m    m    m    m     m        m        n

    The slices below name the slots and the runs of slots a step reads or
    writes at once.  S, the slot ``source``, holds the nodal source vector
    S(u) of the state's u, written by the step's evaluation with the
    params' source on and left zero otherwise; it is
    outside the checked run, as a non-finite S reaches u a step later.

    * ``m_kir_max`` = (2 CFL_SAFETY / dt)^2 / (LAM_MARGIN lam_max), the
      largest M_kir for which dt meets the CFL bound;
    * ``drift`` = [[dt^2/2, 1, dt], [dt/2, 0, 1]] maps the rows
      (accel, u, v) of the old array to (u1, v_half) of the new one;
    * ``inv_mass`` is 1 / M_lump, zero on Gamma_0;
    * ``map`` is the trapezoidal closure of the boundary triple
      (v, y, y_t), pointwise at each acoustic node,

        v1 = A + c z,  y1 = y + dt/2 (y_t + z),  p z = f4 - v1 - q y1,

      with A = v + c f3, v the kicked velocity without the boundary terms
      and c = dt/2 w / m_g, solved in closed form,

        z = (f4 - A - q y - dt/2 q y_t) / (p + c + dt/2 q),
        dv = c (f3 + z),  da = (w / m_g) (z + f3),

      as one linear map from (v, f3, f4, y_prev, y_t_prev) to
      (y1, z, dv, da), the runs ``closed`` of the new array, held as the
      CSR arrays (indptr, indices, data) of its 4 m rows, five entries
      each, with columns ascending;
    * ``scatter`` holds the places of v and accel on Gamma_1, into which
      dv and da, the run ``increments``, are added;
    * ``pair`` holds the run's two state arrays, each with its bound views
      (a ``_Slots``), and ``zero`` the zeros of the finiteness check.
    """

    def __init__(self, ops: DiscreteOperators, kernel: RelaxationKernel, params: PhysicalParams,
                 cfg: StepperConfig):
        self.ops, self.params, self.cfg = ops, params, cfg
        self.buffer = HistoryBuffer(kernel, ops.n_nodes, cfg.dt, cfg.n_steps)
        dt = cfg.dt
        self.m_kir_max = (2.0 * CFL_SAFETY / dt) ** 2 / (LAM_MARGIN * ops.lam_max)
        mesh = ops.mesh
        g1 = mesh.gamma1_nodes
        n, m = ops.n_nodes, len(g1)
        self.size = 4 * n + 8 * m
        self.accel, self.u, self.v = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
        b = 3 * n  # the first acoustic slot
        self.y, self.y_t = slice(b, b + m), slice(b + m, b + 2 * m)
        self.drift_in, self.drift_out = slice(0, b), slice(n, b)
        self.checked = slice(n, b + 2 * m)  # u, v, y, y_t: checked and recorded
        self.acoustic, self.closed = slice(b, b + 2 * m), slice(b, b + 4 * m)
        self.increments = slice(b + 2 * m, b + 4 * m)
        self.cleared = slice(b, b + 6 * m)  # the map's output and f3, f4
        self.forcing, self.previous = slice(b + 4 * m, b + 6 * m), slice(b + 6 * m, b + 8 * m)
        self.source = slice(b + 8 * m, b + 8 * m + n)

        hdt = 0.5 * dt
        self.drift = np.array([[hdt * dt, 1.0, dt], [hdt, 0.0, 1.0]])
        inv_mass = 1.0 / ops.mass_lumped
        inv_mass[mesh.gamma0_nodes] = 0.0
        self.inv_mass = inv_mass

        p, q = params.p_c, params.q_c
        r = mesh.gamma1_weights / ops.mass_lumped[g1]
        c = hdt * r
        d = p + c + hdt * q
        pc, pq = (p + c) / d, (p + hdt * q) / d
        # rows y1, z, dv, da; columns v, f3, f4, y_prev, y_t_prev.  1 - dt/2 q / d
        # is written (p + c) / d and 1 - c / d is (p + dt/2 q) / d, free of
        # cancellation
        coeffs = np.array([
            [-hdt / d, -hdt * c / d, hdt / d, pc, hdt * pc],
            [-1.0 / d, -c / d, 1.0 / d, -q / d, -hdt * q / d],
            [-c / d, c * pq, c / d, -c * q / d, -hdt * c * q / d],
            [-r / d, r * pq, r / d, -r * q / d, -hdt * r * q / d],
        ])
        # row i m + k holds node k's five columns, ascending as listed
        k = np.arange(m)
        cols = np.array([2 * n + g1, b + 4 * m + k, b + 5 * m + k, b + 6 * m + k, b + 7 * m + k])
        self.map = (np.arange(0, 20 * m + 1, 5, dtype=np.int32),
                    np.tile(cols.T.ravel(), 4).astype(np.int32),
                    coeffs.transpose(0, 2, 1).ravel())
        self.scatter = np.concatenate([2 * n + g1, g1])
        self.zero = np.zeros(2 * n + 2 * m)
        self.pair = (_Slots(np.zeros(self.size), self), _Slots(np.zeros(self.size), self))
        self.form = _RecordForm(kernel, self)

    def __deepcopy__(self, memo):
        return self


@dataclass
class SimState:
    """Solution snapshot, held in one array ``x`` (layout in
    :class:`AcousticClosure`); u, v and accel live on all nodes (Dirichlet
    entries zero), y and y_t on the acoustic nodes, each a view of ``x``.
    ``accel`` caches the acceleration at t for the next Verlet kick;
    ``grad_sq`` = u.K u comes from the evaluation that made the state, and
    ``lk`` = u.S(u) is read, when asked for, off the source slot that the
    same evaluation wrote (exactly 0.0 with the source off); both feed the
    energy report.  ``n`` counts the
    steps taken; ``t`` is n * dt, never a running sum of dt.

    :func:`step` writes the new state into the other array of the run's
    pair, never into the one of the state it was given: a returned state
    stays valid until the second step after it.  A state kept for longer is
    copied (``copy.deepcopy``, or a copy of ``x`` as :class:`Trajectory`
    takes); stepping a state whose array lies outside the pair writes the
    pair's first array.  Only the newest state of a live run steps or
    records: an older one, or a finished run's snapshot, raises ValueError.
    """

    x: np.ndarray
    m_kir: float
    grad_sq: float
    closure: AcousticClosure
    n: int = 0

    @property
    def t(self) -> float:
        return self.n * self.closure.cfg.dt

    @property
    def lk(self) -> float:
        """u.S(u), read from the source slot, which the step's evaluation
        wrote; exactly 0.0 with the source off."""
        closure = self.closure
        if not closure.params.source_enabled:
            return 0.0
        x = self.x
        return float(x[closure.u].dot(x[closure.source]))

    @property
    def u(self) -> np.ndarray:
        return self.x[self.closure.u]

    @property
    def v(self) -> np.ndarray:
        return self.x[self.closure.v]

    @property
    def accel(self) -> np.ndarray:
        return self.x[self.closure.accel]

    @property
    def y(self) -> np.ndarray:
        return self.x[self.closure.y]

    @property
    def y_t(self) -> np.ndarray:
        return self.x[self.closure.y_t]


@dataclass(frozen=True)
class AbortInfo:
    reason: str
    time: float


class SimulationAbort(RuntimeError):
    def __init__(self, reason: str, time: float):
        super().__init__(f"{reason} at t = {time:.6g}")
        self.info = AbortInfo(reason=reason, time=time)
        self.trajectory: Trajectory | None = None


@dataclass
class Trajectory:
    """What a run keeps: its records as columns, plus the state of the last
    record as ``final``.

    ``energy`` maps each :class:`EnergyReport` field to one float array
    over the records; ``ys`` is the (records, m) array of the acoustic
    field y; ``times`` and ``reports`` are lists built from ``energy`` on
    first access.  ``final`` is the last record's snapshot (a copy of it,
    unless the block holds that one row alone), as later steps write the
    arrays of the run's pair again; it is None before
    the first record, and after an energy abort whose block no longer holds
    the last record kept (see the module docstring).  It is a snapshot,
    which can be neither stepped nor recorded.  ``memory`` is the history
    buffer's ``diagnostics()``."""

    memory: dict
    energy: dict[str, np.ndarray]
    ys: np.ndarray
    final: SimState | None

    @property
    def n_records(self) -> int:
        return len(self.ys)

    @cached_property
    def times(self) -> list[float]:
        return self.energy["t"].tolist()

    @cached_property
    def reports(self) -> list[EnergyReport]:
        return _reports(self.energy)


def _cfl_abort(m_kir: float, closure: AcousticClosure, t: float):
    """The abort of a state whose Kirchhoff coefficient exceeds the run's
    ``m_kir_max``, naming the largest stable dt for it."""
    dt_max = 2.0 * CFL_SAFETY / math.sqrt(LAM_MARGIN * closure.ops.lam_max * m_kir)
    return SimulationAbort(
        f"CFL violation: dt = {closure.cfg.dt:.3e} exceeds {dt_max:.3e} "
        f"(Kirchhoff coefficient {m_kir:.6g})",
        t,
    )


def _evaluate(t: float, slots: _Slots, closure: AcousticClosure):
    """Push the new iterate, the u of ``slots``, at t into the run's buffer
    and evaluate it once.

    Writes F / M_lump into the accel slot, and S(u) into the source slot
    with the source on, and returns (M_kir, u.K u).  K u goes straight into
    the history ring's row that the push keeps.  The closure's
    ``inv_mass`` is zero on Gamma_0, so the one multiply is also the step's
    one Dirichlet pin: it keeps u, v and accel zero there.  As u is zero on
    Gamma_0, u.S(u) (:attr:`SimState.lk`) is int |u_h|^k by the source's
    own rule.
    """
    ops, params, buffer, forcing = closure.ops, closure.params, closure.buffer, closure.cfg.forcing
    u = slots.u
    ku = dia_product(ops.stiffness, u, buffer.next_ku)
    grad_sq = float(u.dot(ku))
    buffer.push(u, ku, grad_sq)
    m_kir = params.kirchhoff_coefficient(grad_sq)
    F = buffer.convolution_force(m_kir, slots.accel)  # -M_kir K u and the memory
    if params.source_enabled:
        F += source_vector(ops, u, params.k_exp, slots.source)
    if forcing is not None and forcing.f_omega is not None:
        F += ops.mass_lumped * forcing.f_omega(t)
    F *= closure.inv_mass
    return m_kir, grad_sq


def _check_finite(t: float, values: np.ndarray, zero: np.ndarray) -> None:
    """Abort at t unless every entry of ``values`` is finite; ``zero`` holds
    as many zeros, and 0 x is nan for an infinite or nan x, 0 otherwise."""
    if not math.isfinite(values.dot(zero)):
        raise SimulationAbort("blow-up or instability: non-finite field values", t)


def _boundary_forcing(forcing: Forcing, t: float, out: np.ndarray) -> None:
    """Write f3 and f4 at t into the two rows of ``out``; an absent term
    leaves its row as it is, zero."""
    for f, row in zip((forcing.f_flux, forcing.f_acoustic), out):
        if f is not None:
            row[...] = f(t)


def init_state(u0: np.ndarray, u1: np.ndarray, y0: np.ndarray,
               closure: AcousticClosure) -> SimState:
    """Initial state at t = 0 of the run ``closure``, in the first array of
    its pair; pushes the initial snapshot into the run's buffer.  A closure
    takes one initial state: a second call, or one on a finished run,
    raises ``ValueError`` and writes nothing."""
    if closure.buffer is None:
        raise ValueError("the run has finished and released its history buffer; a new run "
                         "needs a closure of its own")
    if closure.buffer.n_entries:
        raise ValueError(f"the run already has its initial state ({closure.buffer.n_entries} "
                         "pushes); a closure takes one init_state")
    ops, params, cfg = closure.ops, closure.params, closure.cfg
    mesh = ops.mesh
    g1 = mesh.gamma1_nodes
    slots = closure.pair[0]
    x = slots.x
    slots.u[:] = pin_gamma0(mesh, u0)
    slots.v[:] = pin_gamma0(mesh, u1)
    x[closure.y] = y0
    accel = slots.accel

    with np.errstate(over="ignore", invalid="ignore"):
        m_kir, grad_sq = _evaluate(0.0, slots, closure)
    f3, f4 = slots.forcing
    if cfg.forcing is not None:
        _boundary_forcing(cfg.forcing, 0.0, slots.forcing)
    y_t = x[closure.y_t]
    y_t[:] = (f4 - slots.v[g1] - params.q_c * x[closure.y]) / params.p_c
    accel[g1] += mesh.gamma1_weights * (y_t + f3) / ops.mass_lumped[g1]
    values = x[:closure.checked.stop]  # accel, u, v, y and y_t
    _check_finite(0.0, values, np.zeros(len(values)))
    if m_kir > closure.m_kir_max:
        raise _cfl_abort(m_kir, closure, 0.0)
    return SimState(x=x, m_kir=m_kir, grad_sq=grad_sq, closure=closure)


def step(state: SimState) -> SimState:
    """Advance the newest state of a live run (any other raises
    ``ValueError``) one dt, writing the array of its pair that ``state``
    does not hold, in the module docstring's stages, through bound views.

    ``step`` enters no ``np.errstate`` of its own: :func:`run` enters one
    around the whole run.  A caller that steps by hand wraps its calls in
    ``np.errstate(over="ignore", invalid="ignore")`` too, or an overflow
    on the way to a blow-up warns before the finiteness check aborts.
    """
    closure = state.closure
    if closure.buffer is None or state.n + 1 != closure.buffer.n_entries:
        raise _not_current(state)
    cfg = closure.cfg
    n1 = state.n + 1
    t1 = n1 * cfg.dt
    x0 = state.x
    first, second = closure.pair
    if x0 is first.x:
        old, new = first, second
    elif x0 is second.x:
        old, new = second, first
    else:  # an array from outside the pair, such as a copied state's
        old, new = _Slots(x0, closure), first
    x = new.x
    np.dot(closure.drift, old.drift_in, out=new.drift_out)
    new.cleared[...] = 0.0
    new.previous[...] = old.acoustic
    if cfg.forcing is not None:
        _boundary_forcing(cfg.forcing, t1, new.forcing)

    m_kir1, grad_sq1 = _evaluate(t1, new, closure)
    new.v += new.accel * (0.5 * cfg.dt)
    _csr_accumulate(*closure.map, x, new.closed)
    x[closure.scatter] += new.increments

    _check_finite(t1, new.checked, closure.zero)
    if m_kir1 > closure.m_kir_max:
        raise _cfl_abort(m_kir1, closure, t1)
    return SimState(x, m_kir1, grad_sq1, closure, n1)


def _energy_abort(form) -> SimulationAbort:
    """The abort at the first record of ``form`` whose raw row is not
    finite."""
    return SimulationAbort("blow-up or instability: non-finite energy",
                           float(form.times[form.finite]))


def _record(state: SimState) -> None:
    """Take the record of ``state``; when the record fills its block and
    the block pass finds a raw row with a value that is not finite, abort at
    that row's record."""
    form = state.closure.form
    compute_energy(state)
    if form.finite < form.passed:
        raise _energy_abort(form)


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

    The run's :class:`AcousticClosure` is built once, and the report
    fields are derived once, after the last step; returned or raised, the
    run then lets the closure's buffer, form and pair go.  The memory term is
    always on: a memory-free reference run passes a kernel with g0 = 0,
    whose every memory quantity is exactly zero.  For uniformly spaced
    records choose t_end as a multiple of record_every * dt.  On abort the
    partial trajectory is attached to the raised :class:`SimulationAbort`.
    """
    closure = AcousticClosure(ops, kernel, params, cfg)
    form = closure.form
    abort = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            state = init_state(u0, u1, y0, closure)
            _record(state)
            for i in range(1, cfg.n_steps + 1):
                state = step(state)
                if i % cfg.record_every == 0:
                    _record(state)
        except SimulationAbort as ab:
            abort = ab
        form._pass()  # the last, partial block
        n = form.finite
        if n < form.count:  # earlier than any abort after it
            abort = _energy_abort(form)
        energy = form.columns(n)
    finite = np.logical_and.reduce([np.isfinite(c) for c in energy.values()])
    if not finite.all():
        n = int(finite.argmin())
        abort = SimulationAbort("blow-up or instability: non-finite energy", float(energy["t"][n]))
        energy = {name: c[:n] for name, c in energy.items()}
    ys, memory = form.ys(n), closure.buffer.diagnostics()
    final = None
    held = len(form.snapshots)
    if n and form.count - n < held:  # the block still holds the last record kept
        x = form.snapshots[(n - 1) % held]
        if held > 1:  # a block of one row is the state's own array, kept whole
            x = x.copy()
        grad_sq = float(energy["grad_sq"][-1])
        final = SimState(x, params.kirchhoff_coefficient(grad_sq), grad_sq, closure,
                         (n - 1) * cfg.record_every)
    closure.buffer = closure.form = closure.pair = None
    traj = Trajectory(memory=memory, energy=energy, ys=ys, final=final)
    if abort is not None:
        abort.trajectory = traj
        raise abort
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
