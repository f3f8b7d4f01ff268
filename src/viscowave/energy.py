"""Energy functional, well functional and the dissipation-rate identity.

The total energy splits into six components:

  kinetic     1/2 |u_t|_2^2                       (consistent mass)
  elastic     1/2 (a - int_0^t g) |grad u|_2^2
  kirchhoff   b/(2(kappa+1)) |grad u|_2^(2(kappa+1))
  boundary    1/2 q int_{Gamma_1} y^2
  memory      1/2 (g o grad u)(t)
  source      -(1/k) |u|_k^k                      (zero when the source is off)

The well functional is

  gamma_fn = sqrt( l |grad u|^2 + b/(kappa+1) |grad u|^(2(kappa+1))
                   + q int y^2 + (g o grad u) ),

whose Kirchhoff weight is b/(kappa+1), twice the weight used inside the
energy; the pair is chosen so that E >= F(gamma_fn) holds with the potential
F of the stable-set analysis.

|grad u|^2 and |u|_k^k are read from the state (``grad_sq``, ``lk``): the
first the stepper formed when it evaluated the force, the second is u.S(u)
off the source vector that the same evaluation wrote into the state, read
at the record alone.

A record writes raw values only: :func:`compute_energy` puts the state's
time, |grad u|^2 and |u|_k^k, the two memory functionals (the history
buffer's one read at its newest push) and four quadratics into one row of a
float table, followed by y.  The quadratics come from one product B z with
the state's contiguous run z = (u, v, y, y_t), B = diag(M, M, q W1, p W1)
(M the consistent mass, W1 the acoustic weights), summed over its four
blocks: |u|_2^2, 2 kinetic, q int y^2 and p int y_t^2.  The run's
:class:`~viscowave.stepper.AcousticClosure` builds one :class:`_RecordForm`:
the table, B stored by its diagonals (M's as ``ops.mass`` holds them), and g(t)
and int_0^t g at every record time n dt, each from one vectorized kernel
call.  After the run, :meth:`_RecordForm.columns` derives the fifteen
:class:`EnergyReport` fields of every record in one vectorized pass, and
:func:`_reports` is the one place that turns those columns into reports.

Along forcing-free trajectories the energy rate satisfies

  dE/dt = -1/2 g(t) |grad u|^2 + 1/2 (g' o grad u)(t) - p int_{Gamma_1} y_t^2,

all three terms nonpositive.  Each report carries the right-hand side so a
recorded trajectory window can be checked against a central-difference
dE/dt without access to the history buffer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .assembly import DiscreteOperators, PhysicalParams, Stencil, dia_product
from .kernels import RelaxationKernel


class EnergyReport(NamedTuple):
    """Energy snapshot at one record time.

    ``rhs_identity`` is the dissipation-identity right-hand side evaluated
    from the same snapshot; ``total`` always equals the sum of the six
    components.  A run keeps its records as columns, one float array per
    field in this order (``Trajectory.energy``); a report is one record of
    them, built by :func:`_reports` alone.  Iterating it gives the fields
    in order, and ``_replace`` makes an edited copy.
    """

    t: float
    total: float
    kinetic: float
    elastic: float
    kirchhoff: float
    boundary: float
    memory: float
    source: float
    gamma_fn: float
    grad_sq: float
    l2_sq: float
    g_at_t: float
    g_prime_diamond: float
    boundary_damping: float
    rhs_identity: float


# Columns of a record's raw row that precede y: t, |grad u|^2, |u|_k^k,
# (g o grad u), (g' o grad u), then the four sums of the record product.
_T, _GRAD_SQ, _LK, _G_DIAMOND, _G_PRIME_DIAMOND = range(5)
_QUADRATICS = slice(5, 9)
_N_RAW = 9


class _RecordForm:
    """The per-run constants and the raw table of a run's records.

    The grid holds the times n dt of the steps n = 0, record_every, ... up
    to n_steps (all three of ``cfg``), at which a run records.  ``g`` and
    ``mass`` are g(n dt) and int_0^{n dt} g there, each from one vectorized call (the
    float calls give the same values).  ``operator`` is
    diag(M, M, q W1, p W1) on the run (u, v, y, y_t) of a state's array,
    held as the diagonals ``ops.mass`` stores (seven in 2D; see
    :mod:`viscowave.assembly`); ``image`` receives its product B z;
    ``products`` holds the entries of z * (B z) for that run z, and one
    trailing zero so that the blocks' sums at ``starts`` read 0 for an
    empty acoustic boundary (``np.add.reduceat`` reads a[i] for an empty
    block i).

    ``rows`` holds one row per record of the grid, written by
    :func:`compute_energy`:

      t | grad_sq | lk | g_diamond | g_prime_diamond
        | l2_sq | 2 kinetic | q int y^2 | p int y_t^2 | y (m entries)

    and ``zero`` as many zeros, for the finiteness check of a row.
    """

    def __init__(self, kernel: RelaxationKernel, params: PhysicalParams,
                 ops: DiscreteOperators, cfg):
        times = np.arange(0, cfg.n_steps + 1, cfg.record_every) * cfg.dt
        self.g = kernel.g(times)
        self.mass = kernel.partial_mass(times)
        self.record_every = cfg.record_every
        self.l_value = kernel.l_value
        self.params = params
        w1 = ops.mesh.gamma1_weights
        n, m = ops.n_nodes, len(w1)
        # M's diagonals once for each mass block, side by side: where a
        # diagonal reaches from one block into the next, it holds the zeros
        # of M's diagonal running off M.  The acoustic weights sit on the
        # main diagonal.
        M = ops.mass
        acoustic = np.outer(M.offsets == 0, np.concatenate([params.q_c * w1, params.p_c * w1]))
        self.operator = Stencil(M.offsets, np.hstack([M.data, M.data, acoustic]),
                                (2 * n + 2 * m, 2 * n + 2 * m))
        self.image = np.empty(2 * n + 2 * m)
        self.products = np.zeros(2 * n + 2 * m + 1)
        self.starts = np.array([0, n, 2 * n, 2 * n + m])
        self.rows = np.empty((len(times), _N_RAW + m))
        self.zero = np.zeros(_N_RAW + m)

    def columns(self, n: int) -> dict[str, np.ndarray]:
        """The :class:`EnergyReport` fields of the first ``n`` records, one
        array per field in field order, derived from their raw rows in one
        pass.

        The operations and their order are those of a report built from
        one row, so every value is the one that report would hold.  The
        Kirchhoff potential is taken record by record through
        ``params.kirchhoff_potential``, whose float power is libm's ``pow``
        (numpy's vectorized power may differ from it in the last bit).
        """
        t, gns, lk, gdia, gpdia, l2_sq, twice_kinetic, acoustic, damping = self.rows[:n, :_N_RAW].T
        params = self.params
        g_at_t = self.g[:n]
        kinetic = 0.5 * twice_kinetic
        elastic = 0.5 * (params.a - self.mass[:n]) * gns
        kirchhoff_pot = np.array(list(map(params.kirchhoff_potential, gns.tolist())), dtype=float)
        kirchhoff = 0.5 * kirchhoff_pot
        boundary = 0.5 * acoustic
        memory = 0.5 * gdia
        if params.source_enabled:
            source = -lk / params.k_exp
        else:
            source = np.zeros(n)
        total = kinetic + elastic + kirchhoff + boundary + memory + source
        rhs = -0.5 * g_at_t * gns + 0.5 * gpdia - damping
        well = self.l_value * gns + kirchhoff_pot + acoustic + gdia
        gamma_fn = np.sqrt(np.where(well < 0.0, 0.0, well))  # max(well, 0.0), nan kept
        fields = (t, total, kinetic, elastic, kirchhoff, boundary, memory, source, gamma_fn,
                  gns, l2_sq, g_at_t, gpdia, damping, rhs)
        return dict(zip(EnergyReport._fields, np.array(fields)))

    def ys(self, n: int) -> np.ndarray:
        """The acoustic fields of the first ``n`` records, an (n, m) array
        of its own."""
        return self.rows[:n, _N_RAW:].copy()


def _not_current(state) -> ValueError:
    """The refusal of a state that is not the newest push of its run's
    history buffer, or whose run has finished and released it."""
    buffer = state.closure.buffer
    if buffer is None:
        return ValueError(f"state of step {state.n} belongs to a finished run, which "
                          "released its history buffer")
    return ValueError(f"state of step {state.n} is not the newest push of its history "
                      f"buffer ({buffer.n_entries} pushes)")


def compute_energy(state) -> np.ndarray:
    """Write the raw row of ``state``'s record into its run's table and
    return it; ``state`` must be the newest push of its run's live history
    buffer and a state of the run's record grid.

    The four quadratics come off one product with the form's operator (see
    the module docstring) and the two memory functionals off the buffer;
    :meth:`_RecordForm.columns` derives the report fields from the row.
    """
    buffer, form = state.closure.buffer, state.closure.form
    if buffer is None or state.n + 1 != buffer.n_entries:
        raise _not_current(state)
    i, off = divmod(state.n, form.record_every)
    if off:
        raise ValueError(f"step {state.n} is off the record grid (every {form.record_every} "
                         "steps)")
    row = form.rows[i]
    # one store per value: a tuple stored into a slice becomes an array first
    row[_T] = state.t
    row[_GRAD_SQ] = state.grad_sq
    row[_LK] = state.lk
    row[_G_DIAMOND] = buffer.g_diamond()
    row[_G_PRIME_DIAMOND] = buffer.g_prime_diamond()
    z = state.x[state.closure.checked]
    products = form.products
    np.multiply(z, dia_product(form.operator, z, form.image), out=products[:-1])
    np.add.reduceat(products, form.starts, out=row[_QUADRATICS])
    row[_N_RAW:] = state.y
    return row


def _reports(columns: dict[str, np.ndarray]) -> list[EnergyReport]:
    """The records of ``columns`` (as :meth:`_RecordForm.columns` gives
    them) as one report each, of Python floats."""
    return list(map(EnergyReport._make, zip(*(c.tolist() for c in columns.values()))))


def identity_residual(t: np.ndarray, total: np.ndarray, rhs: np.ndarray):
    """Central-difference dE/dt minus the identity right-hand side, from the
    columns of the record times, the energy and the right-hand side.

    Needs at least three uniformly spaced records; returns the interior
    record times and their residuals.
    """
    if len(t) < 3:
        raise ValueError(f"need >= 3 records for a central difference, got {len(t)}")
    spacing = np.diff(t)
    if spacing.min() <= 0:
        raise ValueError("record times must be strictly increasing")
    if (spacing.max() - spacing.min()) > 1e-9 * spacing.max():
        raise ValueError("records must be uniformly spaced")
    dEdt = (total[2:] - total[:-2]) / (t[2:] - t[:-2])
    return t[1:-1], dEdt - rhs[1:-1]


def rate_identity_residual(reports: list[EnergyReport]):
    """:func:`identity_residual` of a list of reports."""
    return identity_residual(np.array([r.t for r in reports]),
                             np.array([r.total for r in reports]),
                             np.array([r.rhs_identity for r in reports]))
