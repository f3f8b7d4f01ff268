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

|grad u|^2 is the state's ``grad_sq``, which the stepper formed when it
evaluated the force; |u|_k^k is u.S(u) off the source vector that the same
evaluation wrote into the state's source slot, read by the block pass off
the record's snapshot.

A record writes what needs the history at its push and copies the rest:
:func:`compute_energy` puts the state's |grad u|^2 and the two memory
functionals (the history buffer's one read at its newest push) into one row
of a float table, and copies the state's array into the next row of a
per-run block of snapshots.  Once the block is full, and on the last,
partial block, the block pass (:meth:`_RecordForm._pass`) fills the rest of
each of its rows from the snapshots, for every record of the block at once:
the time, |u|_k^k = u.S(u), y, and four quadratics.  These come from the
product B z of each record's run z = (u, v, y, y_t) with
B = diag(M, M, q W1, p W1) (M the consistent mass, W1 the acoustic
weights), then one multiply z * (B z) and one sum over the four parts of
each record's run: |u|_2^2, 2 kinetic, q int y^2 and p int y_t^2; every
sum is bitwise the one a record of its own would make.
The pass then checks that each row is finite.  The run's
:class:`~viscowave.stepper.AcousticClosure` builds one :class:`_RecordForm`:
the table, the snapshot block, B stored by its diagonals (M's as
``ops.mass`` holds them), and g(t) and int_0^t g at every record time n dt,
each from one vectorized kernel call.  After the run,
:meth:`_RecordForm.columns` derives the fifteen :class:`EnergyReport`
fields of every record in one vectorized pass, and :func:`_reports` is the
one place that turns those columns into reports.

Along forcing-free trajectories the energy rate satisfies

  dE/dt = -1/2 g(t) |grad u|^2 + 1/2 (g' o grad u)(t) - p int_{Gamma_1} y_t^2,

all three terms nonpositive.  Each report carries the right-hand side so a
recorded trajectory window can be checked against a central-difference
dE/dt without access to the history buffer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .assembly import PhysicalParams, Stencil, dia_product
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

# A snapshot block holds as many whole state arrays as fit in _BLOCK_BYTES,
# one at least and _BLOCK_RECORDS at most: 32 records on a 64-cell interval
# (2144 bytes a state), 7 on a 32 x 32 square, 3 on 48 x 48 and one on
# 64 x 64 (139 kB a state).  Against records taken one at a time, a record
# then costs 3.5 to 4.5 us less on 64 cells, 1.9 us less on 32 x 32, 1 us
# less on 48 x 48 and the same on 64 x 64; a block much over 1 MB falls out
# of the cache and costs more.  64 records on 64 cells save at most 0.2 us
# more a record, for 0.1 MB more of peak memory (ROADMAP, "Where the time
# goes").
_BLOCK_BYTES = 1 << 18
_BLOCK_RECORDS = 32


class _RecordForm:
    """The per-run constants, the snapshot block and the raw table of a
    run's records.

    The grid holds the times n dt of the steps n = 0, record_every, ... up
    to n_steps (all three of ``cfg``), at which a run records: ``times``,
    and ``g`` and ``mass``, g(n dt) and int_0^{n dt} g there, each from one
    vectorized call (the float calls give the same values).  ``operator``
    is diag(M, M, q W1, p W1) on the run (u, v, y, y_t) of a state's array,
    held as the diagonals ``ops.mass`` stores (seven in 2D; see
    :mod:`viscowave.assembly`).  Row i of ``products`` receives B z and
    then z * (B z) for the run z of the block's record i, before one
    trailing zero, so that the parts' sums at ``starts`` read 0 for an
    empty acoustic boundary (``np.add.reduceat`` reads a[i] for an empty
    part i).

    ``rows`` holds one row per record of the grid:

      t | grad_sq | lk | g_diamond | g_prime_diamond
        | l2_sq | 2 kinetic | q int y^2 | p int y_t^2 | y (m entries)

    :func:`compute_energy` writes grad_sq and the two functionals of record
    i, and copies its state's array into row i % R of ``snapshots``, a block
    of R whole state arrays (R from the byte budget ``_BLOCK_BYTES``, capped
    at ``_BLOCK_RECORDS`` and at the run's records).  :meth:`_pass` fills
    the rest of the rows taken since the last pass.  ``count`` is the number
    of records taken, ``passed`` the number the pass completed and
    ``finite`` the number, among those, before the first row with a value
    that is not finite; ``zero`` holds the zeros of that check.  A run
    keeps the snapshot of its last record kept as its final state, while
    the block still holds it.
    """

    def __init__(self, kernel: RelaxationKernel, closure):
        ops, params, cfg = closure.ops, closure.params, closure.cfg
        self.times = np.arange(0, cfg.n_steps + 1, cfg.record_every) * cfg.dt
        self.g = kernel.g(self.times)
        self.mass = kernel.partial_mass(self.times)
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
        self.starts = np.array([0, n, 2 * n, 2 * n + m])
        self.rows = np.empty((len(self.times), _N_RAW + m))
        self.checked, self.u, self.source, self.y = (closure.checked, closure.u, closure.source,
                                                     closure.y)
        per_block = max(1, min(_BLOCK_RECORDS, _BLOCK_BYTES // (8 * closure.size),
                               len(self.times)))
        self.snapshots = np.empty((per_block, closure.size))
        self.products = np.zeros((per_block, 2 * n + 2 * m + 1))
        self.zero = np.zeros(per_block * (_N_RAW + m))
        self.count = self.passed = self.finite = 0

    def _pass(self) -> None:
        """Fill the rows of the records taken since the last pass from their
        snapshots, all at once, and advance ``passed`` and, while every row
        is finite, ``finite``.

        Every value is bitwise the one a record of its own would make: each
        record's product is its own ``dia_product`` of its snapshot's run,
        into its row of ``products``; one ``np.add.reduceat`` along the rows
        sums each part of each row pairwise, as it sums one record's; and
        one ``np.matmul`` of the rows' u and S(u) runs, as a stack of vector
        pairs, computes each u.S(u) by the same BLAS dot that
        ``ndarray.dot`` calls.
        """
        a, b = self.passed, self.count
        if a == b:
            return
        k, j = b - a, a % len(self.snapshots)  # rows a to b sit in one block, from row j
        block = self.snapshots[j:j + k]
        rows = self.rows[a:b]
        rows[:, _T] = self.times[a:b]
        z, products = block[:, self.checked], self.products[:k]
        image = products[:, :-1]
        for i in range(k):
            dia_product(self.operator, z[i], image[i])
        np.multiply(z, image, out=image)
        np.add.reduceat(products, self.starts, axis=1, out=rows[:, _QUADRATICS])
        if self.params.source_enabled:  # each row's u.S(u), the ddot of ndarray.dot
            np.matmul(block[:, None, self.u], block[:, self.source, None],
                      out=rows[:, _LK, None, None])
        else:
            rows[:, _LK] = 0.0
        rows[:, _N_RAW:] = block[:, self.y]
        if self.finite == a:
            # 0 x is nan for an infinite or nan x and 0 otherwise, as in the
            # step's check; the row is looked for only when the block fails
            if math.isfinite(rows.ravel().dot(self.zero[:rows.size])):
                self.finite = b
            else:
                self.finite = a + int(np.isfinite(rows).all(axis=1).argmin())
        self.passed = b

    def _taken(self, n: int) -> None:
        """Complete the rows of the records taken so far, of which the first
        ``n`` are asked for."""
        if n > self.count:
            raise ValueError(f"{n} records asked for, {self.count} taken")
        self._pass()

    def columns(self, n: int) -> dict[str, np.ndarray]:
        """The :class:`EnergyReport` fields of the first ``n`` records, one
        array per field in field order, derived from their raw rows in one
        pass, after :meth:`_taken` completes them.

        The operations and their order are those of a report built from
        one row, so every value is the one that report would hold.  The
        Kirchhoff potential is taken record by record through
        ``params.kirchhoff_potential``, whose float power is libm's ``pow``
        (numpy's vectorized power may differ from it in the last bit).
        """
        self._taken(n)
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
        of its own, after :meth:`_taken` completes their rows."""
        self._taken(n)
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


def compute_energy(state) -> None:
    """Take the record of ``state``, which must be the newest push of its
    run's live history buffer and the run's next record on its grid.

    Writes |grad u|^2 and the two memory functionals off the buffer into
    the record's raw row and copies the state's array into the snapshot
    block; the record that fills the block runs the block pass, which
    derives the rest of the rows (see the module docstring).
    :meth:`_RecordForm.columns` derives the report fields from the rows.
    """
    buffer, form = state.closure.buffer, state.closure.form
    if buffer is None or state.n + 1 != buffer.n_entries:
        raise _not_current(state)
    i, off = divmod(state.n, form.record_every)
    if off:
        raise ValueError(f"step {state.n} is off the record grid (every {form.record_every} "
                         "steps)")
    if i != form.count:
        raise ValueError(f"step {state.n} is not the run's next record, which is step "
                         f"{form.count * form.record_every}")
    row = form.rows[i]
    # one store per value: a tuple stored into a slice becomes an array first
    row[_GRAD_SQ] = state.grad_sq
    row[_G_DIAMOND] = buffer.g_diamond()
    row[_G_PRIME_DIAMOND] = buffer.g_prime_diamond()
    snapshots = form.snapshots
    j = i % len(snapshots)
    snapshots[j] = state.x
    form.count = i + 1
    if j == len(snapshots) - 1:
        form._pass()


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
