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

|grad u|^2 and |u|_k^k are read from the state (``grad_sq``, ``lk``), where
the stepper put them when it evaluated the force.

A record does per call only what depends on the state.  :func:`run
<viscowave.stepper.run>` builds one :class:`_RecordForm` per run: g(t) and
int_0^t g at every record time n dt, each list from one vectorized kernel
call, and the block-diagonal operator B = diag(M, M, q W1, p W1) on the
state's contiguous run (u, v, y, y_t), M the consistent mass and W1 the
acoustic weights, stored by its diagonals (M's as ``ops.mass`` holds them).
One product B z with that run z gives, summed over its four blocks,
|u|_2^2, 2 kinetic, q int y^2 and p int y_t^2; the two memory functionals
are the history buffer's one read at its newest push.

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
import scipy.sparse as sp

from .assembly import DiscreteOperators, PhysicalParams, dia_product
from .history import HistoryBuffer
from .kernels import RelaxationKernel


class EnergyReport(NamedTuple):
    """Energy snapshot at one record time.

    ``rhs_identity`` is the dissipation-identity right-hand side evaluated
    from the same snapshot; ``total`` always equals the sum of the six
    components.  A named tuple, as a run builds one per record: iterating
    it gives the fields in order, and ``_replace`` makes an edited copy.
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


class _RecordForm:
    """The per-run constants of a record: the kernel tables on the record
    grid and the record operator.

    The grid holds the times n dt of the steps n = 0, record_every, ... up
    to n_steps, the steps at which a run records.  ``g`` and ``mass`` are
    g(n dt) and int_0^{n dt} g there, each from one vectorized call (the
    float calls give the same values).  ``operator`` is
    diag(M, M, q W1, p W1) on the run (u, v, y, y_t) of a state's array,
    held as the diagonals ``ops.mass`` stores (seven in 2D; see
    :mod:`viscowave.assembly`);
    ``products`` holds the entries of z * (B z) for that run z, and one
    trailing zero so that the blocks' sums at ``starts`` read 0 for an
    empty acoustic boundary (``np.add.reduceat`` reads a[i] for an empty
    block i).
    """

    def __init__(self, kernel: RelaxationKernel, params: PhysicalParams,
                 ops: DiscreteOperators, dt: float, record_every: int, n_steps: int):
        times = np.arange(0, n_steps + 1, record_every) * dt
        self.g = kernel.g(times).tolist()
        self.mass = kernel.partial_mass(times).tolist()
        self.record_every = record_every
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
        self.operator = sp.dia_matrix((np.hstack([M.data, M.data, acoustic]), M.offsets),
                                      shape=(2 * n + 2 * m, 2 * n + 2 * m))
        self.products = np.zeros(2 * n + 2 * m + 1)
        self.starts = np.array([0, n, 2 * n, 2 * n + m])


def compute_energy(state, buffer: HistoryBuffer, form: _RecordForm) -> EnergyReport:
    """Full energy report of ``state``, which must be the buffer's newest
    push and a state of the record grid of ``form``'s run.

    Reads g(t) and int_0^t g off the form's tables, the four quadratics off
    one product with its operator (see the module docstring) and the two
    memory functionals off the buffer.
    """
    i, off = divmod(state.n, form.record_every)
    if off or i >= len(form.g):
        raise ValueError(
            f"step {state.n} is off the record grid (every {form.record_every} "
            f"steps, {len(form.g)} records)"
        )
    z = state.x[state.closure.checked]
    products = form.products
    np.multiply(z, dia_product(form.operator, z), out=products[:-1])
    l2_sq, twice_kinetic, acoustic, damping = np.add.reduceat(products, form.starts).tolist()
    params = form.params
    gns = state.grad_sq
    g_at_t = form.g[i]
    kinetic = 0.5 * twice_kinetic
    elastic = 0.5 * (params.a - form.mass[i]) * gns
    kirchhoff_pot = params.kirchhoff_potential(gns)
    kirchhoff = 0.5 * kirchhoff_pot
    boundary = 0.5 * acoustic
    gdia = buffer.g_diamond()
    memory = 0.5 * gdia
    if params.source_enabled:
        source = -state.lk / params.k_exp
    else:
        source = 0.0
    total = kinetic + elastic + kirchhoff + boundary + memory + source

    gpdia = buffer.g_prime_diamond()
    rhs = -0.5 * g_at_t * gns + 0.5 * gpdia - damping

    well = form.l_value * gns + kirchhoff_pot + acoustic + gdia

    return EnergyReport(
        t=state.t,
        total=total,
        kinetic=kinetic,
        elastic=elastic,
        kirchhoff=kirchhoff,
        boundary=boundary,
        memory=memory,
        source=source,
        gamma_fn=math.sqrt(max(well, 0.0)),
        grad_sq=gns,
        l2_sq=l2_sq,
        g_at_t=g_at_t,
        g_prime_diamond=gpdia,
        boundary_damping=damping,
        rhs_identity=rhs,
    )


def rate_identity_residual(reports: list[EnergyReport]):
    """Central-difference dE/dt minus the identity right-hand side.

    Needs at least three uniformly spaced records; returns the interior
    record times and their residuals.
    """
    if len(reports) < 3:
        raise ValueError(f"need >= 3 records for a central difference, got {len(reports)}")
    ts = np.array([r.t for r in reports])
    spacing = np.diff(ts)
    if spacing.min() <= 0:
        raise ValueError("record times must be strictly increasing")
    if (spacing.max() - spacing.min()) > 1e-9 * spacing.max():
        raise ValueError("records must be uniformly spaced")
    E = np.array([r.total for r in reports])
    rhs = np.array([r.rhs_identity for r in reports])
    dEdt = (E[2:] - E[:-2]) / (ts[2:] - ts[:-2])
    return ts[1:-1], dEdt - rhs[1:-1]
