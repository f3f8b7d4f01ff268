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

from .assembly import DiscreteOperators, PhysicalParams, csr_product
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


def compute_energy(
    state,
    buffer: HistoryBuffer,
    kernel: RelaxationKernel,
    params: PhysicalParams,
    ops: DiscreteOperators,
) -> EnergyReport:
    """Full energy report of ``state``, which must be the buffer's newest push.

    The two mass products and the two boundary quadratics are those of
    ``l2_norm_sq`` and ``boundary_quadratic``, written out, as a run makes
    one report per record.
    """
    t = state.t
    gns = state.grad_sq
    v, u = state.v, state.u
    w1 = ops.mesh.gamma1_weights
    kinetic = 0.5 * float(v @ csr_product(ops.mass, v))
    accumulated = kernel.partial_mass(t)
    g_at_t = float(kernel.g(t))
    elastic = 0.5 * (params.a - accumulated) * gns
    kirchhoff_pot = params.kirchhoff_potential(gns)
    kirchhoff = 0.5 * kirchhoff_pot
    y = state.y
    acoustic = float(params.q_c * (w1 @ (y * y)))
    boundary = 0.5 * acoustic
    gdia = buffer.g_diamond()
    memory = 0.5 * gdia
    if params.source_enabled:
        source = -state.lk / params.k_exp
    else:
        source = 0.0
    total = kinetic + elastic + kirchhoff + boundary + memory + source

    gpdia = buffer.g_prime_diamond()
    y_t = state.y_t
    damping = float(params.p_c * (w1 @ (y_t * y_t)))
    rhs = -0.5 * g_at_t * gns + 0.5 * gpdia - damping

    well = kernel.l_value * gns + kirchhoff_pot + acoustic + gdia

    return EnergyReport(
        t=t,
        total=total,
        kinetic=kinetic,
        elastic=elastic,
        kirchhoff=kirchhoff,
        boundary=boundary,
        memory=memory,
        source=source,
        gamma_fn=math.sqrt(max(well, 0.0)),
        grad_sq=gns,
        l2_sq=float(u @ csr_product(ops.mass, u)),
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
