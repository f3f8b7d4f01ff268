"""viscowave: a desk-scale laboratory for viscoelastic Kirchhoff-type waves
with acoustic boundary conditions.

Simulates the coupled (u, u_t, y) system with a fading-memory stiffness term
and verifies, on recorded trajectories, the energy dissipation identity, the
potential-well invariance and the rate-weighted energy decay envelope.
"""

__version__ = "0.1.0"

# The package exports what the tests and the benchmark import from it; the
# rest is reached through its module (``viscowave.stepper.step`` and so on).

from .assembly import (
    PhysicalParams,
    assemble,
    boundary_quadratic,
    grad_norm_sq,
    lk_norm_pow,
    source_vector,
)
from .decay import SampledEnergy, build_decay_report, fit_omega, martinez_check
from .energy import compute_energy, rate_identity_residual
from .geometry import DomainSpec, build_mesh
from .history import HistoryBuffer
from .kernels import build_kernel, make_rate, validate_hypotheses
from .stableset import (
    check_initial_membership,
    compute_well_constants,
    estimate_B_Omega,
    estimate_embedding_constant,
    estimate_trace_constant,
    potential_F,
    verify_invariance,
    well_constants_from_B,
)
from .stepper import (
    ManufacturedSolution,
    SimulationAbort,
    StepperConfig,
    build_manufactured_case,
    run,
    sine_solution,
)

__all__ = [
    "PhysicalParams", "assemble", "boundary_quadratic",
    "grad_norm_sq", "lk_norm_pow", "source_vector",
    "SampledEnergy", "build_decay_report", "fit_omega", "martinez_check",
    "compute_energy", "rate_identity_residual",
    "DomainSpec", "build_mesh",
    "HistoryBuffer",
    "build_kernel", "make_rate", "validate_hypotheses",
    "check_initial_membership",
    "compute_well_constants", "estimate_B_Omega", "estimate_embedding_constant",
    "estimate_trace_constant", "potential_F", "verify_invariance",
    "well_constants_from_B",
    "ManufacturedSolution", "SimulationAbort",
    "StepperConfig", "build_manufactured_case",
    "run", "sine_solution",
]
