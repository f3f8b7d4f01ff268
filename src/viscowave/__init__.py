"""viscowave: a desk-scale laboratory for viscoelastic Kirchhoff-type waves
with acoustic boundary conditions.

Simulates the coupled (u, u_t, y) system with a fading-memory stiffness term
and verifies, on recorded trajectories, the energy dissipation identity, the
potential-well invariance and the rate-weighted energy decay envelope.
"""

__version__ = "0.1.0"

from .assembly import (
    DiscreteOperators,
    PhysicalParams,
    assemble,
    boundary_quadratic,
    grad_norm_sq,
    lk_norm_pow,
    source_vector,
    trace_norm_sq,
)
from .decay import (
    DecayReport,
    SampledEnergy,
    build_decay_report,
    fit_omega,
    martinez_check,
    weighted_integral_check,
)
from .energy import EnergyReport, compute_energy, compute_gamma_fn, rate_identity_residual
from .geometry import DomainSpec, Mesh, build_mesh
from .history import HistoryBuffer
from .kernels import (
    BoundaryCoefficients,
    HypothesisReport,
    RelaxationKernel,
    build_kernel,
    make_rate,
    validate_hypotheses,
)
from .stableset import (
    StableSetReport,
    WellConstants,
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
    Forcing,
    ManufacturedSolution,
    SimState,
    SimulationAbort,
    StepperConfig,
    Trajectory,
    build_manufactured_case,
    linear_profile_solution,
    run,
    step,
)

__all__ = [
    "DiscreteOperators", "PhysicalParams", "assemble", "boundary_quadratic",
    "grad_norm_sq", "lk_norm_pow", "source_vector", "trace_norm_sq",
    "DecayReport", "SampledEnergy", "build_decay_report", "fit_omega",
    "martinez_check", "weighted_integral_check",
    "EnergyReport", "compute_energy", "compute_gamma_fn", "rate_identity_residual",
    "DomainSpec", "Mesh", "build_mesh",
    "HistoryBuffer",
    "BoundaryCoefficients", "HypothesisReport", "RelaxationKernel",
    "build_kernel", "make_rate", "validate_hypotheses",
    "StableSetReport", "WellConstants", "check_initial_membership",
    "compute_well_constants", "estimate_B_Omega", "estimate_embedding_constant",
    "estimate_trace_constant", "potential_F", "verify_invariance",
    "well_constants_from_B",
    "Forcing", "ManufacturedSolution", "SimState", "SimulationAbort",
    "StepperConfig", "Trajectory", "build_manufactured_case",
    "linear_profile_solution", "run", "step",
]
