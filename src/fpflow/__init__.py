"""fpflow: finite-volume drift-diffusion flows with energy diagnostics.

A small numpy/scipy toolkit for evolving densities under
df/dt = div((f / pi) grad(D log f + phi)) on the box [-1, 1]^n with
periodic or no-flux walls, built around three guarantees of the
exponential-fitted implicit scheme: exact mass conservation, positivity,
and monotone decay of the discrete free energy.  The diagnostics side
measures what the theory predicts -- dissipation identities, entropy
bounds, comparison envelopes and exponential decay rates.
"""

from .diagnostics import (
    CKPReport,
    DecayFit,
    IdentityReport,
    Regime,
    ckp_check,
    dissipation,
    energy_law_mismatch,
    fit_decay_rate,
    free_energy,
    gronwall_envelope,
    max_principle_envelope,
    relative_entropy,
    second_derivative_identity,
    velocity,
)
from .equilibrium import EquilibriumState, equilibrium_state, solve_normalization
from .grid import (
    Boundary,
    FaceField,
    ScalarField,
    TensorGrid,
    build_grid,
    face_divergence,
    face_gradient,
    integrate,
)
from .oracle import ProbedOperator, build_linear_operator, reference_evolve, refined_functional
from .params import (
    DiffusionField,
    InitialCondition,
    MobilityField,
    ParameterSet,
    PotentialField,
    PresetNotFound,
    preset_diffusion_homogeneous,
    preset_diffusion_multimode,
    preset_diffusion_single_mode,
    preset_gaussian_ic,
    preset_mobility,
    preset_mobility_unit,
    preset_potential,
    preset_potential_1d,
    preset_potential_quadratic,
)
from .solver import (
    EnergyTrace,
    NonConvergence,
    PositivityLoss,
    SolverConfig,
    assemble_flux,
    backward_euler_step,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "CKPReport",
    "DecayFit",
    "DiffusionField",
    "EnergyTrace",
    "EquilibriumState",
    "FaceField",
    "IdentityReport",
    "InitialCondition",
    "MobilityField",
    "NonConvergence",
    "ParameterSet",
    "PositivityLoss",
    "PotentialField",
    "PresetNotFound",
    "ProbedOperator",
    "Regime",
    "ScalarField",
    "SolverConfig",
    "TensorGrid",
    "assemble_flux",
    "backward_euler_step",
    "build_grid",
    "build_linear_operator",
    "ckp_check",
    "dissipation",
    "energy_law_mismatch",
    "equilibrium_state",
    "face_divergence",
    "face_gradient",
    "fit_decay_rate",
    "free_energy",
    "gronwall_envelope",
    "integrate",
    "max_principle_envelope",
    "preset_diffusion_homogeneous",
    "preset_diffusion_multimode",
    "preset_diffusion_single_mode",
    "preset_gaussian_ic",
    "preset_mobility",
    "preset_mobility_unit",
    "preset_potential",
    "preset_potential_1d",
    "preset_potential_quadratic",
    "reference_evolve",
    "refined_functional",
    "relative_entropy",
    "run",
    "second_derivative_identity",
    "solve_normalization",
    "velocity",
]
