"""Flow past many small disks: method of reflections, a collocation oracle,
the homogenized effective-medium solver, and 2D vorticity transport."""

from .fields import ScalarGridField, VectorGridField, make_grid, radial_bump, rasterize
from .geometry import (
    Box,
    PorousConfig,
    build_lattice,
    build_random,
    fluid_mask,
    lattice_fraction,
    rasterize_mu,
    validate,
)
from .potential import (
    grad_psi0_eval,
    grad_psi0_on_grid,
    psi0_bounds_check,
    psi0_eval,
    velocity0_eval,
)
from .reflections import (
    DipoleSet,
    HybridStream,
    contraction_report,
    init_dipoles,
    iterate_dipoles,
    run_reflections,
)
from .oracle import MultipoleSolution, oracle_eval, oracle_velocity, solve_collocation
from .homogenized import (
    EffectiveMatrix,
    HomogSolution,
    apply_l_direct,
    apply_l_spectral,
    solve_psic,
    velocity_c,
)
from .euler import (
    FlowState,
    HomogenizedSetting,
    PerforatedSetting,
    VortexParticles,
    discretize_vorticity,
    run_comparison,
    step,
    velocity_field,
)
from .analysis import (
    ErrorBudget,
    fit_exponent,
    gamma_decomposition_report,
    hminus1,
    predictor_f,
)

__version__ = "0.1.0"
