"""Numerical laboratory for two-component Liouville-type variational problems
on the flat torus: energies and gradients, bubble test functions on joins,
transport projections onto atomic barycenters, blow-up quantization tables,
and Newton-CG solves in the coercive regimes."""

from .functionals import (
    EnergyReport,
    RhoPair,
    log_integral_exp,
    meanfield_energy,
    meanfield_gradient,
    mt_ratio,
    mt_system_gap,
    normalized_density,
    q_density,
    toda_energy,
    toda_gradient,
)
from .geometry import (
    CurveSystem,
    FlatTorus,
    GridField,
    Point,
    SingularData,
    desingularized_weight,
    dirichlet_energy,
    gradient,
    greens_function,
    helmholtz_solve,
    integrate,
    laplacian,
    random_smooth_field,
)
from .joins import (
    JoinElement,
    SweepCurve,
    energy_curve,
    homotopy_identity_check,
    kr_scaling_check,
    plateau,
    psi_map,
    rtilde,
    scalar_test_function,
    test_function,
)
from .measures import (
    BarycenterMeasure,
    CoveringResult,
    DiscreteMeasure,
    concentration_alternative,
    covering_merge,
    covering_thresholds,
    detect_spread,
    distance_to_barycenters,
    kr_transport,
    push_forward,
    spread_mass_floor,
)
from .quantization import (
    GlobalSet,
    LocalSet,
    MembershipReport,
    blowup_candidates,
    forbidden_window,
    gamma_residual,
    global_lambda,
    global_membership,
    local_lambda,
)
from .solver import (
    MassReport,
    SolveResult,
    SolverConfig,
    blowup_masses,
    check_continuation_box,
    continuation_sweep,
    minimize,
    pde_residual,
)

__version__ = "0.1.0"
