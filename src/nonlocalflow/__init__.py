"""Particle methods for convolution-coupled continuity equations on measures,
with an exact Wasserstein-1 toolkit and a bound-certification harness."""

from ._accel import BACKEND
from .flow import (
    NonFiniteStateError,
    SolutionRecord,
    StepControl,
    StepControlError,
    flow_map_lipschitz_probe,
    rk4_step,
    transported_densities,
)
from .harness import (
    BoundReport,
    check_lemma_stability,
    check_linfty_growth,
    check_stability_general,
    check_stability_initial,
    stability_battery,
)
from .kernels import (
    AuditError,
    Kernel,
    KernelMatrix,
    add_kernels,
    audit_kernel,
    convolve_batch,
    convolve_vector_batch,
    diagonal_matrix,
    kernel_library,
    odd_ramp_kernel,
    scale_kernel,
    zero_kernel,
)
from .measures import (
    EmptySpeciesError,
    GridAxis,
    GridDensity,
    MeasureVector,
    ParticleMeasure,
    concat,
    dirac,
    particles_from_density,
    push_forward,
    total_mass,
    uniform_density_1d,
)
from .solver import (
    PicardConvergenceError,
    PicardParams,
    Scenario,
    TestFunction,
    picard_window,
    polynomial_bump_test,
    solve,
    solve_direct,
    solve_frozen,
    solve_picard,
    weak_form_residual,
    window_length,
)
from .velocity import (
    VelocityField,
    VelocityModel,
    audit_model,
    audit_velocity_field,
    congestion_speed,
    constant_direction,
    constant_drift_field,
    lipschitz_bound_b,
    linear_local_field,
    pedestrian_field,
    sedimentation_field,
    toward_point,
    velocity_batch,
)
from .wasserstein import (
    PairCapError,
    SimplexBasis,
    TransportPlan,
    UnequalMassError,
    coupling_cost,
    kantorovich_potential,
    w1_1d,
    w1_exact,
    w1_series,
    w1_vector,
)

__version__ = "0.1.0"
