"""logmeasure: positive logarithmic energy of nonnegative measures.

Engines for the two-sided and one-sided energy forms, regularity
certificates (Lipschitz / L^p density / Holder / log-modulus / direct energy
/ divergent lower-bound series), generalized Cantor constructions with tiny
dimensions, and planar radial-reduction diagnostics for vortex sheets.
"""
from .errors import *  # noqa: F401,F403
from .measures import (  # noqa: F401
    Block,
    MassInterval,
    MonotoneCDF,
    QuadratureConfig,
    StepDensity,
    arcsin_profile_cdf,
    cdf_from_step_density,
    default_modulus_grid,
    eval_cdf,
    generalized_inverse,
    interval_mass,
    l1_divergent_blocks,
    mass_uniform_partition,
    power_law_cdf,
    sampled_modulus,
    scale_cdf,
    table_cdf,
    translate_cdf,
    uniform_cdf,
)
from .fractal import (  # noqa: F401
    CantorSpec,
    DimensionEstimate,
    IntervalList,
    LogModulusReport,
    box_counting_dimension,
    cantor_cdf,
    cantor_intervals,
    general_ratio_spec,
    log_modulus_certificate,
    standard_cantor_spec,
)
from .energy import (  # noqa: F401
    EnergyEstimate,
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    VERDICT_INCONCLUSIVE,
    energy_density,
    energy_double_stieltjes,
    energy_one_sided,
    holder_energy_bound,
    logplus_kernel,
    step_lower_bound,
)
from .criteria import (  # noqa: F401
    DIVERGENCE_CERTIFIED,
    HolderFit,
    MEMBER_CERTIFIED,
    MembershipVerdict,
    UNKNOWN,
    classify_membership,
    fit_holder,
    l_log_l_gamma,
    log_modulus_checks,
    lp_norm,
)
from .planar import (  # noqa: F401
    GridSpec,
    PlanarMeasure,
    RadialProfile,
    VelocityField,
    biot_savart,
    blob_approximation,
    circle_measure,
    dirac_at,
    energy_planar,
    line_measure,
    local_kinetic_energy,
    planar_measure,
    power_law_profile,
    radial_cdf,
    radial_inequality_check,
    radial_pushforward_check,
)
from .scenarios import SCENARIO_NAMES, run_scenario  # noqa: F401
from . import io  # noqa: F401

__version__ = "0.1.0"
