"""Pareto-optimal two-user NOMA beam design and MU-MISO downlink scheduling."""

from .angle_analysis import (
    PowerBranch,
    SimplePowerResult,
    ThetaBand,
    ThetaRegion,
    ThetaRegionResult,
    classify_theta_region,
    gamma2_fixed_vs_theta,
    gamma2_simple_power,
    optimal_theta_region,
    matched_filter_limit_check,
)
from .complex_linalg import (
    OrthonormalBasis,
    angle_theta,
    as_cvec,
    gram_schmidt,
    project_complement,
    project_onto,
)
from .oracle import OracleResult, brute_force_max, sample_instance
from .scheduler import (
    ClusterPlan,
    SchedulerOutput,
    SUSConfig,
    User,
    UserGroup,
    UserPool,
    ZFSelection,
    baseline_sus_zf,
    estimate_ici,
    realized_rates,
    schedule,
    schedule_targets,
    sus_select,
    zf_select,
)
from .simulation import (
    SimConfig,
    TrialRecord,
    aggregate_means,
    generate_channels,
    run_monte_carlo,
    run_trial,
)
from .two_user_core import (
    BeamSolution,
    CaseCoefficients,
    CaseTag,
    DerivedParams,
    InfeasibleTargetError,
    OptRegion,
    TwoUserChannel,
    achieved_gamma2,
    achieved_user1_sinr,
    alpha1_star,
    alpha1_star_fixed,
    case3_closed_form_p1,
    case_coeffs,
    channel_from_quality,
    classify_case,
    derive_params,
    fixed_power_design,
    gamma2_of_p1,
    maximize_branch_gamma2,
    optimize_p1,
    pareto_boundary,
)

__version__ = "0.1.0"
