"""Achievable-rate analysis and passive-beamforming optimization for a
surface-assisted massive MIMO downlink under correlated Rayleigh fading and
imperfect CSI.

The closed-form spectral efficiency depends on the surface configuration only
through one covariance scalar per user, which makes statistical-CSI
optimization cheap: the projected gradient ascent updates amplitudes and
phase shifts of both regions simultaneously.  Monte Carlo and
finite-difference oracles validate every analytic expression.
"""

from .channel import (
    ChannelRealization,
    StarConfig,
    SystemDims,
    SystemModel,
    UserMeta,
    aggregated_covariance,
    phase_dependent_trace,
    sample_realization,
)
from .correlation import (
    ArrayGeometry,
    CorrelationPair,
    LinkGains,
    build_bs_correlation,
    build_ris_correlation,
    eigendecompose_bs,
    path_gain,
)
from .estimation import (
    EstimationStats,
    PilotSpec,
    error_covariance_trace,
    estimate_realization,
    lmmse_stats,
)
from .gradients import (
    DegenerateInterferenceError,
    GradientPair,
    GradientWorkspace,
    build_workspace,
    finite_difference_gradient,
    grad_objective,
)
from .montecarlo import McEstimate, mc_covariance_check, mc_sinr
from .optimizer import (
    OptionError,
    PgamFailure,
    PgamOptions,
    PgamTrace,
    canonicalize_signs,
    initial_points,
    multi_start,
    pgam,
    pgam_lockstep,
    project_beta,
    project_theta,
    round_to_ms,
)
from .rate import Evaluation, RateReport, evaluate, sum_se

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "ChannelRealization",
    "CorrelationPair",
    "DegenerateInterferenceError",
    "EstimationStats",
    "Evaluation",
    "GradientPair",
    "GradientWorkspace",
    "LinkGains",
    "McEstimate",
    "OptionError",
    "PgamFailure",
    "PgamOptions",
    "PgamTrace",
    "PilotSpec",
    "RateReport",
    "StarConfig",
    "SystemDims",
    "SystemModel",
    "UserMeta",
    "aggregated_covariance",
    "build_bs_correlation",
    "build_ris_correlation",
    "build_workspace",
    "canonicalize_signs",
    "eigendecompose_bs",
    "error_covariance_trace",
    "estimate_realization",
    "evaluate",
    "finite_difference_gradient",
    "grad_objective",
    "initial_points",
    "lmmse_stats",
    "mc_covariance_check",
    "mc_sinr",
    "multi_start",
    "path_gain",
    "pgam",
    "pgam_lockstep",
    "phase_dependent_trace",
    "project_beta",
    "project_theta",
    "round_to_ms",
    "sample_realization",
    "sum_se",
]
