"""Achievable-rate analysis and passive-beamforming optimization for a
surface-assisted massive MIMO downlink under correlated Rayleigh fading and
imperfect CSI.

The closed-form spectral efficiency depends on the surface configuration only
through one covariance scalar per user, which makes statistical-CSI
optimization cheap: the projected gradient ascent updates amplitudes and
phase shifts of both regions simultaneously.  Dense-matrix,
finite-difference and Monte Carlo referees validate every analytic
expression; the first two live in :mod:`starmimo.referee`, which the package
does not import.
"""

from .channel import (
    ChannelRealization,
    StarConfig,
    SystemDims,
    SystemModel,
    sample_realization,
)
from .correlation import (
    ArrayGeometry,
    CorrelationPair,
    LinkGains,
    build_bs_correlation,
    build_ris_correlation,
    path_gain,
)
from .gradients import build_workspace, grad_objective
from .montecarlo import McEstimate, mc_sinr
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
from .rate import (
    ClosedForm,
    DegenerateInterferenceError,
    Evaluation,
    GradientPair,
    sum_se,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "ChannelRealization",
    "ClosedForm",
    "CorrelationPair",
    "DegenerateInterferenceError",
    "Evaluation",
    "GradientPair",
    "LinkGains",
    "McEstimate",
    "OptionError",
    "PgamFailure",
    "PgamOptions",
    "PgamTrace",
    "StarConfig",
    "SystemDims",
    "SystemModel",
    "build_bs_correlation",
    "build_ris_correlation",
    "build_workspace",
    "canonicalize_signs",
    "grad_objective",
    "initial_points",
    "mc_sinr",
    "multi_start",
    "path_gain",
    "pgam",
    "pgam_lockstep",
    "project_beta",
    "project_theta",
    "round_to_ms",
    "sample_realization",
    "sum_se",
]
