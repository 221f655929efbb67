"""Projected gradient ascent over the surface amplitudes and phase shifts.

Phases and amplitudes move simultaneously with a shared step size found by
Armijo-Goldstein backtracking against a proximal quadratic model; the step
accepted at iteration n seeds iteration n+1.  Projections: phases onto the
unit circle elementwise, amplitude pairs onto the energy-conservation circle
(signed values allowed while iterating - a joint sign flip of amplitude and
phase is objective-neutral, so the quarter-circle constraint is recovered at
the end by canonicalizing signs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import MS, StarConfig, SystemModel
from .gradients import GradientPair, build_workspace, grad_objective_from_workspace
from .rate import evaluate


class PgamFailure(RuntimeError):
    """Non-finite objective or gradient encountered; carries the iterate index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class PgamOptions:
    """Step-size, stopping, and multi-start knobs.

    Stopping: absolute objective increase below ``tol``, or the iteration
    cap; 5 starts by default.
    """

    mu_init: float = 1.0
    kappa: float = 0.5
    tol: float = 1e-5
    max_iters: int = 200
    max_backtracks: int = 60
    n_starts: int = 5
    seed: int = 0
    freeze_amplitudes: bool = False

    def __post_init__(self):
        if self.mu_init <= 0:
            raise ValueError("initial step size must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if self.n_starts < 1:
            raise ValueError("need at least one start")


@dataclass
class PgamTrace:
    """Objective history and bookkeeping of one run; objectives include the
    starting point and are non-decreasing across accepted iterations."""

    objectives: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    backtrack_counts: list = field(default_factory=list)
    final_config: StarConfig | None = None
    converged: bool = False
    reason: str = ""

    @property
    def final_objective(self) -> float:
        return self.objectives[-1]

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1


def project_theta(v: np.ndarray) -> np.ndarray:
    """Elementwise unit-modulus projection; zero maps to 1 by convention."""
    v = np.asarray(v, dtype=complex)
    mag = np.abs(v)
    out = v / np.where(mag > 0, mag, 1.0)
    out[mag == 0] = 1.0
    return out


def project_beta(v: np.ndarray) -> np.ndarray:
    """Pairwise projection of (v_i, v_{i+N}) onto the unit circle, signs kept.

    The zero pair maps to the equal split (sqrt(1/2), sqrt(1/2)).
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    head, tail = v[:n], v[n:]
    norm = np.hypot(head, tail)
    safe = np.where(norm > 0, norm, 1.0)
    out = np.concatenate([head / safe, tail / safe])
    zero = np.concatenate([norm, norm]) == 0
    out[zero] = np.sqrt(0.5)
    return out


def armijo_condition(f_new: float, f_old: float, grad: GradientPair,
                     theta_new: np.ndarray, beta_new: np.ndarray,
                     theta_old: np.ndarray, beta_old: np.ndarray,
                     mu: float) -> bool:
    """True iff the trial point beats the proximal quadratic model.

    The model value is ``f_old + <g, dx> - ||dx||^2 / mu`` per block with the
    pairing 2 Re{x^H y} on the complex phase block and x^T y on the real
    amplitude block.
    """
    d_theta = theta_new - theta_old
    d_beta = beta_new - beta_old
    q = f_old
    q += 2.0 * np.real(np.vdot(grad.d_theta, d_theta))
    q -= np.sum(np.abs(d_theta) ** 2) / mu
    q += float(grad.d_beta @ d_beta)
    q -= float(d_beta @ d_beta) / mu
    return f_new > q


def pgam(system: SystemModel, options: PgamOptions, init: StarConfig,
         callback=None) -> PgamTrace:
    """Run the ascent from one starting point until tolerance, the iteration
    cap, or a stalled line search.

    Arbitrary starting points are projected feasible first.  With
    ``freeze_amplitudes`` the amplitude block is held fixed (used by the
    split-surface baseline where only phases are tunable).  ``callback``,
    if given, is invoked as ``callback(iteration, config, objective)`` after
    every accepted iteration.
    """
    theta, beta = init.stacked()
    theta = project_theta(theta)
    if not options.freeze_amplitudes:
        beta = project_beta(beta)

    trace = PgamTrace()
    # one kernel evaluation per trial point; the accepted trial's cached
    # intermediates feed the next gradient
    point = evaluate(theta, beta, system)
    f_cur = point.report.sum_se
    if not np.isfinite(f_cur):
        raise PgamFailure("non-finite objective at the starting point", 0)
    trace.objectives.append(f_cur)

    mu = options.mu_init
    for iteration in range(1, options.max_iters + 1):
        grad = grad_objective_from_workspace(build_workspace(point, system))
        if options.freeze_amplitudes:
            grad = GradientPair(d_theta=grad.d_theta, d_beta=np.zeros_like(grad.d_beta))
        if not (np.all(np.isfinite(grad.d_theta)) and np.all(np.isfinite(grad.d_beta))):
            raise PgamFailure("non-finite gradient", iteration)

        backtracks = 0
        accepted = False
        while True:
            theta_new = project_theta(theta + mu * grad.d_theta)
            if options.freeze_amplitudes:
                beta_new = beta
            else:
                beta_new = project_beta(beta + mu * grad.d_beta)
            if np.array_equal(theta_new, theta) and np.array_equal(beta_new, beta):
                # exact fixed point: no step can move the iterate, so accept
                # the zero-gain iteration and let the tolerance stop the run
                trial, f_new = point, f_cur
                accepted = True
                break
            trial = evaluate(theta_new, beta_new, system)
            f_new = trial.report.sum_se
            if not np.isfinite(f_new):
                raise PgamFailure("non-finite objective during line search", iteration)
            if armijo_condition(f_new, f_cur, grad, theta_new, beta_new,
                                theta, beta, mu):
                accepted = True
                break
            if backtracks >= options.max_backtracks:
                break
            mu *= options.kappa
            backtracks += 1

        if not accepted:
            trace.converged = False
            trace.reason = "line-search stall"
            break

        theta, beta, point = theta_new, beta_new, trial
        gain = f_new - f_cur
        f_cur = f_new
        trace.objectives.append(f_cur)
        trace.step_sizes.append(mu)
        trace.backtrack_counts.append(backtracks)
        if callback is not None:
            callback(iteration, StarConfig.from_stacked(theta, beta), f_cur)
        if gain < options.tol:
            trace.converged = True
            trace.reason = "objective tolerance"
            break
    else:
        trace.converged = False
        trace.reason = "max iterations"

    trace.final_config = StarConfig.from_stacked(theta, beta)
    return trace


def multi_start(system: SystemModel, options: PgamOptions) -> PgamTrace:
    """Best trace over ``n_starts`` runs: the canonical equal-split start with
    random phases first, fully random feasible points after; ties broken by
    start index.  Fully deterministic given the seed."""
    streams = np.random.SeedSequence(options.seed).spawn(options.n_starts)
    best: PgamTrace | None = None
    for idx, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        if idx == 0:
            init = StarConfig.equal_split(system.dims.n, rng)
        else:
            init = StarConfig.random(system.dims.n, rng)
        trace = pgam(system, options, init)
        if best is None or trace.final_objective > best.final_objective:
            best = trace
    return best


def canonicalize_signs(config: StarConfig) -> StarConfig:
    """Make every amplitude non-negative by absorbing a sign flip into the
    phase of the same element and region; objective-neutral."""
    out = config.copy()
    for beta, theta in ((out.beta_t, out.theta_t), (out.beta_r, out.theta_r)):
        negative = beta < 0
        beta[negative] *= -1.0
        theta[negative] *= -1.0
    return out


def round_to_ms(es_config: StarConfig) -> StarConfig:
    """Nearest-binary mode-switching configuration.

    Per element the larger amplitude magnitude wins its full unit (ties go to
    the transmission mode); phases are untouched.  The result satisfies the
    binary invariants exactly.
    """
    config = canonicalize_signs(es_config)
    t_wins = config.beta_t >= config.beta_r
    beta_t = np.where(t_wins, 1.0, 0.0)
    beta_r = np.where(t_wins, 0.0, 1.0)
    return StarConfig(
        theta_t=config.theta_t.copy(),
        theta_r=config.theta_r.copy(),
        beta_t=beta_t,
        beta_r=beta_r,
        protocol=MS,
    )
