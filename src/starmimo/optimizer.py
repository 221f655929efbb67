"""Projected gradient ascent over the surface amplitudes and phase shifts.

Phases and amplitudes move simultaneously with a shared step size found by
Armijo-Goldstein backtracking against a proximal quadratic model; the step
accepted at iteration n seeds iteration n+1.  Projections: phases onto the
unit circle elementwise, amplitude pairs onto the energy-conservation circle
(signed values allowed while iterating - a joint sign flip of amplitude and
phase is objective-neutral, so the quarter-circle constraint is recovered at
the end by canonicalizing signs).

All starts of a multi-start run in lockstep through one loop,
:func:`pgam_lockstep`: each line-search round scores every running start at
its latest candidate in one ``rate.ClosedForm.score`` call, while every
start keeps its own step size, backtracks and stopping state.  Systems that
differ only in their direct gains share one batch, one ``beta_bar`` row per
start.  Every reduction runs along one start's row, so a start's trace is
bit for bit the one it has when run alone (:func:`pgam`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .channel import MS, StarConfig, SystemModel, covariance_scalars

# unused here, but perfbench's tracer wraps (and reports) only functions imported by name
from .gradients import build_workspace, grad_objective_from_workspace  # noqa: F401
from .rate import ClosedForm, evaluate


class PgamFailure(RuntimeError):
    """Non-finite objective or gradient encountered; carries the iterate index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


class OptionError(ValueError):
    """An out-of-range :class:`PgamOptions` field; ``field`` names it."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld


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

    def __post_init__(self):
        for name, ok, message in (
            ("mu_init", 0.0 < self.mu_init < math.inf,
             "initial step size must be finite and positive"),
            ("kappa", 0.0 < self.kappa < 1.0, "backtracking factor must lie in (0, 1)"),
            ("tol", 0.0 <= self.tol < math.inf, "tolerance must be finite and non-negative"),
        ):
            if not ok:
                raise OptionError(name, message)
        for name, low in (("max_iters", 1), ("max_backtracks", 0), ("n_starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise OptionError(name, f"must be an integer of at least {low}, got {value!r}")


@dataclass
class PgamTrace:
    """Objective history and bookkeeping of one run, all it reports: the
    objectives, the start's first, never decrease; ``reason`` says why it stopped.

    ``stationarity`` holds ||x+ - x|| / mu of every accepted step, over the
    phases (complex) and amplitudes of both regions: the norm of the
    projected-gradient map at the step size used (0 for an accepted step
    that cannot move the iterate).
    """

    objectives: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    backtrack_counts: list = field(default_factory=list)
    stationarity: list = field(default_factory=list)
    final_config: StarConfig | None = None
    reason: str = ""

    @property
    def final_objective(self) -> float:
        return self.objectives[-1]

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1


def project_theta(v: np.ndarray) -> np.ndarray:
    """Elementwise unit-modulus projection; zero maps to 1 by convention.

    With no zero (or NaN) entry, a plain divide with the same bits.
    """
    v = np.asarray(v, dtype=complex)
    mag = np.abs(v)
    # min is NaN if any entry is; ``initial`` gives an empty array one
    if mag.min(initial=1.0) > 0:
        return v / mag
    return np.divide(v, mag, out=np.ones_like(v), where=mag > 0)


def project_beta(v: np.ndarray) -> np.ndarray:
    """Projection of every (t, r) amplitude pair, along axis -2 of (2, N) or
    (P, 2, N) input, onto the unit circle, signs kept.

    The zero pair maps to the equal split (sqrt(1/2), sqrt(1/2)); with no
    zero (or NaN) pair, a plain divide with the same bits.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-2] != 2:
        raise ValueError(f"shape {v.shape} needs a region axis of length 2 "
                         "(t, r) before the element axis")
    norm = np.hypot(v[..., :1, :], v[..., 1:, :])
    if norm.min(initial=1.0) > 0:
        return v / norm
    return np.divide(v, norm, out=np.full_like(v, np.sqrt(0.5)), where=norm > 0)


def _rows(x: np.ndarray) -> np.ndarray:
    """(..., 2, N) as (..., 2N), t-region first, an empty batch too: every
    per-start reduction runs along this one row, in the summation order of
    one flat vector of both regions."""
    return x.reshape(x.shape[:-2] + (2 * x.shape[-1],))


class Step(NamedTuple):
    """The move ``x+ - x`` of a line-search round, each block as rows
    (:func:`_rows`), and its squared norms, one per start: the Armijo model
    and the stationarity of an accepted step both read them."""

    d_theta: np.ndarray
    d_beta: np.ndarray
    sq_theta: np.ndarray
    sq_beta: np.ndarray


def step_between(theta_new: np.ndarray, beta_new: np.ndarray,
                 theta_old: np.ndarray, beta_old: np.ndarray) -> Step:
    """The :class:`Step` between two (2, N) or (P, 2, N) points."""
    d_theta = _rows(theta_new - theta_old)
    d_beta = _rows(beta_new - beta_old)
    return Step(d_theta, d_beta, np.vecdot(d_theta, d_theta).real, np.vecdot(d_beta, d_beta))


def armijo_condition(f_new, f_old, grad, step: Step, mu):
    """True iff the trial point, ``step`` away, meets or beats the proximal
    quadratic model: a zero step passes iff ``f_new >= f_old``.

    The model value is ``f_old + <g, dx> - ||dx||^2 / mu`` per block with the
    pairing 2 Re{x^H y} on the complex phase block and x^T y on the real
    amplitude block.  With a leading start axis on the step and the gradient
    (and one ``f_new``, ``f_old``, ``mu`` per start) the result is one
    verdict per start.
    """
    # np.vecdot (numpy >= 2.0) makes the BLAS dot of np.vdot (complex) and
    # of ``@`` (real) once per row, so a start's verdict does not depend on
    # its batch
    q = f_old + 2.0 * np.real(np.vecdot(_rows(grad.d_theta), step.d_theta)) - step.sq_theta / mu
    q = q + np.vecdot(_rows(grad.d_beta), step.d_beta) - step.sq_beta / mu
    return f_new >= q


def pgam(system: SystemModel, options: PgamOptions, init: StarConfig) -> PgamTrace:
    """Run the ascent from one starting point until tolerance, the iteration
    cap, or a stalled line search: the one-start call of
    :func:`pgam_lockstep`."""
    return pgam_lockstep(system, options, [init])[0]


def pgam_lockstep(system: SystemModel, options: PgamOptions, inits: list) -> list[PgamTrace]:
    """Run the ascent from every starting point in ``inits`` in lockstep and
    return one trace per start, in order.

    Arbitrary starting points are projected feasible first.  A (P, K)
    ``system.gains.beta_bar`` gives start p the direct gains of its row p; a
    start leaves the batch, with its row, when it stops.  Per iteration the
    system's kernel (``rate.ClosedForm``) makes one batched gradient, and
    each line-search round moves and scores every running start at its own
    latest step.  Armijo's test alone ends a start's search, an exact fixed
    point's too, and the last round's score and verdict are every start's.
    An iteration that stops some starts scores the rest once more.
    """
    theta = project_theta(np.stack([init.theta for init in inits]))
    beta = project_beta(np.stack([init.beta for init in inits]))

    # the score at the current point feeds the next gradient; the start's scalars come
    # through covariance_scalars, where perfbench counts channel.ris_kernel.bytes
    closed, a = ClosedForm(system), np.empty(theta.shape, dtype=complex)
    point = closed.score(theta, beta, covariance_scalars(system, StarConfig(theta, beta), a), a)
    f_cur = point.sum_se
    if not np.all(np.isfinite(f_cur)):
        raise PgamFailure("non-finite objective at the starting point", 0)
    traces = [PgamTrace(objectives=[f]) for f in f_cur.tolist()]
    mu = np.full(len(inits), float(options.mu_init))
    active = list(range(len(inits)))  # start index of every row of the state

    for iteration in range(1, options.max_iters + 1):
        grad = closed.gradient(theta, beta, point)
        if not (np.isfinite(grad.d_theta).all() and np.isfinite(grad.d_beta).all()):
            raise PgamFailure("non-finite gradient", iteration)

        backtracks = np.zeros(len(active), dtype=int)
        while True:
            # rows that accepted or stalled keep their step, so they
            # recompute their candidate, score and verdict to the same bits
            theta_new = project_theta(theta + mu[:, None, None] * grad.d_theta)
            beta_new = project_beta(beta + mu[:, None, None] * grad.d_beta)
            step = step_between(theta_new, beta_new, theta, beta)
            trial = closed.score(theta_new, beta_new)
            f_trial = trial.sum_se
            if not np.isfinite(f_trial).all():
                raise PgamFailure("non-finite objective during line search", iteration)
            ok = armijo_condition(f_trial, f_cur, grad, step, mu)
            retry = ~ok & (backtracks < options.max_backtracks)
            if not retry.any():
                break
            mu[retry] *= options.kappa
            backtracks += retry

        # the last round holds every row's verdict and, if it accepted, its
        # next point and objective
        stop = ~ok | (f_trial - f_cur < options.tol)
        objectives, steps, counts = f_trial.tolist(), mu.tolist(), backtracks.tolist()
        stationarity = (np.sqrt(step.sq_theta + step.sq_beta) / mu).tolist()
        for row in ok.nonzero()[0].tolist():
            trace = traces[active[row]]
            trace.objectives.append(objectives[row])
            trace.step_sizes.append(steps[row])
            trace.backtrack_counts.append(counts[row])
            trace.stationarity.append(stationarity[row])
        for row in stop.nonzero()[0].tolist():
            trace, end = traces[active[row]], ((theta_new, beta_new) if ok[row] else (theta, beta))
            trace.final_config = StarConfig(end[0][row].copy(), end[1][row].copy())
            trace.reason = "objective tolerance" if ok[row] else "line-search stall"
        theta, beta, f_cur, point = theta_new, beta_new, f_trial, trial
        if stop.any():
            keep = ~stop
            if not keep.any():
                return traces
            active = [start for start, kept in zip(active, keep.tolist()) if kept]
            theta, beta, f_cur, mu = theta[keep], beta[keep], f_cur[keep], mu[keep]
            if closed.beta_bar.ndim > 1:
                closed.beta_bar = closed.beta_bar[keep]
            point = closed.score(theta, beta)

    for row, start in enumerate(active):
        traces[start].final_config = StarConfig(theta[row].copy(), beta[row].copy())
        traces[start].reason = "max iterations"
    return traces


def initial_points(n: int, options: PgamOptions) -> list[StarConfig]:
    """The ``n_starts`` starting points of a multi-start, each drawn from its
    own stream of ``SeedSequence(options.seed)``: the canonical equal-split
    start with random phases first, fully random feasible points after."""
    streams = np.random.SeedSequence(options.seed).spawn(options.n_starts)
    rngs = [np.random.default_rng(stream) for stream in streams]
    return [StarConfig.equal_split(n, rngs[0])] + [StarConfig.random(n, rng) for rng in rngs[1:]]


def multi_start(systems: list[SystemModel], options: PgamOptions) -> list[PgamTrace]:
    """The best trace of each system over its ``n_starts`` runs from
    :func:`initial_points`, ties broken by start index; one per system, in
    order.  Fully deterministic given the seed.

    The starts of all systems run in one :func:`pgam_lockstep` batch, each
    reading its own system's direct gains as its row of a (P, K)
    ``beta_bar``, so a start's trace is bit for bit its own-system run's.
    The systems must share one ``CorrelationPair`` and agree in every other
    field, or ``ValueError`` is raised.
    """
    first = systems[0]
    shared = attrgetter("gains.beta_g", "k_t", "tau_c", "tau", "rho", "pilot_power", "sigma2")
    for system in systems[1:]:
        if (system.corr is not first.corr or shared(system) != shared(first)
                or not np.array_equal(system.gains.beta_tilde, first.gains.beta_tilde)):
            raise ValueError("one multi-start batch needs systems that differ only in beta_bar")
    n = options.n_starts
    beta_bar = np.repeat([system.gains.beta_bar for system in systems], n, axis=0)
    batch = replace(first, gains=replace(first.gains, beta_bar=beta_bar))
    traces = pgam_lockstep(batch, options, initial_points(first.dims.n, options) * len(systems))
    return [max(traces[i:i + n], key=lambda trace: trace.final_objective)
            for i in range(0, len(traces), n)]


def split_surface(system: SystemModel, n_t: int) -> tuple[StarConfig, float]:
    """The split-surface baseline and its sum SE: the first ``n_t`` elements
    transmit, the rest reflect, and each region's phases are all ``1`` or
    ``+1/-1`` alternating by element index.  The (t, r) patterns (equal,
    equal), (equal, alt), (alt, equal) and (alt, alt) are scored in that
    order in one kernel call, and the first maximum is kept with its value.

    The closed form reads a region's phases only through its trace
    ``phi_u^H |R_RIS|^2 phi_u``.  Equal phases give the largest trace (the
    kernel is entrywise non-negative), so wherever the sum SE rises in both
    traces they are the optimum over all phases.  This needs one R_RIS shared
    by both regions and one Phi per region: the paper's closed form only.
    """
    n = system.dims.n
    transmits = (np.arange(n) < n_t).astype(float)
    signs = (np.ones(n), np.where(np.arange(n) % 2, -1.0, 1.0))
    theta = np.array([[t, r] for t in signs for r in signs], dtype=complex)
    beta = np.tile([transmits, 1.0 - transmits], (len(theta), 1, 1))
    values = evaluate(theta, beta, system).report.sum_se
    best = int(np.argmax(values))
    return StarConfig(theta[best], beta[best]), float(values[best])


def canonicalize_signs(config: StarConfig) -> StarConfig:
    """Make every amplitude non-negative by absorbing a sign flip into the
    phase of the same element and region; objective-neutral."""
    negative = config.beta < 0
    return replace(config, theta=np.where(negative, -config.theta, config.theta),
                   beta=np.abs(config.beta))


def round_to_ms(es_config: StarConfig) -> StarConfig:
    """Nearest-binary mode-switching configuration.

    Per element the larger amplitude magnitude wins its full unit (ties go to
    the transmission mode); phases are untouched.  The result satisfies the
    binary invariants exactly.
    """
    config = canonicalize_signs(es_config)
    t_wins = config.beta[..., :1, :] >= config.beta[..., 1:, :]
    return replace(config, beta=np.where(t_wins, [[1.0], [0.0]], [[0.0], [1.0]]), protocol=MS)
