"""Closed-form gradients of the sum-SE objective in the surface variables.

Gradient convention: derivative with respect to the conjugated phase vector
(for real objectives this is the direction of steepest ascent after the
2*[Re, Im] pairing with real coordinates).  The objective reads the surface
only through the covariance scalars alpha_k = beta_bar_k + beta_hat_k T_u,
so the gradient is dF/dalpha, from the eigen-sums of an evaluated point,
times one direction dT_u per region: the system's kernel,
:meth:`rate.ClosedForm.gradient`, which PGAM calls directly.  A dense-matrix
evaluation of the same sums is kept behind ``method='dense'`` for
verification: the rate referee's :func:`rate.dense_evaluate`, whose
evaluation the same assembly reads.  A central finite-difference oracle
adjudicates the whole assembly.
"""

from __future__ import annotations

import numpy as np

from .channel import StarConfig, SystemModel
from .rate import (LN2, ClosedForm, DegenerateInterferenceError, Evaluation,  # noqa: F401
                   GradientPair, Score, dense_evaluate, evaluate, sum_se)


def build_workspace(point: Evaluation, system: SystemModel) -> np.ndarray:
    """:meth:`rate.ClosedForm.d_alpha`, dF/dalpha, at the kernel's evaluation
    (:func:`rate.evaluate`) or the dense referee's (:func:`rate.dense_evaluate`);
    :class:`DegenerateInterferenceError` if a user's interference term is 0."""
    report = point.report
    return ClosedForm(system).d_alpha(Score(point.a, point.alphas, point.sums, report.s,
                                            report.i_tilde, report.gamma, report.sum_se, False))


def grad_objective(config: StarConfig, system: SystemModel,
                   method: str = "eig") -> GradientPair:
    """Full gradient of the sum-SE objective; ``method='dense'`` takes the
    point from the dense referee (:func:`rate.dense_evaluate`).

    Raises :class:`DegenerateInterferenceError` if any user has a zero
    interference term (the quotient rule is undefined there).
    """
    producers = {"eig": evaluate, "dense": dense_evaluate}
    if method not in producers:
        raise ValueError(f"unknown method {method!r}")
    point = producers[method](config.theta, config.beta, system)
    return grad_objective_from_workspace(point, system, build_workspace(point, system))


def grad_objective_from_workspace(point: Evaluation, system: SystemModel,
                                  d_alpha: np.ndarray) -> GradientPair:
    """:meth:`rate.ClosedForm.directions` at an evaluated point, given its
    dF/dalpha (:func:`build_workspace`); (P, 2, N) blocks for a batch."""
    return ClosedForm(system).directions(point.theta, point.beta, point.a, d_alpha)


def finite_difference_gradient(config: StarConfig, system: SystemModel,
                               step: float = 1e-6) -> GradientPair:
    """Central-difference oracle for the full gradient.

    Real and imaginary parts of every phase entry are perturbed as free real
    coordinates; the complex gradient is (df/dx + i df/dy) / 2, matching the
    conjugate-derivative convention of the closed form.  Stays independent of
    the analytic gradient path: only the objective is evaluated.
    """
    def objective(theta: np.ndarray, beta: np.ndarray) -> float:
        return sum_se(StarConfig(theta, beta), system).sum_se

    theta0, beta0 = config.theta, config.beta
    d_theta = np.zeros_like(theta0)
    for j in np.ndindex(theta0.shape):
        for unit in (1.0, 1.0j):
            plus = theta0.copy()
            minus = theta0.copy()
            plus[j] += step * unit
            minus[j] -= step * unit
            deriv = (objective(plus, beta0) - objective(minus, beta0)) / (2.0 * step)
            d_theta[j] += 0.5 * deriv * unit

    d_beta = np.zeros_like(beta0)
    for j in np.ndindex(beta0.shape):
        plus = beta0.copy()
        minus = beta0.copy()
        plus[j] += step
        minus[j] -= step
        d_beta[j] = (objective(theta0, plus) - objective(theta0, minus)) / (2.0 * step)
    return GradientPair(d_theta=d_theta, d_beta=d_beta)
