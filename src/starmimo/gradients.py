"""Closed-form gradients of the sum-SE objective in the surface variables.

Gradient convention: derivative with respect to the conjugated phase vector
(for real objectives this is the direction of steepest ascent after the
2*[Re, Im] pairing with real coordinates).  The objective reads the surface
only through the covariance scalars alpha_k = beta_bar_k + beta_hat_k T_u,
so the gradient is dF/dalpha, from the eigen-sums of the kernel's cached
evaluation (:func:`rate.evaluate`), times one direction dT_u per region.  A
dense-matrix evaluation of the same sums is kept behind ``method='dense'``
for verification: the rate referee's :func:`rate.dense_evaluate`, whose
evaluation the same assembly reads.  A central finite-difference oracle
adjudicates the whole assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import StarConfig, SystemModel
from .rate import Evaluation, dense_evaluate, evaluate, sum_se

LN2 = np.log(2.0)


class DegenerateInterferenceError(ValueError):
    """Raised when some user has a zero interference-plus-noise term, which
    makes the SINR quotient rule undefined."""


@dataclass
class GradientPair:
    """Gradients in the phases and the amplitudes, each laid out as the
    :class:`StarConfig` arrays: row 0 the t-region."""

    d_theta: np.ndarray  # (2, N) complex; (P, 2, N) batched
    d_beta: np.ndarray   # (2, N) real; (P, 2, N) batched


def build_workspace(point: Evaluation, system: SystemModel) -> np.ndarray:
    """dF/dalpha, (..., K), at an evaluated point, from its eigen-sums: the
    optimizer passes its accepted trial's evaluation (:func:`rate.evaluate`),
    the dense route that of :func:`rate.dense_evaluate`.

    Raises :class:`DegenerateInterferenceError` if any user has a zero
    interference term (the quotient rule is undefined there).
    """
    report = point.report
    if (report.i_tilde <= 0).any():
        bad = np.unravel_index(np.argmin(report.i_tilde), report.i_tilde.shape)
        raise DegenerateInterferenceError(
            f"user {bad[-1]} has non-positive interference term {report.i_tilde[bad]:.3e}"
        )
    # d log(1 + S_k / I_k) = (dS_k - gamma_k dI_k) / (I_k + S_k) with
    # dS_k/dalpha_j = delta_kj 2 P_k C_k and
    # dI_k/dalpha_j = alpha_k E_j + lambda C_j + delta_kj (sum_i A_i - 2 G_k),
    # so the sum over k of dI_k/dalpha_j needs two user sums of its weights
    p, a, _, c, e, g = point.sums
    damp = (system.dims.prelog / LN2) / (report.i_tilde + report.s)
    w = report.gamma * damp
    total_w = w.sum(axis=-1)[..., None]
    total_wa = (w * point.alphas).sum(axis=-1)[..., None]
    return (c * (2.0 * damp * p - system.noise_lift * total_w)
            + w * (2.0 * g - a.sum(axis=-1)[..., None]) - e * total_wa)


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
    """The gradient at an evaluated point, given its dF/dalpha
    (:func:`build_workspace`); (P, 2, N) blocks, one row per start, for a
    batched evaluation.

    dT_u is ``a_u beta_u`` in the conjugated phases and ``2 Re(a_u^* theta_u)``
    in the amplitudes, so region u's blocks are these directions times one
    weight, the sum over its users of ``beta_hat_k dF/dalpha_k``.
    """
    weight = ((system.gains.beta_hat * d_alpha) @ system.region_mask)[..., None]
    a, theta, beta = point.a, point.theta, point.beta
    return GradientPair(d_theta=weight * (a * beta),
                        d_beta=(2.0 * weight) * np.real(np.conj(a) * theta))


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
