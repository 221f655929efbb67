"""Closed-form gradients of the sum-SE objective in the surface variables.

Gradient convention: derivative with respect to the conjugated phase vector
(for real objectives this is the direction of steepest ascent after the
2*[Re, Im] pairing with real coordinates).  The gradient is built from the
objective kernel's cached evaluation (:func:`rate.evaluate`), so a point the
optimizer has already evaluated costs only the trace scalars, each an O(M)
sum over the shared BS eigenvalues.  A dense-matrix evaluation of the same
scalars is kept behind ``method='dense'`` for verification: it shares the
rate referee's route (:func:`rate.dense_lmmse` and the surface products
from R_RIS itself).  A central finite-difference oracle adjudicates the
whole assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import StarConfig, SystemModel, pbm_quadratic_diag
from .rate import Evaluation, dense_covariance_scalars, dense_lmmse, evaluate, sum_se

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


@dataclass
class GradientWorkspace:
    """Everything the gradient assembly reads at one point.

    ``point`` is the objective kernel's cached evaluation; ``nu``,
    ``nu_bar``, ``nu_tilde`` are the real trace scalars weighting the signal
    and interference directions (with a leading start axis for a batched
    point).
    """

    point: Evaluation
    system: SystemModel
    nu: np.ndarray           # (K,)
    nu_bar: np.ndarray       # (K,)
    nu_tilde: np.ndarray     # (K, K), entry (k, i)


def build_workspace(point: Evaluation, system: SystemModel,
                    method: str = "eig") -> GradientWorkspace:
    """Gradient scalars at a point the objective kernel has evaluated (the
    optimizer passes its accepted trial's evaluation).

    ``method='dense'`` recomputes the covariance scalars, the objective's
    terms and the nu scalars from explicit matrices, and the surface
    diagonals from R_RIS itself, using nothing of the kernel's cache but the
    point; results agree to roundoff and the dense route exists only to
    validate the fast algebra.
    """
    if method not in ("eig", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "eig":
        nu, nu_bar, nu_tilde = _nu_scalars_eig(point, system)
    else:
        config = StarConfig(point.theta, point.beta)
        point = replace(
            point,
            a=np.array([pbm_quadratic_diag(system.corr.r_ris, config.phi(u)) for u in "tr"]),
            alphas=dense_covariance_scalars(config, system),
            report=sum_se(config, system, method="dense"),
        )
        nu, nu_bar, nu_tilde = _nu_scalars_dense(point.alphas, system)
    return GradientWorkspace(point=point, system=system, nu=nu, nu_bar=nu_bar,
                             nu_tilde=nu_tilde)


def _nu_scalars_eig(point, system):
    """All trace scalars as O(M) eigenvalue sums over the kernel's cache,
    per start for a batched evaluation."""
    sigma, psi, qr_gain = system.corr.bs_eigvals, point.psi, point.qr_gain
    beta_hat = system.gains.beta_hat
    # nu_k = 2 bhat_k tr(Psi_k) tr((QR + RQ - Q R^2 Q) R_BS)
    t_lin = np.sum(qr_gain * sigma, axis=-1)            # tr(Q_k R_k R_BS)
    t_quad = np.sum(qr_gain**2 * sigma, axis=-1)        # tr(Q_k R_k^2 Q_k R_BS)
    nu = 2.0 * beta_hat * psi.sum(axis=-1) * (2.0 * t_lin - t_quad)

    # nu_bar_k = bhat_k tr(Psi_check_k R_BS) with
    # Psi_check = sum_i Psi_i - 2 (QR Psi + Psi RQ - QR Psi RQ)
    trace_psi_rbs = np.sum(sigma * psi.sum(axis=-2), axis=-1)[..., None]
    damped = 2.0 * qr_gain - qr_gain**2                         # (K, M)
    correction = np.sum(sigma * psi * damped, axis=-1)
    nu_bar = beta_hat * (trace_psi_rbs - 2.0 * correction)

    # nu_tilde[k, i] = bhat_i tr(R_tilde_ki R_BS); R_bar_k = R_k + noise_lift I
    r_bar = point.alphas[..., None] * sigma + system.noise_lift  # (K, M)
    mix = damped * sigma                                        # (K=i, M)
    nu_tilde = beta_hat * (r_bar @ np.swapaxes(mix, -1, -2))    # (k, i)
    return nu, nu_bar, nu_tilde


def _nu_scalars_dense(alphas, system):
    """Verification route: the same scalars from materialized matrices, the
    (K, M, M) stacks of :func:`rate.dense_lmmse`."""
    def trace(x):
        return np.trace(x, axis1=-2, axis2=-1).real

    r_bs, beta_hat = system.corr.r_bs, system.gains.beta_hat
    r, q, psi = dense_lmmse(alphas, system)
    qr, rq = q @ r, r @ q
    nu = 2.0 * beta_hat * trace(psi) * trace((qr + rq - qr @ rq) @ r_bs)

    psi_check = psi.sum(axis=0) - 2.0 * (qr @ psi + psi @ rq - qr @ psi @ rq)
    nu_bar = beta_hat * trace(psi_check @ r_bs)

    # entry (k, i): R_tilde_ki = QR_i R_bar_k - QR_i R_bar_k RQ_i + R_bar_k RQ_i
    r_bar = (r + system.noise_lift * np.eye(system.dims.m))[:, None]
    r_tilde = qr @ r_bar - qr @ r_bar @ rq + r_bar @ rq
    nu_tilde = beta_hat * trace(r_tilde @ r_bs)
    return nu, nu_bar, nu_tilde


def grad_objective(config: StarConfig, system: SystemModel,
                   method: str = "eig") -> GradientPair:
    """Full gradient of the sum-SE objective.

    Raises :class:`DegenerateInterferenceError` if any user has a zero
    interference term (the quotient rule is undefined there).
    """
    point = evaluate(config.theta, config.beta, system)
    return grad_objective_from_workspace(build_workspace(point, system, method=method))


def grad_objective_from_workspace(ws: GradientWorkspace) -> GradientPair:
    """The gradient at the workspace's point; (P, 2, N) blocks, one row per
    start, for a batched evaluation."""
    report = ws.point.report
    if np.any(report.i_tilde <= 0):
        bad = np.unravel_index(np.argmin(report.i_tilde), report.i_tilde.shape)
        raise DegenerateInterferenceError(
            f"user {bad[-1]} has non-positive interference term {report.i_tilde[bad]:.3e}"
        )
    # Every per-user term is a scalar multiple of its region's direction, so
    # the user sum collapses to one quotient-rule weight per region.  Column
    # u of ``coef`` is the interference coefficient of region u: nu_tilde
    # summed over the region's users, plus nu_bar for a user of that region.
    mask = ws.system.region_mask                            # (K, 2)
    coef = ws.nu_tilde @ mask + ws.nu_bar[..., None] * mask
    i_k = report.i_tilde[..., None]
    weight = np.sum(
        (i_k * ws.nu[..., None] * mask - report.s[..., None] * coef)
        / ((1.0 + report.gamma[..., None]) * i_k**2),
        axis=-2,
    )
    scale = (ws.system.dims.prelog / LN2 * weight)[..., None]
    a, theta, beta = ws.point.a, ws.point.theta, ws.point.beta
    return GradientPair(d_theta=scale * (a * beta),
                        d_beta=scale * (2.0 * np.real(np.conj(a) * theta)))


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
