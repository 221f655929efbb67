"""Closed-form downlink SINR and sum spectral efficiency.

Signal term ``S_k = tr(Psi_k)^2``; interference term

    I_k = sum_i tr(R_k Psi_i) - tr(Psi_k^2) + (K sigma^2 / rho) sum_i tr(Psi_i)

with the precoder normalization folded in.  The production path is one
vectorized kernel, :func:`evaluate`, that evaluates every trace as an O(M)
sum over the shared BS eigenvalues and keeps the intermediates the gradient
reuses.  It splits at the covariance scalars: ``covariance_scalars`` reads
the surface, :func:`from_alphas` is the one LMMSE/rate formula.  A naive
dense-matrix path (explicit R_k, Q_k, Psi_k products) is retained for
verification of the eigenbasis algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .channel import StarConfig, SystemModel, covariance_scalars, pbm_quadratic_diag


@dataclass(frozen=True)
class RateReport:
    """Per-user signal/interference/SINR terms and the pre-log weighted sum SE.

    For a batch of points every field but ``prelog`` carries the leading
    start axis, and ``sum_se`` is one value per start.
    """

    s: np.ndarray
    i_tilde: np.ndarray
    gamma: np.ndarray
    sum_se: float
    prelog: float


@dataclass(frozen=True)
class Evaluation:
    """The objective at one point, with every intermediate the gradient reuses.

    ``theta``/``beta`` are the (2, N) phases and amplitudes, t-region first;
    ``a`` holds the diagonals of R_RIS Phi_u R_RIS for both regions.  An
    evaluation of a batch of points carries a leading start axis on every
    array (shapes below are per start).
    """

    theta: np.ndarray    # (2, N) complex
    beta: np.ndarray     # (2, N) real
    a: np.ndarray        # (2, N) complex
    alphas: np.ndarray   # (K,) covariance scalars
    psi: np.ndarray      # (K, M) estimate-covariance eigenvalues
    qr_gain: np.ndarray  # (K, M) eigenvalues of Q_k R_k
    report: RateReport


def take_rows(batches: list, index: np.ndarray):
    """Rows ``index`` of the batched evaluations (or reports) ``batches``
    stacked along their start axis; scalar fields come from the first."""
    values = {}
    for fld in fields(batches[0]):
        parts = [getattr(batch, fld.name) for batch in batches]
        if is_dataclass(parts[0]):
            values[fld.name] = take_rows(parts, index)
        elif np.ndim(parts[0]):
            values[fld.name] = np.concatenate(parts)[index]
        else:
            values[fld.name] = parts[0]
    return type(batches[0])(**values)


def sinr_from_terms(s: np.ndarray, i_tilde: np.ndarray) -> np.ndarray:
    """Elementwise ratio with the 0/0 case (zero-gain user) defined as 0."""
    gamma = np.zeros_like(s)
    nonzero = i_tilde > 0
    gamma[nonzero] = s[nonzero] / i_tilde[nonzero]
    return gamma


def evaluate(theta: np.ndarray, beta: np.ndarray, system: SystemModel) -> Evaluation:
    """The objective kernel: sum SE at the stacked point ``(theta, beta)``.

    ``theta`` and ``beta`` are the (2N,) vectors of :meth:`StarConfig.stacked`
    (both regions, t-region first), or (P, 2N) batches of them, one row per
    start.  Costs one real |R_RIS|^2 x (N, 4) product per start (dense, or
    by FFT on a large grid) plus O(KM) vectorized work; every reduction runs along one start's own row, so a
    start's values do not depend on the batch it is evaluated in.
    """
    a = np.empty(theta.shape[:-1] + (2, theta.shape[-1] // 2), dtype=complex)
    alphas = covariance_scalars(system, StarConfig.from_stacked(theta, beta), a)
    psi, qr_gain, report = from_alphas(alphas, system)
    return Evaluation(theta=theta.reshape(a.shape), beta=beta.reshape(a.shape), a=a,
                      alphas=alphas, psi=psi, qr_gain=qr_gain, report=report)


def from_alphas(alphas: np.ndarray,
                system: SystemModel) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """The LMMSE spectra and the rate report at the covariance scalars.

    ``alphas`` is (..., K), any leading axes.  Returns ``(psi, qr_gain,
    report)``: ``psi = (alpha s)^2 / (alpha s + eps)`` are the eigenvalues of
    each estimate covariance Psi_k on the BS eigenvalues ``s`` and
    ``qr_gain = alpha s / (alpha s + eps)`` those of Q_k R_k, both
    (..., K, M); the error covariance has eigenvalues ``alpha s - psi``.
    ``alpha = 0`` gives an exactly zero estimate (nothing divides by alpha).
    """
    sigma = system.corr.bs_eigvals
    scaled = alphas[..., None] * sigma                  # (K, M) alpha_k s_m
    denom = scaled + system.epsilon
    psi = scaled**2 / denom
    psi_bar = psi.sum(axis=-2)
    i_tilde = (
        alphas * (sigma * psi_bar).sum(axis=-1)[..., None]
        - (psi**2).sum(axis=-1)
        + system.noise_lift * psi_bar.sum(axis=-1)[..., None]
    )
    report = _assemble_report(psi.sum(axis=-1) ** 2, i_tilde, system.dims.prelog)
    return psi, scaled / denom, report


def sum_se(config: StarConfig, system: SystemModel, method: str = "eig") -> RateReport:
    """Sum spectral efficiency of the configuration, deterministic.

    ``method='eig'`` is the O(N^2 + KM) production kernel (O(N log N + KM)
    on a grid from ``correlation.FFT_MIN_N`` up); ``method='dense'``
    re-derives every term from explicit matrices and exists to validate the
    eigenbasis algebra.
    """
    if method == "dense":
        return _sum_se_dense(config, system)
    if method != "eig":
        raise ValueError(f"unknown method {method!r}")
    return evaluate(*config.stacked(), system).report


def _assemble_report(s: np.ndarray, i_tilde: np.ndarray, prelog: float) -> RateReport:
    gamma = sinr_from_terms(s, i_tilde)
    return RateReport(
        s=s,
        i_tilde=i_tilde,
        gamma=gamma,
        sum_se=prelog * np.sum(np.log2(1.0 + gamma), axis=-1),
        prelog=prelog,
    )


def _sum_se_dense(config: StarConfig, system: SystemModel) -> RateReport:
    """Naive O(M^3) evaluation with materialized covariance matrices."""
    m = system.dims.m
    k_users = system.dims.k
    eps = system.sigma2 / (system.dims.tau * system.pilot_power)
    r_bs = system.corr.r_bs
    alphas = dense_covariance_scalars(config, system)

    psis = []
    for alpha in alphas:
        r_k = alpha * r_bs
        q_k = np.linalg.inv(r_k + eps * np.eye(m))
        psis.append(r_k @ q_k @ r_k)
    psi_sum = np.sum(psis, axis=0)

    s = np.array([np.trace(psi).real ** 2 for psi in psis])
    i_tilde = np.empty(k_users)
    for k in range(k_users):
        r_k = alphas[k] * r_bs
        i_tilde[k] = (
            np.trace(r_k @ psi_sum).real
            - np.trace(psis[k] @ psis[k]).real
            + k_users * system.sigma2 / system.rho * np.trace(psi_sum).real
        )
    return _assemble_report(s, i_tilde, system.dims.prelog)


def dense_covariance_scalars(config: StarConfig, system: SystemModel) -> np.ndarray:
    """Per-user covariance scalars from R_RIS itself: one complex trace
    ``phi_u^H diag(R_RIS Phi_u R_RIS) = tr(R_RIS Phi_u R_RIS Phi_u^H)`` per
    region u, given to the users of that region; the referee's route,
    independent of :func:`covariance_scalars`."""
    traces = {}
    for u in "tr":
        phi = config.phi(u)
        traces[u] = np.vdot(phi, pbm_quadratic_diag(system.corr.r_ris, phi)).real
    return system.gains.beta_bar + system.gains.beta_hat * np.array(
        [traces[mode] for mode in system.modes])
