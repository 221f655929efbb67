"""Stochastic oracle for the closed-form SINR.

Simulates channels, pilot noise, LMMSE estimation, and maximum-ratio
precoding, then assembles the use-and-forget SINR from the sampled moments:

    S_k = |E{h_k^H hhat_k}|^2
    I_k = E{|h_k^H hhat_k|^2} - |E{h_k^H hhat_k}|^2
          + sum_{i != k} E{|h_k^H hhat_i|^2} + K sigma^2 / (rho lambda)

with the precoder normalization ``lambda = 1 / sum_i E{hhat_i^H hhat_i}``
estimated from the same trials.  Data symbols and downlink noise are never
sampled: the bound depends on channel/precoder moments only.  Per-trial RNG
streams are spawned from the master seed, so results are independent of any
batching or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (StarConfig, SystemModel, complex_normal, covariance_scalars,
                      sample_realization)
from .estimation import apply_wiener_filter
from .rate import sinr_from_terms


@dataclass(frozen=True)
class McEstimate:
    """Sampled per-user SINRs with batch-means standard errors."""

    gamma_hat: np.ndarray
    sum_se_hat: float
    n_trials: int
    std_err: np.ndarray


@dataclass
class _Moments:
    """Running sums of the per-trial statistics, one slot per user."""

    z: np.ndarray        # sum of h_k^H hhat_k
    m2_self: np.ndarray  # sum of |h_k^H hhat_k|^2
    m2_cross: np.ndarray  # (K, K) sum of |h_k^H hhat_i|^2, i != k
    power: np.ndarray    # sum of hhat_i^H hhat_i
    count: int

    @classmethod
    def zeros(cls, k: int) -> "_Moments":
        return cls(
            z=np.zeros(k, dtype=complex),
            m2_self=np.zeros(k),
            m2_cross=np.zeros((k, k)),
            power=np.zeros(k),
            count=0,
        )

    def add(self, other: "_Moments"):
        self.z += other.z
        self.m2_self += other.m2_self
        self.m2_cross += other.m2_cross
        self.power += other.power
        self.count += other.count


def _gamma_from_moments(mom: _Moments, system: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    n = mom.count
    k_users = system.dims.k
    mean_z = mom.z / n
    s = np.abs(mean_z) ** 2
    var_self = mom.m2_self / n - s
    cross = mom.m2_cross / n
    total_power = float(np.sum(mom.power / n))
    noise = k_users * system.sigma2 / system.rho * total_power
    i_term = var_self + cross.sum(axis=1) + noise
    return s, i_term


def mc_sinr(system: SystemModel, config: StarConfig, n_trials: int,
            seed: int, n_batches: int = 20) -> McEstimate:
    """Estimate the per-user SINRs over independent channel realizations.

    Standard errors come from batch means: the trials are split into
    ``n_batches`` contiguous groups, the SINR is assembled per group, and the
    spread of the group estimates is scaled down by sqrt(n_batches).
    """
    if n_trials < 2:
        raise ValueError("need at least two trials")
    k_users = system.dims.k
    eps = system.epsilon
    alphas = covariance_scalars(system, config)
    n_batches = int(min(n_batches, n_trials))

    streams = np.random.SeedSequence(seed).spawn(n_trials)
    batch_moments = [_Moments.zeros(k_users) for _ in range(n_batches)]
    edges = np.linspace(0, n_trials, n_batches + 1).astype(int)

    for trial, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        real = sample_realization(system, config, rng)
        noise = np.sqrt(eps) * complex_normal(rng, real.h.shape)
        h_hat = apply_wiener_filter(real.h + noise, alphas, system.corr, eps)

        inner = real.h.conj() @ h_hat.T  # (k, i) = h_k^H hhat_i
        if not np.all(np.isfinite(inner)):
            raise FloatingPointError(f"non-finite moment at trial {trial}")
        mom = _Moments(
            z=np.diag(inner).copy(),
            m2_self=np.abs(np.diag(inner)) ** 2,
            m2_cross=np.abs(inner) ** 2 * (1.0 - np.eye(k_users)),
            power=np.sum(np.abs(h_hat) ** 2, axis=1),
            count=1,
        )
        batch = int(np.searchsorted(edges, trial, side="right") - 1)
        batch_moments[batch].add(mom)

    total = _Moments.zeros(k_users)
    for mom in batch_moments:
        total.add(mom)
    s, i_term = _gamma_from_moments(total, system)
    gamma = sinr_from_terms(s, i_term)

    per_batch = np.array([
        sinr_from_terms(*_gamma_from_moments(mom, system))
        for mom in batch_moments if mom.count > 0
    ])
    used = per_batch.shape[0]
    std_err = per_batch.std(axis=0, ddof=1) / np.sqrt(used) if used > 1 \
        else np.full(k_users, np.nan)

    prelog = system.dims.prelog
    return McEstimate(
        gamma_hat=gamma,
        sum_se_hat=float(prelog * np.sum(np.log2(1.0 + gamma))),
        n_trials=n_trials,
        std_err=std_err,
    )


def mc_covariance_check(system: SystemModel, config: StarConfig, n_trials: int,
                        seed: int) -> float:
    """Max over users of the relative Frobenius gap between the empirical
    covariance of the aggregated channel and its closed form alpha_k R_BS.

    Users with exactly zero gain contribute their absolute empirical norm
    (the closed form is the zero matrix there).
    """
    k_users = system.dims.k
    m = system.dims.m
    alphas = covariance_scalars(system, config)

    acc = np.zeros((k_users, m, m), dtype=complex)
    streams = np.random.SeedSequence(seed).spawn(n_trials)
    for stream in streams:
        rng = np.random.default_rng(stream)
        real = sample_realization(system, config, rng)
        acc += real.h[:, :, None] * real.h.conj()[:, None, :]
    acc /= n_trials

    worst = 0.0
    for k in range(k_users):
        target = alphas[k] * system.corr.r_bs
        gap = np.linalg.norm(acc[k] - target)
        denom = np.linalg.norm(target)
        worst = max(worst, gap / denom if denom > 0 else gap)
    return float(worst)
