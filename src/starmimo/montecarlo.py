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

import functools
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


def _sinr_terms(z, m2, power, count, system: SystemModel):
    """Signal and interference-plus-noise terms from the sums over ``count``
    trials of z = h_k^H hhat_k (..., K), m2 = |h_k^H hhat_i|^2 (..., K, K) and
    power = hhat_i^H hhat_i (..., K); leading axes are batches."""
    n = np.asarray(count)[..., None]
    s = np.abs(z / n) ** 2
    mean_m2 = m2 / n[..., None]
    var_self = np.diagonal(mean_m2, axis1=-2, axis2=-1) - s
    cross = mean_m2 * (1.0 - np.eye(system.dims.k))
    noise = system.noise_lift * np.sum(power / n, axis=-1)
    return s, var_self + cross.sum(axis=-1) + noise[..., None]


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
    counts = np.diff(np.linspace(0, n_trials, n_batches + 1).astype(int))
    batch_of = np.repeat(np.arange(n_batches), counts)
    z = np.zeros((n_batches, k_users), dtype=complex)
    m2 = np.zeros((n_batches, k_users, k_users))
    power = np.zeros((n_batches, k_users))

    for trial, (stream, batch) in enumerate(zip(streams, batch_of)):
        rng = np.random.default_rng(stream)
        real = sample_realization(system, config, rng)
        noise = np.sqrt(eps) * complex_normal(rng, real.h.shape)
        h_hat = apply_wiener_filter(real.h + noise, alphas, system.corr, eps)

        inner = real.h.conj() @ h_hat.T  # (k, i) = h_k^H hhat_i
        if not np.all(np.isfinite(inner)):
            raise FloatingPointError(f"non-finite moment at trial {trial}")
        z[batch] += np.diag(inner)
        m2[batch] += np.abs(inner) ** 2
        power[batch] += np.sum(np.abs(h_hat) ** 2, axis=1)

    # add the batch rows in order: a numpy sum may pair them and move the last bit
    totals = [functools.reduce(np.add, rows) for rows in (z, m2, power)]
    gamma = sinr_from_terms(*_sinr_terms(*totals, n_trials, system))
    per_batch = sinr_from_terms(*_sinr_terms(z, m2, power, counts, system))
    std_err = per_batch.std(axis=0, ddof=1) / np.sqrt(n_batches) if n_batches > 1 \
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
