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
batching or execution order.  Trials are drawn in chunks whose stacked D
draws fit in ``CHUNK_BYTES`` (one generator per trial, one sampler call per
chunk) and added into the moment sums one by one, in trial order.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import (StarConfig, SystemModel, complex_normal, covariance_scalars,
                      sample_realization)
from .estimation import apply_wiener_filter
from .rate import sinr_from_terms

# Bytes of the stacked M x N complex D draws of one chunk of trials: 6 trials
# at M = 64, N = 1024, where the chunk's other arrays add about 2 MB, so that
# a chunk needs no more than one N x N float64 matrix.  On a 2-core Xeon VM
# (numpy 2.4.6, OpenBLAS 0.3.31 on one thread), 100 trials of that system
# took 0.66 s one at a time and 0.53, 0.46, 0.49 and 0.47 s in chunks of 4,
# 6, 8 and 16 (medians of 9).  The mc-validate benchmark's peak RSS was
# 95.1 MB one trial at a time, 95.5-96.1 MB with 4 or 6 MB chunks and
# 101.1 MB with 8 MB chunks: glibc's heap kept their freed blocks, and the
# N x N eigh that follows could not reuse them all.
CHUNK_BYTES = 6 * 2**20


def _chunk_trials(system: SystemModel, n_trials: int) -> Iterator[slice]:
    """Consecutive trial ranges whose D draws fit in ``CHUNK_BYTES``."""
    d_bytes = system.dims.m * system.dims.n * np.dtype(complex).itemsize
    size = max(1, CHUNK_BYTES // d_bytes)
    return (slice(start, min(start + size, n_trials))
            for start in range(0, n_trials, size))


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

    for chunk in _chunk_trials(system, n_trials):
        rngs = [np.random.default_rng(stream) for stream in streams[chunk]]
        real = sample_realization(system, config, rngs)
        noise = np.sqrt(eps) * np.stack([complex_normal(rng, real.h.shape[1:])
                                         for rng in rngs])
        h_hat = apply_wiener_filter(real.h + noise, alphas, system.corr, eps)

        inner = real.h.conj() @ np.swapaxes(h_hat, -1, -2)  # (t, k, i) = h_k^H hhat_i
        finite = np.isfinite(inner).all(axis=(1, 2))
        if not finite.all():
            raise FloatingPointError(
                f"non-finite moment at trial {chunk.start + np.argmin(finite)}")
        # np.add.at adds trial by trial, in order, as the per-trial loop did
        rows = batch_of[chunk]
        np.add.at(z, rows, np.diagonal(inner, axis1=1, axis2=2))
        np.add.at(m2, rows, np.abs(inner) ** 2)
        np.add.at(power, rows, np.sum(np.abs(h_hat) ** 2, axis=-1))

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
    for chunk in _chunk_trials(system, n_trials):
        h = sample_realization(system, config,
                               [np.random.default_rng(stream) for stream in streams[chunk]]).h
        # per user, sum over the chunk of h_k h_k^H as one (M, T) x (T, M) product
        users = h.transpose(1, 2, 0)
        acc += users @ np.swapaxes(users.conj(), -1, -2)
    acc /= n_trials

    worst = 0.0
    for k in range(k_users):
        target = alphas[k] * system.corr.r_bs
        gap = np.linalg.norm(acc[k] - target)
        denom = np.linalg.norm(target)
        worst = max(worst, gap / denom if denom > 0 else gap)
    return float(worst)
