"""Stochastic oracle for the closed-form SINR.

Simulates channels, pilot noise, LMMSE estimation, and maximum-ratio
precoding, then forms the use-and-forget SINR terms from the sampled moments:

    S_k = |E{h_k^H hhat_k}|^2
    I_k = E{|h_k^H hhat_k|^2} - |E{h_k^H hhat_k}|^2
          + sum_{i != k} E{|h_k^H hhat_i|^2} + K sigma^2 / (rho lambda)

with the precoder normalization ``lambda = 1 / sum_i E{hhat_i^H hhat_i}``
estimated from the same trials; the SINRs and the sum SE come from these
terms as the closed form's do (:func:`rate.assemble_report`).  Data symbols
and downlink noise are never sampled: the bound depends on channel/precoder
moments only.  Per-trial RNG streams are spawned from the master seed, so
results are independent of any batching or execution order.  Trials are
drawn in chunks whose per-trial columns fit in ``CHUNK_BYTES``, of at least
``MIN_CHUNK_TRIALS`` trials (one generator per trial, one sampler call per
chunk), and added into the moment sums one by one, in trial order.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import (StarConfig, SystemModel, complex_normal, covariance_scalars,
                      sample_realization)
from .estimation import apply_wiener_filter
from .rate import assemble_report

# Bytes of one chunk's (N + M) x K complex columns, the unit of a trial's
# per-trial arrays.  Where N >= M a chunk holds under four times its columns
# at once (3.6-3.8 times, traced, at M = 64 and N = 64-1024): the sampler's
# q, phi * q and the fold's N-row buffer, N x K per trial each, with L^T's
# r-row output (r <= N) and the BS side's c_bar and Z.  Where M >> N, the BS
# side's few M x K blocks per trial set the peak (about 7 times at M = 256,
# N <= 16).  On a 2-vCPU Xeon VM (numpy 2.4.6, OpenBLAS 0.3.31 on one
# thread), one mc_sinr call of 100 trials of the mc-validate system
# (M = 64, K = 4) took (ms, median of 15 alternating passes, quartiles about
# +-10%) and peaked (tracemalloc, MB) at, every budget at N = 4096 giving
# MIN_CHUNK_TRIALS:
#
#   budget    N = 64      N = 256     N = 1024    N = 4096
#   0.25 MiB  12.8  1.1   19.7  0.9   46.0  2.0   222  7.5
#   0.5 MiB   11.6  2.0   16.8  1.9   47.4  2.0   246  7.5
#   1 MiB     11.2  3.1   18.0  3.7   47.8  3.7   243  7.5
#   2 MiB     13.8  3.1   20.0  7.2   42.5  7.4   262  7.5
#
# Time is flat from 0.25 MiB on, but below 0.5 MiB the mc-validate
# benchmark's peak RSS falls no further (46.6-46.8 MB with 0.25 MiB and
# 46.4-46.9 MB with 0.5 MiB, seeds 0-2).
CHUNK_BYTES = 2**19
# The fewest trials in a chunk, whatever the budget.  Time follows the
# trials per chunk, not its bytes: each chunk streams the whole surface
# factor through both products, and at large N too few trials leave that
# pass unamortized.  Chunks of 1, 2, 3, 4, 8 and 12 trials took 631, 397,
# 381, 335, 297 and 274 ms per 100 trials at N = 4096 and 189, 156, 113,
# 102, 84 and 87 ms at N = 2025 (45 x 45); 0.5 MiB holds 1 and 3 trials
# there.  At K = 4, chunks of 2 to 12 trials give the same bits at N = 1024
# to 4096 (``sample_realization``).
MIN_CHUNK_TRIALS = 8
# Contiguous trial groups of the batch-means standard errors; fewer when
# there are fewer trials, and at least two, since mc_sinr needs two trials.
N_BATCHES = 20


def _chunk_trials(system: SystemModel, n_trials: int) -> Iterator[slice]:
    """Consecutive trial ranges whose (N + M) x K columns fit in
    ``CHUNK_BYTES``, of at least ``MIN_CHUNK_TRIALS`` trials but the last."""
    dims = system.dims
    trial_bytes = (dims.n + dims.m) * dims.k * np.dtype(complex).itemsize
    size = max(MIN_CHUNK_TRIALS, CHUNK_BYTES // trial_bytes)
    return (slice(start, min(start + size, n_trials))
            for start in range(0, n_trials, size))


@dataclass(frozen=True)
class McEstimate:
    """Sampled per-user SINRs with batch-means standard errors over
    ``min(N_BATCHES, n_trials)`` groups, and the sum SE with its
    delta-method standard error."""

    gamma_hat: np.ndarray
    sum_se_hat: float
    n_trials: int
    std_err: np.ndarray
    sum_se_stderr: float


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


def _chunk_moments(system: SystemModel, config: StarConfig, alphas: np.ndarray,
                   streams: list[np.random.SeedSequence]) -> tuple[np.ndarray, np.ndarray]:
    """h_k^H hhat_i (T, K, K) and hhat_i^H hhat_i (T, K) of one chunk's
    trials, one per stream.  The chunk's channels, pilot noise and estimates
    are locals, freed on return."""
    eps = system.epsilon
    rngs = [np.random.default_rng(stream) for stream in streams]
    h = sample_realization(system, config, rngs).h
    (noise,) = complex_normal(rngs, h.shape[1:])
    h_hat = apply_wiener_filter(h + np.sqrt(eps) * noise, alphas, system.corr, eps)
    return h.conj() @ np.swapaxes(h_hat, -1, -2), np.sum(np.abs(h_hat) ** 2, axis=-1)


def mc_sinr(system: SystemModel, config: StarConfig, n_trials: int,
            seed: int) -> McEstimate:
    """Estimate the per-user SINRs over independent channel realizations.

    Standard errors come from batch means: the trials are split into
    ``min(N_BATCHES, n_trials)`` contiguous groups, the SINR is assembled
    per group, and the spread of the group estimates is scaled down by the
    square root of the group count.  The sum SE's error carries them
    through its derivative by the delta method:
    sqrt(sum_k (prelog / ((1 + gamma_k) ln 2) * std_err_k)^2).

    Trials run in chunks (``_chunk_trials``), and a chunk's arrays are
    freed before the next chunk is drawn.  With N >= M one chunk holds
    under four times its trials' (N + M) x K complex columns at once: about
    2 MB at M = 64, K = 4 and N = 64 to 1024.
    """
    if isinstance(n_trials, bool) or not isinstance(n_trials, numbers.Integral) or n_trials < 2:
        raise ValueError(f"n_trials: need an integer of at least 2, got {n_trials!r}")
    k_users = system.dims.k
    alphas = covariance_scalars(system, config)
    n_batches = min(N_BATCHES, n_trials)

    streams = np.random.SeedSequence(seed).spawn(n_trials)
    counts = np.diff(np.linspace(0, n_trials, n_batches + 1).astype(int))
    batch_of = np.repeat(np.arange(n_batches), counts)
    z = np.zeros((n_batches, k_users), dtype=complex)
    m2 = np.zeros((n_batches, k_users, k_users))
    power = np.zeros((n_batches, k_users))

    for chunk in _chunk_trials(system, n_trials):
        inner, hat_power = _chunk_moments(system, config, alphas, streams[chunk])
        finite = np.isfinite(inner).all(axis=(1, 2))
        if not finite.all():
            raise FloatingPointError(
                f"non-finite moment at trial {chunk.start + np.argmin(finite)}")
        # np.add.at adds trial by trial, in order, as the per-trial loop did
        rows = batch_of[chunk]
        np.add.at(z, rows, np.diagonal(inner, axis1=1, axis2=2))
        np.add.at(m2, rows, np.abs(inner) ** 2)
        np.add.at(power, rows, hat_power)

    # add the batch rows in order: a numpy sum may pair them and move the last bit
    prelog = system.dims.prelog
    totals = [functools.reduce(np.add, rows) for rows in (z, m2, power)]
    gamma, total = assemble_report(*_sinr_terms(*totals, n_trials, system), prelog)
    per_batch, _ = assemble_report(*_sinr_terms(z, m2, power, counts, system), prelog)
    std_err = per_batch.std(axis=0, ddof=1) / np.sqrt(n_batches)

    dse = prelog / ((1.0 + gamma) * np.log(2.0))
    return McEstimate(
        gamma_hat=gamma,
        sum_se_hat=float(total),
        n_trials=n_trials,
        std_err=std_err,
        sum_se_stderr=float(np.sqrt(np.sum((dse * std_err) ** 2))),
    )
