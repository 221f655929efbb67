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
drawn in chunks whose per-trial columns fit in ``CHUNK_BYTES`` (one
generator per trial, one sampler call per chunk) and added into the moment
sums one by one, in trial order.
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
# per-trial arrays: the surface draw and its products (c, q, phi * q, V')
# take a few N x K blocks, the BS side (c_bar, Z, d, h, pilot noise, the
# estimate) a few M x K.  1 MB is 15 trials at M = 64, N = 1024, K = 4.  On
# a 2-core Xeon VM (numpy 2.4.6, OpenBLAS 0.3.31 on one thread), 100 trials
# of that system through the folded surface factor took 76-105, 62-87,
# 56-78, 59-78, 63-84 and 65-78 ms with budgets of 0.25, 0.5, 1, 2, 4 and
# 8 MB (medians of 7, three runs): flat from 0.5 MB on.  With the dense
# N x r factor they took 373 ms one at a time and 219, 133, 109 and 101 ms
# with 0.25, 1, 4 and 8 MB, and the mc-validate benchmark's peak RSS over
# seeds 0-2 was 84.4-84.5 MB with 0.25 MB, 83.9-84.2 MB with 1 MB,
# 86.5-86.6 MB with 4 MB and 91.5-95.7 MB with 8 MB; a larger chunk holds
# more of its arrays at once.
CHUNK_BYTES = 2**20
# Contiguous trial groups of the batch-means standard errors; fewer when
# there are fewer trials, and at least two, since mc_sinr needs two trials.
N_BATCHES = 20


def _chunk_trials(system: SystemModel, n_trials: int) -> Iterator[slice]:
    """Consecutive trial ranges whose (N + M) x K columns fit in ``CHUNK_BYTES``."""
    dims = system.dims
    trial_bytes = (dims.n + dims.m) * dims.k * np.dtype(complex).itemsize
    size = max(1, CHUNK_BYTES // trial_bytes)
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


def mc_sinr(system: SystemModel, config: StarConfig, n_trials: int,
            seed: int) -> McEstimate:
    """Estimate the per-user SINRs over independent channel realizations.

    Standard errors come from batch means: the trials are split into
    ``min(N_BATCHES, n_trials)`` contiguous groups, the SINR is assembled
    per group, and the spread of the group estimates is scaled down by the
    square root of the group count.  The sum SE's error carries them
    through its derivative by the delta method:
    sqrt(sum_k (prelog / ((1 + gamma_k) ln 2) * std_err_k)^2).
    """
    if isinstance(n_trials, bool) or not isinstance(n_trials, numbers.Integral) or n_trials < 2:
        raise ValueError(f"n_trials: need an integer of at least 2, got {n_trials!r}")
    k_users = system.dims.k
    eps = system.epsilon
    alphas = covariance_scalars(system, config)
    n_batches = min(N_BATCHES, n_trials)

    streams = np.random.SeedSequence(seed).spawn(n_trials)
    counts = np.diff(np.linspace(0, n_trials, n_batches + 1).astype(int))
    batch_of = np.repeat(np.arange(n_batches), counts)
    z = np.zeros((n_batches, k_users), dtype=complex)
    m2 = np.zeros((n_batches, k_users, k_users))
    power = np.zeros((n_batches, k_users))

    for chunk in _chunk_trials(system, n_trials):
        rngs = [np.random.default_rng(stream) for stream in streams[chunk]]
        real = sample_realization(system, config, rngs)
        (noise,) = complex_normal(rngs, real.h.shape[1:])
        h_hat = apply_wiener_filter(real.h + np.sqrt(eps) * noise, alphas, system.corr, eps)

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
    prelog = system.dims.prelog
    totals = [functools.reduce(np.add, rows) for rows in (z, m2, power)]
    report = assemble_report(*_sinr_terms(*totals, n_trials, system), prelog)
    per_batch = assemble_report(*_sinr_terms(z, m2, power, counts, system), prelog).gamma
    std_err = per_batch.std(axis=0, ddof=1) / np.sqrt(n_batches)

    dse = prelog / ((1.0 + report.gamma) * np.log(2.0))
    return McEstimate(
        gamma_hat=report.gamma,
        sum_se_hat=float(report.sum_se),
        n_trials=n_trials,
        std_err=std_err,
        sum_se_stderr=float(np.sqrt(np.sum((dse * std_err) ** 2))),
    )
