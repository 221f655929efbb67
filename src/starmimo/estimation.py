"""LMMSE estimation of the aggregated channel.

The pilot phase reduces to an effective observation ``r = h + noise`` with
noise variance ``epsilon = sigma^2 / (tau * P)`` per antenna; pilot sequences
are never materialized.  Because the channel covariance is a scalar multiple
of R_BS, the estimator and all its second-order statistics diagonalize in
the cached BS eigenbasis, giving O(M) closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal
from .correlation import CorrelationPair


@dataclass(frozen=True)
class PilotSpec:
    """Pilot length, per-symbol power, and noise power of the training phase."""

    tau: int
    p: float
    sigma2: float

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("pilot length must be >= 1")
        if self.p <= 0 or self.sigma2 <= 0:
            raise ValueError("pilot and noise powers must be positive")

    @property
    def epsilon(self) -> float:
        return self.sigma2 / (self.tau * self.p)


@dataclass(frozen=True)
class EstimationStats:
    """Second-order statistics of one user's LMMSE estimate in the U basis.

    ``eigvals_psi[i] = (alpha s_i)^2 / (alpha s_i + epsilon)`` are the
    eigenvalues of the estimate covariance; ``eigvals_q`` those of the
    regularized inverse.  Both vectors live on the shared BS eigenvalues
    ``s_i``, so every trace downstream is an O(M) sum.
    """

    alpha: float
    eigvals_q: np.ndarray
    eigvals_psi: np.ndarray

    @property
    def trace_psi(self) -> float:
        return float(np.sum(self.eigvals_psi))


def lmmse_stats(alpha: float, bs_eigvals: np.ndarray, pilot: PilotSpec) -> EstimationStats:
    """Closed-form estimate statistics for covariance scalar ``alpha``.

    ``alpha = 0`` yields an exactly zero estimate covariance; the formula
    never divides by ``alpha``.
    """
    if alpha < 0:
        raise ValueError(f"covariance scalar must be non-negative, got {alpha}")
    eps = pilot.epsilon
    scaled = alpha * np.asarray(bs_eigvals, dtype=float)
    denom = scaled + eps
    return EstimationStats(
        alpha=float(alpha),
        eigvals_q=1.0 / denom,
        eigvals_psi=scaled**2 / denom,
    )


def error_covariance_trace(alpha: float, bs_eigvals: np.ndarray,
                           stats: EstimationStats) -> float:
    """Trace of the estimation-error covariance, sum of ``alpha s_i - psi_i``."""
    return float(np.sum(alpha * np.asarray(bs_eigvals) - stats.eigvals_psi))


def estimate_realization(h: np.ndarray, pilot: PilotSpec, alpha: float,
                         corr: CorrelationPair,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Noisy pilot observation and its LMMSE estimate for one channel draw.

    Returns ``(h_hat, r)`` where ``r = h + n`` with ``n ~ CN(0, epsilon I)``
    and ``h_hat`` applies the Wiener filter as an elementwise scaling
    ``alpha s_i / (alpha s_i + epsilon)`` in the BS eigenbasis.
    """
    h = np.asarray(h)
    eps = pilot.epsilon
    r = h + np.sqrt(eps) * complex_normal(rng, h.shape)
    h_hat = apply_wiener_filter(r, alpha, corr, eps)
    return h_hat, r


def apply_wiener_filter(r: np.ndarray, alpha: float | np.ndarray,
                        corr: CorrelationPair, eps: float) -> np.ndarray:
    """R_k Q_k r in the eigenbasis; works on a single vector or a batch of rows.

    For a (K, M) batch, ``alpha`` may be a scalar shared by every row or a
    (K,) vector giving each row its own covariance scalar.
    """
    scaled = np.multiply.outer(alpha, corr.bs_eigvals)
    gain = scaled / (scaled + eps)
    u = corr.bs_eigvecs
    if r.ndim == 1:
        return u @ (gain * (u.conj().T @ r))
    return (r @ u.conj()) * gain @ u.T
