"""LMMSE estimation of the aggregated channel.

The pilot phase reduces to an effective observation ``r = h + noise`` with
noise variance ``epsilon = sigma^2 / (tau * P)`` per antenna
(:attr:`SystemModel.epsilon`); pilot sequences are never materialized.
Because the channel covariance is a scalar multiple of R_BS, the Wiener
filter diagonalizes in the cached BS eigenbasis.  The estimate's
second-order statistics are the closed form's LMMSE spectra,
:meth:`rate.ClosedForm.spectrum`.
"""

from __future__ import annotations

import numpy as np

from .correlation import CorrelationPair


def apply_wiener_filter(r: np.ndarray, alpha: float | np.ndarray,
                        corr: CorrelationPair, eps: float) -> np.ndarray:
    """R_k Q_k r in the eigenbasis, for a single vector or a batch of rows.

    The filter scales eigen-coordinate i by ``alpha s_i / (alpha s_i + eps)``.
    For a (K, M) batch, ``alpha`` may be a scalar shared by every row or a
    (K,) vector giving each row its own covariance scalar.  A (T, K, M)
    stack of batches is filtered batch by batch, one product per batch.
    """
    scaled = np.multiply.outer(alpha, corr.bs_eigvals)
    gain = scaled / (scaled + eps)
    u = corr.bs_eigvecs
    return (r @ u.conj()) * gain @ u.T
