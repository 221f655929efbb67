"""Closed-form downlink SINR and sum spectral efficiency, and its gradient.

Signal term ``S_k = tr(Psi_k)^2``; interference term

    I_k = sum_i tr(R_k Psi_i) - tr(Psi_k^2) + (K sigma^2 / rho) sum_i tr(Psi_i)

with the precoder normalization folded in.  The production path is one kernel
per system, :class:`ClosedForm`, on plain (P, 2, N) arrays, which PGAM calls
directly: its ``score`` takes every trace as an O(M) sum over the shared BS
eigenvalues and returns an :class:`Evaluation`, the one closed-form result,
and its ``gradient`` reuses the intermediates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import StarConfig, SystemModel

LN2 = np.log(2.0)


class DegenerateInterferenceError(ValueError):
    """Raised when some user has a zero interference-plus-noise term, which
    makes the SINR quotient rule undefined."""


class Evaluation(NamedTuple):
    """The closed form at a point, with every intermediate the gradient
    reuses: what :meth:`ClosedForm.score`, :func:`sum_se` and the dense
    referee return.

    ``theta``/``beta`` are the (2, N) phases and amplitudes, t-region first;
    ``a`` holds the diagonals of R_RIS Phi_u R_RIS for both regions and
    ``sums`` the six per-user eigen-sums of :meth:`ClosedForm.spectrum`;
    ``s``, ``i_tilde`` and ``gamma`` are the per-user signal, interference
    and SINR terms, and ``positive`` says whether every I_k > 0.  An
    evaluation of a batch of points carries a leading start axis on every
    array (shapes below are per start; ``sums`` keeps its six first), and
    ``sum_se`` is one value per start.
    """

    theta: np.ndarray    # (2, N) complex
    beta: np.ndarray     # (2, N) real
    a: np.ndarray        # (2, N) complex
    alphas: np.ndarray   # (K,) covariance scalars
    sums: np.ndarray     # (6, K) rows P, A, B, C, E, G
    s: np.ndarray        # (K,) signal terms
    i_tilde: np.ndarray  # (K,) interference terms
    gamma: np.ndarray    # (K,) SINRs
    sum_se: np.ndarray   # pre-log weighted sum SE
    positive: bool


class GradientPair(NamedTuple):
    """Gradients in the phases and the amplitudes, each laid out as the
    :class:`StarConfig` arrays: row 0 the t-region."""

    d_theta: np.ndarray  # (2, N) complex; (P, 2, N) batched
    d_beta: np.ndarray   # (2, N) real; (P, 2, N) batched


class ClosedForm:
    """The closed form of one system, read once, on plain (2, N) or (P, 2, N)
    arrays; a (P, K) ``beta_bar`` gives start p the direct gains of its row
    p.  Every product, trace and reduction runs along one start's own rows,
    so a start's values do not depend on its batch."""

    def __init__(self, system: SystemModel):
        self.corr, self.sigma, self.epsilon = system.corr, system.corr.bs_eigvals, system.epsilon
        self.lift, self.prelog, self.region = system.noise_lift, system.dims.prelog, system.region
        self.beta_hat, self.beta_bar = system.gains.beta_hat, system.gains.beta_bar
        self.mask = system.region_mask

    def scalars(self, theta: np.ndarray, beta: np.ndarray,
                diagonals: np.ndarray | None = None) -> np.ndarray:
        """All per-user covariance scalars ``alpha_k = beta_bar_k + beta_hat_k
        phi_u^H |R_RIS|^2 phi_u``, u = ``region[k]``, (K,) or (P, K).  The
        contiguous (4, N) rows [Re phi_t, Re phi_r, Im phi_t, Im phi_r] times
        ``|R_RIS|^2`` (``CorrelationPair.ris_abs2``, dense or by FFT on a large
        grid) give both traces from one real product, one gemm per start: the
        kernel is symmetric (exactly on a grid, to the tolerance of
        ``CorrelationPair.from_matrices`` otherwise), so a row times it is it
        times that row.  Each trace is the dot of a row with its own product.
        A given (..., 2, N) complex ``diagonals`` receives the product's
        ``diag(R_RIS Phi_u R_RIS)`` of both regions, which the gradient reads.
        """
        phi = beta * theta
        rows = np.concatenate([phi.real, phi.imag], axis=-2)
        prod = rows @ self.corr.ris_abs2
        traces = np.vecdot(rows, prod)
        if diagonals is not None:
            diagonals.real = prod[..., :2, :]
            diagonals.imag = prod[..., 2:, :]
        alphas = (traces[..., :2] + traces[..., 2:])[..., self.region]
        alphas *= self.beta_hat
        alphas += self.beta_bar
        return alphas

    def spectrum(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The LMMSE spectrum, the per-user eigen-sums and the interference
        terms at the covariance scalars ``alphas``, (..., K) with any leading
        axes.  On the BS eigenvalues ``s``, with ``x = alpha s`` and ``q = x /
        (x + eps)`` (the eigenvalues of Q_k R_k), ``psi = x q`` are those of
        the estimate covariance Psi_k, ``x - psi`` of the error covariance,
        and ``D = dpsi/dalpha = s q (2 - q)``.  Returns ``(psi, sums,
        i_tilde)``: psi is (..., K, M) and ``sums``, (6, ..., K) from one
        reduction of a stacked array, holds P = sum psi, A = sum s psi, B =
        sum psi^2, C = sum D, E = sum s D and G = sum psi D; ``S_k = P_k^2``
        and ``I_k = alpha_k sum_i A_i - B_k + lambda sum_i P_i`` (lambda the
        noise lift).  ``alpha = 0`` gives an exactly zero estimate.
        """
        terms = np.empty((6,) + alphas.shape + self.sigma.shape)
        psi, x, q, dpsi, s = terms[0], terms[1], terms[2], terms[3], terms[4]
        # x = alpha s, q and 2 - q in slots filled last; s is the eigenvalues
        # copied per user, so that no multiply below broadcasts them
        s[...] = self.sigma
        np.multiply(alphas[..., None], s, out=x)
        np.add(x, self.epsilon, out=q)
        np.divide(x, q, out=q)
        np.multiply(x, q, out=psi)
        np.subtract(2.0, q, out=x)
        np.multiply(q, x, out=dpsi)
        dpsi *= s
        # rows (P, A, B, C, E, G): A, B, G and E, one contiguous multiply each;
        # A and B overwrite the spent x (then 2 - q) and q, E overwrites s
        np.multiply(psi, s, out=terms[1])
        np.multiply(psi, psi, out=terms[2])
        np.multiply(dpsi, psi, out=terms[5])
        np.multiply(dpsi, s, out=terms[4])
        sums = terms.sum(axis=-1)
        total_p, total_a = sums[:2].sum(axis=-1)[..., None]
        i_tilde = alphas * total_a
        i_tilde -= sums[2]
        total_p *= self.lift
        i_tilde += total_p
        return psi, sums, i_tilde

    def score(self, theta: np.ndarray, beta: np.ndarray, alphas: np.ndarray | None = None,
              a: np.ndarray | None = None) -> Evaluation:
        """The :class:`Evaluation` at ``(theta, beta)``, with given scalars
        and diagonals, if any."""
        if alphas is None:
            a = np.empty(theta.shape, dtype=complex)
            alphas = self.scalars(theta, beta, a)
        _, sums, i_tilde = self.spectrum(alphas)
        s = sums[0] ** 2
        positive = i_tilde.min(initial=1.0) > 0
        gamma = sinr_from_terms(s, i_tilde, positive)
        return Evaluation(theta, beta, a, alphas, sums, s, i_tilde, gamma,
                          _sum_rate(gamma, self.prelog), positive)

    def d_alpha(self, point: Evaluation) -> np.ndarray:
        """dF/dalpha, (..., K), at an evaluated point;
        :class:`DegenerateInterferenceError` for a zero interference term,
        looked for unless ``point.positive``."""
        _, _, _, alphas, sums, s, i_tilde, gamma, _, positive = point
        if not positive and (i_tilde <= 0).any():
            bad = np.unravel_index(np.argmin(i_tilde), i_tilde.shape)
            raise DegenerateInterferenceError(
                f"user {bad[-1]} has non-positive interference term {i_tilde[bad]:.3e}")
        # d log(1 + S_k / I_k) = (dS_k - gamma_k dI_k) / (I_k + S_k) with
        # dS_k/dalpha_j = delta_kj 2 P_k C_k and
        # dI_k/dalpha_j = alpha_k E_j + lambda C_j + delta_kj (sum_i A_i - 2 G_k),
        # so the sum over k of dI_k/dalpha_j needs two user sums of its weights
        p, a, _, c, e, g = sums
        damp = (self.prelog / LN2) / (i_tilde + s)
        w = gamma * damp
        total_w = w.sum(axis=-1)[..., None]
        total_wa = (w * alphas).sum(axis=-1)[..., None]
        return (c * (2.0 * damp * p - self.lift * total_w)
                + w * (2.0 * g - a.sum(axis=-1)[..., None]) - e * total_wa)

    def directions(self, point: Evaluation, d_alpha: np.ndarray) -> GradientPair:
        """The gradient at an evaluated point with dF/dalpha ``d_alpha``: dT_u,
        ``a_u beta_u`` (conjugated phases) and ``2 Re(a_u^* theta_u)``
        (amplitudes), times the sum over u's users of ``beta_hat_k dF/dalpha_k``."""
        theta, beta, a = point.theta, point.beta, point.a
        weight = ((self.beta_hat * d_alpha) @ self.mask)[..., None]
        return GradientPair(weight * (a * beta), (2.0 * weight) * np.real(np.conj(a) * theta))

    def gradient(self, point: Evaluation) -> GradientPair:
        """The gradient at an evaluated point."""
        return self.directions(point, self.d_alpha(point))


def sinr_from_terms(s: np.ndarray, i_tilde: np.ndarray,
                    positive: bool | None = None) -> np.ndarray:
    """Elementwise ratio with the 0/0 case (zero-gain user) defined as 0: a
    plain divide, with the same bits, when every ``i_tilde`` is positive
    (``positive``, if the caller has checked)."""
    if positive is None:
        positive = i_tilde.min(initial=1.0) > 0
    if positive:
        return s / i_tilde
    return np.divide(s, i_tilde, out=np.zeros_like(s), where=i_tilde > 0)


def _sum_rate(gamma: np.ndarray, prelog: float) -> np.ndarray:
    """``prelog sum_k log2(1 + gamma_k)``, one value per start."""
    return prelog * np.log2(gamma + 1.0).sum(axis=-1)


def sum_se(config: StarConfig, system: SystemModel, method: str = "eig") -> Evaluation:
    """Sum spectral efficiency of the configuration, deterministic, with
    every term of its :class:`Evaluation`.

    ``method='eig'`` is the O(N^2 + KM) production kernel (O(N log N + KM)
    on a grid from ``correlation.FFT_MIN_N`` up); ``method='dense'``
    re-derives every term from explicit matrices
    (:func:`starmimo.referee.dense_evaluate`) and exists to validate the
    eigenbasis algebra.
    """
    if method == "dense":
        from .referee import dense_evaluate  # the referees load only when called

        return dense_evaluate(config.theta, config.beta, system)
    if method != "eig":
        raise ValueError(f"unknown method {method!r}")
    return ClosedForm(system).score(config.theta, config.beta)


def assemble_report(s: np.ndarray, i_tilde: np.ndarray,
                    prelog: float) -> tuple[np.ndarray, np.ndarray]:
    """``(gamma, sum_se)``: the SINRs (:func:`sinr_from_terms`) and sum SE
    (:func:`_sum_rate`) of signal and interference terms, from the closed
    form's spectrum, the dense referee or Monte Carlo."""
    gamma = sinr_from_terms(s, i_tilde)
    return gamma, _sum_rate(gamma, prelog)
