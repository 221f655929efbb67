"""Closed-form downlink SINR and sum spectral efficiency, and its gradient.

Signal term ``S_k = tr(Psi_k)^2``; interference term

    I_k = sum_i tr(R_k Psi_i) - tr(Psi_k^2) + (K sigma^2 / rho) sum_i tr(Psi_i)

with the precoder normalization folded in.  The production path is one kernel
per system, :class:`ClosedForm`, on plain (P, 2, N) arrays, which PGAM calls
directly: its ``score`` takes every trace as an O(M) sum over the shared BS
eigenvalues, and its ``gradient`` reuses the intermediates; :func:`evaluate`
and :func:`from_alphas` are its entry points for a ``SystemModel``.  A naive
dense-matrix referee, :func:`dense_evaluate`, verifies the eigenbasis algebra
and returns the same :class:`Evaluation`, which the gradient's dense route
reads: it reads only R_RIS, R_BS and the configuration, takes the covariance
scalars from R_RIS itself (:func:`dense_covariance_scalars`) and every sum
from explicit R_k, Q_k, Psi_k.  It reads R_RIS once, in blocks of rows that
fit ``ROW_BLOCK_BYTES``, so on a grid surface no N x N matrix is made.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import StarConfig, SystemModel, pbm_quadratic_diag

LN2 = np.log(2.0)

# Bytes of R_RIS rows the dense referees hold at once; a block also holds
# at most an eighth of the rows.  The surface-large benchmark (N up to 4096,
# a referee call on every row) peaked at 45 MB RSS with blocks of 0.25 to
# 2 MiB, 51 MB with 8 MiB, 77 MB with 32 MiB and 173 MB with the whole
# 128 MiB matrix (2-vCPU VM, one OpenBLAS thread).  Freeing a block also
# raises glibc's mmap threshold to its size, which later passes feel: after
# the checker's referee calls, a timed surface-large pass took about 1000
# page faults with 1 MiB blocks and none with 2 MiB ones.
ROW_BLOCK_BYTES = 2**21


class DegenerateInterferenceError(ValueError):
    """Raised when some user has a zero interference-plus-noise term, which
    makes the SINR quotient rule undefined."""


@dataclass(frozen=True)
class RateReport:
    """Per-user signal/interference/SINR terms and the pre-log weighted sum SE.

    For a batch of points every field carries the leading start axis, and
    ``sum_se`` is one value per start.
    """

    s: np.ndarray
    i_tilde: np.ndarray
    gamma: np.ndarray
    sum_se: float


@dataclass(frozen=True)
class Evaluation:
    """The objective at one point, with every intermediate the gradient reuses.

    ``theta``/``beta`` are the (2, N) phases and amplitudes, t-region first;
    ``a`` holds the diagonals of R_RIS Phi_u R_RIS for both regions and
    ``sums`` the six per-user eigen-sums of :meth:`ClosedForm.spectrum`.  An
    evaluation of a batch of points carries a leading start axis on every
    array (shapes below are per start; ``sums`` keeps its six first).
    """

    theta: np.ndarray    # (2, N) complex
    beta: np.ndarray     # (2, N) real
    a: np.ndarray        # (2, N) complex
    alphas: np.ndarray   # (K,) covariance scalars
    sums: np.ndarray     # (6, K) rows P, A, B, C, E, G
    report: RateReport

    @classmethod
    def scored(cls, theta: np.ndarray, beta: np.ndarray, score: Score) -> Evaluation:
        """The evaluation at ``(theta, beta)`` of its :meth:`ClosedForm.score`."""
        return cls(theta, beta, score.a, score.alphas, score.sums,
                   RateReport(score.s, score.i_tilde, score.gamma, score.sum_se))


# ClosedForm.score's result: an Evaluation's and its report's arrays, and whether all I_k > 0
Score = namedtuple("Score", "a alphas sums s i_tilde gamma sum_se positive")


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
              a: np.ndarray | None = None) -> Score:
        """Sum SE at ``(theta, beta)``, with every intermediate and given scalars, if any."""
        if alphas is None:
            a = np.empty(theta.shape, dtype=complex)
            alphas = self.scalars(theta, beta, a)
        _, sums, i_tilde = self.spectrum(alphas)
        s = sums[0] ** 2
        positive = i_tilde.min(initial=1.0) > 0
        gamma = sinr_from_terms(s, i_tilde, positive)
        return Score(a, alphas, sums, s, i_tilde, gamma, _sum_rate(gamma, self.prelog), positive)

    def d_alpha(self, score: Score) -> np.ndarray:
        """dF/dalpha, (..., K), of a score; :class:`DegenerateInterferenceError`
        for a zero interference term, looked for unless ``score.positive``."""
        _, alphas, sums, s, i_tilde, gamma, _, positive = score
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

    def directions(self, theta: np.ndarray, beta: np.ndarray, a: np.ndarray,
                   d_alpha: np.ndarray) -> GradientPair:
        """The gradient at points with diagonals ``a`` and dF/dalpha ``d_alpha``:
        dT_u, ``a_u beta_u`` (conjugated phases) and ``2 Re(a_u^* theta_u)``
        (amplitudes), times the sum over u's users of ``beta_hat_k dF/dalpha_k``."""
        weight = ((self.beta_hat * d_alpha) @ self.mask)[..., None]
        return GradientPair(weight * (a * beta), (2.0 * weight) * np.real(np.conj(a) * theta))

    def gradient(self, theta: np.ndarray, beta: np.ndarray, score: Score) -> GradientPair:
        """The gradient at the points ``(theta, beta)`` from their score."""
        return self.directions(theta, beta, score.a, self.d_alpha(score))


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


def evaluate(theta: np.ndarray, beta: np.ndarray, system: SystemModel) -> Evaluation:
    """:meth:`ClosedForm.score` at the (2, N) arrays of a :class:`StarConfig`
    (row 0 the t-region), or (P, 2, N) batches of them, one row per start."""
    return Evaluation.scored(theta, beta, ClosedForm(system).score(theta, beta))


def from_alphas(alphas: np.ndarray,
                system: SystemModel) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """:meth:`ClosedForm.spectrum` at the covariance scalars ``alphas``, with
    the rate report in place of the interference terms."""
    closed = ClosedForm(system)
    psi, sums, i_tilde = closed.spectrum(alphas)
    return psi, sums, assemble_report(sums[0] ** 2, i_tilde, closed.prelog)


def sum_se(config: StarConfig, system: SystemModel, method: str = "eig") -> RateReport:
    """Sum spectral efficiency of the configuration, deterministic.

    ``method='eig'`` is the O(N^2 + KM) production kernel (O(N log N + KM)
    on a grid from ``correlation.FFT_MIN_N`` up); ``method='dense'``
    re-derives every term from explicit matrices (:func:`dense_evaluate`)
    and exists to validate the eigenbasis algebra.
    """
    if method == "dense":
        return dense_evaluate(config.theta, config.beta, system).report
    if method != "eig":
        raise ValueError(f"unknown method {method!r}")
    return evaluate(config.theta, config.beta, system).report


def assemble_report(s: np.ndarray, i_tilde: np.ndarray, prelog: float) -> RateReport:
    """SINRs (:func:`sinr_from_terms`) and sum SE (:func:`_sum_rate`) of
    signal and interference terms, the closed form's or Monte Carlo's."""
    gamma = sinr_from_terms(s, i_tilde)
    return RateReport(s=s, i_tilde=i_tilde, gamma=gamma, sum_se=_sum_rate(gamma, prelog))


def dense_evaluate(theta: np.ndarray, beta: np.ndarray, system: SystemModel) -> Evaluation:
    """The dense referee's :class:`Evaluation` at one (2, N) point, from
    explicit matrices: the covariance scalars and surface diagonals from
    R_RIS itself (:func:`dense_covariance_scalars`), the (K, M, M) stacks
    R_k = alpha_k R_BS, Q_k = (R_k + eps I)^-1, Psi_k = R_k Q_k R_k and
    D_k = dPsi_k/dalpha_k = R_BS Q_k R_k + R_k Q_k R_BS - R_k Q_k R_BS Q_k R_k,
    and the six eigen-sums as their traces.  User k's own terms
    tr(R_k Psi_k) - tr(Psi_k^2), at high SNR orders of magnitude above I_k,
    are tr(C_k Psi_k) with the error covariance C_k = R_k - Psi_k =
    eps R_k Q_k, so no two nearly equal traces are subtracted.
    """
    def trace(x):
        return np.trace(x, axis1=-2, axis2=-1).real

    a = np.empty((2, system.dims.n), dtype=complex)
    alphas = dense_covariance_scalars(StarConfig(theta, beta), system, a)
    r_bs = system.corr.r_bs
    r = alphas[:, None, None] * r_bs
    q = np.linalg.inv(r + system.epsilon * np.eye(system.dims.m))
    qr, rq = q @ r, r @ q
    psi = rq @ r
    d = r_bs @ qr + rq @ r_bs - rq @ r_bs @ qr
    sums = np.array([trace(psi), trace(psi @ r_bs), trace(psi @ psi),
                     trace(d), trace(d @ r_bs), trace(psi @ d)])
    cross = np.einsum("kab,iba->ki", r, psi).real * (1.0 - np.eye(len(psi)))
    i_tilde = (cross.sum(axis=1) + system.epsilon * trace(rq @ psi)
               + system.noise_lift * sums[0].sum())
    report = assemble_report(sums[0] ** 2, i_tilde, system.dims.prelog)
    return Evaluation(theta=theta, beta=beta, a=a, alphas=alphas, sums=sums, report=report)


def dense_covariance_scalars(config: StarConfig, system: SystemModel,
                             diagonals: np.ndarray | None = None) -> np.ndarray:
    """Per-user covariance scalars from R_RIS itself: one complex trace
    ``phi_u^H diag(R_RIS Phi_u R_RIS) = tr(R_RIS Phi_u R_RIS Phi_u^H)`` per
    region u, given to the users of that region; the referee's route,
    independent of :func:`covariance_scalars`.

    The diagonals come from :func:`pbm_quadratic_diag` on blocks of rows of
    R_RIS (``CorrelationPair.ris_rows``) of at most ``ROW_BLOCK_BYTES`` and
    an eighth of the rows, both regions per block; if ``diagonals``, a
    (2, N) complex array, is given, they are written into it, t first.
    """
    corr = system.corr
    phis = (config.phi("t"), config.phi("r"))
    if diagonals is None:
        diagonals = np.empty((2, corr.n), dtype=complex)
    step = max(1, min(corr.n // 8, ROW_BLOCK_BYTES // (corr.n * np.dtype(float).itemsize)))
    for start in range(0, corr.n, step):
        stop = min(start + step, corr.n)
        rows = corr.ris_rows(start, stop)
        for diagonal, phi in zip(diagonals, phis):
            diagonal[start:stop] = pbm_quadratic_diag(rows, phi)
        del rows  # the next block is gathered with this one freed
    traces = np.array([np.vdot(phi, diagonal).real for phi, diagonal in zip(phis, diagonals)])
    return system.gains.beta_bar + system.gains.beta_hat * traces[system.region]
