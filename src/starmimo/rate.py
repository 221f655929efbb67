"""Closed-form downlink SINR and sum spectral efficiency.

Signal term ``S_k = tr(Psi_k)^2``; interference term

    I_k = sum_i tr(R_k Psi_i) - tr(Psi_k^2) + (K sigma^2 / rho) sum_i tr(Psi_i)

with the precoder normalization folded in.  The production path is one
vectorized kernel, :func:`evaluate`, that evaluates every trace as an O(M)
sum over the shared BS eigenvalues and keeps the intermediates the gradient
reuses.  It splits at the covariance scalars: ``covariance_scalars`` reads
the surface, :func:`from_alphas` is the one LMMSE/rate formula.  A naive
dense-matrix referee, :func:`dense_evaluate`, verifies the eigenbasis
algebra and returns the same :class:`Evaluation`, which the gradient's
dense route reads: it reads only R_RIS, R_BS and the configuration, takes
the covariance scalars from R_RIS itself (:func:`dense_covariance_scalars`)
and every sum from explicit R_k, Q_k, Psi_k.  It reads R_RIS once, in
blocks of rows that fit ``ROW_BLOCK_BYTES``, so on a grid surface no N x N
matrix is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import StarConfig, SystemModel, covariance_scalars, pbm_quadratic_diag

# Bytes of R_RIS rows the dense referees hold at once; a block also holds
# at most an eighth of the rows.  The surface-large benchmark (N up to 4096,
# a referee call on every row) peaked at 45 MB RSS with blocks of 0.25 to
# 2 MiB, 51 MB with 8 MiB, 77 MB with 32 MiB and 173 MB with the whole
# 128 MiB matrix (2-vCPU VM, one OpenBLAS thread).  Freeing a block also
# raises glibc's mmap threshold to its size, which later passes feel: after
# the checker's referee calls, a timed surface-large pass took about 1000
# page faults with 1 MiB blocks and none with 2 MiB ones.
ROW_BLOCK_BYTES = 2**21


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
    ``sums`` the six per-user eigen-sums of :func:`from_alphas`.  An
    evaluation of a batch of points carries a leading start axis on every
    array (shapes below are per start; ``sums`` keeps its six first).
    """

    theta: np.ndarray    # (2, N) complex
    beta: np.ndarray     # (2, N) real
    a: np.ndarray        # (2, N) complex
    alphas: np.ndarray   # (K,) covariance scalars
    sums: np.ndarray     # (6, K) rows P, A, B, C, E, G
    report: RateReport


def sinr_from_terms(s: np.ndarray, i_tilde: np.ndarray) -> np.ndarray:
    """Elementwise ratio with the 0/0 case (zero-gain user) defined as 0.

    A plain divide when every ``i_tilde`` is positive, with the same bits.
    """
    if i_tilde.min(initial=1.0) > 0:
        return s / i_tilde
    return np.divide(s, i_tilde, out=np.zeros_like(s), where=i_tilde > 0)


def evaluate(theta: np.ndarray, beta: np.ndarray, system: SystemModel) -> Evaluation:
    """The objective kernel: sum SE at the point ``(theta, beta)``.

    ``theta`` and ``beta`` are the (2, N) arrays of a :class:`StarConfig`
    (row 0 the t-region), or (P, 2, N) batches of them, one row per start.
    Costs one product of a start's real (4, N) rows with |R_RIS|^2 (dense,
    or by FFT on a large grid) plus O(KM) vectorized work; the product, the
    traces and every reduction run along one start's own rows, so a start's
    values do not depend on the batch it is evaluated in.
    """
    a = np.empty(theta.shape, dtype=complex)
    alphas = covariance_scalars(system, StarConfig(theta, beta), a)
    _, sums, report = from_alphas(alphas, system)
    return Evaluation(theta=theta, beta=beta, a=a, alphas=alphas, sums=sums, report=report)


def from_alphas(alphas: np.ndarray,
                system: SystemModel) -> tuple[np.ndarray, np.ndarray, RateReport]:
    """The LMMSE spectrum, the per-user eigen-sums and the rate report at the
    covariance scalars ``alphas``, (..., K) with any leading axes.

    On the BS eigenvalues ``s``, with ``x = alpha s`` and ``q = x / (x +
    eps)`` (the eigenvalues of Q_k R_k), ``psi = x q`` are those of the
    estimate covariance Psi_k, ``x - psi`` of the error covariance, and ``D
    = dpsi/dalpha = s q (2 - q)``.  Returns ``(psi, sums, report)``: psi is
    (..., K, M) and ``sums``, (6, ..., K) from one reduction of a stacked
    array, holds P = sum psi, A = sum s psi, B = sum psi^2, C = sum D,
    E = sum s D and G = sum psi D; ``S_k = P_k^2`` and ``I_k = alpha_k
    sum_i A_i - B_k + lambda sum_i P_i`` (lambda the noise lift).
    ``alpha = 0`` gives an exactly zero estimate (nothing divides by alpha).
    """
    sigma = system.corr.bs_eigvals
    terms = np.empty((6,) + alphas.shape + sigma.shape)
    psi, x, q, dpsi, s = terms[0], terms[1], terms[2], terms[3], terms[4]
    # x = alpha s, q and 2 - q in slots filled last; s is the eigenvalues
    # copied per user, so that no multiply below broadcasts them
    s[...] = sigma
    np.multiply(alphas[..., None], s, out=x)
    np.add(x, system.epsilon, out=q)
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
    p, a, b = sums[:3]
    total_p, total_a = sums[:2].sum(axis=-1)[..., None]
    i_tilde = alphas * total_a
    i_tilde -= b
    total_p *= system.noise_lift
    i_tilde += total_p
    report = assemble_report(p**2, i_tilde, system.dims.prelog)
    return psi, sums, report


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
    """SINRs (:func:`sinr_from_terms`) and sum SE ``prelog sum_k log2(1 + gamma_k)``
    of signal and interference terms, the closed form's or Monte Carlo's."""
    gamma = sinr_from_terms(s, i_tilde)
    rates = gamma + 1.0
    np.log2(rates, out=rates)
    return RateReport(s=s, i_tilde=i_tilde, gamma=gamma, sum_se=prelog * rates.sum(axis=-1))


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
