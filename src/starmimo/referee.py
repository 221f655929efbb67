"""Referees of the closed form: dense matrices and central differences.

The production kernel, :class:`rate.ClosedForm`, takes every covariance
scalar from the |R_RIS|^2 kernel and every trace as an O(M) sum over the
shared BS eigenvalues.  The referees re-derive the same quantities by other
routes, so that they can check that algebra:

- :func:`dense_evaluate` gives the same :class:`rate.Evaluation` from
  explicit matrices: it reads only R_RIS, R_BS and the configuration, takes
  the covariance scalars from R_RIS itself (:func:`dense_covariance_scalars`)
  and every sum from explicit R_k, Q_k, Psi_k.  It reads R_RIS once, in
  blocks of rows that fit ``ROW_BLOCK_BYTES``, so on a grid surface no N x N
  matrix is made.  ``sum_se(method="dense")`` and
  ``grad_objective(method="dense")`` return its evaluation and the gradient
  assembled from it.
- :func:`finite_difference_gradient` differentiates the objective alone.

No module of the package imports this one at module level: ``method="dense"``
imports it when called, and tests import it directly.  So the referees never
share code or state with the path they referee, and a run that asks for
none of them does not load them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import StarConfig, SystemModel, pbm_quadratic_diag
from .rate import Evaluation, GradientPair, assemble_report, sum_se

# Bytes of R_RIS rows the dense referees hold at once; a block also holds
# at most an eighth of the rows.  The surface-large benchmark (N up to 4096,
# a referee call on every row) peaked at 45 MB RSS with blocks of 0.25 to
# 2 MiB, 51 MB with 8 MiB, 77 MB with 32 MiB and 173 MB with the whole
# 128 MiB matrix (2-vCPU VM, one OpenBLAS thread).  Freeing a block also
# raises glibc's mmap threshold to its size, which later passes feel: after
# the checker's referee calls, a timed surface-large pass took about 1000
# page faults with 1 MiB blocks and none with 2 MiB ones.
ROW_BLOCK_BYTES = 2**21


def dense_evaluate(theta: np.ndarray, beta: np.ndarray, system: SystemModel) -> Evaluation:
    """The dense referee's :class:`rate.Evaluation` at one (2, N) point, from
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
    s = sums[0] ** 2
    gamma, total = assemble_report(s, i_tilde, system.dims.prelog)
    return Evaluation(theta, beta, a, alphas, sums, s, i_tilde, gamma, total,
                      i_tilde.min(initial=1.0) > 0)


def dense_covariance_scalars(config: StarConfig, system: SystemModel,
                             diagonals: np.ndarray | None = None) -> np.ndarray:
    """Per-user covariance scalars from R_RIS itself: one complex trace
    ``phi_u^H diag(R_RIS Phi_u R_RIS) = tr(R_RIS Phi_u R_RIS Phi_u^H)`` per
    region u, given to the users of that region; independent of
    :func:`channel.covariance_scalars`.

    The diagonals come from :func:`channel.pbm_quadratic_diag` on blocks of
    rows of R_RIS (``CorrelationPair.ris_rows``) of at most
    ``ROW_BLOCK_BYTES`` and an eighth of the rows, both regions per block;
    if ``diagonals``, a (2, N) complex array, is given, they are written
    into it, t first.
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


def finite_difference_gradient(config: StarConfig, system: SystemModel,
                               step: float = 1e-6) -> GradientPair:
    """Central-difference oracle for the full gradient.

    Real and imaginary parts of every phase entry, and every amplitude, are
    perturbed as free real coordinates; the complex gradient is
    (df/dx + i df/dy) / 2, matching the conjugate-derivative convention of
    the closed form.  Stays independent of the analytic gradient path: only
    the objective is evaluated.
    """
    grads = []
    for name, units, weight in (("theta", (1.0, 1.0j), 0.5), ("beta", (1.0,), 1.0)):
        x0 = getattr(config, name)
        grad = np.zeros_like(x0)
        for j in np.ndindex(x0.shape):
            for unit in units:
                plus, minus = x0.copy(), x0.copy()
                plus[j] += step * unit
                minus[j] -= step * unit
                f_plus, f_minus = (sum_se(replace(config, **{name: x}), system).sum_se
                                   for x in (plus, minus))
                grad[j] += weight * ((f_plus - f_minus) / (2.0 * step)) * unit
        grads.append(grad)
    return GradientPair(*grads)
