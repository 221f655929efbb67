"""STAR surface configuration and the aggregated-channel statistics.

Each surface element splits the impinging wave into a transmitted (t) and a
reflected (r) component with independent phases and energy-conserving
amplitudes.  Under the Kronecker fading model the aggregated BS-user channel
has covariance ``alpha_k * R_BS`` where the scalar ``alpha_k`` carries the
whole dependence on the surface configuration; this module computes that
scalar and samples channel realizations for the Monte Carlo oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .correlation import CorrelationPair, LinkGains, canonical_columns

ES = "es"
MS = "ms"

UNIT_MODULUS_TOL = 1e-10
ENERGY_TOL = 1e-10


@dataclass
class StarConfig:
    """Amplitudes and phase shifts of every surface element, both regions.

    ``theta`` holds unit-modulus complex phases and ``beta`` real amplitudes,
    each a (2, N) array whose row 0 is the t-region and row 1 the r-region;
    every element's amplitude pair satisfies ``beta[0]**2 + beta[1]**2 = 1``.
    Amplitudes may be negative while an optimizer is running (a sign flip of
    amplitude and phase together does not change any rate); finalized MS
    configurations are exactly binary.  A leading start axis makes both
    arrays (P, 2, N), one row per start of a multi-start.
    """

    theta: np.ndarray
    beta: np.ndarray
    protocol: str = ES

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=complex)
        self.beta = np.asarray(self.beta, dtype=float)
        if self.theta.shape != self.beta.shape:
            raise ValueError(f"theta {self.theta.shape} and beta {self.beta.shape} "
                             "must share one shape")
        if self.theta.ndim < 2 or self.theta.shape[-2] != 2:
            raise ValueError(f"shape {self.theta.shape} needs a region axis of length 2 "
                             "(t, r) before the element axis")
        if self.protocol not in (ES, MS):
            raise ValueError(f"protocol must be {ES!r} or {MS!r}, got {self.protocol!r}")

    def validate(self):
        """Check unit modulus, energy conservation, and MS binarity; a
        non-finite phase or amplitude fails (its deviation is NaN or inf,
        which no ``<=`` admits)."""
        err = np.max(np.abs(np.abs(self.theta) - 1.0))
        if not err <= UNIT_MODULUS_TOL:
            raise ValueError(f"theta is not unit modulus (max deviation {err:.2e})")
        energy_err = np.max(np.abs(np.sum(self.beta**2, axis=-2) - 1.0))
        if not energy_err <= ENERGY_TOL:
            raise ValueError(f"energy conservation violated (max deviation {energy_err:.2e})")
        if self.protocol == MS and not np.all((self.beta == 0.0) | (self.beta == 1.0)):
            raise ValueError("MS protocol requires binary amplitudes")
        return self

    def phi(self, mode: str) -> np.ndarray:
        """Diagonal of the passive beamforming matrix for region "t" or "r"."""
        row = ("t", "r").index(mode)
        return self.beta[..., row, :] * self.theta[..., row, :]

    @classmethod
    def equal_split(cls, n: int, rng: np.random.Generator | None = None) -> "StarConfig":
        """Canonical starting point: amplitudes sqrt(1/2), phases uniform (or zero)."""
        theta = (np.ones((2, n)) if rng is None
                 else np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (2, n))))
        return cls(theta=theta, beta=np.full((2, n), np.sqrt(0.5)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "StarConfig":
        """Random feasible point: uniform phases, uniform split angle per element."""
        chi = rng.uniform(0.0, np.pi / 2.0, n)
        return cls(theta=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (2, n))),
                   beta=np.stack([np.cos(chi), np.sin(chi)]))


@dataclass(frozen=True)
class SystemDims:
    """Antenna/user counts and frame split of the coherence block, as
    ``SystemModel`` derives them: M, N from the correlation pair, K from the gains."""

    m: int
    n: int
    k_t: int
    k_r: int
    tau_c: int
    tau: int

    def __post_init__(self):
        if min(self.m, self.n, self.tau_c, self.tau) < 1 or self.k_t < 0 or self.k_r < 0:
            raise ValueError("dimensions must be positive (user counts non-negative)")
        if self.k_t + self.k_r < 1:
            raise ValueError("at least one user required")
        if self.tau > self.tau_c:
            raise ValueError("pilot length cannot exceed the coherence block")
        if self.tau < self.k:
            raise ValueError("orthogonal pilots need tau >= K")

    @property
    def k(self) -> int:
        return self.k_t + self.k_r

    @property
    def prelog(self) -> float:
        return (self.tau_c - self.tau) / self.tau_c


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Immutable bundle of everything the rate expressions need besides the
    surface configuration: correlation, gains, t-region user count, frame
    split and powers.  Users are ordered t-region first, and ``dims`` is
    derived (M, N from ``corr``, K from ``gains``).  Compared and hashed by
    identity, so a system object can key a cache."""

    corr: CorrelationPair
    gains: LinkGains
    k_t: int  # users in the t-region, the first k_t of the gains' K
    tau_c: int  # coherence block length (symbols)
    tau: int  # pilot length (symbols)
    rho: float  # downlink power budget (W)
    pilot_power: float  # per-symbol pilot power (W)
    sigma2: float  # noise power (W)
    dims: SystemDims = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", SystemDims(self.corr.m, self.corr.n, self.k_t,
                                                    self.gains.k - self.k_t, self.tau_c, self.tau))
        if not all(0 < power < math.inf for power in (self.rho, self.pilot_power, self.sigma2)):
            raise ValueError("powers must be positive")

    @property
    def epsilon(self) -> float:
        """Effective estimation-noise variance sigma^2 / (tau * P)."""
        return self.sigma2 / (self.dims.tau * self.pilot_power)

    @property
    def noise_lift(self) -> float:
        """K sigma^2 / rho, the weight of sum_i tr(Psi_i) in every interference term."""
        return self.dims.k * self.sigma2 / self.rho

    @cached_property
    def region(self) -> np.ndarray:
        """(K,) region index of every user: 0 for the t-region, 1 for the r-region."""
        return np.repeat([0, 1], [self.dims.k_t, self.dims.k_r])

    @cached_property
    def region_mask(self) -> np.ndarray:
        """(K, 2) one-hot rows: column 0 marks t-region users, column 1 r-region."""
        return np.eye(2)[self.region]


def pbm_quadratic_diag(r_ris: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """diag(R_RIS diag(phi) R_RIS) in O(N^2), from R_RIS itself; the dense
    referees' route to the surface diagonals.

    For Hermitian R the (n, n) entry is sum_m R[n, m] conj(R[n, m]) phi[m].
    One buffered ``einsum`` sums those products row by row, so no temporary
    of the size of ``r_ris`` (the |R|^2 kernel or a complex upcast of R) is
    made.  ``r_ris`` may be any (rows, N) block of rows of R_RIS, which
    gives those rows' entries of the diagonal; the referees pass blocks
    (:func:`starmimo.referee.dense_covariance_scalars`).
    """
    r_ris = np.asarray(r_ris)
    phi = np.asarray(phi)
    if r_ris.ndim != 2 or phi.ndim != 1 or r_ris.shape[1] != phi.shape[0]:
        raise ValueError(
            f"dimension mismatch: R_RIS {r_ris.shape} vs phi {phi.shape}"
        )
    return np.einsum("nm,nm,m->n", r_ris, r_ris.conj(), phi)


def covariance_scalars(system: SystemModel, config: StarConfig,
                       diagonals: np.ndarray | None = None) -> np.ndarray:
    """All per-user covariance scalars, and the surface diagonals if
    ``diagonals`` is given: :meth:`starmimo.rate.ClosedForm.scalars`."""
    from .rate import ClosedForm  # the rate module builds on this one

    return ClosedForm(system).scalars(config.theta, config.beta, diagonals)


@dataclass
class ChannelRealization:
    """One draw of the fast-fading user links plus the assembled aggregated channels.

    The BS-surface channel G is neither formed nor drawn; only the law of
    its products with the surface-weighted user links enters ``h``.  Every
    array carries a leading axis of length T, one entry per trial drawn.
    """

    q: np.ndarray  # (T, K, N) surface-user channels
    d: np.ndarray  # (T, K, M) direct channels
    h: np.ndarray  # (T, K, M) aggregated channels


def complex_normal(rngs: Sequence[np.random.Generator], *shapes) -> tuple:
    """CN(0, 1) draws, variance 1/2 per part: one (T, *shape) array per
    shape, row t from generator t.  Each generator makes one standard-normal
    call for all shapes in order, each shape's real parts first; the scale by
    1/sqrt(2) gives the bits of a complex divide by sqrt(2)."""
    sizes = [2 * math.prod(shape) for shape in shapes]
    draws = np.empty((len(rngs), sum(sizes)))
    for row, gen in zip(draws, rngs):
        gen.standard_normal(out=row)
    draws *= 1.0 / np.sqrt(2.0)
    out = []
    for part, shape in zip(np.split(draws, np.cumsum(sizes)[:-1], axis=1), shapes):
        part = part.reshape((len(rngs), 2) + shape)
        value = np.empty(part[:, 0].shape, dtype=complex)
        value.real, value.imag = part[:, 0], part[:, 1]
        out.append(value)
    return tuple(out)


def _real_left_product(real: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``real @ x`` for a real matrix and a C-contiguous complex (N, K) block,
    as one real product on the interleaved float view (no complex upcast)."""
    return (real @ x.view(float)).view(complex)


def _gram_factor(gram: np.ndarray) -> np.ndarray:
    """The Hermitian root F, with ``F^H F = F F = gram``, of a (..., K, K)
    stack of Hermitian PSD Gram matrices: ``F = U sqrt(Lambda_+) U^H`` from a
    batched ``eigh``, eigenvalues clamped at 0.

    A Gram is singular when a region is dark, a gain is zero or K exceeds
    the surface rank, so no Cholesky.  The root is unique, so the phases
    ``eigh`` gives its eigenvectors cancel in it; they are fixed anyway
    (:func:`~starmimo.correlation.canonical_columns`), so that a sign or
    quarter turn does not move even its last bit.  A user whose diagonal
    entry is 0 has a zero row and column in the root; they are set to exact
    zeros rather than left at the roundoff of the decomposition.
    """
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvecs = canonical_columns(eigvecs)
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[..., None, :]) @ \
        np.swapaxes(eigvecs.conj(), -1, -2)
    live = np.diagonal(gram, axis1=-2, axis2=-1).real > 0.0
    root *= live[..., None, :] & live[..., :, None]
    return root


def sample_realization(system: SystemModel, config: StarConfig,
                       rngs: Sequence[np.random.Generator]) -> ChannelRealization:
    """Draw one correlated-Rayleigh realization of every link per generator.

    The model is ``G = sqrt(beta_g) R_BS^{1/2} D R_RIS^{1/2}`` with iid
    CN(0, 1) entries in D, ``q_k = sqrt(beta_tilde_k) R_RIS^{1/2} c_k``,
    ``d_k = sqrt(beta_bar_k) R_BS^{1/2} c_bar_k`` and
    ``h_k = d_k + G (phi_u * q_k)``.  Neither G nor D is drawn:

    * G enters only through ``D V``, V the N x K matrix with columns
      ``R_RIS^{1/2} (phi_u * q_k)``.  D is independent of q, and row m of
      ``D V`` is ``x = D[m] V`` with ``E[x^H x] = V^H E[D[m]^H D[m]] V =
      V^H V``; the rows are iid zero-mean circular Gaussian.  A row of
      ``Z F``, Z with iid CN(0, 1) entries, has ``E = F^H F``, so ``D V`` and
      ``Z F`` have one law, jointly across users and jointly with q, for any
      K x K factor with ``F^H F = V^H V``; F is the Hermitian root, the one
      such factor that is unique (:func:`_gram_factor`).
    * Any factor with ``L L^H = R`` serves as ``R^{1/2}`` here, with as many
      draws as L has columns.  With the eigen factors ``L`` of R_RIS (real,
      N x r) and ``L_BS`` of R_BS: ``q_k = sqrt(beta_tilde_k) L c_k``,
      ``V^H V = (phi * q)^H L L^T (phi * q) = V'^H V'`` with
      ``V' = L^T (phi_u * q_k)`` (r x K), and ``h_k = d_k + sqrt(beta_g)
      L_BS (Z F)[:, k]`` with Z of size r_BS x K.

    T generators draw T trials, one per generator, and every array carries a
    leading trial axis of length T.  One :func:`complex_normal` call draws
    c (K x r), c_bar (K x r_BS) and Z (r_BS x K), in that order and in one
    standard-normal call per generator.  Both surface products run once
    for all trials, on an (r or N, 2KT) real block.  Only ``L.shape``,
    ``L @`` and ``L.T @`` are read, so L is the dense array of an explicit
    R_RIS (one gemm) or the ``FoldedFactor`` of a grid surface (one gemm per
    block and the fold's butterflies).  The Gram roots of all trials come
    from one batched ``eigh``.  Whether a trial then equals its draw in a
    batch of one bit for bit is a property of the BLAS: under OpenBLAS
    0.3.31 (Haswell kernels) it does with 8 or 16 real columns per trial
    (K = 4 or 8) at every N tried from 2 to 1024, with dense factors and
    with folded ones (1 x 2 to 32 x 32, 3 x 7, 9 x 16, 1 x 100, 100 x 1 and
    1 x 130 grids) on one BLAS thread, while other K agree to roundoff.
    At K = 4, chunks of 2 to 12 trials also agree bit for bit with each
    other at the 33 x 33 to 64 x 64 grids tried, but a lone trial differs
    from them by about 4e-15 at 40 x 40 and 45 x 45.  With two threads
    under the Haswell kernels chunks at N = 256 and 1024 differ, so
    bit-identical draws need one thread (``OPENBLAS_NUM_THREADS=1`` before
    numpy is imported).  The BS-side products stay one gemm per trial.
    """
    t, k = len(rngs), system.dims.k
    bs_factor = system.corr.bs_factor
    ris_factor = system.corr.ris_factor
    (n, r), r_bs = ris_factor.shape, bs_factor.shape[1]

    c, c_bar, z = complex_normal(rngs, (k, r), (k, r_bs), (r_bs, k))
    c = np.ascontiguousarray(c.transpose(2, 0, 1))  # column (trial, user) of the product block

    # (N, T, K) columns q_k, then the (r, T, K) columns of V', each one real product
    q_cols = _real_left_product(ris_factor, c.reshape(r, t * k)).reshape(n, t, k)
    del c  # read by no later step: one block fewer alive through the L^T product
    q_cols *= np.sqrt(system.gains.beta_tilde)
    # column k is the phi row of user k's region
    phi_cols = (config.beta * config.theta)[system.region].T
    v = _real_left_product(ris_factor.T, (phi_cols[:, None, :] * q_cols).reshape(n, t * k))
    v = v.reshape(r, t, k).transpose(1, 0, 2)
    factor = _gram_factor(np.swapaxes(v.conj(), -1, -2) @ v)

    d = np.sqrt(system.gains.beta_bar)[:, None] * (c_bar @ bs_factor.T)
    h = d + np.sqrt(system.gains.beta_g) * np.swapaxes(bs_factor @ (z @ factor), -1, -2)
    return ChannelRealization(q=q_cols.transpose(1, 2, 0), d=d, h=h)
