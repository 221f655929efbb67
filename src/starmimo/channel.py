"""STAR surface configuration and the aggregated-channel statistics.

Each surface element splits the impinging wave into a transmitted (t) and a
reflected (r) component with independent phases and energy-conserving
amplitudes.  Under the Kronecker fading model the aggregated BS-user channel
has covariance ``alpha_k * R_BS`` where the scalar ``alpha_k`` carries the
whole dependence on the surface configuration; this module computes that
scalar and samples channel realizations for the Monte Carlo oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .correlation import CorrelationPair, LinkGains

ES = "es"
MS = "ms"

UNIT_MODULUS_TOL = 1e-10
ENERGY_TOL = 1e-10


@dataclass
class StarConfig:
    """Amplitudes and phase shifts of every surface element, both regions.

    ``theta_t``/``theta_r`` are unit-modulus complex vectors, ``beta_t``/
    ``beta_r`` real amplitudes with ``beta_t**2 + beta_r**2 = 1`` per element.
    Amplitudes may be negative while an optimizer is running (a sign flip of
    amplitude and phase together does not change any rate); finalized MS
    configurations are exactly binary.  The vectors may carry a leading
    start axis, one row per start of a multi-start (the optimizer's batched
    kernel reads such a configuration through :meth:`phi`).
    """

    theta_t: np.ndarray
    theta_r: np.ndarray
    beta_t: np.ndarray
    beta_r: np.ndarray
    protocol: str = ES

    def __post_init__(self):
        self.theta_t = np.asarray(self.theta_t, dtype=complex)
        self.theta_r = np.asarray(self.theta_r, dtype=complex)
        self.beta_t = np.asarray(self.beta_t, dtype=float)
        self.beta_r = np.asarray(self.beta_r, dtype=float)
        if not (self.theta_t.shape == self.theta_r.shape == self.beta_t.shape == self.beta_r.shape):
            raise ValueError("all four configuration vectors must share one length N")
        if self.protocol not in (ES, MS):
            raise ValueError(f"protocol must be {ES!r} or {MS!r}, got {self.protocol!r}")

    @property
    def n(self) -> int:
        return self.theta_t.shape[-1]

    def validate(self):
        """Check unit modulus, energy conservation, and MS binarity."""
        for name, theta in (("theta_t", self.theta_t), ("theta_r", self.theta_r)):
            err = np.max(np.abs(np.abs(theta) - 1.0))
            if err > UNIT_MODULUS_TOL:
                raise ValueError(f"{name} is not unit modulus (max deviation {err:.2e})")
        energy_err = np.max(np.abs(self.beta_t**2 + self.beta_r**2 - 1.0))
        if energy_err > ENERGY_TOL:
            raise ValueError(f"energy conservation violated (max deviation {energy_err:.2e})")
        if self.protocol == MS:
            for name, beta in (("beta_t", self.beta_t), ("beta_r", self.beta_r)):
                if not np.all((beta == 0.0) | (beta == 1.0)):
                    raise ValueError(f"MS protocol requires binary amplitudes in {name}")
        return self

    def phi(self, mode: str) -> np.ndarray:
        """Diagonal of the passive beamforming matrix for one region."""
        return self.beta_t * self.theta_t if mode == "t" else self.beta_r * self.theta_r

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Phases and amplitudes of both regions as two (2N,) vectors, t first."""
        return (np.concatenate([self.theta_t, self.theta_r]),
                np.concatenate([self.beta_t, self.beta_r]))

    @classmethod
    def from_stacked(cls, theta: np.ndarray, beta: np.ndarray) -> "StarConfig":
        """Inverse of :meth:`stacked`, along the last axis of (2N,) or (P, 2N)
        inputs; the four vectors are views of the inputs."""
        n = theta.shape[-1] // 2
        return cls(theta_t=theta[..., :n], theta_r=theta[..., n:],
                   beta_t=beta[..., :n], beta_r=beta[..., n:])

    def copy(self) -> "StarConfig":
        return replace(
            self,
            theta_t=self.theta_t.copy(),
            theta_r=self.theta_r.copy(),
            beta_t=self.beta_t.copy(),
            beta_r=self.beta_r.copy(),
        )

    @classmethod
    def equal_split(cls, n: int, rng: np.random.Generator | None = None) -> "StarConfig":
        """Canonical starting point: amplitudes sqrt(1/2), phases uniform (or zero)."""
        if rng is None:
            theta_t = np.ones(n, dtype=complex)
            theta_r = np.ones(n, dtype=complex)
        else:
            theta_t = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
            theta_r = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        amp = np.full(n, np.sqrt(0.5))
        return cls(theta_t=theta_t, theta_r=theta_r, beta_t=amp, beta_r=amp.copy())

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "StarConfig":
        """Random feasible point: uniform phases, uniform split angle per element."""
        chi = rng.uniform(0.0, np.pi / 2.0, n)
        return cls(
            theta_t=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)),
            theta_r=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)),
            beta_t=np.cos(chi),
            beta_r=np.sin(chi),
        )


@dataclass(frozen=True)
class SystemDims:
    """Antenna/user counts and frame split of the coherence block."""

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

    @property
    def k(self) -> int:
        return self.k_t + self.k_r

    @property
    def prelog(self) -> float:
        return (self.tau_c - self.tau) / self.tau_c


@dataclass(frozen=True)
class SystemModel:
    """Immutable bundle of everything the rate expressions need besides the
    surface configuration: dimensions, correlation, gains, region tags,
    powers, and the pilot parameters."""

    dims: SystemDims
    corr: CorrelationPair
    gains: LinkGains
    modes: tuple  # 't' / 'r' per user, length K
    rho: float  # downlink power budget (W)
    pilot_power: float  # per-symbol pilot power (W)
    sigma2: float  # noise power (W)

    def __post_init__(self):
        if len(self.modes) != self.dims.k:
            raise ValueError("one region tag per user required")
        if any(mode not in ("t", "r") for mode in self.modes):
            raise ValueError("region tags must be 't' or 'r'")
        if sum(1 for mode in self.modes if mode == "t") != self.dims.k_t:
            raise ValueError("region tags disagree with (k_t, k_r)")
        if self.gains.k != self.dims.k:
            raise ValueError("gains must have one entry per user")
        if self.corr.m != self.dims.m or self.corr.n != self.dims.n:
            raise ValueError("correlation matrices disagree with the stated dimensions")
        if self.dims.tau < self.dims.k:
            raise ValueError("orthogonal pilots need tau >= K")
        if self.rho <= 0 or self.pilot_power <= 0 or self.sigma2 <= 0:
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
    def region_mask(self) -> np.ndarray:
        """(K, 2) one-hot rows: column 0 marks t-region users, column 1 r-region."""
        return (np.asarray(self.modes)[:, None] == np.array(["t", "r"])).astype(float)


def pbm_quadratic_diag(r_ris: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """diag(R_RIS diag(phi) R_RIS) in O(N^2).

    For Hermitian R the (n, n) entry is sum_m |R[n, m]|^2 phi[m], i.e. a
    matvec with the elementwise squared-magnitude kernel.  The kernel is one
    real N x N array, applied to the real and imaginary parts of ``phi`` as
    real products (no complex upcast of the kernel).
    """
    r_ris = np.asarray(r_ris)
    phi = np.asarray(phi)
    if r_ris.shape[0] != r_ris.shape[1] or r_ris.shape[0] != phi.shape[0]:
        raise ValueError(
            f"dimension mismatch: R_RIS {r_ris.shape} vs phi {phi.shape}"
        )
    kernel = np.abs(r_ris)
    np.square(kernel, out=kernel)
    if np.iscomplexobj(phi):
        return _real_left_product(kernel, np.ascontiguousarray(phi)[:, None])[:, 0]
    return kernel @ phi


def covariance_scalars(system: SystemModel, config: StarConfig,
                       diagonals: np.ndarray | None = None) -> np.ndarray:
    """All per-user covariance scalars, from one product for both regions.

    ``alpha_k = beta_bar_k + beta_hat_k * phi_u^H |R_RIS|^2 phi_u`` with u
    the region of user k.  One real product of ``|R_RIS|^2`` with the (N, 4)
    block [Re phi_t, Re phi_r, Im phi_t, Im phi_r] gives both traces without
    upcasting the kernel to complex (it is real symmetric).  If
    ``diagonals``, a (2, N) complex array, is given, the product's
    ``diag(R_RIS Phi_u R_RIS) = |R_RIS|^2 phi_u`` of both regions, t first,
    is written into it; the gradient reads them.

    A configuration with a leading start axis gives (P, K) scalars from one
    stacked (N, N) x (P, N, 4) product, and ``diagonals`` is then (P, 2, N).
    The kernel is ``CorrelationPair.ris_abs2``: the dense square (one gemm
    per start) or, on a large grid, its FFT form with the same values.
    """
    phi = np.stack([config.phi("t"), config.phi("r")], axis=-2)
    block = np.swapaxes(np.concatenate([phi.real, phi.imag], axis=-2), -1, -2)
    prod = system.corr.ris_abs2 @ block
    traces = (block * prod).sum(axis=-2)
    if diagonals is not None:
        diagonals.real = np.swapaxes(prod[..., :2], -1, -2)
        diagonals.imag = np.swapaxes(prod[..., 2:], -1, -2)
    return system.gains.beta_bar + system.gains.beta_hat * (
        (traces[..., :2] + traces[..., 2:]) @ system.region_mask.T)


@dataclass
class ChannelRealization:
    """One draw of the fast-fading user links plus the assembled aggregated channels.

    The BS-surface channel G is never formed; only its products with the
    surface-weighted user links enter ``h``.  A draw of T trials at once
    gives every array a leading trial axis of length T.
    """

    q: np.ndarray  # (K, N) surface-user channels
    d: np.ndarray  # (K, M) direct channels
    h: np.ndarray  # (K, M) aggregated channels


def _fill_complex_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with CN(0, 1) entries, real parts drawn first.

    Multiplying the float view by 1/sqrt(2) gives the same bits as dividing
    the complex array by sqrt(2) (numpy divides a complex by a real as a
    product with the reciprocal), without the complex divide.
    """
    out.real = rng.standard_normal(out.shape)
    out.imag = rng.standard_normal(out.shape)
    out.view(float)[...] *= 1.0 / np.sqrt(2.0)
    return out


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries: variance 1/2 per real and imaginary part."""
    return _fill_complex_normal(rng, np.empty(shape, dtype=complex))


def _real_left_product(real: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``real @ x`` for a real matrix and a C-contiguous complex (N, K) block,
    as one real product on the interleaved float view (no complex upcast)."""
    return (real @ x.view(float)).view(complex)


def sample_realization(system: SystemModel, config: StarConfig,
                       rng: np.random.Generator | Sequence[np.random.Generator]
                       ) -> ChannelRealization:
    """Draw one correlated-Rayleigh realization of every link.

    ``G = sqrt(beta_g) R_BS^{1/2} D R_RIS^{1/2}`` with iid CN(0,1) entries in
    ``D``; user links analogous.  The generator is consumed in the order D
    (M x N), c (K x N), c_bar (K x M).  G is only ever applied to
    ``phi_u * q_k``, so the aggregated channels are assembled right to left
    for all users at once, ``h = d + sqrt(beta_g) R_BS^{1/2} (D v)`` with
    ``v = R_RIS^{1/2} (phi_u * q_k)``: no M x N x N product is made.

    A sequence of T generators draws T trials, one per generator, each
    consumed exactly as a single generator is; the arrays then carry a
    leading trial axis.  Both ``R_RIS^{1/2}`` products run once for all
    trials, on an (N, 2KT) real block.  Whether a trial then equals its
    one-generator draw bit for bit is a property of the BLAS: under OpenBLAS
    0.3.31 (Haswell kernels) it does with 8 or 16 real columns per trial
    (K = 4 or 8) at every N tried from 4 to 1024, while other K agree to
    roundoff.  The BS-side products stay one gemm per trial.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    t, m, n, k = len(rngs), system.dims.m, system.dims.n, system.dims.k
    bs_sqrt = system.corr.bs_sqrt
    ris_sqrt = system.corr.ris_sqrt

    d_fast = np.empty((t, m, n), dtype=complex)
    c = np.empty((n, t, k), dtype=complex)  # column (trial, user) of the product block
    c_bar = np.empty((t, k, m), dtype=complex)
    for i, gen in enumerate(rngs):
        _fill_complex_normal(gen, d_fast[i])
        c[:, i, :] = complex_normal(gen, (k, n)).T
        _fill_complex_normal(gen, c_bar[i])

    # (N, T, K) columns: q_k, then phi_u * q_k, each as one (N, 2KT) real product
    q_cols = _real_left_product(ris_sqrt, c.reshape(n, t * k)).reshape(n, t, k)
    q_cols *= np.sqrt(system.gains.beta_tilde)
    phi_cols = np.where(system.region_mask[:, 0] > 0,
                        config.phi("t")[:, None], config.phi("r")[:, None])
    v = _real_left_product(ris_sqrt, (phi_cols[:, None, :] * q_cols).reshape(n, t * k))
    v = v.reshape(n, t, k).transpose(1, 0, 2)

    d = np.sqrt(system.gains.beta_bar)[:, None] * (c_bar @ bs_sqrt.T)
    h = d + np.sqrt(system.gains.beta_g) * np.swapaxes(bs_sqrt @ (d_fast @ v), -1, -2)
    q = q_cols.transpose(1, 2, 0)
    if single:
        return ChannelRealization(q=q[0], d=d[0], h=h[0])
    return ChannelRealization(q=q, d=d, h=h)
