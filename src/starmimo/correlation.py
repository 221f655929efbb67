"""Spatial correlation matrices and distance-based path gains.

Builds the deterministic second-order statistics of the links: a sinc-kernel
correlation matrix for the planar surface, a configurable correlation model
for the base-station array, and the power-law path gains.  The base-station
correlation matrix is eigendecomposed once and cached; every downstream
closed-form expression works on its eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = -1e-10

BS_CORRELATION_MODELS = ("exponential", "uncorrelated")


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar array layout, spacings measured in wavelengths.

    Parameters
    ----------
    n_h, n_v : int
        Element counts along the horizontal and vertical axes.
    spacing_h, spacing_v : float
        Center-to-center element spacings in wavelengths.
    """

    n_h: int
    n_v: int
    spacing_h: float
    spacing_v: float

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError(f"element counts must be >= 1, got ({self.n_h}, {self.n_v})")
        if self.spacing_h <= 0 or self.spacing_v <= 0:
            raise ValueError("element spacings must be strictly positive")

    @property
    def n(self) -> int:
        return self.n_h * self.n_v

    def positions(self) -> np.ndarray:
        """(N, 2) element positions in wavelengths, horizontal index fastest."""
        h = np.arange(self.n_h) * self.spacing_h
        v = np.arange(self.n_v) * self.spacing_v
        hh, vv = np.meshgrid(h, v)  # row-major over vertical rows
        return np.column_stack([hh.ravel(), vv.ravel()])


def build_ris_correlation(geom: ArrayGeometry) -> np.ndarray:
    """Sinc-kernel correlation over the planar-array element grid.

    Entry (n, m) is sinc(2 d_nm) with d_nm the element distance in
    wavelengths and sinc(x) = sin(pi x) / (pi x).  Real symmetric with unit
    diagonal; sinc(0) = 1 covers coincident elements by continuity.
    """
    pos = geom.positions()
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    r = np.sinc(2.0 * dist)
    # exact unit diagonal / symmetry regardless of roundoff in the norm
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


def build_bs_correlation(m: int, model: str = "exponential", param: float = 0.5) -> np.ndarray:
    """Base-station array correlation matrix.

    ``exponential``: Toeplitz with entry ``param ** |i - j|``, ``0 <= param < 1``
    (positive definite for that range).  ``uncorrelated``: identity, for which
    the aggregated covariance loses all phase dependence.
    """
    if m < 1:
        raise ValueError(f"antenna count must be >= 1, got {m}")
    if model == "uncorrelated":
        return np.eye(m)
    if model == "exponential":
        if not 0.0 <= param < 1.0:
            raise ValueError(f"exponential correlation needs param in [0, 1), got {param}")
        idx = np.arange(m)
        return param ** np.abs(idx[:, None] - idx[None, :])
    raise ValueError(f"unknown BS correlation model {model!r}; choose from {BS_CORRELATION_MODELS}")


def path_gain(distance: float, exponent: float, element_area: float = 1.0,
              penetration_db: float = 0.0) -> float:
    """Linear channel gain ``A * d**-exponent`` with optional penetration loss in dB."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if element_area <= 0:
        raise ValueError(f"element area must be positive, got {element_area}")
    return element_area * distance ** (-exponent) * 10.0 ** (-penetration_db / 10.0)


def eigendecompose_bs(r_bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns ``(U, eigvals)`` with ``U @ diag(eigvals) @ U.conj().T`` equal to
    the input up to roundoff.  Raises ``numpy.linalg.LinAlgError`` if the
    decomposition does not converge.
    """
    r_bs = np.asarray(r_bs)
    if np.max(np.abs(r_bs - r_bs.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(r_bs))):
        raise ValueError("matrix is not Hermitian")
    eigvals, eigvecs = np.linalg.eigh(r_bs)
    order = np.argsort(eigvals)[::-1]
    return eigvecs[:, order], eigvals[order]


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian square root via EVD, clamping roundoff-negative eigenvalues at 0."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(a))
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


@dataclass(frozen=True)
class CorrelationPair:
    """Correlation matrices of the BS array and the surface, with the cached
    BS eigendecomposition that all fast-path expressions run on."""

    r_bs: np.ndarray
    r_ris: np.ndarray
    bs_eigvecs: np.ndarray
    bs_eigvals: np.ndarray

    @classmethod
    def from_matrices(cls, r_bs: np.ndarray, r_ris: np.ndarray) -> "CorrelationPair":
        r_bs = np.asarray(r_bs)
        r_ris = np.asarray(r_ris)
        for name, mat in (("r_bs", r_bs), ("r_ris", r_ris)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got shape {mat.shape}")
        # the surface kernel and its square root enter real products only
        if np.iscomplexobj(r_ris) and np.any(r_ris.imag != 0):
            raise ValueError("r_ris must be real (its imaginary part is not zero)")
        r_ris = np.asarray(r_ris.real, dtype=np.float64)
        if np.max(np.abs(r_ris - r_ris.conj().T)) > 1e-10:
            raise ValueError("r_ris must be Hermitian")
        if np.max(np.abs(np.diag(r_ris) - 1.0)) > 1e-8:
            raise ValueError("r_ris must have unit diagonal (scale belongs in the path gains)")
        eigvecs, eigvals = eigendecompose_bs(r_bs)
        return cls(r_bs=r_bs, r_ris=r_ris, bs_eigvecs=eigvecs, bs_eigvals=eigvals)

    @property
    def m(self) -> int:
        return self.r_bs.shape[0]

    @property
    def n(self) -> int:
        return self.r_ris.shape[0]

    @cached_property
    def bs_sqrt(self) -> np.ndarray:
        return matrix_sqrt_psd(self.r_bs)

    @cached_property
    def ris_sqrt(self) -> np.ndarray:
        return matrix_sqrt_psd(self.r_ris)

    @cached_property
    def ris_abs2(self) -> np.ndarray:
        """Elementwise |R_RIS|^2; the quadratic kernel of the phase-dependent trace."""
        return np.abs(self.r_ris) ** 2


@dataclass(frozen=True)
class LinkGains:
    """Large-scale gains of all links, stored linear.

    ``beta_g`` is the BS-surface gain, ``beta_bar[k]`` the direct BS-user gain
    (penetration loss already applied), ``beta_tilde[k]`` the surface-user
    gain.  The cascaded product ``beta_hat`` is derived, never stored apart.
    """

    beta_g: float
    beta_bar: np.ndarray
    beta_tilde: np.ndarray

    def __post_init__(self):
        beta_bar = np.atleast_1d(np.asarray(self.beta_bar, dtype=float))
        beta_tilde = np.atleast_1d(np.asarray(self.beta_tilde, dtype=float))
        object.__setattr__(self, "beta_bar", beta_bar)
        object.__setattr__(self, "beta_tilde", beta_tilde)
        if beta_bar.shape != beta_tilde.shape:
            raise ValueError("beta_bar and beta_tilde must have one entry per user")
        if self.beta_g < 0 or np.any(beta_bar < 0) or np.any(beta_tilde < 0):
            raise ValueError("path gains must be non-negative")

    @property
    def k(self) -> int:
        return self.beta_bar.shape[0]

    @property
    def beta_hat(self) -> np.ndarray:
        """Cascaded BS-surface-user gain, the exact product of the two hops."""
        return self.beta_g * self.beta_tilde
