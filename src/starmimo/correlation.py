"""Spatial correlation matrices and distance-based path gains.

Builds the deterministic second-order statistics of the links: a sinc-kernel
correlation matrix for the planar surface, a configurable correlation model
for the base-station array, and the power-law path gains.  The base-station
correlation matrix is eigendecomposed once and cached; every downstream
closed-form expression works on its eigenvalues.  The surface correlation of
a uniform grid is kept as its table of offsets, from which the dense matrix
is built only on demand and the |R_RIS|^2 kernel of a large grid is applied
by FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

HERMITIAN_TOL = 1e-12
PSD_TOL = -1e-10

BS_CORRELATION_MODELS = ("exponential", "uncorrelated")

# Side of the square tiles of the surface-correlation symmetry check: the
# fastest of 32-256 at N = 4096 (two 32 KB tiles), and within 30% of the
# fastest at N = 1024.
SYMMETRY_TILE = 64

# Smallest grid whose |R_RIS|^2 kernel is applied by FFT (``GridKernel``)
# rather than as the dense N x N matrix.  Median ms of one kernel product with
# the (N, 4) block of P starts, dense / FFT, one BLAS thread (2-vCPU Xeon,
# numpy 2.4): N = 256: 0.02 / 0.15 (P = 1), 0.10 / 0.51 (P = 5); 400: 0.13-0.20
# / 0.19, 0.81-0.91 / 0.74-0.76; 576: 0.40 / 0.25, 1.8 / 0.75; 784: 0.63 /
# 0.21, 3.2 / 1.2; 1024: 1.0 / 0.23, 5.4 / 1.6.  400 is a tie.
FFT_MIN_N = 576


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
        # the comparisons are False for NaN
        if not (0.0 < self.spacing_h < np.inf and 0.0 < self.spacing_v < np.inf):
            raise ValueError("element spacings must be finite and strictly positive")

    @property
    def n(self) -> int:
        return self.n_h * self.n_v


def build_ris_correlation(geom: ArrayGeometry) -> np.ndarray:
    """Sinc-kernel correlation over the planar-array element grid.

    Entry (n, m) is sinc(2 d_nm) with d_nm the element distance in
    wavelengths and sinc(x) = sin(pi x) / (pi x); elements are ordered
    horizontal index fastest.  On the uniform grid the entry depends only on
    the index offsets (|dv|, |dh|), so the sinc is evaluated once per offset
    pair and the matrix, block Toeplitz with Toeplitz blocks, is one strided
    copy out of that table.  Real, exactly symmetric, with unit diagonal.
    """
    return _block_toeplitz(_offset_table(geom))


def _offset_table(geom: ArrayGeometry) -> np.ndarray:
    """(n_v, n_h) table of the surface correlation at index offsets (|dv|, |dh|)."""
    dv = np.arange(geom.n_v) * geom.spacing_v
    dh = np.arange(geom.n_h) * geom.spacing_h
    # sinc(0) = 1 exactly, for coincident elements
    return np.sinc(2.0 * np.sqrt(dh[None, :] ** 2 + dv[:, None] ** 2))


def _block_toeplitz(table: np.ndarray) -> np.ndarray:
    """The N x N matrix with entry (n, m) = table[|dv|, |dh|] of the offsets
    between elements n and m, horizontal index fastest."""
    n_v, n_h = table.shape
    # mirrored[n_v - 1 + a, n_h - 1 + b] = table[|a|, |b|]
    mirrored = np.concatenate([table[:0:-1], table])
    mirrored = np.concatenate([mirrored[:, :0:-1], mirrored], axis=1)
    # window[v1, h1, v2, h2] = mirrored[n_v - 1 + v1 - v2, n_h - 1 + h1 - h2]
    window = sliding_window_view(mirrored, (n_v, n_h))[:, :, ::-1, ::-1]
    return np.array(window, order="C").reshape(table.size, table.size)


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


def _check_symmetric(r: np.ndarray, name: str, tol: float) -> None:
    """Raise unless every entry is finite and ``max |R - R^T| <= tol``.

    Compares one tile with its mirror tile at a time, so no N x N temporary
    is made.  A non-finite entry makes its tile's difference NaN or inf,
    which fails the same comparison.
    """
    n, t = r.shape[0], SYMMETRY_TILE
    with np.errstate(invalid="ignore"):
        for i in range(0, n, t):
            for j in range(i, n, t):
                gap = r[i:i + t, j:j + t] - r[j:j + t, i:i + t].T
                worst = np.max(np.abs(gap, out=gap))
                if not worst <= tol:
                    raise ValueError(f"{name} must be finite and Hermitian "
                                     f"(|R - R^T| reaches {worst:.3g})")


class GridKernel:
    """|R_RIS|^2 of a uniform grid, applied as a 2-D convolution by FFT.

    Entry (n, m) of the kernel is ``table2[|dv|, |dh|]``, the squared offset
    table at the offsets between elements n and m: block Toeplitz with
    Toeplitz blocks (Chan & Jin, *An Introduction to Iterative Toeplitz
    Solvers*, SIAM 2007).  So ``kernel @ x`` convolves each column of x, laid
    out on the (n_v, n_h) grid, with the mirrored table.  Both are padded to
    (2 n_v, 2 n_h), where the circular convolution equals the linear one; the
    ``rfft2`` spectrum of the mirrored table is kept.  ``size`` and ``dtype``
    are the spectrum's, the one array a product reads.
    """

    def __init__(self, table2: np.ndarray):
        n_v, n_h = self.grid = table2.shape
        # circ[a mod 2 n_v, b mod 2 n_h] = table2[|a|, |b|]; row n_v and column
        # n_h are offsets no two elements have, and stay 0
        circ = np.zeros((2 * n_v, 2 * n_h))
        circ[:n_v, :n_h] = table2
        circ[n_v + 1:, :n_h] = table2[:0:-1]
        circ[:, n_h + 1:] = circ[:, n_h - 1:0:-1]
        self.spectrum = np.fft.rfft2(circ)
        self.size, self.dtype = self.spectrum.size, self.spectrum.dtype

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        """``|R_RIS|^2 @ block`` for a real (N, c) or (P, N, c) block."""
        n_v, n_h = self.grid
        pad = (2 * n_v, 2 * n_h)
        cols = np.swapaxes(block, -1, -2)
        grids = cols.reshape(cols.shape[:-1] + self.grid)
        out = np.fft.irfft2(np.fft.rfft2(grids, s=pad) * self.spectrum, s=pad)
        return np.swapaxes(out[..., :n_v, :n_h].reshape(cols.shape), -1, -2)


@dataclass(frozen=True)
class CorrelationPair:
    """Correlation matrices of the BS array and the surface, with the cached
    BS eigendecomposition that all fast-path expressions run on.

    A surface on a uniform grid (:meth:`from_grid`) is kept as its (n_v, n_h)
    offset table ``ris_table``.  Its dense N x N ``r_ris`` is built on first
    use, which only Monte Carlo (through ``ris_sqrt``) and the dense referees
    make.  Any other surface correlation (:meth:`from_matrices`) is kept
    dense, with ``ris_table`` None.
    """

    r_bs: np.ndarray
    bs_eigvecs: np.ndarray
    bs_eigvals: np.ndarray
    ris_table: np.ndarray | None = None

    @classmethod
    def from_matrices(cls, r_bs: np.ndarray, r_ris: np.ndarray) -> "CorrelationPair":
        r_ris = np.asarray(r_ris)
        if r_ris.ndim != 2 or r_ris.shape[0] != r_ris.shape[1]:
            raise ValueError(f"r_ris must be square, got shape {r_ris.shape}")
        # the surface kernel and its square root enter real products only
        if np.iscomplexobj(r_ris) and np.any(r_ris.imag != 0):
            raise ValueError("r_ris must be real (its imaginary part is not zero)")
        r_ris = np.asarray(r_ris.real, dtype=np.float64)
        _check_symmetric(r_ris, "r_ris", 1e-10)
        if np.max(np.abs(np.diag(r_ris) - 1.0)) > 1e-8:
            raise ValueError("r_ris must have unit diagonal (scale belongs in the path gains)")
        pair = cls._with_bs(r_bs)
        pair.__dict__["r_ris"] = r_ris  # the cached property's value, never rebuilt
        return pair

    @classmethod
    def from_grid(cls, r_bs: np.ndarray, geom: ArrayGeometry) -> "CorrelationPair":
        """The sinc-kernel surface of :func:`build_ris_correlation`, kept as
        its offset table; symmetric by construction."""
        table = _offset_table(geom)
        if not (np.all(np.isfinite(table)) and table[0, 0] == 1.0):
            raise ValueError("the surface offset table must be finite with a unit diagonal")
        return cls._with_bs(r_bs, ris_table=table)

    @classmethod
    def _with_bs(cls, r_bs: np.ndarray, ris_table: np.ndarray | None = None):
        r_bs = np.asarray(r_bs)
        if r_bs.ndim != 2 or r_bs.shape[0] != r_bs.shape[1]:
            raise ValueError(f"r_bs must be square, got shape {r_bs.shape}")
        if not np.all(np.isfinite(r_bs)):
            raise ValueError("r_bs has non-finite entries")
        eigvecs, eigvals = eigendecompose_bs(r_bs)
        return cls(r_bs=r_bs, bs_eigvecs=eigvecs, bs_eigvals=eigvals, ris_table=ris_table)

    @property
    def m(self) -> int:
        return self.r_bs.shape[0]

    @property
    def n(self) -> int:
        return self.r_ris.shape[0] if self.ris_table is None else self.ris_table.size

    @cached_property
    def r_ris(self) -> np.ndarray:
        """The dense N x N surface correlation, gathered from the offset table."""
        return _block_toeplitz(self.ris_table)

    @cached_property
    def bs_sqrt(self) -> np.ndarray:
        return matrix_sqrt_psd(self.r_bs)

    @cached_property
    def ris_sqrt(self) -> np.ndarray:
        return matrix_sqrt_psd(self.r_ris)

    @cached_property
    def ris_abs2(self) -> np.ndarray | GridKernel:
        """Elementwise |R_RIS|^2; the quadratic kernel of the phase-dependent
        trace.  A grid of at least ``FFT_MIN_N`` elements gets it as a
        :class:`GridKernel`, whose ``@`` gives the dense product's values."""
        if self.ris_table is None or self.n < FFT_MIN_N:
            return np.square(self.r_ris)
        return GridKernel(np.square(self.ris_table))


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
