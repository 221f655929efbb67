"""Spatial correlation matrices and distance-based path gains.

Builds the deterministic second-order statistics of the links: a sinc-kernel
correlation matrix for the planar surface, a configurable correlation model
for the base-station array, and the power-law path gains.  The base-station
correlation matrix is eigendecomposed once and cached; every downstream
closed-form expression works on its eigenvalues.  The surface correlation of
a uniform grid is kept as its table of offsets, from which the dense
referees gather rows a block at a time, the |R_RIS|^2 kernel of a large
grid is applied by FFT, and the eigen factor of every grid is kept and
applied as the four blocks of its mirror fold.  Every eigen factor is
canonical: with a relative rank cut and fixed eigenvector signs, the BLAS
kernel changes only its roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BS_CORRELATION_MODELS = ("exponential", "uncorrelated")

# Smallest grid whose |R_RIS|^2 kernel is applied by FFT (``GridKernel``)
# rather than as the dense N x N matrix.  Median ms of one kernel product
# ``rows @ kernel`` with the (P, 4, N) rows of P starts, dense / FFT, one BLAS
# thread (2-vCPU Xeon, 4 MiB L2, numpy 2.4), two runs: N = 256: 0.01 / 0.06-0.10
# (P = 1), 0.05-0.07 / 0.19-0.21 (P = 5); 400: 0.03 / 0.08, 0.14-0.15 / 0.29-0.30;
# 576: 0.21 / 0.10-0.11, 1.0-1.2 / 0.42; 1024: 0.74-0.75 / 0.15, 3.7-3.8 / 0.71.
FFT_MIN_N = 576

# Smallest square grid, with equal spacings, whose fold splits its ++ and --
# blocks by the transpose symmetry (_swap_split_eigh) instead of factoring
# each by one eigh.  Median ms of one _folded_factor at spacing 0.25, unsplit /
# split, one BLAS thread (2-vCPU Xeon, numpy 2.4), alternating, two runs:
# N = 256: 1.26 / 1.42-1.45; 400: 3.60-4.07 / 3.62-4.00; 484: 3.43-3.53 /
# 3.40-3.53; 529: 4.07 / 3.85; 576: 4.43-4.56 / 4.22-4.40; 1024: 15.1 / 11.4-11.6;
# 4096: 594 / 333.
SPLIT_MIN_N = 529

# matrix_sqrt_psd keeps the eigenvalues above RANK_RTOL times the largest.
RANK_RTOL = 1e-13
# canonical_columns: the probes' seed, and the |p . u| / |p| below which the
# first probe leaves a column's sign to the second
PROBE_SEED = 2008
SIGN_MARGIN = 1e-8
_QUARTER_TURNS = np.array([1.0, -1j, -1.0, 1j])


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar array layout, spacings measured in wavelengths.

    Parameters
    ----------
    n_h, n_v : int
        Element counts along the horizontal and vertical axes; Python or
        numpy integers, not ``bool``.
    spacing_h, spacing_v : float
        Center-to-center element spacings in wavelengths.
    """

    n_h: int
    n_v: int
    spacing_h: float
    spacing_v: float

    def __post_init__(self):
        for count in (self.n_h, self.n_v):
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"element counts must be integers, got {count!r}")
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
    return np.array(_toeplitz_window(table), order="C").reshape(table.size, table.size)


def _toeplitz_window(table: np.ndarray) -> np.ndarray:
    """(n_v, n_h, n_v, n_h) view with entry [v1, h1, v2, h2] =
    table[|v1 - v2|, |h1 - h2|], read from one mirrored copy of the table."""
    n_v, n_h = table.shape
    # mirrored[n_v - 1 + a, n_h - 1 + b] = table[|a|, |b|]
    mirrored = np.concatenate([table[:0:-1], table])
    mirrored = np.concatenate([mirrored[:, :0:-1], mirrored], axis=1)
    # window[v1, h1, v2, h2] = mirrored[n_v - 1 + v1 - v2, n_h - 1 + h1 - h2]
    return sliding_window_view(mirrored, (n_v, n_h))[:, :, ::-1, ::-1]


def _half_weights(n: int, sign: float) -> np.ndarray:
    """Row weights of the even (``sign`` 1) or odd (-1) half of one axis's
    mirror fold.

    Row i < n // 2 of the half is (e_i + sign e_{n-1-i}) / sqrt 2, and the
    even half of an odd axis adds the middle row e_{n // 2}.  On a symmetric
    Toeplitz matrix t[|i - j|] the half gives the Toeplitz-plus-Hankel block
    t[|i - j|] + sign t[n - 1 - i - j], with its middle row and column
    weighted 1 / sqrt 2; these are the weights.
    """
    p = n // 2
    weight = np.ones(n - p if sign > 0 else p)
    weight[p:] = np.sqrt(0.5)
    return weight


def _butterfly(even: np.ndarray, odd: np.ndarray) -> None:
    """``(even, odd) <- (even + odd, even - odd)``, in place and with no
    temporary: ``even + odd`` is formed as ``2 even - (even - odd)``."""
    np.subtract(even, odd, out=odd)
    even *= 2.0
    even -= odd


def _unfold_h(even: np.ndarray, odd: np.ndarray, out: np.ndarray) -> None:
    """Grid columns (e_j + o_j) at j and (e_j - o_j) at n - 1 - j, and the
    middle column of an odd axis, from the even and odd halves along axis 1."""
    p = odd.shape[1]
    np.add(even[:, :p], odd, out=out[:, :p])
    np.subtract(even[:, :p], odd, out=out[:, ::-1][:, :p])
    out[:, p:out.shape[1] - p] = even[:, p:]


def _fold_h(grid: np.ndarray, even: np.ndarray, odd: np.ndarray) -> None:
    """The transpose of :func:`_unfold_h`: halves (g_j + g_{n-1-j}) and
    (g_j - g_{n-1-j}), and the middle column of an odd axis."""
    p = odd.shape[1]
    np.add(grid[:, :p], grid[:, ::-1][:, :p], out=even[:, :p])
    np.subtract(grid[:, :p], grid[:, ::-1][:, :p], out=odd)
    even[:, p:] = grid[:, p:grid.shape[1] - p]


class FoldedFactor:
    """Real N x r factor L with ``L L^T = R``, kept as the four block
    factors of the mirror fold of a grid surface R.

    The fold P = P_v (x) P_h of :func:`_folded_factor` is orthogonal and
    makes P R P^T block diagonal, so ``L = P^T diag(F_b)``.  Per axis, P is
    the unscaled butterfly B (rows e_i + e_{n-1-i}, e_i - e_{n-1-i} and the
    middle row e_{n//2} of an odd axis) times 1/sqrt 2 on each paired row, and
    that scale is kept in the blocks' rows: ``blocks[b]`` is S_b F_b, so
    ``L = B^T diag(S_b F_b)``.  The blocks are in the order (++, +-, -+, --)
    of the (vertical, horizontal) halves, each (a b) x r_b for halves of a
    and b rows (``halves``); an empty half gives a 0 x 0 block.

    ``L @ x`` runs one gemm per block on its row range of x, into one
    block-major array, and then applies ``B^T``: the vertical butterfly in
    place and the horizontal one into the grid (the two act on different
    axes, so their order is free).  ``L.T @ y`` is the reverse: the
    horizontal fold out of the grid, the vertical one in place, and one gemm
    per block, rows concatenated in block order.  Either product makes two
    arrays the size of its input or output and no N x r one.  x and y are
    real 2-D blocks, and the products equal the dense factor's to roundoff.
    ``shape`` and ``dtype`` are the dense factor's; ``T`` is the transpose.
    """

    def __init__(self, grid: tuple[int, int], blocks: list[np.ndarray],
                 transposed: bool = False):
        self.grid, self.blocks, self.transposed = grid, blocks, transposed
        (n_v, n_h), p_v, p_h = grid, grid[0] // 2, grid[1] // 2
        self.halves = [(a, b) for a in (n_v - p_v, p_v) for b in (n_h - p_h, p_h)]
        shape = (n_v * n_h, sum(f.shape[1] for f in blocks))
        self.shape = shape[::-1] if transposed else shape
        self.dtype = np.dtype(np.float64)

    @property
    def T(self) -> "FoldedFactor":
        return FoldedFactor(self.grid, self.blocks, not self.transposed)

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        if self.transposed:
            return self._fold_product(block)
        return self._unfold_product(block)

    def _block_rows(self, folded: np.ndarray) -> list[np.ndarray]:
        """The four (a, b, m) blocks of a block-major (N, m) array, as views."""
        views, row = [], 0
        for a, b in self.halves:
            views.append(folded[row:row + a * b].reshape(a, b, folded.shape[1]))
            row += a * b
        return views

    def _unfold_product(self, x: np.ndarray) -> np.ndarray:
        """``L @ x`` for a real (r, m) block."""
        m = x.shape[1]
        folded = np.empty((self.shape[0], m))
        parts = self._block_rows(folded)
        col = 0
        for f, part in zip(self.blocks, parts):
            np.matmul(f, x[col:col + f.shape[1]], out=part.reshape(-1, m))
            col += f.shape[1]
        pp, pm, mp, mm = parts
        # the even vertical half's paired rows with the odd half's
        _butterfly(pp[:len(mp)], mp)
        _butterfly(pm[:len(mm)], mm)
        # row i of the even half is grid row i, row i of the odd half n_v - 1 - i
        grid = np.empty(self.grid + (m,))
        _unfold_h(pp, pm, grid[:len(pp)])
        _unfold_h(mp, mm, grid[::-1][:len(mp)])
        return grid.reshape(-1, m)

    def _fold_product(self, y: np.ndarray) -> np.ndarray:
        """``L^T @ y`` for a real (N, m) block."""
        m = y.shape[1]
        grid = y.reshape(self.grid + (m,))
        folded = np.empty((self.shape[1], m))
        parts = self._block_rows(folded)
        pp, pm, mp, mm = parts
        _fold_h(grid[:len(pp)], pp, pm)
        _fold_h(grid[::-1][:len(mp)], mp, mm)
        _butterfly(pp[:len(mp)], mp)
        _butterfly(pm[:len(mm)], mm)
        out = np.empty((self.shape[0], m))
        row = 0
        for f, part in zip(self.blocks, parts):
            np.matmul(f.T, part.reshape(-1, m), out=out[row:row + f.shape[1]])
            row += f.shape[1]
        return out


def _folded_factor(table: np.ndarray) -> FoldedFactor:
    """The :class:`FoldedFactor` of ``_block_toeplitz(table)``, built from
    the four blocks of the mirror fold without forming the N x N matrix.

    The matrix is symmetric and centrosymmetric along both grid axes
    (Cantoni & Butler, *Linear Algebra Appl.* 1976), so the orthogonal fold
    P = P_v (x) P_h makes P R P^T block diagonal, one block per (vertical,
    horizontal) pair of halves.  Each block is four signed reads of the
    Toeplitz window, one per axis reversed or not, times the halves' weights
    (:func:`_half_weights`); its factor F_b comes from
    :func:`matrix_sqrt_psd`.  Per axis, the fold scales a paired row by
    1/sqrt 2 and the middle row by 1, sqrt(1/2) / weight either way, so the
    rows of F_b are scaled by 1 / (2 weight), the S_b of
    :class:`FoldedFactor`.  On a square grid with a symmetric table (equal
    spacings), transposing the grid maps the -+ block onto the +- block, so
    the -+ factor is the +- factor with its (v, h) rows read as (h, v):
    three ``eigh``s instead of four.  It maps the ++ and -- blocks onto
    themselves, so from ``SPLIT_MIN_N`` elements up each of those splits
    into a symmetric and an antisymmetric part of about half its size
    (:func:`_swap_split_eigh`, given only the rows (i, j), i <= j, of the
    block, the ones it reads), whose merged eigenpairs go through the same
    rank cut, relative to the whole block's largest eigenvalue, and
    canonical signs: five ``eigh``s, one of about N / 4 and four of about
    N / 8.  The kept columns and their order are the unsplit block's, to
    roundoff.
    """
    n_v, n_h = table.shape
    window = _toeplitz_window(table)
    transposable = n_v == n_h and np.array_equal(table, table.T)
    split = transposable and table.size >= SPLIT_MIN_N
    blocks = []
    for sv in (1.0, -1.0):
        wv = _half_weights(n_v, sv)
        for sh in (1.0, -1.0):
            wh = _half_weights(n_h, sh)
            a, b = wv.size, wh.size
            if a == 0 or b == 0:
                blocks.append(np.zeros((0, 0)))
                continue
            if transposable and sv < 0 < sh:
                # the -+ block is the +- block with its (v, h) rows read as (h, v)
                blocks.append(blocks[1].reshape(b, a, -1).transpose(1, 0, 2).reshape(a * b, -1))
                continue
            weight = np.outer(wv, wh)
            swap_split = split and sv == sh
            # the split reads only the rows (i, j), i <= j, so only those are gathered
            rows = np.triu_indices(a) if swap_split else (slice(a), slice(b))
            # reversing axis 0 (1) turns |v1 - v2| (|h1 - h2|) into the Hankel offset
            block = (window[:, :, :a, :b][rows] + sv * window[::-1, :, :a, :b][rows]
                     + sh * window[:, ::-1, :a, :b][rows]
                     + sv * sh * window[::-1, ::-1, :a, :b][rows])
            block *= weight[rows][..., None, None]
            block *= weight
            if swap_split:
                factor = _eigen_factor(*_swap_split_eigh(block))
            else:
                factor = matrix_sqrt_psd(block.reshape(a * b, a * b))
            factor *= (0.5 / weight.ravel())[:, None]
            blocks.append(factor)
    return FoldedFactor((n_v, n_h), blocks)


def _swap_split_eigh(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a symmetric (a, a, a, a) block B that the
    swap of its two grid indices maps onto itself, B[i, j, k, l] =
    B[j, i, l, k], as ``eigh`` of the (a a) x (a a) matrix gives them, from
    its rows (i, j), i <= j, in ``np.triu_indices`` order: (s, a, a).

    In the swap-adapted basis e_ii, (e_ij + e_ji) / sqrt 2 and
    (e_ij - e_ji) / sqrt 2 (i < j), B splits into a symmetric part of size
    a (a + 1) / 2, with entries B[ii, kk], sqrt 2 B[ij, kk] and
    B[ij, kl] + B[ij, lk], and an antisymmetric part of size a (a - 1) / 2,
    with entries B[ij, kl] - B[ij, lk].  Each part gets its own ``eigh``;
    its eigenvectors are scattered back onto the grid indices and the two
    sets of eigenpairs merged in ascending order.
    """
    a = rows.shape[1]
    i, j = np.triu_indices(a)
    off = i != j
    flipped = rows.transpose(0, 2, 1)
    # the diagonal pairs' rows and columns carry 1 / sqrt 2 against the
    # doubled B[., kk] + B[., kk]
    scale = np.where(off, 1.0, np.sqrt(0.5))
    sym = (rows + flipped)[:, i, j]
    sym *= scale[:, None]
    sym *= scale
    anti = (rows[off] - flipped[off])[:, i[off], j[off]]
    sym_vals, sym_vecs = np.linalg.eigh(sym)
    anti_vals, anti_vecs = np.linalg.eigh(anti)
    s = sym_vals.size
    vecs = np.zeros((a, a, a * a))
    vecs[i, j, :s] = vecs[j, i, :s] = sym_vecs * np.where(off, np.sqrt(0.5), 1.0)[:, None]
    vecs[i[off], j[off], s:] = anti_vecs * np.sqrt(0.5)
    vecs[j[off], i[off], s:] = -vecs[i[off], j[off], s:]
    eigvals = np.concatenate([sym_vals, anti_vals])
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], vecs.reshape(a * a, a * a)[:, order]


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


def canonical_columns(vecs: np.ndarray) -> np.ndarray:
    """``eigh`` eigenvectors, the columns of a (..., n, r) stack, each with
    its sign (real) or unit phase (complex) fixed by one fixed probe.

    ``eigh`` fixes neither, and which one it returns depends on the BLAS
    kernel.  Column u is scaled by the unit number that makes ``p . u`` real
    and positive (cf. Bro, Acar & Kolda, *J. Chemometrics* 2008), p the
    first of two fixed Gaussian probes (``PROBE_SEED``) unless
    ``|p . u| <= SIGN_MARGIN |p|``, when the second decides.  A generic
    probe has no mirror or transpose symmetry, so it is not orthogonal to
    the symmetric and antisymmetric eigenvectors of a grid surface, as a
    probe with such a symmetry would be, and its margin is far above the
    roundoff in which kernels' eigenvectors differ.  A complex column is
    first turned by the quarter turn that puts ``p . u`` in |arg| <= pi/4,
    exactly, and then by the phase left.  Columns that differ by a sign or
    a quarter turn so give the same bits, and by any other phase agree to
    roundoff.
    """
    probes = np.random.default_rng(PROBE_SEED).standard_normal((2, vecs.shape[-2]))
    real = not np.iscomplexobj(vecs)
    # a complex column's two parts through real products, so that a quarter
    # turn of the column turns its dot product exactly
    dots = probes @ vecs if real else probes @ vecs.real + 1j * (probes @ vecs.imag)
    first = np.abs(dots[..., 0, :]) > SIGN_MARGIN * np.linalg.norm(probes[0])
    dot = np.where(first, dots[..., 0, :], dots[..., 1, :])
    if real:
        return vecs * np.where(dot < 0.0, -1.0, 1.0)[..., None, :]
    turn = _QUARTER_TURNS[np.argmax([dot.real, dot.imag, -dot.real, -dot.imag], axis=0)]
    vecs, dot = vecs * turn[..., None, :], dot * turn
    return vecs * (np.abs(dot) / dot)[..., None, :]


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Canonical eigen factor ``L = U_+ sqrt(Lambda_+)`` of a Hermitian PSD
    matrix, with ``L @ L.conj().T`` equal to ``a`` up to roundoff.

    Only the eigenvalues above ``RANK_RTOL`` times the largest are kept, so
    L is N x r with r at most N.  A cut at 0 would let a null eigenvalue's
    roundoff land on either side, and so make r depend on the BLAS kernel;
    the relative one drops what lies within roundoff of 0.  The kept
    columns' signs (phases) are fixed by :func:`canonical_columns`, so
    kernels' factors differ by the roundoff of their eigenvectors, not by
    signs.  A draw ``L c`` with r iid CN(0, 1) entries in c has covariance
    ``a``, as ``a^{1/2} c`` with N entries does, without the N^3 product
    that forms the symmetric root.  It is the factor of ``r_bs``, of an
    explicit ``r_ris`` and of each block of a grid surface's mirror fold
    (:func:`_folded_factor`) that is not split by the transpose symmetry.

    Columns kept at spacing 0.25, with the ratio to the cut of the kept
    eigenvalue nearest it and of the largest dropped one, over a grid's
    blocks (the checked-in grids are 4 x 4 to 10 x 10, the benchmark's
    8 x 8 to 32 x 32; a cut at 0 kept 16, 36, 64, 100, 246 and 811):

    =======  ====  =========  =======
    grid     r     kept       dropped
    =======  ====  =========  =======
    4 x 4    16    3.9e8      --
    6 x 6    36    1.3e5      --
    8 x 8    64    62         --
    10 x 10  99    2.5        0.027
    16 x 16  215   1.18       0.984
    32 x 32  567   1.03       0.86
    =======  ====  =========  =======

    The 8 x 8 grid of the spacing sweep keeps 49 columns at spacing 0.1
    (1.9 and 0.42) and all 64 at 0.5 (9.4e9).  The four OpenBLAS kernels
    tried move these eigenvalues by at most 1.4e-16 of the largest, 0.14%
    of the cut, and keep the same columns.  An exponential R_BS (param 0.5)
    has its smallest eigenvalue about 1.1e12 times the cut.  A cut of 1e-12
    would keep 543 of 1024, but drops enough at spacings of 0.1 to 0.05
    that ``L L^T`` misses R by up to 3.3e-12; 1e-13 stays within 4e-13 on
    every grid up to 12 x 12.
    """
    return _eigen_factor(*np.linalg.eigh(np.asarray(a)))


def _eigen_factor(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """``U_+ sqrt(Lambda_+)`` of ascending ``eigh`` eigenpairs: the columns
    whose eigenvalues lie above ``RANK_RTOL`` times the largest, canonical."""
    keep = eigvals > RANK_RTOL * max(eigvals[-1], 0.0)
    return canonical_columns(eigvecs[:, keep]) * np.sqrt(eigvals[keep])


def _check_symmetric(r: np.ndarray, name: str, tol: float) -> None:
    """Raise unless every entry is finite and ``max |R - R^H| <= tol``.

    Blocks of rows, 2^15 entries each (a small matrix is one block), are
    compared with the conjugated columns, so each entry is read against its
    mirror and no N x N temporary is made.  A non-finite entry, on the
    diagonal too, makes its gap NaN or inf, which fails the comparison.
    """
    step = max(1, 2**15 // r.shape[0])
    with np.errstate(invalid="ignore"):
        worst = np.max([np.max(np.abs(r[i:i + step] - np.conj(r[:, i:i + step].T)))
                        for i in range(0, r.shape[0], step)])
    if not worst <= tol:
        raise ValueError(f"{name} must be finite and Hermitian (|R - R^H| reaches {worst:.3g})")


class GridKernel:
    """|R_RIS|^2 of a uniform grid, applied as a 2-D convolution by FFT.

    Entry (n, m) of the kernel is ``table2[|dv|, |dh|]``, the squared offset
    table at the offsets between elements n and m: block Toeplitz with
    Toeplitz blocks (Chan & Jin, *An Introduction to Iterative Toeplitz
    Solvers*, SIAM 2007).  So ``x @ kernel`` convolves each row of x, laid
    out on the (n_v, n_h) grid, with the mirrored table.  Both are padded to
    (2 n_v, 2 n_h), where the circular convolution equals the linear one; the
    ``rfft2`` spectrum of the mirrored table is kept.  A product transforms
    only the n_v rows of data and inverts only the n_v rows it returns, with
    the bits of ``irfft2(rfft2(x, pad) * spectrum, pad)`` cropped.  ``size``
    and ``dtype`` are the spectrum's, the one array a product reads.
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

    # ``rows @ kernel`` on an ndarray defers to :meth:`__rmatmul__`
    __array_ufunc__ = None

    def __rmatmul__(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ |R_RIS|^2`` for real (c, N) or (P, c, N) rows."""
        n_v, n_h = self.grid
        grids = rows.reshape(rows.shape[:-1] + self.grid)
        # rfft2's two passes, the padding rows left out of the first
        spectrum = np.fft.fft(np.fft.rfft(grids, 2 * n_h), 2 * n_v, axis=-2)
        spectrum *= self.spectrum
        # irfft2's two passes, the rows past n_v cropped between them
        out = np.fft.irfft(np.fft.ifft(spectrum, axis=-2)[..., :n_v, :], 2 * n_h)
        return out[..., :n_h].reshape(rows.shape)


@dataclass(frozen=True)
class CorrelationPair:
    """Correlation matrices of the BS array and the surface, with the one
    cached BS eigendecomposition, eigenpairs descending, that all fast-path
    expressions and ``bs_factor`` run on.

    A surface on a uniform grid (:meth:`from_grid`) is kept as its (n_v, n_h)
    offset table ``ris_table``.  Its kernel comes from the squared table,
    its factor is always the mirror fold's, and the dense referees read it
    in row blocks (:meth:`ris_rows`), so nothing in the package forms its
    N x N ``r_ris``; that is built only when asked for.  Any other surface
    correlation (:meth:`from_matrices`) is kept dense, with ``ris_table``
    None, and gets the dense kernel and eigen factor.
    """

    r_bs: np.ndarray
    bs_eigvecs: np.ndarray
    bs_eigvals: np.ndarray
    ris_table: np.ndarray | None = None

    @classmethod
    def from_matrices(cls, r_bs: np.ndarray, r_ris: np.ndarray) -> "CorrelationPair":
        r_ris = np.asarray(r_ris)
        if r_ris.ndim != 2 or r_ris.shape[0] != r_ris.shape[1] or r_ris.size == 0:
            raise ValueError(f"r_ris must be square and non-empty, got shape {r_ris.shape}")
        # the surface kernel and its factor enter real products only
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
    def from_grid(cls, r_bs: np.ndarray, geom: ArrayGeometry,
                  previous: "CorrelationPair | None" = None) -> "CorrelationPair":
        """The sinc-kernel surface of :func:`build_ris_correlation`, kept as
        its offset table; symmetric by construction.

        A ``previous`` pair lends what the new inputs leave unchanged: with
        an equal R_BS and offset table it is returned itself, cached kernel
        and factors included; with an equal R_BS only, the new pair shares
        its BS eigendecomposition and nothing of its surface.
        """
        table = _offset_table(geom)
        if not (np.all(np.isfinite(table)) and table[0, 0] == 1.0):
            raise ValueError("the surface offset table must be finite with a unit diagonal")
        if previous is None or not np.array_equal(previous.r_bs, r_bs):
            return cls._with_bs(r_bs, ris_table=table)
        if np.array_equal(previous.ris_table, table):
            return previous
        return replace(previous, ris_table=table)  # cached properties are not copied

    @classmethod
    def _with_bs(cls, r_bs: np.ndarray, ris_table: np.ndarray | None = None):
        r_bs = np.asarray(r_bs)
        if r_bs.ndim != 2 or r_bs.shape[0] != r_bs.shape[1] or r_bs.size == 0:
            raise ValueError(f"r_bs must be square and non-empty, got shape {r_bs.shape}")
        _check_symmetric(r_bs, "r_bs", 1e-8 * max(1.0, np.max(np.abs(r_bs))))
        eigvals, eigvecs = np.linalg.eigh(r_bs)
        # descending, as every eigen-sum runs; eigh's signs, which the Wiener filter
        # cancels (bs_factor fixes its own: its probes would import numpy.random here)
        return cls(r_bs=r_bs, bs_eigvecs=np.ascontiguousarray(eigvecs[:, ::-1]),
                   bs_eigvals=eigvals[::-1].copy(), ris_table=ris_table)

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

    def ris_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) of R_RIS, a (stop - start, N) array: a view of
        an explicit ``r_ris``, or for a grid surface, of any shape, one
        gather of those rows out of the offset table's Toeplitz window."""
        if self.ris_table is None:
            return self.r_ris[start:stop]
        v, h = np.divmod(np.arange(start, stop), self.ris_table.shape[1])
        return _toeplitz_window(self.ris_table)[v, h].reshape(stop - start, self.n)

    @cached_property
    def bs_factor(self) -> np.ndarray:
        """M x r eigen factor of ``r_bs``, the cached decomposition's columns
        above the rank cut, ascending and canonical: :func:`matrix_sqrt_psd`'s."""
        return _eigen_factor(self.bs_eigvals[::-1], self.bs_eigvecs[:, ::-1])

    @cached_property
    def ris_factor(self) -> np.ndarray | FoldedFactor:
        """Real N x r factor with ``L L^T = r_ris``, the square root that
        Monte Carlo draws through; the sampler reads its ``shape``,
        ``L @`` and ``L.T @`` only.

        A grid surface, of any size, gets the :class:`FoldedFactor` of its
        mirror fold (:func:`_folded_factor`), gathered from the offset table,
        so ``r_ris`` is never formed.  Three ``eigh``s of about N / 4 (four
        on a grid that is not square with equal spacings) replace one of N;
        from ``SPLIT_MIN_N`` up, a square grid with equal spacings splits
        two of them in halves by the transpose symmetry.  At N = 1024 and
        spacing 0.25 the build takes 11.4 ms (15.1 ms unsplit) against
        180-200 ms for the dense factor (2-vCPU Xeon VM, one OpenBLAS
        thread), and r = 567, with the blocks holding 1.2 MB where the N x r
        array would hold 4.6 MB.  Its columns are
        eigenvectors of ``r_ris`` scaled by the roots of their eigenvalues,
        with the canonical signs and rank cut of each block's
        :func:`matrix_sqrt_psd`, in another order than the dense factor's.
        A surface from :meth:`from_matrices` gets the eigen factor of
        ``r_ris`` (:func:`matrix_sqrt_psd`) as an N x r array.
        """
        if self.ris_table is None:
            return matrix_sqrt_psd(self.r_ris)
        return _folded_factor(self.ris_table)

    @cached_property
    def ris_abs2(self) -> np.ndarray | GridKernel:
        """Elementwise |R_RIS|^2; the quadratic kernel of the phase-dependent
        trace, of a grid surface gathered from its squared offset table:
        dense below ``FFT_MIN_N`` elements, else a :class:`GridKernel`,
        whose ``rows @ kernel`` gives the dense product's values."""
        if self.ris_table is None:
            return np.square(self.r_ris)
        table2 = np.square(self.ris_table)
        return _block_toeplitz(table2) if self.n < FFT_MIN_N else GridKernel(table2)


@dataclass(frozen=True)
class LinkGains:
    """Large-scale gains of all links, stored linear.

    ``beta_g`` is the BS-surface gain, ``beta_bar[k]`` the direct BS-user gain
    (penetration loss already applied), ``beta_tilde[k]`` the surface-user
    gain.  The cascaded product ``beta_hat`` is derived, never stored apart.
    ``beta_bar`` may carry a leading row axis, (P, K), one row per start of
    an optimizer batch whose systems differ only in it
    (:func:`starmimo.optimizer.multi_start`).
    """

    beta_g: float
    beta_bar: np.ndarray
    beta_tilde: np.ndarray

    def __post_init__(self):
        beta_bar = np.atleast_1d(np.asarray(self.beta_bar, dtype=float))
        beta_tilde = np.atleast_1d(np.asarray(self.beta_tilde, dtype=float))
        object.__setattr__(self, "beta_bar", beta_bar)
        object.__setattr__(self, "beta_tilde", beta_tilde)
        if beta_tilde.ndim != 1 or beta_bar.ndim > 2 or beta_bar.shape[-1:] != beta_tilde.shape:
            raise ValueError("beta_bar and beta_tilde must have one entry per user")
        if not all(np.all(np.isfinite(gains) & (gains >= 0))
                   for gains in (self.beta_g, beta_bar, beta_tilde)):
            raise ValueError("path gains must be finite and non-negative")

    @property
    def k(self) -> int:
        return self.beta_tilde.shape[0]

    @cached_property
    def beta_hat(self) -> np.ndarray:
        """Cascaded BS-surface-user gain, the exact product of the two hops."""
        return self.beta_g * self.beta_tilde
