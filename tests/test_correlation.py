import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits
from starmimo import correlation
from starmimo.channel import _gram_factor
from starmimo.correlation import (
    FFT_MIN_N,
    SPLIT_MIN_N,
    ArrayGeometry,
    CorrelationPair,
    FoldedFactor,
    GridKernel,
    LinkGains,
    _folded_factor,
    build_bs_correlation,
    build_ris_correlation,
    canonical_columns,
    matrix_sqrt_psd,
    path_gain,
)

HERMITIAN_TOL = 1e-12
PSD_TOL = -1e-10
GRIDS = [(4, 3), (1, 7), (7, 1), (5, 2)]


def pairwise_reference(geom):
    """Sinc of every element pair's distance, horizontal index fastest."""
    h = np.arange(geom.n_h) * geom.spacing_h
    v = np.arange(geom.n_v) * geom.spacing_v
    hh, vv = np.meshgrid(h, v)
    pos = np.column_stack([hh.ravel(), vv.ravel()])
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    r = np.sinc(2.0 * dist)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


class TestRisCorrelation:
    def test_single_element(self):
        r = build_ris_correlation(ArrayGeometry(1, 1, 0.25, 0.25))
        np.testing.assert_array_equal(r, [[1.0]])

    def test_integer_spacing_gives_identity(self):
        # sinc vanishes at every nonzero integer argument
        r = build_ris_correlation(ArrayGeometry(2, 1, 10.0, 10.0))
        np.testing.assert_allclose(r, np.eye(2), atol=1e-15)

    def test_quarter_wavelength_pair(self):
        # sinc(0.5) = sin(pi/2) / (pi/2) = 2/pi
        r = build_ris_correlation(ArrayGeometry(2, 1, 0.25, 0.25))
        assert r[0, 1] == pytest.approx(2.0 / np.pi, abs=1e-12)
        assert r[0, 1] == pytest.approx(0.636620, abs=1e-6)

    def test_unit_diagonal_exact(self):
        r = build_ris_correlation(ArrayGeometry(4, 3, 0.1, 0.3))
        np.testing.assert_array_equal(np.diag(r), np.ones(12))

    @pytest.mark.parametrize("n_h,n_v,sp", [(2, 2, 0.1), (4, 4, 0.25), (3, 5, 0.5), (6, 6, 1.0)])
    def test_hermitian_psd(self, n_h, n_v, sp):
        r = build_ris_correlation(ArrayGeometry(n_h, n_v, sp, sp))
        assert np.max(np.abs(r - r.T)) <= HERMITIAN_TOL
        assert np.linalg.eigvalsh(r).min() >= PSD_TOL

    def test_adjacent_magnitude_shrinks_with_spacing(self):
        # |sinc(2 * spacing)| envelope for adjacent elements, ties allowed at
        # the zeros of sinc
        mags = []
        for sp in (0.1, 0.25, 0.5, 1.0):
            r = build_ris_correlation(ArrayGeometry(2, 1, sp, sp))
            mags.append(abs(r[0, 1]))
        assert all(a >= b - 1e-15 for a, b in zip(mags, mags[1:]))
        assert mags[0] > mags[1] > mags[2]

    def test_half_wavelength_grid_is_identity(self):
        # every pairwise distance on a 0.5-spaced grid is a multiple of 0.5
        # horizontally/vertically, but diagonals are not integers of 0.5*2;
        # only the axis-aligned pairs decorrelate exactly
        r = build_ris_correlation(ArrayGeometry(3, 1, 0.5, 0.5))
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0, 1, 0.25, 0.25)
        with pytest.raises(ValueError):
            ArrayGeometry(2, 2, 0.0, 0.25)

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True, np.True_, "2"])
    def test_rejects_non_integer_counts(self, bad):
        # a float count would give a fractional n, and from_grid a table of
        # another size
        with pytest.raises(ValueError, match="integers"):
            ArrayGeometry(bad, 2, 0.25, 0.25)
        with pytest.raises(ValueError, match="integers"):
            ArrayGeometry(2, bad, 0.25, 0.25)

    def test_accepts_numpy_integer_counts(self):
        geom = ArrayGeometry(np.int64(3), np.int32(2), 0.25, 0.25)
        assert geom.n == 6
        assert CorrelationPair.from_grid(np.eye(2), geom).ris_table.shape == (2, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_spacing(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ArrayGeometry(2, 2, bad, 0.25)
        with pytest.raises(ValueError, match="finite"):
            ArrayGeometry(2, 2, 0.25, bad)

    # (i - j) s and i s - j s round alike when s is a power of two, so the
    # offset-table build must then reproduce the pairwise build bit for bit
    @pytest.mark.parametrize("spacings", [(0.25, 0.25), (0.5, 0.5), (1.0, 1.0),
                                          (0.25, 0.5), (1.0, 0.25)])
    @pytest.mark.parametrize("n_h,n_v", GRIDS + [(8, 8)])
    def test_matches_pairwise_build_exactly(self, n_h, n_v, spacings):
        geom = ArrayGeometry(n_h, n_v, *spacings)
        np.testing.assert_array_equal(build_ris_correlation(geom), pairwise_reference(geom))

    @pytest.mark.parametrize("spacings", [(0.1, 0.1), (0.1, 0.3)])
    @pytest.mark.parametrize("n_h,n_v", GRIDS + [(16, 16)])
    def test_matches_pairwise_build_at_inexact_spacing(self, n_h, n_v, spacings):
        geom = ArrayGeometry(n_h, n_v, *spacings)
        gap = np.abs(build_ris_correlation(geom) - pairwise_reference(geom))
        assert gap.max() <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(
        n_h=st.integers(1, 6),
        n_v=st.integers(1, 6),
        sp_h=st.floats(0.05, 2.0, allow_nan=False),
        sp_v=st.floats(0.05, 2.0, allow_nan=False),
    )
    def test_always_matches_pairwise_build(self, n_h, n_v, sp_h, sp_v):
        geom = ArrayGeometry(n_h, n_v, sp_h, sp_v)
        gap = np.abs(build_ris_correlation(geom) - pairwise_reference(geom))
        assert gap.max() <= 1e-14

    def test_build_and_check_make_no_square_temporary(self):
        geom = ArrayGeometry(32, 32, 0.25, 0.25)
        tracemalloc.start()
        try:
            CorrelationPair.from_matrices(np.eye(2), build_ris_correlation(geom))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result itself is one N x N float64 array
        assert peak < 1.25 * geom.n ** 2 * 8

    @settings(max_examples=25, deadline=None)
    @given(
        n_h=st.integers(1, 5),
        n_v=st.integers(1, 5),
        sp=st.floats(0.05, 2.0, allow_nan=False),
    )
    def test_always_hermitian_psd_unit_diagonal(self, n_h, n_v, sp):
        r = build_ris_correlation(ArrayGeometry(n_h, n_v, sp, sp))
        assert np.max(np.abs(r - r.T)) <= HERMITIAN_TOL
        assert np.linalg.eigvalsh(r).min() >= PSD_TOL
        np.testing.assert_array_equal(np.diag(r), np.ones(n_h * n_v))


class TestBsCorrelation:
    def test_zero_param_identity(self):
        np.testing.assert_array_equal(build_bs_correlation(3, "exponential", 0.0), np.eye(3))

    def test_definition(self):
        np.testing.assert_allclose(
            build_bs_correlation(2, "exponential", 0.5), [[1.0, 0.5], [0.5, 1.0]]
        )

    def test_strong_correlation_positive_definite(self):
        r = build_bs_correlation(8, "exponential", 0.9)
        assert np.linalg.eigvalsh(r).min() > 0

    def test_uncorrelated_model(self):
        np.testing.assert_array_equal(build_bs_correlation(5, "uncorrelated"), np.eye(5))

    @pytest.mark.parametrize("param", [-0.1, 1.0, 1.5])
    def test_rejects_param_outside_range(self, param):
        with pytest.raises(ValueError):
            build_bs_correlation(4, "exponential", param)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown"):
            build_bs_correlation(4, "one-ring")


class TestPathGain:
    def test_reference_distance(self):
        assert path_gain(1.0, 2.0) == pytest.approx(1.0)

    def test_square_law(self):
        assert path_gain(10.0, 2.0) == pytest.approx(0.01)

    def test_penetration_loss(self):
        # 15 dB loss on top of the square-law decay
        assert path_gain(10.0, 2.0, penetration_db=15.0) == pytest.approx(
            0.01 * 10 ** (-1.5), rel=1e-12
        )
        assert path_gain(10.0, 2.0, penetration_db=15.0) == pytest.approx(3.1623e-4, rel=1e-4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            path_gain(0.0, 2.0)
        with pytest.raises(ValueError):
            path_gain(-1.0, 2.0)
        with pytest.raises(ValueError):
            path_gain(1.0, 2.0, element_area=0.0)


class TestBsDecomposition:
    """R_BS is decomposed once per pair: eigenvalues descending, canonical
    columns, and ``bs_factor`` a slice of the same decomposition."""

    @staticmethod
    def pair(r_bs):
        return CorrelationPair.from_matrices(r_bs, np.eye(2))

    def test_identity(self):
        pair = self.pair(np.eye(4))
        np.testing.assert_allclose(pair.bs_eigvals, np.ones(4))
        np.testing.assert_allclose(np.abs(pair.bs_eigvecs), np.eye(4)[:, ::-1], atol=1e-14)

    def test_diagonal_sorted_descending(self):
        pair = self.pair(np.diag([1.0, 3.0]))
        np.testing.assert_allclose(pair.bs_eigvals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(pair.bs_eigvecs), [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-14)

    @pytest.mark.parametrize("complex_bs", [False, True])
    def test_reconstruction(self, complex_bs, rng):
        if complex_bs:
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            r = a @ a.conj().T
        else:
            r = build_bs_correlation(6, "exponential", 0.7)
        pair = self.pair(r)
        u, vals = pair.bs_eigvecs, pair.bs_eigvals
        assert np.all(np.diff(vals) <= 0)
        np.testing.assert_allclose(u @ np.diag(vals) @ u.conj().T, r, atol=1e-10)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
        # bs_factor: the same columns, up to their canonical signs (phases),
        # times the roots, in ascending order
        factor = u[:, ::-1] * np.sqrt(vals[::-1])
        np.testing.assert_allclose(np.abs(pair.bs_factor), np.abs(factor), rtol=0, atol=1e-14)
        np.testing.assert_allclose(pair.bs_factor, canonical_columns(factor), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("r_bs", [
        np.array([[1.0, 2.0], [0.0, 1.0]]),
        # complex symmetric, not Hermitian
        np.array([[1.0, 0.3j], [0.3j, 1.0]]),
        # a Hermitian off-diagonal pair with a complex diagonal entry
        np.array([[1.0 + 0.1j, 0.3j], [-0.3j, 1.0]]),
    ])
    def test_rejects_non_hermitian(self, r_bs):
        with pytest.raises(ValueError, match="r_bs must be finite and Hermitian"):
            self.pair(r_bs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_rejects_non_finite(self, bad, where):
        r_bs = np.eye(3, dtype=complex)
        r_bs[where] = r_bs[where[::-1]] = bad
        with pytest.raises(ValueError, match="r_bs must be finite and Hermitian"):
            self.pair(r_bs)

    @pytest.mark.parametrize("m", [16, 32, 64, 96, 128])
    def test_factor_is_matrix_sqrt_bit_for_bit(self, m):
        # Monte Carlo draws through bs_factor: it must keep the bits of the
        # factor a separate decomposition of R_BS gives, signs included
        r_bs = build_bs_correlation(m, "exponential", 0.5)
        pair = CorrelationPair.from_grid(r_bs, ArrayGeometry(2, 2, 0.25, 0.25))
        assert pair.bs_factor.shape == (m, m)
        np.testing.assert_array_equal(bits(pair.bs_factor), bits(matrix_sqrt_psd(r_bs)))


class TestCorrelationPair:
    def test_from_matrices_caches_evd(self):
        pair = CorrelationPair.from_matrices(
            build_bs_correlation(5, "exponential", 0.6),
            build_ris_correlation(ArrayGeometry(2, 2, 0.25, 0.25)),
        )
        rebuilt = pair.bs_eigvecs @ np.diag(pair.bs_eigvals) @ pair.bs_eigvecs.conj().T
        np.testing.assert_allclose(rebuilt, pair.r_bs, atol=1e-8)
        assert pair.m == 5 and pair.n == 4

    def test_factor_reproduces_matrix(self, rng):
        r = build_bs_correlation(6, "exponential", 0.8)
        factor = matrix_sqrt_psd(r)
        assert factor.shape == (6, 6)
        np.testing.assert_allclose(factor @ factor.T, r, atol=1e-12)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = a @ a.conj().T
        factor = matrix_sqrt_psd(r)
        np.testing.assert_allclose(factor @ factor.conj().T, r, atol=1e-12)

    def test_sqrt_clamps_roundoff_negatives(self):
        # rank-deficient input with two -1e-14 eigenvalues from roundoff:
        # their columns are dropped, and L L^T is still the input
        r = np.ones((3, 3)) - 1e-14 * np.eye(3)
        factor = matrix_sqrt_psd(r)
        assert factor.shape == (3, 1) and np.all(np.isfinite(factor))
        np.testing.assert_allclose(factor @ factor.T, r, atol=1e-12)

    def test_surface_factor_drops_null_columns(self):
        # a 16 x 16 quarter-wavelength sinc surface is numerically rank deficient
        pair = CorrelationPair.from_grid(np.eye(2), ArrayGeometry(16, 16, 0.25, 0.25))
        factor = pair.ris_factor
        assert factor.shape[0] == 256 and factor.shape[1] < 256
        dense = factor @ np.eye(factor.shape[1])
        np.testing.assert_allclose(dense @ dense.T, pair.r_ris, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CorrelationPair.from_matrices(np.ones((2, 3)), np.eye(2))
        with pytest.raises(ValueError, match="r_ris"):
            CorrelationPair.from_matrices(np.eye(2), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="r_bs"):
            CorrelationPair.from_matrices(np.zeros((0, 0)), np.eye(2))

    def test_rejects_scaled_surface_correlation(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            CorrelationPair.from_matrices(np.eye(3), 2.0 * np.eye(4))

    def test_rejects_complex_surface_correlation(self):
        # Hermitian with unit diagonal, but not real
        r_ris = np.array([[1.0, 0.3j], [-0.3j, 1.0]])
        with pytest.raises(ValueError, match="r_ris"):
            CorrelationPair.from_matrices(np.eye(2), r_ris)

    def test_surface_correlation_stored_real(self):
        for r_ris in (np.eye(3, dtype=complex), np.eye(3, dtype=int)):
            pair = CorrelationPair.from_matrices(np.eye(2), r_ris)
            assert pair.r_ris.dtype == np.float64
            assert pair.ris_factor.dtype == np.float64

    def test_rejects_non_hermitian_surface_correlation(self):
        lopsided = np.eye(3)
        lopsided[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            CorrelationPair.from_matrices(np.eye(2), lopsided)

    # an entry and its mirror near the last row and column, each perturbed
    # on its own
    @pytest.mark.parametrize("where", [(520, 590), (590, 520)])
    @pytest.mark.parametrize("value,accepted", [
        (1e-11, True), (1e-9, False), (np.nan, False), (np.inf, False)])
    def test_tiled_symmetry_check_reaches_last_tile(self, where, value, accepted):
        r_ris = np.eye(600)
        r_ris[where] += value
        if accepted:
            CorrelationPair.from_matrices(np.eye(2), r_ris)
        else:
            with pytest.raises(ValueError, match="r_ris"):
                CorrelationPair.from_matrices(np.eye(2), r_ris)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_surface_diagonal(self, bad):
        r_ris = np.eye(600)
        r_ris[599, 599] = bad
        with pytest.raises(ValueError, match="r_ris"):
            CorrelationPair.from_matrices(np.eye(2), r_ris)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_bs_correlation(self, bad):
        r_bs = np.eye(3)
        r_bs[0, 2] = r_bs[2, 0] = bad
        with pytest.raises(ValueError, match="r_bs"):
            CorrelationPair.from_matrices(r_bs, np.eye(2))


class TestGridKernel:
    # (n_v, n_h) grids
    @pytest.mark.parametrize("grid", [(1, 1), (1, 7), (3, 5), (7, 3), (32, 32), (64, 64)])
    @pytest.mark.parametrize("sp", [0.1, 0.25, 0.5])
    def test_matches_dense_square_product(self, grid, sp, rng):
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=sp, spacing_v=sp)
        kernel = GridKernel(np.square(CorrelationPair.from_grid(np.eye(2), geom).ris_table))
        dense = np.square(build_ris_correlation(geom))
        for shape in ((4, geom.n), (3, 4, geom.n)):
            rows = rng.standard_normal(shape)
            expected = rows @ dense
            got = rows @ kernel
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    # odd, rectangular (both ways) and square grids
    @pytest.mark.parametrize("grid", [(3, 5), (7, 3), (9, 16), (13, 10), (24, 24), (33, 33)])
    def test_batch_rows_equal_their_own_products(self, grid, rng):
        # the lockstep invariant on the FFT path: a start's product does not
        # depend on the batch it is taken in
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.25)
        kernel = GridKernel(np.square(CorrelationPair.from_grid(np.eye(2), geom).ris_table))
        rows = rng.standard_normal((5, 4, geom.n))
        batch = rows @ kernel
        for p in range(len(rows)):
            np.testing.assert_array_equal(batch[p], rows[p] @ kernel)
        # the padded rfft2 product, cropped, to the bit
        pad = (2 * grid[0], 2 * grid[1])
        grids = rows.reshape(5, 4, *grid)
        padded = np.fft.irfft2(np.fft.rfft2(grids, s=pad) * kernel.spectrum, s=pad)
        np.testing.assert_array_equal(
            batch, padded[..., :grid[0], :grid[1]].reshape(5, 4, geom.n))

    def test_zero_block_gives_exact_zero(self):
        geom = ArrayGeometry(24, 24, 0.25, 0.25)
        kernel = GridKernel(np.square(CorrelationPair.from_grid(np.eye(2), geom).ris_table))
        np.testing.assert_array_equal(np.zeros((2, 4, geom.n)) @ kernel, 0.0)

    def test_reports_the_spectrum_it_reads(self):
        kernel = GridKernel(np.ones((64, 64)))
        assert (kernel.size, kernel.dtype) == (kernel.spectrum.size, kernel.spectrum.dtype)
        # the (128, 128) padding's rfft2 spectrum: a few KB where the dense
        # kernel holds N^2 entries
        assert kernel.size == 128 * 65


class TestFromGrid:
    GRIDS = [(1, 1), (1, 7), (3, 5), (7, 3), (10, 10), (24, 24)]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_lazy_surface_equals_dense_build(self, grid):
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.3)
        pair = CorrelationPair.from_grid(np.eye(3), geom)
        assert "r_ris" not in pair.__dict__ and pair.n == geom.n and pair.m == 3
        dense = CorrelationPair.from_matrices(np.eye(3), build_ris_correlation(geom))
        np.testing.assert_array_equal(pair.r_ris, dense.r_ris)
        np.testing.assert_array_equal(pair.r_ris, pair.r_ris.T)

    def test_previous_pair_lends_what_is_unchanged(self):
        r_bs = build_bs_correlation(6, "exponential", 0.5)
        small, large = ArrayGeometry(5, 5, 0.25, 0.25), ArrayGeometry(24, 24, 0.25, 0.25)
        previous = CorrelationPair.from_grid(r_bs, small)
        for name in ("ris_abs2", "ris_factor", "bs_factor"):  # build every cache
            getattr(previous, name)
        # equal inputs: the pair itself, with everything it has cached
        assert CorrelationPair.from_grid(r_bs.copy(), small, previous) is previous
        # a new surface: the BS decomposition is shared, nothing of the old surface
        pair = CorrelationPair.from_grid(r_bs, large, previous)
        assert pair.bs_eigvecs is previous.bs_eigvecs and pair.bs_eigvals is previous.bs_eigvals
        assert not pair.__dict__.keys() & {"ris_abs2", "ris_factor", "r_ris", "bs_factor"}
        np.testing.assert_array_equal(pair.bs_factor, previous.bs_factor)
        fresh = CorrelationPair.from_grid(r_bs, large)
        np.testing.assert_array_equal(pair.ris_table, fresh.ris_table)
        assert isinstance(pair.ris_abs2, GridKernel)
        np.testing.assert_array_equal(pair.ris_abs2.spectrum, fresh.ris_abs2.spectrum)
        # a new R_BS: a pair of its own
        other = CorrelationPair.from_grid(np.eye(6), small, previous)
        assert other.bs_eigvecs is not previous.bs_eigvecs and "bs_factor" not in other.__dict__
        np.testing.assert_array_equal(other.bs_eigvals, np.ones(6))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_kernel_is_dense_below_the_crossover_only(self, grid):
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.25)
        pair = CorrelationPair.from_grid(np.eye(3), geom)
        if geom.n < FFT_MIN_N:
            dense = CorrelationPair.from_matrices(np.eye(3), build_ris_correlation(geom))
            assert isinstance(pair.ris_abs2, np.ndarray)
            np.testing.assert_array_equal(pair.ris_abs2, dense.ris_abs2)
        else:
            assert isinstance(pair.ris_abs2, GridKernel)
            assert "r_ris" not in pair.__dict__

    def test_every_checked_in_surface_is_below_the_crossover(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        for path in configs.glob("*.json"):
            raw = json.loads(path.read_text(encoding="utf-8"))
            sizes = [raw["dims"]["n"]]
            if raw.get("sweep", {}).get("parameter") == "n":
                sizes += raw["sweep"]["values"]
            assert max(sizes) < min(FFT_MIN_N, SPLIT_MIN_N), path.name

    # (n_v, n_h) grids: even, odd, rectangular, rows and columns, and the
    # grids of every checked-in sweep
    FOLDED = [(12, 12), (11, 11), (9, 16), (13, 10), (1, 130), (130, 1),
              (6, 6), (10, 10), (1, 100), (100, 1), (4, 4), (8, 8)]

    @pytest.mark.parametrize("grid", FOLDED + [(32, 32)])
    @pytest.mark.parametrize("sp", [0.1, 0.25, 0.5])
    def test_folded_factor_reproduces_surface(self, grid, sp):
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=sp, spacing_v=sp)
        pair = CorrelationPair.from_grid(np.eye(2), geom)
        factor = pair.ris_factor
        # no N x N matrix was gathered to build it
        assert "r_ris" not in pair.__dict__
        assert factor.dtype == np.float64 and factor.shape[0] == geom.n
        assert factor.shape[1] <= geom.n
        dense = factor @ np.eye(factor.shape[1])
        gap = np.abs(dense @ dense.T - build_ris_correlation(geom))
        assert gap.max() <= 1e-12

    @staticmethod
    def counted_factor(geom, monkeypatch):
        """The grid's folded factor and the shapes of the blocks factored:
        each non-empty block goes through the module's matrix_sqrt_psd, by
        name, so a wrapper of it sees the whole build."""
        calls = []

        def counting(a):
            calls.append(a.shape)
            return matrix_sqrt_psd(a)

        monkeypatch.setattr(correlation, "matrix_sqrt_psd", counting)
        return CorrelationPair.from_grid(np.eye(2), geom).ris_factor, calls

    @pytest.mark.parametrize("grid", FOLDED)
    def test_one_square_root_per_block(self, grid, monkeypatch):
        # a square grid with equal spacings has a transpose-symmetric table,
        # so its -+ block's factor is the +- block's with its (v, h) rows
        # read as (h, v), and it takes one square root fewer
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.25)
        factor, calls = self.counted_factor(geom, monkeypatch)
        halves = (1 + (geom.n_v > 1)) * (1 + (geom.n_h > 1))
        square = geom.n_v == geom.n_h
        assert len(calls) == halves - square
        assert sum(shape[0] for shape in calls) == geom.n - square * (geom.n_v // 2) * (
            geom.n_h - geom.n_h // 2)
        if square:
            (a, b), pm, mp = factor.halves[1], factor.blocks[1], factor.blocks[2]
            np.testing.assert_array_equal(
                mp, pm.reshape(a, b, -1).transpose(1, 0, 2).reshape(a * b, -1))
        dense = factor @ np.eye(factor.shape[1])
        np.testing.assert_allclose(dense @ dense.T, build_ris_correlation(geom), atol=1e-12)

    @pytest.mark.parametrize("grid, sp", [((12, 12), (0.25, 0.5)), ((6, 6), (0.1, 0.25)),
                                          ((32, 32), (0.25, 0.5)), ((24, 32), (0.25, 0.25))])
    def test_unequal_spacings_take_four_square_roots(self, grid, sp, monkeypatch):
        # a square grid whose table is not symmetric, or a rectangular grid,
        # folds all four blocks, and splits none above SPLIT_MIN_N
        geom = ArrayGeometry(grid[1], grid[0], *sp)
        factor, calls = self.counted_factor(geom, monkeypatch)
        assert len(calls) == 4
        dense = factor @ np.eye(factor.shape[1])
        np.testing.assert_allclose(dense @ dense.T, build_ris_correlation(geom), atol=1e-12)

    @staticmethod
    def factor_split(grid, sp, split, monkeypatch):
        """The square grid's folded factor with its ++ and -- blocks split
        by the transpose symmetry, or not, whatever the grid's size."""
        monkeypatch.setattr(correlation, "SPLIT_MIN_N", 0 if split else grid[0] * grid[1] + 1)
        geom = ArrayGeometry(grid[1], grid[0], sp, sp)
        return _folded_factor(CorrelationPair.from_grid(np.eye(2), geom).ris_table)

    # the max |L_split - L| over the blocks reached 2.2e-9 under four OpenBLAS
    # kernels: the eigenvectors of eigenvalues near the rank cut, which no
    # kernel pins to better than about eps lambda_max / gap
    SPLIT_GAP = 1e-8

    @pytest.mark.parametrize("side", [20, 24, 32, 33])
    @pytest.mark.parametrize("sp", [0.1, 0.25, 0.5])
    def test_split_blocks_equal_the_unsplit_ones(self, side, sp, monkeypatch):
        # the same columns in the same order, each block's to roundoff, and
        # L L^T is R_RIS
        whole = self.factor_split((side, side), sp, False, monkeypatch)
        split = self.factor_split((side, side), sp, True, monkeypatch)
        for got, ref in zip(split.blocks, whole.blocks, strict=True):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref), initial=0.0) <= self.SPLIT_GAP
        self.assert_reproduces_surface(split, ArrayGeometry(side, side, sp, sp))

    def test_split_eigh_sizes(self, monkeypatch):
        # at 32 x 32 the +- block (16 x 16 halves) takes one eigh of 256, the
        # ++ and -- blocks one of 136 (i <= j) and one of 120 (i < j) each
        pair = CorrelationPair.from_grid(np.eye(2), ArrayGeometry(32, 32, 0.25, 0.25))
        sizes, eigh = [], np.linalg.eigh

        def counting(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        pair.ris_factor
        assert pair.n >= SPLIT_MIN_N
        assert sorted(sizes) == sorted([256, 136, 120, 136, 120])

    @settings(max_examples=40, deadline=None)
    @given(side=st.integers(1, 12), sp=st.floats(0.05, 1.5, allow_nan=False))
    def test_split_factor_always_reproduces_surface(self, side, sp):
        # the square cases of test_folded_factor_always_reproduces_surface,
        # through the split
        with pytest.MonkeyPatch.context() as monkeypatch:
            factor = self.factor_split((side, side), sp, True, monkeypatch)
        self.assert_reproduces_surface(factor, ArrayGeometry(side, side, sp, sp))

    @pytest.mark.parametrize("grid, rank", [((16, 16), 215), ((32, 32), 567)])
    def test_relative_rank_cut(self, grid, rank):
        # at spacing 0.25 each block keeps its eigenvalues above RANK_RTOL
        # times its largest: 215 of 256 and 567 of 1024 columns
        geom = ArrayGeometry(grid[1], grid[0], 0.25, 0.25)
        assert CorrelationPair.from_grid(np.eye(2), geom).ris_factor.shape[1] == rank

    @settings(max_examples=40, deadline=None)
    @given(
        n_v=st.integers(1, 12),
        n_h=st.integers(1, 12),
        sp=st.floats(0.05, 1.5, allow_nan=False),
    )
    def test_folded_factor_always_reproduces_surface(self, n_v, n_h, sp):
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, spacing_h=sp, spacing_v=sp)
        pair = CorrelationPair.from_grid(np.eye(2), geom)
        self.assert_reproduces_surface(_folded_factor(pair.ris_table), geom)

    @staticmethod
    def assert_reproduces_surface(factor, geom):
        assert factor.shape[0] == geom.n and factor.shape[1] <= geom.n
        dense = factor @ np.eye(factor.shape[1])
        gap = np.abs(dense @ dense.T - build_ris_correlation(geom))
        assert gap.max() <= 1e-12

    @staticmethod
    def assert_products_match_dense(factor, rng):
        # the dense factor through the unfold (L @, whose L L^T the tests
        # above check) and through the fold (L.T @) agree, and each product
        # matches it on a block of several columns
        n, r = factor.shape
        assert factor.T.shape == (r, n) and factor.T.dtype == np.float64
        dense = factor @ np.eye(r)
        assert np.max(np.abs((factor.T @ np.eye(n)).T - dense)) <= 1e-12
        x, y = rng.standard_normal((r, 9)), rng.standard_normal((n, 9))
        assert np.max(np.abs(factor @ x - dense @ x)) <= 1e-12
        assert np.max(np.abs(factor.T @ y - dense.T @ y)) <= 1e-12

    @pytest.mark.parametrize("grid", FOLDED)
    def test_products_match_dense_factor(self, grid, rng):
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.25)
        factor = CorrelationPair.from_grid(np.eye(2), geom).ris_factor
        assert isinstance(factor, FoldedFactor)
        self.assert_products_match_dense(factor, rng)

    @settings(max_examples=40, deadline=None)
    @given(
        n_v=st.integers(1, 12),
        n_h=st.integers(1, 12),
        sp=st.floats(0.05, 1.5, allow_nan=False),
    )
    def test_products_always_match_dense_factor(self, n_v, n_h, sp):
        geom = ArrayGeometry(n_h=n_h, n_v=n_v, spacing_h=sp, spacing_v=sp)
        factor = _folded_factor(CorrelationPair.from_grid(np.eye(2), geom).ris_table)
        self.assert_products_match_dense(factor, np.random.default_rng(n_v * 13 + n_h))

    def test_folded_factor_keeps_only_its_blocks(self):
        # the four blocks hold about N r / 4 floats; an N x r array would
        # hold N r
        geom = ArrayGeometry(32, 32, 0.25, 0.25)
        pair = CorrelationPair.from_grid(np.eye(2), geom)
        tracemalloc.start()
        try:
            factor = pair.ris_factor
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, r = factor.shape
        assert kept < n * r / 2 * 8

    def test_rejects_non_finite_table(self):
        # the squared distances overflow, and sinc(inf) is NaN
        geom = ArrayGeometry(2, 1, 1e200, 1e200)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="offset table"):
            CorrelationPair.from_grid(np.eye(2), geom)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_bs_correlation(self, bad):
        r_bs = np.eye(3)
        r_bs[0, 2] = r_bs[2, 0] = bad
        with pytest.raises(ValueError, match="r_bs"):
            CorrelationPair.from_grid(r_bs, ArrayGeometry(2, 2, 0.25, 0.25))


class TestCanonicalFactors:
    """``eigh`` returns each eigenvector up to a sign (a phase when complex),
    and which one depends on the BLAS kernel.  Every factor that Monte Carlo
    draws through must not."""

    @staticmethod
    def factors():
        # the BS factor, explicit real and complex matrices, every block of
        # four grid folds (even, odd, rectangular, a row) and a stack of
        # Grams with a zero user column, a zero trial and r < K
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        v = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
        v[:, :, 1] = 0.0
        v[2] = 0.0
        out = [matrix_sqrt_psd(build_bs_correlation(64, "exponential", 0.5)),
               matrix_sqrt_psd(build_ris_correlation(ArrayGeometry(5, 4, 0.25, 0.25))),
               matrix_sqrt_psd(a @ a.conj().T),
               _gram_factor(np.swapaxes(v.conj(), -1, -2) @ v)]
        for grid in [(12, 12), (11, 11), (9, 16), (1, 130)]:
            geom = ArrayGeometry(grid[1], grid[0], 0.25, 0.25)
            out += CorrelationPair.from_grid(np.eye(2), geom).ris_factor.blocks
        return out

    @staticmethod
    def perturb_eigh(monkeypatch, units):
        """Make ``np.linalg.eigh``, as every module sees it, multiply each
        eigenvector by a random entry of ``units`` (real input: by +-1), the
        first by one that is not 1."""
        eigh, rng = np.linalg.eigh, np.random.default_rng(5)

        def perturbed(a):
            eigvals, eigvecs = eigh(a)
            pick = units if np.iscomplexobj(eigvecs) else np.array([1.0, -1.0])
            unit = pick[rng.integers(0, pick.size, eigvals.shape)]
            unit[..., 0] = pick[1]
            return eigvals, eigvecs * unit[..., None, :]

        monkeypatch.setattr(np.linalg, "eigh", perturbed)

    def test_signs_and_quarter_turns_leave_every_bit(self, monkeypatch):
        reference = self.factors()
        self.perturb_eigh(monkeypatch, np.array([1.0, 1j, -1.0, -1j]))
        for ref, got in zip(reference, self.factors(), strict=True):
            np.testing.assert_array_equal(got, ref)

    def test_other_phases_move_only_roundoff(self, monkeypatch):
        reference = self.factors()
        self.perturb_eigh(monkeypatch, np.exp(1j * np.linspace(0.1, 6.0, 7)))
        for ref, got in zip(reference, self.factors(), strict=True):
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * np.max(np.abs(ref), initial=1.0)

    # the two tests above with the ++ and -- blocks of the square grids split
    # by the transpose symmetry, their eigenvectors scattered before the signs
    # are fixed
    def test_split_signs_and_quarter_turns_leave_every_bit(self, monkeypatch):
        monkeypatch.setattr(correlation, "SPLIT_MIN_N", 0)
        self.test_signs_and_quarter_turns_leave_every_bit(monkeypatch)

    def test_split_other_phases_move_only_roundoff(self, monkeypatch):
        monkeypatch.setattr(correlation, "SPLIT_MIN_N", 0)
        self.test_other_phases_move_only_roundoff(monkeypatch)

    def test_second_probe_decides_a_column_orthogonal_to_the_first(self, rng):
        probes = np.random.default_rng(correlation.PROBE_SEED).standard_normal((2, 7))
        u = rng.standard_normal(7)
        u -= (u @ probes[0]) / (probes[0] @ probes[0]) * probes[0]
        u /= np.linalg.norm(u)
        col = canonical_columns(u[:, None])
        np.testing.assert_array_equal(canonical_columns(-u[:, None]), col)
        assert probes[1] @ col[:, 0] > 0.0

    def test_first_probe_decides_every_drawn_factor(self, monkeypatch):
        # every column of the factors that the checked-in Monte Carlo config
        # (N = 16 to 100) and the benchmark (N = 64 to 1024) draw through is
        # decided by the first probe, far above its margin
        ratios = []

        def recording(vecs):
            probe = np.random.default_rng(correlation.PROBE_SEED).standard_normal(vecs.shape[0])
            ratios.append(np.min(np.abs(probe @ vecs)) / np.linalg.norm(probe))
            return canonical_columns(vecs)

        monkeypatch.setattr(correlation, "canonical_columns", recording)
        matrix_sqrt_psd(build_bs_correlation(64, "exponential", 0.5))
        for side in (4, 6, 8, 10, 16, 32):
            CorrelationPair.from_grid(np.eye(2), ArrayGeometry(side, side, 0.25, 0.25)).ris_factor
        # 19 factors; the smallest ratio is 2.5e-5
        assert len(ratios) == 1 + 6 * 3
        assert min(ratios) > 1e3 * correlation.SIGN_MARGIN


class TestLinkGains:
    def test_beta_hat_is_exact_product(self):
        gains = LinkGains(beta_g=0.5, beta_bar=[1.0, 2.0], beta_tilde=[0.3, 0.7])
        np.testing.assert_array_equal(gains.beta_hat, [0.5 * 0.3, 0.5 * 0.7])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LinkGains(beta_g=-0.1, beta_bar=[1.0], beta_tilde=[1.0])
        with pytest.raises(ValueError):
            LinkGains(beta_g=0.1, beta_bar=[-1.0], beta_tilde=[1.0])

    @pytest.mark.parametrize("gains", [
        {"beta_g": np.nan},
        {"beta_bar": [1.0, np.nan]},
        {"beta_tilde": [np.inf, 1.0]},
    ], ids=["nan-beta_g", "nan-beta_bar", "inf-beta_tilde"])
    def test_rejects_non_finite(self, gains):
        with pytest.raises(ValueError, match="path gains must be finite and non-negative"):
            LinkGains(**{"beta_g": 0.1, "beta_bar": [1.0, 1.0], "beta_tilde": [1.0, 1.0],
                         **gains})

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LinkGains(beta_g=0.1, beta_bar=[1.0, 2.0], beta_tilde=[1.0])
        for beta_bar in (np.ones((3, 2)), np.ones((3, 1, 1))):
            with pytest.raises(ValueError, match="one entry per user"):
                LinkGains(beta_g=0.1, beta_bar=beta_bar, beta_tilde=[1.0])

    def test_beta_bar_rows(self):
        # one (K,) row per start of an optimizer batch; K comes from beta_tilde
        gains = LinkGains(beta_g=0.1, beta_bar=np.ones((3, 2)), beta_tilde=[1.0, 2.0])
        assert gains.k == 2 and gains.beta_bar.shape == (3, 2)
