import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starmimo.correlation import (
    FFT_MIN_N,
    SYMMETRY_TILE,
    ArrayGeometry,
    CorrelationPair,
    GridKernel,
    LinkGains,
    build_bs_correlation,
    build_ris_correlation,
    eigendecompose_bs,
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


class TestEigendecomposition:
    def test_identity(self):
        u, vals = eigendecompose_bs(np.eye(4))
        np.testing.assert_allclose(vals, np.ones(4))

    def test_diagonal_sorted_descending(self):
        u, vals = eigendecompose_bs(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)

    def test_reconstruction(self):
        r = build_bs_correlation(4, "exponential", 0.7)
        u, vals = eigendecompose_bs(r)
        np.testing.assert_allclose(u @ np.diag(vals) @ u.conj().T, r, atol=1e-10)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-8)
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigendecompose_bs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_complex_hermitian(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = a @ a.conj().T
        u, vals = eigendecompose_bs(r)
        np.testing.assert_allclose(u @ np.diag(vals) @ u.conj().T, r, atol=1e-8)


class TestCorrelationPair:
    def test_from_matrices_caches_evd(self):
        pair = CorrelationPair.from_matrices(
            build_bs_correlation(5, "exponential", 0.6),
            build_ris_correlation(ArrayGeometry(2, 2, 0.25, 0.25)),
        )
        rebuilt = pair.bs_eigvecs @ np.diag(pair.bs_eigvals) @ pair.bs_eigvecs.conj().T
        np.testing.assert_allclose(rebuilt, pair.r_bs, atol=1e-8)
        assert pair.m == 5 and pair.n == 4

    def test_sqrt_matches_square(self):
        r = build_bs_correlation(6, "exponential", 0.8)
        half = matrix_sqrt_psd(r)
        np.testing.assert_allclose(half @ half, r, atol=1e-12)

    def test_sqrt_clamps_roundoff_negatives(self):
        # rank-deficient input with a -1e-14 eigenvalue from roundoff
        r = np.ones((3, 3))
        half = matrix_sqrt_psd(r - 1e-14 * np.eye(3))
        assert np.all(np.isfinite(half))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CorrelationPair.from_matrices(np.ones((2, 3)), np.eye(2))

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
            assert pair.ris_sqrt.dtype == np.float64

    def test_rejects_non_hermitian_surface_correlation(self):
        lopsided = np.eye(3)
        lopsided[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            CorrelationPair.from_matrices(np.eye(2), lopsided)

    # 600 is not a multiple of the tile, so the last tile row and column are
    # ragged; (520, 590) and (590, 520) lie in the last off-diagonal tile pair
    @pytest.mark.parametrize("where", [(520, 590), (590, 520)])
    @pytest.mark.parametrize("value,accepted", [
        (1e-11, True), (1e-9, False), (np.nan, False), (np.inf, False)])
    def test_tiled_symmetry_check_reaches_last_tile(self, where, value, accepted):
        n = 600
        assert n % SYMMETRY_TILE != 0
        r_ris = np.eye(n)
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
        for shape in ((geom.n, 4), (3, geom.n, 4)):
            block = rng.standard_normal(shape)
            expected = dense @ block
            got = kernel @ block
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_zero_block_gives_exact_zero(self):
        geom = ArrayGeometry(24, 24, 0.25, 0.25)
        kernel = GridKernel(np.square(CorrelationPair.from_grid(np.eye(2), geom).ris_table))
        np.testing.assert_array_equal(kernel @ np.zeros((2, geom.n, 4)), 0.0)

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
            assert max(sizes) < FFT_MIN_N, path.name

    @pytest.mark.parametrize("grid", [(6, 6), (10, 10)])
    def test_square_root_unchanged(self, grid):
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.25)
        pair = CorrelationPair.from_grid(np.eye(2), geom)
        dense = CorrelationPair.from_matrices(np.eye(2), build_ris_correlation(geom))
        np.testing.assert_array_equal(pair.ris_sqrt, dense.ris_sqrt)

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


class TestLinkGains:
    def test_beta_hat_is_exact_product(self):
        gains = LinkGains(beta_g=0.5, beta_bar=[1.0, 2.0], beta_tilde=[0.3, 0.7])
        np.testing.assert_array_equal(gains.beta_hat, [0.5 * 0.3, 0.5 * 0.7])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LinkGains(beta_g=-0.1, beta_bar=[1.0], beta_tilde=[1.0])
        with pytest.raises(ValueError):
            LinkGains(beta_g=0.1, beta_bar=[-1.0], beta_tilde=[1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LinkGains(beta_g=0.1, beta_bar=[1.0, 2.0], beta_tilde=[1.0])
