import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starmimo.correlation import (
    ArrayGeometry,
    CorrelationPair,
    LinkGains,
    build_bs_correlation,
    build_ris_correlation,
    eigendecompose_bs,
    matrix_sqrt_psd,
    path_gain,
)

HERMITIAN_TOL = 1e-12
PSD_TOL = -1e-10


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
