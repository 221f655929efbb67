import numpy as np
import pytest

from conftest import one_user_system, random_system
from starmimo.channel import (SystemDims, StarConfig, complex_normal, covariance_scalars,
                              sample_realization)
from starmimo.correlation import LinkGains, build_bs_correlation
from starmimo.estimation import apply_wiener_filter
from starmimo.rate import ClosedForm, assemble_report


def spectrum(alpha, system):
    """The one user's estimate-covariance eigenvalues at covariance scalar ``alpha``."""
    psi, _, _ = ClosedForm(system).spectrum(np.array([alpha]))
    return psi[0]


class TestPilotNoise:
    def test_effective_noise(self):
        system = one_user_system(np.eye(2), tau=4, pilot_power=0.5, sigma2=0.2)
        assert system.epsilon == pytest.approx(0.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            SystemDims(m=2, n=1, k_t=1, k_r=0, tau_c=10, tau=0)
        with pytest.raises(ValueError, match="powers must be positive"):
            one_user_system(np.eye(2), tau=4, pilot_power=0.0)


class TestLmmseStats:
    def test_unit_case(self):
        # alpha = 1, R_BS = I, eps = 1: each estimate eigenvalue is
        # 1^2 / (1 + 1) = 0.5
        psi = spectrum(1.0, one_user_system(np.eye(4)))
        np.testing.assert_allclose(psi, 0.5 * np.ones(4))
        assert psi.sum() == pytest.approx(2.0)

    def test_noiseless_limit_recovers_channel_covariance(self):
        system = one_user_system(np.diag([3.0, 1.0, 0.5]), tau=10, pilot_power=1e9)
        np.testing.assert_allclose(spectrum(0.7, system), 0.7 * system.corr.bs_eigvals,
                                   rtol=1e-9)

    def test_zero_alpha(self):
        system = one_user_system(np.diag([2.0, 1.0]), tau=4, sigma2=0.5)
        np.testing.assert_array_equal(spectrum(0.0, system), np.zeros(2))

    def test_rejects_negative_alpha(self):
        # alpha = beta_bar + beta_hat * T with T >= 0, so a negative alpha
        # needs a negative gain, which the gains reject
        with pytest.raises(ValueError):
            LinkGains(beta_g=1.0, beta_bar=[-0.1], beta_tilde=[0.0])

    def test_estimate_below_channel_covariance(self, rng):
        system = one_user_system(np.diag(rng.uniform(0.1, 3.0, 8)), tau=4, sigma2=0.3)
        psi = spectrum(0.9, system)
        assert np.all(psi >= 0)
        assert np.all(psi <= 0.9 * system.corr.bs_eigvals + 1e-15)

    def test_monotone_in_pilot_quality(self):
        # smaller effective noise => larger estimate eigenvalues, elementwise
        r_bs = np.diag([2.0, 1.0, 0.25])
        previous = None
        for eps in (2.0, 1.0, 0.5, 0.1, 0.01):
            psi = spectrum(1.3, one_user_system(r_bs, pilot_power=1.0 / eps))
            if previous is not None:
                assert np.all(psi >= previous)
            previous = psi

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_matches_dense_inverse(self, m, rng):
        # eigenbasis path against the naive (R + eps I)^{-1} route
        r_bs = build_bs_correlation(m, "exponential", 0.7)
        alpha = rng.uniform(0.2, 2.0)
        eps = rng.uniform(0.05, 1.0)
        system = one_user_system(r_bs, pilot_power=1.0 / eps)
        psi = spectrum(alpha, system)

        r_k = alpha * r_bs
        q_k = np.linalg.inv(r_k + eps * np.eye(m))
        psi_dense = r_k @ q_k @ r_k
        u = system.corr.bs_eigvecs
        psi_fast = u @ np.diag(psi) @ u.conj().T
        assert np.linalg.norm(psi_fast - psi_dense) / np.linalg.norm(psi_dense) < 1e-10

    def test_leading_axes(self, rng):
        # a (P, K) batch of scalars gives each row's own spectra and report
        system = random_system(rng, m=5, n=4, k_t=2, k_r=1)
        alphas = rng.uniform(0.0, 2.0, (3, 3))
        closed = ClosedForm(system)

        def spectra(alphas):
            psi, sums, i_tilde = closed.spectrum(alphas)
            return psi, sums, assemble_report(sums[0] ** 2, i_tilde, closed.prelog)[1]

        psi, sums, sum_se = spectra(alphas)
        assert psi.shape == (3, 3, 5)
        assert sums.shape == (6, 3, 3)
        for p in range(3):
            row_psi, row_sums, row_sum_se = spectra(alphas[p])
            np.testing.assert_array_equal(psi[p], row_psi)
            np.testing.assert_array_equal(sums[:, p], row_sums)
            assert sum_se[p] == row_sum_se


class TestErrorCovariance:
    """The error covariance has eigenvalues alpha s_i - psi_i."""

    def test_unit_case(self):
        # per eigenvalue: 1 - 0.5 = 0.5, four of them
        system = one_user_system(np.eye(4))
        err = np.sum(1.0 * system.corr.bs_eigvals - spectrum(1.0, system))
        assert err == pytest.approx(2.0)

    def test_vanishes_without_noise(self):
        system = one_user_system(np.diag([1.0, 2.0]), tau=10, pilot_power=1e12)
        err = np.sum(1.0 * system.corr.bs_eigvals - spectrum(1.0, system))
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_zero_alpha(self):
        system = one_user_system(np.eye(3))
        assert np.sum(0.0 * system.corr.bs_eigvals - spectrum(0.0, system)) == 0.0

    def test_never_negative(self, rng):
        r_bs = np.diag(rng.uniform(0.01, 5.0, 12))
        for _ in range(20):
            alpha = rng.uniform(0.0, 3.0)
            eps = rng.uniform(0.01, 2.0)
            system = one_user_system(r_bs, pilot_power=1.0 / eps)
            assert np.sum(alpha * system.corr.bs_eigvals - spectrum(alpha, system)) >= -1e-12


class TestWienerFilter:
    def test_batch_with_per_row_alpha_equals_row_calls(self, rng):
        system = random_system(rng, m=6, n=4, k_t=2, k_r=2)
        r = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        alphas = np.array([0.3, 1.7, 0.0, 4.2])
        eps = system.epsilon
        batch = apply_wiener_filter(r, alphas, system.corr, eps)
        rows = np.array([apply_wiener_filter(r[i], alphas[i], system.corr, eps)
                         for i in range(4)])
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(batch[2], np.zeros(6))

    def test_batch_with_shared_alpha_equals_row_calls(self, rng):
        system = random_system(rng, m=5, n=4)
        r = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        batch = apply_wiener_filter(r, 0.8, system.corr, system.epsilon)
        rows = np.array([apply_wiener_filter(row, 0.8, system.corr, system.epsilon)
                         for row in r])
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-14)


class TestEstimateRealization:
    def test_noiseless_limit(self, rng):
        system = random_system(rng, m=6, n=4, k_t=1, k_r=1, complex_bs=False)
        config = StarConfig.random(4, rng)
        alphas = covariance_scalars(system, config)
        real = sample_realization(system, config, [rng])
        eps = 1e-3 / (4 * 1e12)
        h = real.h[0, 0]
        r = h + np.sqrt(eps) * complex_normal([rng], h.shape)[0][0]
        h_hat = apply_wiener_filter(r, alphas[0], system.corr, eps)
        assert np.linalg.norm(h_hat - h) / np.linalg.norm(h) < 1e-4
