import numpy as np
import pytest

from conftest import random_system
from starmimo.channel import covariance_scalars, sample_realization, StarConfig
from starmimo.correlation import CorrelationPair, build_bs_correlation
from starmimo.estimation import (
    PilotSpec,
    apply_wiener_filter,
    error_covariance_trace,
    estimate_realization,
    lmmse_stats,
)


class TestPilotSpec:
    def test_effective_noise(self):
        assert PilotSpec(tau=4, p=0.5, sigma2=0.2).epsilon == pytest.approx(0.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PilotSpec(tau=0, p=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            PilotSpec(tau=4, p=0.0, sigma2=1.0)


class TestLmmseStats:
    def test_unit_case(self):
        # alpha = 1, R_BS = I, eps = 1: each estimate eigenvalue is
        # 1^2 / (1 + 1) = 0.5
        pilot = PilotSpec(tau=1, p=1.0, sigma2=1.0)
        stats = lmmse_stats(1.0, np.ones(4), pilot)
        np.testing.assert_allclose(stats.eigvals_psi, 0.5 * np.ones(4))
        assert stats.trace_psi == pytest.approx(2.0)

    def test_noiseless_limit_recovers_channel_covariance(self):
        sigma = np.array([3.0, 1.0, 0.5])
        pilot = PilotSpec(tau=10, p=1e9, sigma2=1.0)
        stats = lmmse_stats(0.7, sigma, pilot)
        np.testing.assert_allclose(stats.eigvals_psi, 0.7 * sigma, rtol=1e-9)

    def test_zero_alpha(self):
        pilot = PilotSpec(tau=4, p=1.0, sigma2=0.5)
        stats = lmmse_stats(0.0, np.array([2.0, 1.0]), pilot)
        np.testing.assert_array_equal(stats.eigvals_psi, np.zeros(2))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            lmmse_stats(-0.1, np.ones(2), PilotSpec(tau=1, p=1.0, sigma2=1.0))

    def test_estimate_below_channel_covariance(self, rng):
        sigma = rng.uniform(0.1, 3.0, 8)
        stats = lmmse_stats(0.9, sigma, PilotSpec(tau=4, p=1.0, sigma2=0.3))
        assert np.all(stats.eigvals_psi >= 0)
        assert np.all(stats.eigvals_psi <= 0.9 * sigma + 1e-15)

    def test_monotone_in_pilot_quality(self):
        # smaller effective noise => larger estimate eigenvalues, elementwise
        sigma = np.array([2.0, 1.0, 0.25])
        previous = None
        for eps in (2.0, 1.0, 0.5, 0.1, 0.01):
            stats = lmmse_stats(1.3, sigma, PilotSpec(tau=1, p=1.0 / eps, sigma2=1.0))
            if previous is not None:
                assert np.all(stats.eigvals_psi >= previous)
            previous = stats.eigvals_psi

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_matches_dense_inverse(self, m, rng):
        # eigenbasis path against the naive (R + eps I)^{-1} route
        r_bs = build_bs_correlation(m, "exponential", 0.7)
        pair = CorrelationPair.from_matrices(r_bs, np.eye(2))
        alpha = rng.uniform(0.2, 2.0)
        eps = rng.uniform(0.05, 1.0)
        pilot = PilotSpec(tau=1, p=1.0 / eps, sigma2=1.0)
        stats = lmmse_stats(alpha, pair.bs_eigvals, pilot)

        r_k = alpha * r_bs
        q_k = np.linalg.inv(r_k + eps * np.eye(m))
        psi_dense = r_k @ q_k @ r_k
        u = pair.bs_eigvecs
        psi_fast = u @ np.diag(stats.eigvals_psi) @ u.conj().T
        assert np.linalg.norm(psi_fast - psi_dense) / np.linalg.norm(psi_dense) < 1e-10


class TestErrorCovariance:
    def test_unit_case(self):
        pilot = PilotSpec(tau=1, p=1.0, sigma2=1.0)
        stats = lmmse_stats(1.0, np.ones(4), pilot)
        # per eigenvalue: 1 - 0.5 = 0.5, four of them
        assert error_covariance_trace(1.0, np.ones(4), stats) == pytest.approx(2.0)

    def test_vanishes_without_noise(self):
        sigma = np.array([1.0, 2.0])
        pilot = PilotSpec(tau=10, p=1e12, sigma2=1.0)
        stats = lmmse_stats(1.0, sigma, pilot)
        assert error_covariance_trace(1.0, sigma, stats) == pytest.approx(0.0, abs=1e-9)

    def test_zero_alpha(self):
        pilot = PilotSpec(tau=1, p=1.0, sigma2=1.0)
        stats = lmmse_stats(0.0, np.ones(3), pilot)
        assert error_covariance_trace(0.0, np.ones(3), stats) == 0.0

    def test_never_negative(self, rng):
        sigma = rng.uniform(0.01, 5.0, 12)
        for _ in range(20):
            alpha = rng.uniform(0.0, 3.0)
            eps = rng.uniform(0.01, 2.0)
            stats = lmmse_stats(alpha, sigma, PilotSpec(tau=1, p=1.0 / eps, sigma2=1.0))
            assert error_covariance_trace(alpha, sigma, stats) >= -1e-12


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
        real = sample_realization(system, config, rng)
        pilot = PilotSpec(tau=4, p=1e12, sigma2=1e-3)
        h_hat, r = estimate_realization(real.h[0], pilot, alphas[0], system.corr, rng)
        assert np.linalg.norm(h_hat - real.h[0]) / np.linalg.norm(real.h[0]) < 1e-4

    def test_estimator_second_order_statistics(self, rng):
        # empirical covariance of the estimate vs Psi, and estimate/error
        # cross-covariance near zero, 50k draws at M = 4
        system = random_system(rng, m=4, n=4, k_t=1, k_r=0, complex_bs=False)
        config = StarConfig.random(4, rng)
        alpha = covariance_scalars(system, config)[0]
        eps = system.epsilon
        pilot = PilotSpec(tau=system.dims.tau, p=system.pilot_power, sigma2=system.sigma2)

        n_draws = 50_000
        cov_hat = np.zeros((4, 4), dtype=complex)
        cross = np.zeros((4, 4), dtype=complex)
        cross_sq = np.zeros((4, 4))
        for _ in range(n_draws):
            real = sample_realization(system, config, rng)
            h = real.h[0]
            h_hat, _ = estimate_realization(h, pilot, alpha, system.corr, rng)
            err = h - h_hat
            cov_hat += h_hat[:, None] * h_hat.conj()[None, :]
            outer = err[:, None] * h_hat.conj()[None, :]
            cross += outer
            cross_sq += np.abs(outer) ** 2
        cov_hat /= n_draws
        cross /= n_draws
        cross_sq /= n_draws

        u = system.corr.bs_eigvecs
        sigma = system.corr.bs_eigvals
        psi = u @ np.diag((alpha * sigma) ** 2 / (alpha * sigma + eps)) @ u.conj().T
        assert np.linalg.norm(cov_hat - psi) / np.linalg.norm(psi) < 0.05

        # orthogonality: each cross-covariance entry within 3 standard errors
        std_err = np.sqrt(np.maximum(cross_sq - np.abs(cross) ** 2, 0.0) / n_draws)
        assert np.all(np.abs(cross) <= 3.5 * std_err + 1e-12)
