import numpy as np
import pytest

from conftest import random_system
from starmimo.channel import StarConfig, SystemDims, SystemModel
from starmimo.correlation import CorrelationPair, LinkGains
from starmimo.montecarlo import mc_covariance_check, mc_sinr
from starmimo.rate import sum_se


def direct_only_system(m=32, k=3, noise_to_power=500.0):
    """Gaussian channels, no surface path; the closed form is near-exact in
    the noise-dominated regime."""
    corr = CorrelationPair.from_matrices(np.eye(m), np.eye(4))
    dims = SystemDims(m=m, n=4, k_t=1, k_r=k - 1, tau_c=200, tau=max(k, 4))
    rho = 1.0
    return SystemModel(
        dims=dims, corr=corr,
        gains=LinkGains(beta_g=0.0, beta_bar=np.ones(k), beta_tilde=np.zeros(k)),
        modes=tuple(["t"] + ["r"] * (k - 1)),
        rho=rho, pilot_power=100.0, sigma2=noise_to_power * rho,
    )


class TestMcSinr:
    def test_direct_only_matches_closed_form(self, rng):
        # noise-dominated Gaussian case: analytic and sampled SINRs agree
        # within three standard errors
        system = direct_only_system()
        config = StarConfig.equal_split(4, rng)
        report = sum_se(config, system)
        estimate = mc_sinr(system, config, 2000, seed=42)
        gap = np.abs(estimate.gamma_hat - report.gamma)
        assert np.all(gap <= 3.0 * estimate.std_err)

    def test_no_hardening_negative_control(self, rng):
        # M = 2 lacks channel hardening; the estimate must stay finite and
        # positive but the closed form is not asserted tight here
        system = direct_only_system(m=2, k=2, noise_to_power=1.0)
        config = StarConfig.equal_split(4, rng)
        estimate = mc_sinr(system, config, 1000, seed=3)
        assert np.all(np.isfinite(estimate.gamma_hat))
        assert np.all(estimate.gamma_hat > 0)
        report = sum_se(config, system)
        gap = np.abs(estimate.gamma_hat - report.gamma) / report.gamma
        # report the gap without asserting tightness
        print(f"M=2 negative control relative gap: {gap}")

    def test_trial_doubling_consistency(self, rng):
        system = random_system(rng, m=8, n=4, k_t=1, k_r=1, complex_bs=False)
        config = StarConfig.random(4, rng)
        small = mc_sinr(system, config, 1500, seed=11)
        large = mc_sinr(system, config, 3000, seed=12)
        combined = np.sqrt(small.std_err**2 + large.std_err**2)
        assert np.all(np.abs(small.gamma_hat - large.gamma_hat) <= 4.0 * combined)

    def test_seed_reproducibility(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        config = StarConfig.random(4, rng)
        first = mc_sinr(system, config, 300, seed=5)
        second = mc_sinr(system, config, 300, seed=5)
        np.testing.assert_array_equal(first.gamma_hat, second.gamma_hat)
        np.testing.assert_array_equal(first.std_err, second.std_err)
        assert first.sum_se_hat == second.sum_se_hat

    def test_independent_of_batching(self, rng):
        # per-trial streams: the batch split changes only the standard errors
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        config = StarConfig.random(4, rng)
        twenty = mc_sinr(system, config, 140, seed=9, n_batches=20)
        seven = mc_sinr(system, config, 140, seed=9, n_batches=7)
        np.testing.assert_allclose(twenty.gamma_hat, seven.gamma_hat, rtol=1e-12)

    def test_moments_positive(self, rng):
        system = random_system(rng, m=6, n=5, k_t=2, k_r=1)
        config = StarConfig.random(5, rng)
        estimate = mc_sinr(system, config, 400, seed=1)
        assert np.all(estimate.gamma_hat >= 0)
        assert np.all(np.isfinite(estimate.std_err))
        assert estimate.n_trials == 400

    def test_rejects_too_few_trials(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        with pytest.raises(ValueError):
            mc_sinr(system, StarConfig.equal_split(4, rng), 1, seed=0)


class TestCovarianceCheck:
    def test_small_instance(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1, complex_bs=False)
        config = StarConfig.random(4, rng)
        assert mc_covariance_check(system, config, 50_000, seed=2) <= 0.05

    def test_zero_gain_exact(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        gains = LinkGains(beta_g=0.0, beta_bar=np.zeros(2), beta_tilde=np.zeros(2))
        system = SystemModel(
            dims=system.dims, corr=system.corr, gains=gains, modes=system.modes,
            rho=system.rho, pilot_power=system.pilot_power, sigma2=system.sigma2,
        )
        assert mc_covariance_check(system, StarConfig.equal_split(4, rng), 100,
                                   seed=0) == 0.0

    def test_same_tolerance_with_and_without_ris_correlation(self, rng):
        base = random_system(rng, m=4, n=4, k_t=1, k_r=1, complex_bs=False)
        config = StarConfig.random(4, rng)
        correlated = mc_covariance_check(base, config, 30_000, seed=8)
        white = SystemModel(
            dims=base.dims,
            corr=CorrelationPair.from_matrices(base.corr.r_bs, np.eye(4)),
            gains=base.gains, modes=base.modes, rho=base.rho,
            pilot_power=base.pilot_power, sigma2=base.sigma2,
        )
        uncorrelated = mc_covariance_check(white, config, 30_000, seed=8)
        assert correlated <= 0.06
        assert uncorrelated <= 0.06
