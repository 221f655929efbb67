from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import random_system
from starmimo import montecarlo
from starmimo.channel import (ChannelRealization, StarConfig, SystemModel, _gram_factor,
                              covariance_scalars)
from starmimo.cli import ScenarioConfig, build_system
from starmimo.correlation import CorrelationPair, LinkGains
from starmimo.estimation import apply_wiener_filter
from starmimo.montecarlo import mc_sinr
from starmimo.rate import sinr_from_terms, sum_se

MC_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "mc_validation.json"


def direct_only_system(m=32, k=3, noise_to_power=500.0):
    """Gaussian channels, no surface path; the closed form is near-exact in
    the noise-dominated regime."""
    corr = CorrelationPair.from_matrices(np.eye(m), np.eye(4))
    rho = 1.0
    return SystemModel(
        corr=corr,
        gains=LinkGains(beta_g=0.0, beta_bar=np.ones(k), beta_tilde=np.zeros(k)),
        k_t=1, tau_c=200, tau=max(k, 4),
        rho=rho, pilot_power=100.0, sigma2=noise_to_power * rho,
    )


def per_trial_cn(rng, shape):
    """CN(0, 1) entries by a complex divide by sqrt(2)."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2.0)
    return out


def per_trial_realization(system, config, rng):
    """One trial at a time: c, c_bar, Z from ``rng``, both surface-factor
    products on the (r or N, 2K) real view of this trial alone, and the Gram
    factor of this trial's K x K Gram on its own."""
    k = system.dims.k
    bs_factor, ris_factor = system.corr.bs_factor, system.corr.ris_factor
    r, r_bs = ris_factor.shape[1], bs_factor.shape[1]
    c = per_trial_cn(rng, (k, r))
    c_bar = per_trial_cn(rng, (k, r_bs))
    z = per_trial_cn(rng, (r_bs, k))
    q_cols = (ris_factor @ np.ascontiguousarray(c.T).view(float)).view(complex)
    q_cols *= np.sqrt(system.gains.beta_tilde)
    phi_cols = np.where(system.region_mask[:, 0] > 0,
                        config.phi("t")[:, None], config.phi("r")[:, None])
    v = (ris_factor.T @ (phi_cols * q_cols).view(float)).view(complex)
    gram = v.conj().T @ v
    factor = _gram_factor(gram)
    d = np.sqrt(system.gains.beta_bar)[:, None] * (c_bar @ bs_factor.T)
    h = d + np.sqrt(system.gains.beta_g) * (bs_factor @ (z @ factor)).T
    return ChannelRealization(q=q_cols.T, d=d, h=h)


@dataclass
class Moments:
    """Running sums of one trial or of a batch of trials."""

    z: np.ndarray
    m2_self: np.ndarray
    m2_cross: np.ndarray
    power: np.ndarray
    count: int

    @classmethod
    def zeros(cls, k):
        return cls(np.zeros(k, dtype=complex), np.zeros(k), np.zeros((k, k)), np.zeros(k), 0)

    def add(self, other):
        self.z += other.z
        self.m2_self += other.m2_self
        self.m2_cross += other.m2_cross
        self.power += other.power
        self.count += other.count

    def terms(self, system):
        n = self.count
        s = np.abs(self.z / n) ** 2
        noise = system.dims.k * system.sigma2 / system.rho * float(np.sum(self.power / n))
        return s, self.m2_self / n - s + (self.m2_cross / n).sum(axis=1) + noise


def reference_mc_sinr(system, config, n_trials, seed):
    """mc_sinr with one moments object per trial, added into the batch that
    searchsorted finds for it; the batches are added into a zero total and
    the SINR is assembled batch by batch."""
    k = system.dims.k
    eps = system.epsilon
    alphas = covariance_scalars(system, config)
    n_batches = min(20, n_trials)
    edges = np.linspace(0, n_trials, n_batches + 1).astype(int)
    batches = [Moments.zeros(k) for _ in range(n_batches)]
    for trial, stream in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.default_rng(stream)
        real = per_trial_realization(system, config, rng)
        noise = np.sqrt(eps) * per_trial_cn(rng, real.h.shape)
        h_hat = apply_wiener_filter(real.h + noise, alphas, system.corr, eps)
        inner = real.h.conj() @ h_hat.T
        batch = int(np.searchsorted(edges, trial, side="right") - 1)
        batches[batch].add(Moments(np.diag(inner).copy(), np.abs(np.diag(inner)) ** 2,
                                   np.abs(inner) ** 2 * (1.0 - np.eye(k)),
                                   np.sum(np.abs(h_hat) ** 2, axis=1), 1))
    total = Moments.zeros(k)
    for mom in batches:
        total.add(mom)
    gamma = sinr_from_terms(*total.terms(system))
    per_batch = np.array([sinr_from_terms(*mom.terms(system)) for mom in batches])
    std_err = per_batch.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return gamma, std_err, float(system.dims.prelog * np.sum(np.log2(1.0 + gamma)))


class TestMcSinr:
    @pytest.mark.parametrize("k_t, k_r, complex_bs, n_trials", [
        (1, 0, False, 50),   # K = 1
        (2, 1, True, 80),    # K = 3, complex R_BS
        (1, 1, True, 57),    # uneven batches
        (1, 1, False, 20),   # one trial per batch
        (2, 2, True, 3),     # fewer trials than batches
        (1, 2, True, 2),     # the fewest trials: two batches of one
    ])
    def test_bit_identical_to_per_trial_reference(self, k_t, k_r, complex_bs, n_trials):
        rng = np.random.default_rng(n_trials)
        system = random_system(rng, m=5, n=4, k_t=k_t, k_r=k_r, complex_bs=complex_bs)
        config = StarConfig.random(4, rng)
        estimate = mc_sinr(system, config, n_trials, seed=7)
        gamma, std_err, sum_se_hat = reference_mc_sinr(system, config, n_trials, 7)
        np.testing.assert_array_equal(estimate.gamma_hat, gamma)
        np.testing.assert_array_equal(estimate.std_err, std_err)
        assert estimate.sum_se_hat == sum_se_hat
        assert np.all(np.isfinite(std_err))
        # the delta method on the estimate's own SINRs
        dse = system.dims.prelog / ((1.0 + estimate.gamma_hat) * np.log(2.0))
        np.testing.assert_array_equal(estimate.sum_se_stderr,
                                      np.sqrt(np.sum((dse * estimate.std_err) ** 2)))

    @pytest.mark.parametrize("n", [16, 64, 100, 256, 1024])
    def test_chunks_bit_identical_on_config_systems(self, n):
        # the checked-in shape (M = 64, K = 4, exponential R_BS): 8 real
        # columns per trial, where a chunk's surface-factor products equal
        # the per-trial products bit for bit; one and a half chunks of trials
        # leave a partial last chunk, and batches start inside chunks
        system = build_system(ScenarioConfig.from_file(MC_CONFIG), n=n)
        assert system.dims.k == 4 and np.isrealobj(system.corr.r_bs)
        config = StarConfig.random(n, np.random.default_rng(n))
        chunk = montecarlo.CHUNK_BYTES // ((system.dims.m + n) * 4 * 16)
        n_trials = chunk + chunk // 2 + 1
        estimate = mc_sinr(system, config, n_trials, 3)
        gamma, std_err, sum_se_hat = reference_mc_sinr(system, config, n_trials, 3)
        np.testing.assert_array_equal(estimate.gamma_hat, gamma)
        np.testing.assert_array_equal(estimate.std_err, std_err)
        assert estimate.sum_se_hat == sum_se_hat

    @pytest.mark.parametrize("k_t, k_r", [(1, 1), (2, 1), (3, 3), (4, 5)])
    def test_chunks_agree_to_roundoff_for_other_user_counts(self, k_t, k_r, monkeypatch):
        # 2K real columns per trial that are not a multiple of 8 may round
        # differently in one chunk-wide product; chunks of 5 trials here
        rng = np.random.default_rng(k_t + k_r)
        system = random_system(rng, m=8, n=36, k_t=k_t, k_r=k_r, complex_bs=True)
        config = StarConfig.random(36, rng)
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 5 * (8 + 36) * (k_t + k_r) * 16)
        estimate = mc_sinr(system, config, 23, seed=4)
        gamma, std_err, sum_se_hat = reference_mc_sinr(system, config, 23, 4)
        np.testing.assert_allclose(estimate.gamma_hat, gamma, rtol=1e-12, atol=0)
        np.testing.assert_allclose(estimate.std_err, std_err, rtol=1e-12, atol=0)
        assert estimate.sum_se_hat == pytest.approx(sum_se_hat, rel=1e-12, abs=0)

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

    def test_independent_of_batching(self, rng, monkeypatch):
        # per-trial streams: the batch split changes only the standard errors
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        config = StarConfig.random(4, rng)
        twenty = mc_sinr(system, config, 140, seed=9)
        monkeypatch.setattr(montecarlo, "N_BATCHES", 7)
        seven = mc_sinr(system, config, 140, seed=9)
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

    @pytest.mark.parametrize("n_trials", [2.5, 4.0, True, "4", np.float64(3.0)])
    def test_rejects_non_integer_trial_counts(self, rng, n_trials):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        with pytest.raises(ValueError, match="n_trials"):
            mc_sinr(system, StarConfig.equal_split(4, rng), n_trials, seed=0)
