"""Aggregated-channel covariance and why phases only matter under correlation.

The covariance of each user's effective channel is a scalar multiple of the
base-station correlation matrix.  The scalar carries all the dependence on
the surface configuration; with an uncorrelated surface it collapses to the
amplitude energy and the phases disappear from the problem.
"""

import numpy as np

from starmimo import CorrelationPair, LinkGains, StarConfig, SystemModel
from starmimo.channel import covariance_scalars, sample_realization
from starmimo.cli import ScenarioConfig, build_system
from starmimo.referee import dense_covariance_scalars

rng = np.random.default_rng(1)


def region_trace(r_ris, theta):
    """tr(R Phi R Phi^H) for unit amplitudes and phases ``theta``: the
    covariance scalar of a lone t-region user with only the cascaded link,
    at unit gain."""
    n = len(theta)
    system = SystemModel(
        corr=CorrelationPair.from_matrices(np.eye(1), r_ris),
        gains=LinkGains(beta_g=1.0, beta_bar=[0.0], beta_tilde=[1.0]),
        k_t=1, tau_c=10, tau=1, rho=1.0, pilot_power=1.0, sigma2=1.0,
    )
    config = StarConfig(theta=[theta, theta], beta=[np.ones(n), np.zeros(n)])
    return covariance_scalars(system, config)[0]


print("=== phase dependence of the configuration trace ===")
r_corr = np.array([[1.0, 0.5], [0.5, 1.0]])
aligned = region_trace(r_corr, np.ones(2, dtype=complex))
opposed = region_trace(r_corr, np.array([1.0, -1.0 + 0j]))
print(f"two correlated elements, aligned phases : {aligned:.3f}")
print(f"two correlated elements, opposed phases : {opposed:.3f}")
print(f"two independent elements, any phases    : "
      f"{region_trace(np.eye(2), np.ones(2, dtype=complex)):.3f}")

print("\n=== per-user covariance scalars at the default deployment ===")
cfg = ScenarioConfig.from_dict({
    "name": "demo",
    "dims": {"m": 16, "n": 16, "k_t": 2, "k_r": 2, "tau_c": 200, "tau": 4},
    "protocols": ["es"],
})
system = build_system(cfg)
config = StarConfig.equal_split(16, rng)
alphas = covariance_scalars(system, config)
for k, (region, alpha) in enumerate(zip(system.region, alphas)):
    direct = system.gains.beta_bar[k]
    print(f"user {k} ({'tr'[region]} region): alpha {alpha:.3e}, direct share {direct / alpha:5.1%}")
referee = dense_covariance_scalars(config, system)
print(f"largest relative gap to the dense referee: {np.max(np.abs(alphas / referee - 1)):.1e}")

print("\n=== empirical covariance against the closed form (20k draws) ===")
n_draws = 20_000
acc = np.zeros((system.dims.m, system.dims.m), dtype=complex)
for _ in range(n_draws // 2000):
    # one call draws 2000 trials, one spawned generator each
    h = sample_realization(system, config, rng.spawn(2000)).h[:, 0]
    acc += h.T @ h.conj()
acc /= n_draws
target = alphas[0] * system.corr.r_bs
err = np.linalg.norm(acc - target) / np.linalg.norm(target)
print(f"relative Frobenius error: {err:.3f} (law of large numbers at work)")
