"""Pilot-based estimation of the aggregated channel.

The estimator never materializes a matrix inverse: in the base-station
eigenbasis every estimate eigenvalue is (alpha s)^2 / (alpha s + eps) with
eps the effective pilot noise, the spectrum ``rate.from_alphas`` returns.
More pilot power means eigenvalues closer to the channel covariance and a
smaller residual error.
"""

from dataclasses import replace

import numpy as np

from starmimo import CorrelationPair, LinkGains, SystemModel, from_alphas
from starmimo.correlation import build_bs_correlation

# one user with only the direct link at unit gain, so its covariance scalar is 1
base = SystemModel(
    corr=CorrelationPair.from_matrices(build_bs_correlation(8, "exponential", 0.7), np.eye(1)),
    gains=LinkGains(beta_g=1.0, beta_bar=[1.0], beta_tilde=[0.0]),
    k_t=1, tau_c=200, tau=1, rho=1.0, pilot_power=1.0, sigma2=1.0,
)
sigma = base.corr.bs_eigvals
alpha = np.array([1.0])


def estimate_spectrum(eps):
    """Estimate-covariance eigenvalues at effective pilot noise ``eps``."""
    psi, _, _ = from_alphas(alpha, replace(base, pilot_power=1.0 / eps))
    return psi[0]


print("pilot quality sweep (alpha = 1, exponential BS correlation 0.7, M = 8)")
print(f"{'eps':>8} {'tr(estimate cov)':>18} {'tr(error cov)':>15} {'capture':>9}")
total = alpha[0] * sigma.sum()
for eps in (10.0, 1.0, 0.1, 0.01, 1e-4):
    psi = estimate_spectrum(eps)
    err = np.sum(alpha[0] * sigma - psi)
    print(f"{eps:8.0e} {psi.sum():18.4f} {err:15.4f} {psi.sum() / total:9.1%}")

print("\nthe two traces always add up to the channel power", total)
print("and the estimate eigenvalues never exceed the channel eigenvalues:")
for s, p in zip(sigma, estimate_spectrum(0.1)):
    print(f"  channel {s:6.3f}  estimate {p:6.3f}")
