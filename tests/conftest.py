"""Shared builders for synthetic and deployment-style systems."""

from dataclasses import replace

import numpy as np
import pytest

from starmimo.channel import SystemModel
from starmimo.correlation import CorrelationPair, LinkGains, build_bs_correlation


def bits(x):
    """The array's 64-bit words as integers: equal only if every bit is."""
    return np.ascontiguousarray(x).view(np.int64)


def record_evaluations(monkeypatch) -> list:
    """Every :class:`rate.Evaluation` the optimizer makes, in call order:
    each starting point, each line-search candidate, accepted or not, and
    each re-scored batch; (P, 2, N) points, one row per running start.
    Recorded at ``rate.ClosedForm.score``, which PGAM's round scores through."""
    from starmimo import rate

    points, original = [], rate.ClosedForm.score

    def recording(closed, theta, beta, *scalars):
        points.append(original(closed, theta, beta, *scalars))
        return points[-1]

    monkeypatch.setattr(rate.ClosedForm, "score", recording)
    return points


def feasibility_errors(point) -> tuple[float, float]:
    """Largest |(|theta| - 1)| and |beta_t^2 + beta_r^2 - 1| over every row
    and element of an evaluated point."""
    theta_err = np.max(np.abs(np.abs(point.theta) - 1.0))
    energy_err = np.max(np.abs(point.beta[..., 0, :] ** 2 + point.beta[..., 1, :] ** 2 - 1.0))
    return theta_err, energy_err


def scored_objectives(points) -> set:
    """Every objective value the recorded evaluations produced."""
    return {value for point in points for value in np.ravel(point.sum_se).tolist()}


def random_system(rng, m=6, n=5, k_t=2, k_r=1, complex_bs=True, rho=None,
                  sigma2=None):
    """Synthetic instance with O(1) gains; exercises general Hermitian inputs."""
    k = k_t + k_r
    if complex_bs:
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        r_bs = a @ a.conj().T
        r_bs /= np.trace(r_bs).real / m
    else:
        r_bs = build_bs_correlation(m, "exponential", 0.6)
    b = rng.standard_normal((n, n))
    r_ris = b @ b.T
    d = np.sqrt(np.diag(r_ris))
    r_ris = r_ris / np.outer(d, d)
    corr = CorrelationPair.from_matrices(r_bs, r_ris)
    gains = LinkGains(
        beta_g=rng.uniform(0.5, 1.5),
        beta_bar=rng.uniform(0.2, 1.0, k),
        beta_tilde=rng.uniform(0.2, 1.0, k),
    )
    return SystemModel(
        corr=corr, gains=gains, k_t=k_t, tau_c=200, tau=max(k, 4),
        rho=rho if rho is not None else rng.uniform(1.0, 4.0),
        pilot_power=rng.uniform(0.5, 2.0),
        sigma2=sigma2 if sigma2 is not None else rng.uniform(0.1, 0.5),
    )


def uncorrelated_ris_system(rng, m=6, n=8, k_t=2, k_r=2):
    """R_RIS = I variant: the configuration's phases must not matter."""
    system = random_system(rng, m=m, n=n, k_t=k_t, k_r=k_r, complex_bs=False)
    return replace(system, corr=CorrelationPair.from_matrices(system.corr.r_bs, np.eye(n)))


def one_user_system(r_bs=None, r_ris=None, mode="t", beta_bar=0.0, beta_hat=1.0,
                    tau=1, pilot_power=1.0, sigma2=1.0):
    """A lone user in region ``mode``; R_BS = I_2 and a one-element surface
    unless given.  Its covariance scalar is beta_bar + beta_hat *
    tr(R_RIS Phi_u R_RIS Phi_u^H), and ``rate.ClosedForm.spectrum`` of this system
    gives the LMMSE spectra on the eigenvalues of R_BS with pilot noise
    sigma2 / (tau pilot_power)."""
    r_bs = np.eye(2) if r_bs is None else r_bs
    r_ris = np.eye(1) if r_ris is None else r_ris
    return SystemModel(
        corr=CorrelationPair.from_matrices(r_bs, r_ris),
        gains=LinkGains(beta_g=1.0, beta_bar=[beta_bar], beta_tilde=[beta_hat]),
        k_t=int(mode == "t"), tau_c=max(tau, 10), tau=tau,
        rho=1.0, pilot_power=pilot_power, sigma2=sigma2,
    )


def alpha_partials(point, system):
    """Loop-form references for the per-user pieces of the chain rule, from
    an unbatched evaluation's eigen-sums (rows P, A, B, C, E, G of
    ``rate.ClosedForm.spectrum``): dS_k/dalpha_k, shape (K,), and the K x K matrix
    dI_k/dalpha_j = alpha_k E_j + lambda C_j + delta_kj (sum_i A_i - 2 G_k)."""
    p, a, _, c, e, g = point.sums
    k_users = len(p)
    d_signal = np.array([2.0 * p[k] * c[k] for k in range(k_users)])
    d_interference = np.zeros((k_users, k_users))
    for k in range(k_users):
        for j in range(k_users):
            d_interference[k, j] = point.alphas[k] * e[j] + system.noise_lift * c[j]
        d_interference[k, k] += sum(a) - 2.0 * g[k]
    return d_signal, d_interference


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
