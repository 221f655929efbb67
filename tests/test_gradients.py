from dataclasses import replace

import numpy as np
import pytest

from conftest import alpha_partials, random_system, uncorrelated_ris_system
from starmimo.channel import StarConfig, covariance_scalars
from starmimo.correlation import LinkGains
from starmimo.gradients import build_workspace, grad_objective, grad_objective_from_workspace
from starmimo.rate import LN2, ClosedForm, DegenerateInterferenceError, assemble_report, sum_se
from starmimo.referee import finite_difference_gradient

FD_STEP = 1e-6
REGIONS = ("t", "r")


def fd_user_term(system, config, term, k, region, block="theta", step=FD_STEP):
    """Central differences of one user's S_k or I_k (``term`` 's' or 'i') in
    one region's phases or amplitudes, conjugate-derivative convention for
    the phases."""
    n = config.theta.shape[-1]
    row = REGIONS.index(region)

    def term_value(values):
        trial = config.copy()
        getattr(trial, block)[row] = values
        report = sum_se(trial, system)
        return report.s[k] if term == "s" else report.i_tilde[k]

    base = getattr(config, block)[row].copy()
    units = ((1.0, 0.5), (1.0j, 0.5j)) if block == "theta" else ((1.0, 1.0),)
    grad = np.zeros(n, dtype=complex if block == "theta" else float)
    for j in range(n):
        for unit, weight in units:
            plus = base.copy()
            minus = base.copy()
            plus[j] += step * unit
            minus[j] -= step * unit
            grad[j] += weight * (term_value(plus) - term_value(minus)) / (2 * step)
    return grad


# Loop-form references for the per-user pieces that the production gradient
# sums in one vectorized weight per region.  Region u's trace T_u enters
# alpha_j = beta_bar_j + beta_hat_j T_u of each of its users j.

def signal_coefficient(point, system, k, region):
    """Scalar multiplying region ``region``'s direction in dS_k."""
    if REGIONS[system.region[k]] != region:
        return 0.0
    return system.gains.beta_hat[k] * alpha_partials(point, system)[0][k]


def interference_coefficient(point, system, k, region):
    """Scalar multiplying region ``region``'s direction in dI_k."""
    d_interference = alpha_partials(point, system)[1]
    return sum(system.gains.beta_hat[j] * d_interference[k, j]
               for j in range(system.dims.k) if REGIONS[system.region[j]] == region)


def phase_direction(point, region):
    u = REGIONS.index(region)
    return point.a[u] * point.beta[u]


def amplitude_direction(point, region):
    u = REGIONS.index(region)
    return 2.0 * np.real(np.conj(point.a[u]) * point.theta[u])


def point_at(config, system, method="eig"):
    return sum_se(config, system, method)


def rel_err(closed, numeric):
    return np.linalg.norm(closed - numeric) / max(np.linalg.norm(numeric), 1e-12)


class TestSignalGradient:
    def test_zero_for_other_region(self, rng):
        # an r-user's signal term does not depend on the t-region at all
        system = random_system(rng, n=4)
        config = StarConfig.random(system.dims.n, rng)
        r_user = int(np.flatnonzero(system.region_mask[:, 1])[0])
        np.testing.assert_array_equal(fd_user_term(system, config, "s", r_user, "t"),
                                      np.zeros(system.dims.n, dtype=complex))

    def test_radial_without_ris_correlation(self, rng):
        # with R_RIS = I the surface product is phi itself, so every phase
        # gradient is a real multiple of theta elementwise
        system = uncorrelated_ris_system(rng)
        config = StarConfig.random(system.dims.n, rng)
        point = point_at(config, system)
        np.testing.assert_array_equal(point.a, config.beta * config.theta)
        t_user = int(np.flatnonzero(system.region_mask[:, 0])[0])
        coef = signal_coefficient(point, system, t_user, "t")
        signal = coef * phase_direction(point, "t")
        np.testing.assert_allclose(signal, coef * config.beta[0]**2 * config.theta[0],
                                   rtol=1e-12)
        grad = grad_objective(config, system)
        ratio = grad.d_theta / config.theta
        assert np.max(np.abs(ratio.imag)) < 1e-12 * np.max(np.abs(ratio))

    def test_matches_finite_differences(self, rng):
        system = random_system(rng, m=6, n=8, k_t=2, k_r=2)
        config = StarConfig.random(8, rng)
        point = point_at(config, system)
        for k in range(4):
            region = REGIONS[system.region[k]]
            closed = signal_coefficient(point, system, k, region) * phase_direction(point, region)
            numeric = fd_user_term(system, config, "s", k, region)
            assert rel_err(closed, numeric) < 1e-6


class TestInterferenceGradient:
    def test_empty_region_sum_is_zero(self, rng):
        # all users reflect: no interference term depends on the t-region,
        # and the objective gradient's t-blocks are exactly zero
        system = random_system(rng, k_t=0, k_r=3, n=4)
        config = StarConfig.random(system.dims.n, rng)
        for k in range(3):
            np.testing.assert_array_equal(fd_user_term(system, config, "i", k, "t"),
                                          np.zeros(system.dims.n, dtype=complex))
        grad = grad_objective(config, system)
        assert np.all(grad.d_theta[0] == 0)
        assert np.all(grad.d_beta[0] == 0)

    def test_matches_finite_differences(self, rng):
        system = random_system(rng, m=8, n=8, k_t=2, k_r=1)
        config = StarConfig.random(8, rng)
        point = point_at(config, system)
        for k in range(3):
            for region in REGIONS:
                closed = (interference_coefficient(point, system, k, region)
                          * phase_direction(point, region))
                numeric = fd_user_term(system, config, "i", k, region)
                assert rel_err(closed, numeric) < 1e-6

    def test_vanishes_without_cascaded_gains(self, rng):
        system = random_system(rng)
        gains = LinkGains(beta_g=0.0, beta_bar=system.gains.beta_bar,
                          beta_tilde=system.gains.beta_tilde)
        system = replace(system, gains=gains)
        point = point_at(StarConfig.random(system.dims.n, rng), system)
        for k in range(system.dims.k):
            for region in REGIONS:
                assert signal_coefficient(point, system, k, region) == 0
                assert interference_coefficient(point, system, k, region) == 0
        grad = grad_objective(StarConfig.random(system.dims.n, rng), system)
        assert np.all(grad.d_theta == 0)
        assert np.all(grad.d_beta == 0)


class TestAmplitudeGradient:
    def test_matches_finite_differences(self, rng):
        system = random_system(rng, m=6, n=6, k_t=1, k_r=2)
        config = StarConfig.random(6, rng)
        closed = grad_objective(config, system)
        numeric = finite_difference_gradient(config, system)
        err = np.linalg.norm(closed.d_beta - numeric.d_beta) / np.linalg.norm(numeric.d_beta)
        assert err < 1e-6

    def test_rotation_leaves_amplitude_gradient_norm(self, rng):
        system = random_system(rng, complex_bs=False)
        config = StarConfig.random(system.dims.n, rng)
        base = grad_objective(config, system)
        rotated = config.copy()
        rotated.theta = rotated.theta * np.exp(1j * 0.9)
        after = grad_objective(rotated, system)
        assert np.linalg.norm(after.d_beta) == pytest.approx(
            np.linalg.norm(base.d_beta), rel=1e-9
        )

    def test_signal_part_zero_for_other_region(self, rng):
        system = random_system(rng, n=4)
        config = StarConfig.random(system.dims.n, rng)
        r_user = int(np.flatnonzero(system.region_mask[:, 1])[0])
        np.testing.assert_array_equal(
            fd_user_term(system, config, "s", r_user, "t", block="beta"),
            np.zeros(system.dims.n))

    def test_per_user_pieces_sum_to_objective_gradient(self, rng):
        # loop reference: user k's quotient-rule piece per region, summed
        # over users and scaled by the prefactor, is the vectorized gradient
        system = random_system(rng, m=5, n=6, k_t=2, k_r=1)
        config = StarConfig.random(6, rng)
        point = report = point_at(config, system)
        prefactor = system.dims.prelog / LN2
        full = grad_objective(config, system)
        for u, region in enumerate(REGIONS):
            d_beta = np.zeros(6)
            d_theta = np.zeros(6, dtype=complex)
            for k in range(3):
                i_k = report.i_tilde[k]
                weight = (i_k * signal_coefficient(point, system, k, region)
                          - report.s[k] * interference_coefficient(point, system, k, region)) / (
                    (1.0 + report.gamma[k]) * i_k**2)
                d_beta += weight * amplitude_direction(point, region)
                d_theta += weight * phase_direction(point, region)
            np.testing.assert_allclose(prefactor * d_beta, full.d_beta[u], rtol=1e-12)
            np.testing.assert_allclose(prefactor * d_theta, full.d_theta[u], rtol=1e-12)

    def test_per_user_amplitude_pieces_match_finite_differences(self, rng):
        system = random_system(rng, m=6, n=5, k_t=1, k_r=2)
        config = StarConfig.random(5, rng)
        point = point_at(config, system)
        for k in range(3):
            for region in REGIONS:
                for term, coef in (("s", signal_coefficient), ("i", interference_coefficient)):
                    closed = coef(point, system, k, region) * amplitude_direction(point, region)
                    numeric = fd_user_term(system, config, term, k, region, block="beta")
                    assert rel_err(closed, numeric) < 1e-6


class TestObjectiveGradient:
    def test_first_order_ascent(self, rng):
        for _ in range(5):
            system = random_system(rng, m=5, n=6)
            config = StarConfig.random(6, rng)
            grad = grad_objective(config, system)
            step = 1e-7
            moved = config.copy()
            moved.theta = moved.theta + step * grad.d_theta
            moved.beta = moved.beta + step * grad.d_beta
            assert sum_se(moved, system).sum_se > sum_se(config, system).sum_se

    def test_full_finite_difference_match(self, rng):
        for _ in range(4):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(3, 9))
            system = random_system(rng, m=m, n=n, k_t=2, k_r=2,
                                   complex_bs=bool(rng.integers(0, 2)))
            config = StarConfig.random(n, rng)
            closed = grad_objective(config, system)
            numeric = finite_difference_gradient(config, system)
            err_t = (np.linalg.norm(closed.d_theta - numeric.d_theta)
                     / np.linalg.norm(numeric.d_theta))
            err_b = (np.linalg.norm(closed.d_beta - numeric.d_beta)
                     / np.linalg.norm(numeric.d_beta))
            assert err_t < 1e-6
            assert err_b < 1e-6

    def test_tangent_derivative_vanishes_without_ris_correlation(self, rng):
        system = uncorrelated_ris_system(rng)
        config = StarConfig.random(system.dims.n, rng)
        grad = grad_objective(config, system)
        # tangent directions of the unit-modulus set: i * theta * (real)
        for _ in range(5):
            t = rng.standard_normal(config.theta.shape)
            direction = 1j * config.theta * t
            deriv = 2.0 * np.real(np.vdot(grad.d_theta, direction))
            assert abs(deriv) < 1e-8

    def test_elementwise_proportional_to_amplitude(self, rng):
        # phase-gradient components of dark elements vanish
        system = random_system(rng)
        config = StarConfig.random(system.dims.n, rng)
        config.beta[:, 2] = [0.0, 1.0]
        grad = grad_objective(config, system)
        assert grad.d_theta[0, 2] == 0.0

    def test_degenerate_interference_raises(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        gains = LinkGains(beta_g=0.0, beta_bar=np.zeros(2), beta_tilde=np.zeros(2))
        system = replace(system, gains=gains)
        with pytest.raises(DegenerateInterferenceError):
            grad_objective(StarConfig.equal_split(4, rng), system)


def kernel_case(name, rng):
    """(system, config) pairs covering every shape of region occupancy."""
    if name == "both-regions":
        system = random_system(rng, m=6, n=5, k_t=2, k_r=2)
    elif name == "t-only":
        system = random_system(rng, m=5, n=6, k_t=3, k_r=0)
    elif name == "r-only":
        system = random_system(rng, m=7, n=4, k_t=0, k_r=2)
    else:
        system = random_system(rng, m=6, n=6, k_t=1, k_r=2)
    config = StarConfig.random(system.dims.n, rng)
    if name == "no-direct":
        gains = LinkGains(beta_g=system.gains.beta_g, beta_bar=np.zeros(3),
                          beta_tilde=system.gains.beta_tilde)
        system = replace(system, gains=gains)
    if name == "frozen-binary":
        # the split-surface baseline: binary amplitudes held fixed, so only
        # the phase blocks reach the optimizer
        config.beta[0] = (rng.uniform(size=6) < 0.5).astype(float)
        config.beta[1] = 1.0 - config.beta[0]
    return system, config


BLOCKS = (("theta", "t"), ("theta", "r"), ("beta", "t"), ("beta", "r"))


def block(grad, kind, region):
    values = grad.d_theta if kind == "theta" else grad.d_beta
    return values[REGIONS.index(region)]


@pytest.mark.parametrize("case", ["both-regions", "t-only", "r-only", "no-direct",
                                  "frozen-binary"])
class TestKernelAgreement:
    """The objective kernel and the gradient built from its cache, as pgam
    calls them, against the dense referee and the finite-difference oracle,
    per region and per block."""

    def test_objective_matches_dense(self, case, rng):
        system, config = kernel_case(case, rng)
        point = ClosedForm(system).score(config.theta, config.beta)
        dense = sum_se(config, system, method="dense")
        assert point.sum_se == pytest.approx(dense.sum_se, rel=1e-9)
        np.testing.assert_allclose(point.i_tilde, dense.i_tilde, rtol=1e-9)

    def test_gradient_blocks_match_oracles(self, case, rng):
        system, config = kernel_case(case, rng)
        point = ClosedForm(system).score(config.theta, config.beta)
        closed = grad_objective_from_workspace(point, system, build_workspace(point, system))
        numeric = finite_difference_gradient(config, system)
        dense = grad_objective(config, system, method="dense")
        total = np.sqrt(np.linalg.norm(closed.d_theta - numeric.d_theta) ** 2
                        + np.linalg.norm(closed.d_beta - numeric.d_beta) ** 2)
        scale = np.sqrt(np.linalg.norm(numeric.d_theta) ** 2 + np.linalg.norm(numeric.d_beta) ** 2)
        assert total / scale < 1e-6
        for kind, region in BLOCKS:
            ours = block(closed, kind, region)
            if not system.region_mask[:, REGIONS.index(region)].any():
                # nothing depends on an empty region
                assert np.all(ours == 0)
                assert np.all(block(numeric, kind, region) == 0)
                continue
            assert rel_err(ours, block(numeric, kind, region)) < 1e-6, (kind, region)
            np.testing.assert_allclose(ours, block(dense, kind, region), rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(ours)))


def fd_d_alpha(point, system, k, rel_step=1e-6):
    """Central differences of the sum SE in user k's covariance scalar, one
    value per start of a batched point, through ``rate.ClosedForm.spectrum``."""
    closed = ClosedForm(system)

    def objective(alphas):
        _, sums, i_tilde = closed.spectrum(alphas)
        return assemble_report(sums[0] ** 2, i_tilde, closed.prelog)[1]

    step = rel_step * np.max(point.alphas[..., k])
    plus, minus = point.alphas.copy(), point.alphas.copy()
    plus[..., k] += step
    minus[..., k] -= step
    return (objective(plus) - objective(minus)) / (2.0 * step)


class TestWorkspaceScalars:
    def test_d_alpha_matches_finite_differences(self, rng):
        # a batch of three starts, each with its own direct gains; start 1
        # has a dark r-region, and user 1 has no cascaded gain
        system = random_system(rng, m=6, n=5, k_t=2, k_r=2)
        gains = system.gains
        system = replace(system, gains=LinkGains(
            beta_g=gains.beta_g, beta_bar=rng.uniform(0.2, 1.0, (3, 4)),
            beta_tilde=np.r_[gains.beta_tilde[0], 0.0, gains.beta_tilde[2:]]))
        configs = [StarConfig.random(5, rng) for _ in range(3)]
        configs[1].beta[:] = [[1.0] * 5, [0.0] * 5]
        theta = np.stack([config.theta for config in configs])
        beta = np.stack([config.beta for config in configs])
        point = ClosedForm(system).score(theta, beta)
        np.testing.assert_array_equal(point.alphas[1, 2:], system.gains.beta_bar[1, 2:])
        d_alpha = build_workspace(point, system)
        assert d_alpha.shape == (3, 4)
        for k in range(4):
            numeric = fd_d_alpha(point, system, k)
            np.testing.assert_allclose(d_alpha[:, k], numeric, rtol=1e-6)

    def test_eig_matches_dense(self, rng):
        for _ in range(3):
            system = random_system(rng, m=int(rng.integers(3, 9)),
                                   n=int(rng.integers(3, 9)),
                                   complex_bs=bool(rng.integers(0, 2)))
            config = StarConfig.random(system.dims.n, rng)
            fast = point_at(config, system)
            dense = point_at(config, system, "dense")
            for field in ("a", "alphas", "sums"):
                np.testing.assert_allclose(getattr(fast, field), getattr(dense, field), rtol=1e-9)
            for ours, theirs in zip(alpha_partials(fast, system), alpha_partials(dense, system)):
                np.testing.assert_allclose(ours, theirs, rtol=1e-9)
            np.testing.assert_allclose(build_workspace(fast, system),
                                       build_workspace(dense, system), rtol=1e-9)

    def test_dense_traces_are_real(self, rng):
        # the eigen-sums come from products of commuting Hermitian matrices;
        # their raw complex traces must have negligible imaginary residue
        system = random_system(rng, m=6, n=5, complex_bs=True)
        config = StarConfig.random(5, rng)
        alphas = covariance_scalars(system, config)
        eps = system.epsilon
        eye = np.eye(6)
        r_bs = system.corr.r_bs
        for alpha in alphas:
            r_k = alpha * r_bs
            q_k = np.linalg.inv(r_k + eps * eye)
            psi_k = r_k @ q_k @ r_k
            d_k = r_bs @ q_k @ r_k + r_k @ q_k @ r_bs - r_k @ q_k @ r_bs @ q_k @ r_k
            for value in (np.trace(psi_k @ r_bs), np.trace(psi_k @ psi_k), np.trace(d_k),
                          np.trace(d_k @ r_bs), np.trace(psi_k @ d_k)):
                assert abs(value.imag) < 1e-10 * max(1.0, abs(value.real))

    def test_rejects_unknown_method(self, rng):
        system = random_system(rng)
        config = StarConfig.random(system.dims.n, rng)
        with pytest.raises(ValueError, match="unknown method"):
            grad_objective(config, system, method="auto")
        with pytest.raises(ValueError, match="unknown method"):
            sum_se(config, system, method="auto")
