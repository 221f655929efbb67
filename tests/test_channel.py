import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_user_system, random_system, uncorrelated_ris_system
from starmimo.channel import (
    StarConfig,
    SystemDims,
    SystemModel,
    complex_normal,
    covariance_scalars,
    pbm_quadratic_diag,
    sample_realization,
)
from starmimo.correlation import (
    ArrayGeometry,
    CorrelationPair,
    GridKernel,
    LinkGains,
    build_bs_correlation,
)
from starmimo.rate import dense_covariance_scalars, evaluate


def explicit_draw(system, config, seed):
    """Reference draw that forms G: D, c and c_bar from the generator in that
    order, then G = sqrt(beta_g) R_BS^{1/2} D R_RIS^{1/2} and h_k = d_k + G
    (phi_u * q_k), one user at a time."""
    rng = np.random.default_rng(seed)
    m, n, k = system.dims.m, system.dims.n, system.dims.k

    def cn(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    d_fast, c, c_bar = cn((m, n)), cn((k, n)), cn((k, m))
    bs_sqrt, ris_sqrt = system.corr.bs_sqrt, system.corr.ris_sqrt
    g = np.sqrt(system.gains.beta_g) * (bs_sqrt @ d_fast @ ris_sqrt)
    q = np.sqrt(system.gains.beta_tilde)[:, None] * (c @ ris_sqrt.T)
    d = np.sqrt(system.gains.beta_bar)[:, None] * (c_bar @ bs_sqrt.T)
    h = np.array([d[i] + g @ (config.phi(mode) * q[i])
                  for i, mode in enumerate(system.modes)])
    return g, q, d, h


def assert_rows_close(actual, expected, rtol):
    """Each row within ``rtol`` of its expected row in 2-norm (zero rows exact)."""
    gap = np.linalg.norm(actual - expected, axis=-1)
    assert np.all(gap <= rtol * np.linalg.norm(expected, axis=-1)), gap


def with_gains(system, gains):
    return SystemModel(
        dims=system.dims, corr=system.corr, gains=gains, modes=system.modes,
        rho=system.rho, pilot_power=system.pilot_power, sigma2=system.sigma2,
    )


def grid_system(rng, side, k_t=2, k_r=2):
    """A side x side quarter-wavelength surface kept as its offset table."""
    k = k_t + k_r
    corr = CorrelationPair.from_grid(build_bs_correlation(8, "exponential", 0.6),
                                     ArrayGeometry(side, side, 0.25, 0.25))
    return SystemModel(
        dims=SystemDims(m=8, n=side * side, k_t=k_t, k_r=k_r, tau_c=200, tau=k),
        corr=corr,
        gains=LinkGains(beta_g=1.0, beta_bar=rng.uniform(0.2, 1.0, k),
                        beta_tilde=rng.uniform(0.2, 1.0, k)),
        modes=tuple(["t"] * k_t + ["r"] * k_r), rho=2.0, pilot_power=1.0, sigma2=0.3,
    )


def dense_trace(r_ris, amplitudes, phases):
    """O(N^3) reference: materialize the products."""
    phi = np.diag(np.asarray(amplitudes) * np.asarray(phases))
    return np.trace(r_ris @ phi @ r_ris @ phi.conj().T)


class TestStarConfig:
    def test_equal_split_feasible(self, rng):
        StarConfig.equal_split(8, rng).validate()
        StarConfig.equal_split(8).validate()

    def test_random_feasible(self, rng):
        StarConfig.random(16, rng).validate()

    def test_rejects_modulus_violation(self):
        cfg = StarConfig.equal_split(4)
        cfg.theta_t[0] = 2.0
        with pytest.raises(ValueError, match="unit modulus"):
            cfg.validate()

    def test_rejects_energy_violation(self):
        cfg = StarConfig.equal_split(4)
        cfg.beta_t[0] = 1.0
        with pytest.raises(ValueError, match="energy"):
            cfg.validate()

    def test_ms_requires_binary(self):
        cfg = StarConfig.equal_split(4)
        cfg.protocol = "ms"
        with pytest.raises(ValueError, match="binary"):
            cfg.validate()
        binary = StarConfig(
            theta_t=np.ones(2), theta_r=np.ones(2),
            beta_t=np.array([1.0, 0.0]), beta_r=np.array([0.0, 1.0]),
            protocol="ms",
        )
        binary.validate()

    def test_signed_amplitudes_allowed(self):
        cfg = StarConfig.equal_split(4)
        cfg.beta_t[1] *= -1.0
        cfg.validate()  # energy conservation holds with signed entries

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StarConfig(theta_t=np.ones(3), theta_r=np.ones(2),
                       beta_t=np.ones(3), beta_r=np.ones(3))


def t_region_alphas(r_ris, beta, theta):
    """A t-region user's alpha, with beta_bar = 0 and beta_hat = 1 (so the
    region trace itself), from the kernel and from the referee."""
    system = one_user_system(r_ris=r_ris)
    config = StarConfig(theta_t=theta, theta_r=np.ones_like(theta),
                        beta_t=beta, beta_r=np.zeros_like(beta))
    return covariance_scalars(system, config)[0], dense_covariance_scalars(config, system)[0]


class TestRegionTrace:
    def test_identity_correlation_gives_energy_sum(self, rng):
        # with uncorrelated elements the trace is just the amplitude energy
        beta = rng.uniform(-1, 1, 6)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        for value in t_region_alphas(np.eye(6), beta, theta):
            assert value == pytest.approx(np.sum(beta**2), rel=1e-12)

    def test_two_element_example_aligned(self):
        r = np.array([[1.0, 0.5], [0.5, 1.0]])
        for value in t_region_alphas(r, np.ones(2), np.ones(2, dtype=complex)):
            assert value == pytest.approx(2.5, rel=1e-12)

    def test_two_element_example_opposed(self):
        r = np.array([[1.0, 0.5], [0.5, 1.0]])
        theta = np.array([1.0, np.exp(1j * np.pi)])
        for value in t_region_alphas(r, np.ones(2), theta):
            assert value == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 7, 16, 32])
    def test_matches_dense_product(self, n, rng):
        b = rng.standard_normal((n, n))
        r = b @ b.T
        d = np.sqrt(np.diag(r))
        r /= np.outer(d, d)
        beta = rng.uniform(-1, 1, n)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        ref = dense_trace(r, beta, theta)
        assert abs(ref.imag) < 1e-10
        for fast in t_region_alphas(r, beta, theta):
            assert fast == pytest.approx(ref.real, rel=1e-10)

    def test_matches_dense_complex_hermitian(self, rng):
        # the referee's surface product also holds for a complex Hermitian R
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        r = a @ a.conj().T
        beta = rng.uniform(0, 1, 9)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 9))
        phi = beta * theta
        fast = np.vdot(phi, pbm_quadratic_diag(r, phi)).real
        assert fast == pytest.approx(dense_trace(r, beta, theta).real, rel=1e-10)

    def test_common_rotation_invariance(self, rng):
        r = np.abs(rng.standard_normal((5, 5)))
        r = (r + r.T) / 2
        np.fill_diagonal(r, 1.0)
        beta = rng.uniform(0, 1, 5)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        base = t_region_alphas(r, beta, theta)
        rotated = t_region_alphas(r, beta, theta * np.exp(1j * 0.73))
        for after, before in zip(rotated, base):
            assert after == pytest.approx(before, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pbm_quadratic_diag(np.eye(3), np.ones(4))

    @pytest.mark.parametrize("complex_phi", [False, True])
    def test_kernel_is_one_real_temporary(self, complex_phi, rng):
        # the kernel is never upcast to complex, and |R|^2 is formed in place
        n = 512
        b = rng.standard_normal((n, n))
        r = (b + b.T) / 2
        phi = rng.uniform(-1, 1, n)
        if complex_phi:
            phi = phi * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        tracemalloc.start()
        try:
            diag = pbm_quadratic_diag(r, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8
        np.testing.assert_allclose(diag, (r * r) @ phi, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_non_negative_for_any_configuration(self, seed):
        # squared Frobenius norm of R^(1/2) Phi R^(1/2), so >= 0 even with
        # signed amplitudes; R = B B^T scaled to unit diagonal
        local = np.random.default_rng(seed)
        n = local.integers(1, 9)
        b = local.standard_normal((n, n))
        r = b @ b.T
        d = np.sqrt(np.diag(r))
        r /= np.outer(d, d)
        beta = local.uniform(-2, 2, n)
        theta = np.exp(1j * local.uniform(0, 2 * np.pi, n))
        for value in t_region_alphas(r, beta, theta):
            assert value >= -1e-10


class TestCovarianceScalars:
    def test_single_active_element(self):
        beta_t = np.zeros(4)
        beta_t[0] = 1.0
        config = StarConfig(
            theta_t=np.ones(4, dtype=complex), theta_r=np.ones(4, dtype=complex),
            beta_t=beta_t, beta_r=np.sqrt(1 - beta_t**2),
        )
        system = one_user_system(np.eye(3), np.eye(4), "t", beta_bar=0.5, beta_hat=0.25)
        for alpha in (covariance_scalars(system, config)[0],
                      dense_covariance_scalars(config, system)[0]):
            assert alpha == pytest.approx(0.75, rel=1e-12)
            np.testing.assert_allclose(alpha * system.corr.r_bs, 0.75 * np.eye(3))

    def test_zero_cascaded_gain(self, rng):
        r_ris = random_system(rng).corr.r_ris
        config = StarConfig.random(r_ris.shape[0], rng)
        system = one_user_system(r_ris=r_ris, mode="r", beta_bar=0.3, beta_hat=0.0)
        assert covariance_scalars(system, config)[0] == pytest.approx(0.3)
        assert dense_covariance_scalars(config, system)[0] == pytest.approx(0.3)

    def test_dark_region_contributes_nothing(self, rng):
        r_ris = random_system(rng).corr.r_ris
        config = StarConfig.random(r_ris.shape[0], rng)
        config.beta_t[:] = 0.0
        config.beta_r[:] = 1.0
        system = one_user_system(r_ris=r_ris, mode="t", beta_bar=0.4, beta_hat=5.0)
        assert covariance_scalars(system, config)[0] == pytest.approx(0.4)
        assert dense_covariance_scalars(config, system)[0] == pytest.approx(0.4)

    @pytest.mark.parametrize("k_t, k_r", [(2, 1), (0, 3), (3, 0)])
    def test_fused_product_matches_referee(self, rng, k_t, k_r):
        # one real product for both regions against one complex matvec per
        # region (the diagonals) and one complex trace per region (the
        # referee's scalars)
        system = random_system(rng, n=7, k_t=k_t, k_r=k_r)
        config = StarConfig.random(7, rng)
        diag = np.empty((2, 7), dtype=complex)
        alphas = covariance_scalars(system, config, diag)
        for u, region in enumerate(("t", "r")):
            np.testing.assert_allclose(
                diag[u], pbm_quadratic_diag(system.corr.r_ris, config.phi(region)),
                rtol=1e-12)
        np.testing.assert_allclose(alphas, dense_covariance_scalars(config, system), rtol=1e-12)
        np.testing.assert_array_equal(covariance_scalars(system, config), alphas)

    @pytest.mark.parametrize("side", [32, 64])
    def test_fft_kernel_matches_dense_referees(self, side, rng):
        system = grid_system(rng, side)
        n = system.dims.n
        assert isinstance(system.corr.ris_abs2, GridKernel)
        configs = [StarConfig.random(n, rng) for _ in range(2)]
        batch = evaluate(np.stack([c.stacked()[0] for c in configs]),
                         np.stack([c.stacked()[1] for c in configs]), system)
        assert "r_ris" not in system.corr.__dict__
        for p, config in enumerate(configs):
            single = evaluate(*config.stacked(), system)
            np.testing.assert_array_equal(batch.a[p], single.a)
            np.testing.assert_allclose(single.alphas, dense_covariance_scalars(config, system),
                                       rtol=1e-12)
            for u, region in enumerate("tr"):
                expected = pbm_quadratic_diag(system.corr.r_ris, config.phi(region))
                assert np.max(np.abs(single.a[u] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_fft_kernel_gives_a_dark_region_exact_zero(self, rng):
        system = grid_system(rng, 32)
        config = StarConfig.random(system.dims.n, rng)
        config.beta_t[:] = 0.0
        config.beta_r[:] = 1.0
        diag = np.empty((2, system.dims.n), dtype=complex)
        alphas = covariance_scalars(system, config, diag)
        np.testing.assert_array_equal(diag[0], 0.0)
        np.testing.assert_array_equal(alphas[:2], system.gains.beta_bar[:2])

    def test_phase_independence_without_ris_correlation(self, rng):
        system = uncorrelated_ris_system(rng)
        beta = StarConfig.random(system.dims.n, rng)
        alphas = []
        for _ in range(10):
            draw = StarConfig.random(system.dims.n, rng)
            draw.beta_t = beta.beta_t.copy()
            draw.beta_r = beta.beta_r.copy()
            alphas.append(covariance_scalars(system, draw))
        spread = np.ptp(np.array(alphas), axis=0)
        assert np.max(spread) < 1e-12


class TestSampleRealization:
    def test_zero_gains_give_zero_channel(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        system = with_gains(system, LinkGains(beta_g=0.0, beta_bar=np.zeros(2),
                                              beta_tilde=np.zeros(2)))
        real = sample_realization(system, StarConfig.equal_split(4, rng), rng)
        np.testing.assert_array_equal(real.h, np.zeros((2, 4)))

    def test_direct_only_when_surface_dark(self, rng):
        corr = CorrelationPair.from_matrices(np.eye(4), np.eye(4))
        dims = SystemDims(m=4, n=4, k_t=1, k_r=1, tau_c=100, tau=2)
        system = SystemModel(
            dims=dims, corr=corr,
            gains=LinkGains(beta_g=1.0, beta_bar=np.array([1.0, 1.0]),
                            beta_tilde=np.array([1.0, 1.0])),
            modes=("t", "r"), rho=1.0, pilot_power=1.0, sigma2=0.1,
        )
        config = StarConfig(
            theta_t=np.ones(4, dtype=complex), theta_r=np.ones(4, dtype=complex),
            beta_t=np.zeros(4), beta_r=np.zeros(4),
        )
        real = sample_realization(system, config, rng)
        np.testing.assert_array_equal(real.h, real.d)

    def test_empirical_covariance_matches_closed_form(self, rng):
        # law of large numbers against the covariance scalar, M = N = 4,
        # drawn in chunks of 5000 trials with one generator each
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1, complex_bs=False)
        config = StarConfig.random(4, rng)
        alphas = covariance_scalars(system, config)
        n_draws = 50_000
        acc = np.zeros((2, 4, 4), dtype=complex)
        for _ in range(n_draws // 5000):
            h = sample_realization(system, config, rng.spawn(5000)).h
            acc += np.sum(h[:, :, :, None] * h.conj()[:, :, None, :], axis=0)
        acc /= n_draws
        for k in range(2):
            target = alphas[k] * system.corr.r_bs
            err = np.linalg.norm(acc[k] - target) / np.linalg.norm(target)
            assert err < 0.05

    @pytest.mark.parametrize("k_t, k_r, n, complex_bs", [
        (2, 2, 16, False), (2, 2, 100, False), (1, 1, 25, True), (2, 1, 64, True),
        (0, 3, 9, True)])
    def test_generator_sequence_stacks_single_draws(self, k_t, k_r, n, complex_bs, rng):
        # each generator of the sequence is consumed as a lone generator is:
        # the draws stack, and each generator's next draw (the pilot noise of
        # a Monte Carlo trial) matches too; K = 4 is bit-identical
        system = random_system(rng, m=8, n=n, k_t=k_t, k_r=k_r, complex_bs=complex_bs)
        config = StarConfig.random(n, rng)
        seeds = np.random.SeedSequence(5).spawn(7)
        chunk_rngs = [np.random.default_rng(s) for s in seeds]
        chunk = sample_realization(system, config, chunk_rngs)
        lone_rngs = [np.random.default_rng(s) for s in seeds]
        lone = [sample_realization(system, config, g) for g in lone_rngs]
        for field in ("q", "d", "h"):
            stacked = np.stack([getattr(real, field) for real in lone])
            assert getattr(chunk, field).shape == stacked.shape == \
                (7,) + getattr(lone[0], field).shape
            if system.dims.k == 4:
                np.testing.assert_array_equal(getattr(chunk, field), stacked)
            else:
                assert_rows_close(getattr(chunk, field), stacked, rtol=1e-13)
        for mine, theirs in zip(chunk_rngs, lone_rngs):
            np.testing.assert_array_equal(complex_normal(mine, (3, 8)),
                                          complex_normal(theirs, (3, 8)))

    def test_assembly_identity(self, rng):
        # h_k = d_k + G Phi q_k with G formed in the test from the same draw
        system = random_system(rng, m=5, n=6, k_t=1, k_r=2)
        config = StarConfig.random(6, rng)
        g, _, _, _ = explicit_draw(system, config, seed=21)
        real = sample_realization(system, config, np.random.default_rng(21))
        expected = np.array([real.d[k] + g @ (config.phi(mode) * real.q[k])
                             for k, mode in enumerate(system.modes)])
        assert_rows_close(real.h, expected, rtol=1e-12)

    @pytest.mark.parametrize("case", ["complex_bs", "no_t_users", "zero_gains"])
    def test_same_sample_path_as_explicit_g(self, case, rng):
        # the G-free draw consumes the generator like the draw that forms G
        if case == "complex_bs":
            system = random_system(rng, m=6, n=7, k_t=2, k_r=2, complex_bs=True)
        elif case == "no_t_users":
            system = random_system(rng, m=5, n=8, k_t=0, k_r=3)
        else:
            system = with_gains(
                random_system(rng, m=4, n=6, k_t=1, k_r=1),
                LinkGains(beta_g=0.0, beta_bar=np.array([0.0, 0.7]),
                          beta_tilde=np.array([0.5, 0.0])),
            )
        config = StarConfig.random(system.dims.n, rng)
        _, q, d, h = explicit_draw(system, config, seed=8)
        real = sample_realization(system, config, np.random.default_rng(8))
        assert real.q.shape == q.shape and real.h.shape == h.shape
        assert_rows_close(real.q, q, rtol=1e-12)
        assert_rows_close(real.d, d, rtol=1e-12)
        assert_rows_close(real.h, h, rtol=1e-12)

    def test_complex_normal_matches_explicit_formula(self):
        first = complex_normal(np.random.default_rng(4), (3, 5))
        rng = np.random.default_rng(4)
        expected = (rng.standard_normal((3, 5))
                    + 1j * rng.standard_normal((3, 5))) / np.sqrt(2.0)
        np.testing.assert_array_equal(first, expected)
