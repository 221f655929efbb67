import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_user_system, random_system, uncorrelated_ris_system
from starmimo import channel, rate
from starmimo.channel import (
    ChannelRealization,
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
    FoldedFactor,
    GridKernel,
    LinkGains,
    build_bs_correlation,
)
from starmimo.rate import dense_covariance_scalars, evaluate


def cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def surface_gram(system, config, q):
    """V^H V for V = R_RIS^{1/2} [phi_u * q_k], as (phi * q)^H R_RIS (phi * q)
    through the dense R_RIS."""
    x = np.array([config.phi("tr"[u]) * q[i] for i, u in enumerate(system.region)]).T
    return x.conj().T @ system.corr.r_ris @ x


def gram_root(gram):
    """The Hermitian root of one Gram, with exact zero rows and columns for
    users whose diagonal entry is 0."""
    root = symmetric_sqrt(gram)
    dead = np.diag(gram).real == 0.0
    root[:, dead] = 0.0
    root[dead] = 0.0
    return root


def explicit_draw(system, config, seed):
    """Reference replay of the sampler, one user at a time: c, c_bar and Z
    from the generator in that order, q_k = sqrt(beta_tilde_k) L c_k,
    d_k = sqrt(beta_bar_k) L_BS c_bar_k, the Gram through the dense R_RIS,
    its Hermitian root F and h_k = d_k + sqrt(beta_g) L_BS Z F e_k."""
    rng = np.random.default_rng(seed)
    bs_factor, ris_factor = system.corr.bs_factor, system.corr.ris_factor
    k, r, r_bs = system.dims.k, ris_factor.shape[1], bs_factor.shape[1]
    c, c_bar, z = cn(rng, (k, r)), cn(rng, (k, r_bs)), cn(rng, (r_bs, k))
    q = np.sqrt(system.gains.beta_tilde)[:, None] * (c @ ris_factor.T)
    d = np.sqrt(system.gains.beta_bar)[:, None] * (c_bar @ bs_factor.T)
    factor = gram_root(surface_gram(system, config, q))
    h = np.array([d[i] + np.sqrt(system.gains.beta_g) * (bs_factor @ z @ factor[:, i])
                  for i in range(k)])
    return z, q, d, h


def symmetric_sqrt(a):
    eigvals, eigvecs = np.linalg.eigh(a)
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T


def g_forming_draw(system, config, rng, n_trials):
    """The model as written, for the law only: D (M x N), c (K x N) and
    c_bar (K x M) per trial, G = sqrt(beta_g) R_BS^{1/2} D R_RIS^{1/2} with
    the symmetric roots, and h_k = d_k + G (phi_u * q_k).  (T, K, M)."""
    m, n, k = system.dims.m, system.dims.n, system.dims.k
    bs_root, ris_root = symmetric_sqrt(system.corr.r_bs), symmetric_sqrt(system.corr.r_ris)
    d_fast, c, c_bar = (cn(rng, (n_trials, m, n)), cn(rng, (n_trials, k, n)),
                        cn(rng, (n_trials, k, m)))
    g = np.sqrt(system.gains.beta_g) * (bs_root @ d_fast @ ris_root)
    q = np.sqrt(system.gains.beta_tilde)[:, None] * (c @ ris_root.T)
    d = np.sqrt(system.gains.beta_bar)[:, None] * (c_bar @ bs_root.T)
    phi = np.array([config.phi("tr"[u]) for u in system.region])
    return d + np.swapaxes(g @ np.swapaxes(phi * q, -1, -2), -1, -2)


# Largest two-sample z-score of a moment that the law test accepts.  A case
# compares 90 to 620 moments, and a Gaussian |z| exceeds 5 with probability
# 6e-7, so a correct draw fails a case with probability below 4e-4.
LAW_Z = 5.0


def law_z_scores(system, config, n_trials, seed):
    """Two-sample z-scores between the sampler and the G-forming draw of the
    real and imaginary parts of E h_k h_k^H and of E|h_k^H h_i|^2, k != i."""
    rng = np.random.default_rng(seed)
    samples = [np.concatenate([sample_realization(system, config, rng.spawn(5000)).h
                               for _ in range(n_trials // 5000)]),
               g_forming_draw(system, config, rng, n_trials)]
    k = system.dims.k
    off_diagonal = ~np.eye(k, dtype=bool)
    stats = []
    for h in samples:
        outer = h[..., :, None] * h.conj()[..., None, :]
        gram = h.conj() @ np.swapaxes(h, -1, -2)
        values = np.concatenate([outer.real.reshape(n_trials, -1),
                                 outer.imag.reshape(n_trials, -1),
                                 np.abs(gram[:, off_diagonal]) ** 2], axis=1)
        stats.append((values.mean(axis=0), values.var(axis=0, ddof=1) / n_trials))
    (mean_a, var_a), (mean_b, var_b) = stats
    spread = np.sqrt(var_a + var_b)
    # entries that are exactly 0 in both draws (imaginary diagonals) carry no test
    return np.abs(mean_a - mean_b)[spread > 0] / spread[spread > 0]


def first_trial(system, config, rng):
    """Trial 0 of a draw with the one generator ``rng``, without the trial axis."""
    real = sample_realization(system, config, [rng])
    return ChannelRealization(q=real.q[0], d=real.d[0], h=real.h[0])


def assert_rows_close(actual, expected, rtol):
    """Each row within ``rtol`` of its expected row in 2-norm (zero rows exact)."""
    gap = np.linalg.norm(actual - expected, axis=-1)
    assert np.all(gap <= rtol * np.linalg.norm(expected, axis=-1)), gap


def grid_surface(system, grid=None):
    """``system`` on a quarter-wavelength grid surface, square unless
    ``grid`` (n_v, n_h) is given."""
    if grid is None:
        side = int(round(np.sqrt(system.dims.n)))
        grid = (side, side)
    geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.25)
    return replace(system, corr=CorrelationPair.from_grid(system.corr.r_bs, geom))


def surface_system(rng, geom, k_t=2, k_r=2):
    """A sinc surface on ``geom`` kept as its offset table, M = 8, O(1) gains."""
    k = k_t + k_r
    corr = CorrelationPair.from_grid(build_bs_correlation(8, "exponential", 0.6), geom)
    return SystemModel(
        corr=corr,
        gains=LinkGains(beta_g=1.0, beta_bar=rng.uniform(0.2, 1.0, k),
                        beta_tilde=rng.uniform(0.2, 1.0, k)),
        k_t=k_t, tau_c=200, tau=k, rho=2.0, pilot_power=1.0, sigma2=0.3,
    )


def grid_system(rng, side, k_t=2, k_r=2):
    """A side x side quarter-wavelength surface kept as its offset table."""
    return surface_system(rng, ArrayGeometry(side, side, 0.25, 0.25), k_t, k_r)


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
        cfg.theta[0, 0] = 2.0
        with pytest.raises(ValueError, match="unit modulus"):
            cfg.validate()

    def test_rejects_energy_violation(self):
        cfg = StarConfig.equal_split(4)
        cfg.beta[0, 0] = 1.0
        with pytest.raises(ValueError, match="energy"):
            cfg.validate()

    def test_ms_requires_binary(self):
        cfg = StarConfig.equal_split(4)
        cfg.protocol = "ms"
        with pytest.raises(ValueError, match="binary"):
            cfg.validate()
        binary = StarConfig(theta=np.ones((2, 2)), beta=[[1.0, 0.0], [0.0, 1.0]],
                            protocol="ms")
        binary.validate()

    def test_signed_amplitudes_allowed(self):
        cfg = StarConfig.equal_split(4)
        cfg.beta[0, 1] *= -1.0
        cfg.validate()  # energy conservation holds with signed entries

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StarConfig(theta=np.ones((2, 3)), beta=np.ones((2, 2)))
        with pytest.raises(ValueError, match="share one shape"):
            StarConfig(theta=np.ones((2, 3)), beta=np.ones((1, 2, 3)))
        for shape in ((3,), (1, 3), (3, 3), (4, 3, 3)):
            with pytest.raises(ValueError, match="region axis"):
                StarConfig(theta=np.ones(shape), beta=np.ones(shape))

    def test_phi_rejects_unknown_region(self):
        config = StarConfig.equal_split(2)
        np.testing.assert_array_equal(config.phi("r"), config.beta[1] * config.theta[1])
        for mode in ("x", "R", "", "tr"):
            with pytest.raises(ValueError):
                config.phi(mode)

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_draws_match_one_draw_per_region(self, n):
        # one (2, n) phase draw gives the bits of a t-region draw of n values
        # followed by an r-region draw of n values, from the same stream
        def per_region_phases(rng):
            theta_t = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
            theta_r = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
            return theta_t, theta_r

        theta_t, theta_r = per_region_phases(np.random.default_rng(n))
        split = StarConfig.equal_split(n, np.random.default_rng(n))
        np.testing.assert_array_equal(split.theta, [theta_t, theta_r])
        np.testing.assert_array_equal(split.beta, np.full((2, n), np.sqrt(0.5)))

        rng = np.random.default_rng(n)
        chi = rng.uniform(0.0, np.pi / 2.0, n)
        theta_t, theta_r = per_region_phases(rng)
        drawn = StarConfig.random(n, np.random.default_rng(n))
        np.testing.assert_array_equal(drawn.theta, [theta_t, theta_r])
        np.testing.assert_array_equal(drawn.beta, [np.cos(chi), np.sin(chi)])


class TestSystemModel:
    def test_derives_dims_and_regions(self, rng):
        system = random_system(rng, m=6, n=5, k_t=2, k_r=3)
        assert system.dims == SystemDims(m=6, n=5, k_t=2, k_r=3, tau_c=200, tau=5)
        np.testing.assert_array_equal(system.region, [0, 0, 1, 1, 1])
        np.testing.assert_array_equal(system.region_mask,
                                      [[1, 0], [1, 0], [0, 1], [0, 1], [0, 1]])
        # a replaced input re-derives every dimension it fixes
        grid = grid_surface(system, (3, 4))
        assert (grid.dims.m, grid.dims.n, grid.dims.k) == (6, 12, 5)

    @pytest.mark.parametrize("changes, message", [
        ({"k_t": 4}, "dimensions must be positive"),
        ({"k_t": -1}, "dimensions must be positive"),
        ({"k_t": 0, "gains": LinkGains(beta_g=1.0, beta_bar=[], beta_tilde=[])},
         "at least one user"),
        ({"tau": 2}, "orthogonal pilots need tau >= K"),
        ({"tau": 201}, "pilot length cannot exceed the coherence block"),
        ({"rho": 0.0}, "powers must be positive"),
        ({"pilot_power": 0.0}, "powers must be positive"),
        ({"sigma2": 0.0}, "powers must be positive"),
        ({"rho": np.nan}, "powers must be positive"),
        ({"pilot_power": np.inf}, "powers must be positive"),
        ({"sigma2": np.nan}, "powers must be positive"),
    ], ids=["k_t-above-K", "k_t-negative", "no-users", "tau-below-K", "tau-above-tau_c",
            "zero-rho", "zero-pilot-power", "zero-sigma2", "nan-rho", "inf-pilot-power",
            "nan-sigma2"])
    def test_rejects_inconsistent_inputs(self, changes, message, rng):
        system = random_system(rng, k_t=2, k_r=1)  # K = 3, tau = 4, tau_c = 200
        with pytest.raises(ValueError, match=message):
            replace(system, **changes)


def t_region_alphas(r_ris, beta, theta):
    """A t-region user's alpha, with beta_bar = 0 and beta_hat = 1 (so the
    region trace itself), from the kernel and from the referee."""
    system = one_user_system(r_ris=r_ris)
    config = StarConfig(theta=[theta, np.ones_like(theta)], beta=[beta, np.zeros_like(beta)])
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
        # R is never upcast to complex: the product allows at most one real
        # N x N temporary, and the buffered einsum makes none
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


# (n_v, n_h) grids for the dense referees' row blocks: square, wider than
# tall and taller than wide, a line and a single element
BLOCK_GRIDS = [(8, 8), (3, 7), (9, 16), (1, 130), (1, 1)]


def block_grid_system(rng, grid):
    return surface_system(rng, ArrayGeometry(n_h=grid[1], n_v=grid[0],
                                             spacing_h=0.25, spacing_v=0.25))


class TestRowBlocks:
    """The dense referees read R_RIS in blocks of rows; blocks of at most 5
    rows split a grid row on every grid but the single element."""

    @pytest.mark.parametrize("grid", BLOCK_GRIDS)
    def test_grid_rows_are_the_dense_rows(self, grid):
        # unequal spacings, so that a transposed gather would show
        geom = ArrayGeometry(n_h=grid[1], n_v=grid[0], spacing_h=0.25, spacing_v=0.35)
        pair = CorrelationPair.from_grid(np.eye(2), geom)
        n = pair.n
        for start in range(0, n, 5):
            rows = pair.ris_rows(start, min(start + 5, n))
            np.testing.assert_array_equal(rows, pair.r_ris[start:start + 5])
        np.testing.assert_array_equal(pair.ris_rows(0, n), pair.r_ris)

    def test_explicit_rows_are_views(self, rng):
        r_ris = random_system(rng, n=7).corr.r_ris
        pair = CorrelationPair.from_matrices(np.eye(2), r_ris)
        rows = pair.ris_rows(2, 6)
        assert np.shares_memory(rows, pair.r_ris)
        np.testing.assert_array_equal(rows, r_ris[2:6])

    @pytest.mark.parametrize("grid", BLOCK_GRIDS)
    def test_block_route_matches_the_whole_surface(self, grid, rng, monkeypatch):
        system = block_grid_system(rng, grid)
        n = system.dims.n
        config = StarConfig.random(n, rng)
        monkeypatch.setattr(rate, "ROW_BLOCK_BYTES", 5 * n * 8)
        diagonals = np.empty((2, n), dtype=complex)
        alphas = dense_covariance_scalars(config, system, diagonals)
        assert "r_ris" not in system.corr.__dict__
        traces = []
        for diagonal, region in zip(diagonals, "tr"):
            phi = config.phi(region)
            expected = pbm_quadratic_diag(system.corr.r_ris, phi)
            np.testing.assert_allclose(diagonal, expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))
            traces.append(np.vdot(phi, expected).real)
        whole = system.gains.beta_bar + system.gains.beta_hat * np.array(traces)[system.region]
        np.testing.assert_allclose(alphas, whole, rtol=1e-12)
        np.testing.assert_array_equal(dense_covariance_scalars(config, system), alphas)

    def test_a_block_of_rows_gives_their_diagonal_entries(self, rng):
        r = random_system(rng, n=9).corr.r_ris
        phi = rng.uniform(-1, 1, 9) * np.exp(1j * rng.uniform(0, 2 * np.pi, 9))
        np.testing.assert_allclose(pbm_quadratic_diag(r[3:7], phi),
                                   pbm_quadratic_diag(r, phi)[3:7], rtol=1e-14)
        for bad in (r[:, :8], r[None]):
            with pytest.raises(ValueError, match="mismatch"):
                pbm_quadratic_diag(bad, phi)


class TestCovarianceScalars:
    def test_single_active_element(self):
        transmits = np.zeros(4)
        transmits[0] = 1.0
        config = StarConfig(theta=np.ones((2, 4), dtype=complex),
                            beta=[transmits, np.sqrt(1 - transmits**2)])
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
        config.beta[:] = [[0.0], [1.0]]
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
        batch = evaluate(np.stack([c.theta for c in configs]),
                         np.stack([c.beta for c in configs]), system)
        assert "r_ris" not in system.corr.__dict__
        for p, config in enumerate(configs):
            single = evaluate(config.theta, config.beta, system)
            np.testing.assert_array_equal(batch.a[p], single.a)
            np.testing.assert_allclose(single.alphas, dense_covariance_scalars(config, system),
                                       rtol=1e-12)
            for u, region in enumerate("tr"):
                expected = pbm_quadratic_diag(system.corr.r_ris, config.phi(region))
                assert np.max(np.abs(single.a[u] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_fft_kernel_gives_a_dark_region_exact_zero(self, rng):
        system = grid_system(rng, 32)
        config = StarConfig.random(system.dims.n, rng)
        config.beta[:] = [[0.0], [1.0]]
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
            draw.beta = beta.beta.copy()
            alphas.append(covariance_scalars(system, draw))
        spread = np.ptp(np.array(alphas), axis=0)
        assert np.max(spread) < 1e-12


class TestSampleRealization:
    def test_zero_gains_give_zero_channel(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        system = replace(system, gains=LinkGains(beta_g=0.0, beta_bar=np.zeros(2),
                                                 beta_tilde=np.zeros(2)))
        real = first_trial(system, StarConfig.equal_split(4, rng), rng)
        np.testing.assert_array_equal(real.h, np.zeros((2, 4)))

    def test_direct_only_when_surface_dark(self, rng):
        corr = CorrelationPair.from_matrices(np.eye(4), np.eye(4))
        system = SystemModel(
            corr=corr,
            gains=LinkGains(beta_g=1.0, beta_bar=np.array([1.0, 1.0]),
                            beta_tilde=np.array([1.0, 1.0])),
            k_t=1, tau_c=100, tau=2, rho=1.0, pilot_power=1.0, sigma2=0.1,
        )
        config = StarConfig(theta=np.ones((2, 4), dtype=complex), beta=np.zeros((2, 4)))
        real = first_trial(system, config, rng)
        np.testing.assert_array_equal(real.h, real.d)

    @pytest.mark.parametrize("white_ris", [False, True], ids=["correlated", "white"])
    def test_empirical_covariance_matches_closed_form(self, white_ris, rng):
        # law of large numbers against the covariance scalar, M = N = 4,
        # drawn in chunks of 5000 trials with one generator each; the same
        # bound holds with and without surface correlation
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1, complex_bs=False)
        if white_ris:
            system = replace(system,
                             corr=CorrelationPair.from_matrices(system.corr.r_bs, np.eye(4)))
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

    @pytest.mark.parametrize("k_t, k_r, n, complex_bs, grid", [
        (2, 2, 16, False, False), (2, 2, 100, False, False), (1, 1, 25, True, False),
        (2, 1, 64, True, False), (0, 3, 9, True, False), (2, 2, 144, False, True),
        (2, 2, 16, False, True), (1, 1, 25, True, True)])
    def test_generator_sequence_stacks_single_draws(self, k_t, k_r, n, complex_bs, grid, rng):
        # each generator of the sequence is consumed as a lone generator is:
        # the draws stack, and each generator's next draw (the pilot noise of
        # a Monte Carlo trial) matches too; K = 4 is bit-identical.  A grid
        # surface's factor is folded, an explicit matrix's dense.
        system = random_system(rng, m=8, n=n, k_t=k_t, k_r=k_r, complex_bs=complex_bs)
        if grid:
            system = grid_surface(system)
            assert isinstance(system.corr.ris_factor, FoldedFactor)
        else:
            assert isinstance(system.corr.ris_factor, np.ndarray)
        config = StarConfig.random(n, rng)
        seeds = np.random.SeedSequence(5).spawn(7)
        chunk_rngs = [np.random.default_rng(s) for s in seeds]
        chunk = sample_realization(system, config, chunk_rngs)
        lone_rngs = [np.random.default_rng(s) for s in seeds]
        lone = [first_trial(system, config, g) for g in lone_rngs]
        for field in ("q", "d", "h"):
            stacked = np.stack([getattr(real, field) for real in lone])
            assert getattr(chunk, field).shape == stacked.shape == \
                (7,) + getattr(lone[0], field).shape
            if system.dims.k == 4:
                np.testing.assert_array_equal(getattr(chunk, field), stacked)
            else:
                assert_rows_close(getattr(chunk, field), stacked, rtol=1e-13)
        np.testing.assert_array_equal(complex_normal(chunk_rngs, (3, 8))[0],
                                      complex_normal(lone_rngs, (3, 8))[0])

    def test_assembly_identity(self, rng):
        # h = d + sqrt(beta_g) R_BS^{1/2} Z F, with Z replayed from the
        # generator after c and c_bar, and F the Hermitian root of the Gram
        # V^H V formed in the test from the returned q and the dense R_RIS
        system = random_system(rng, m=5, n=6, k_t=1, k_r=2)
        config = StarConfig.random(6, rng)
        real = first_trial(system, config, np.random.default_rng(21))
        z, _, _, _ = explicit_draw(system, config, seed=21)
        factor = gram_root(surface_gram(system, config, real.q))
        expected = real.d + np.sqrt(system.gains.beta_g) * (system.corr.bs_factor @ z @ factor).T
        assert_rows_close(real.h, expected, rtol=1e-12)

    @pytest.mark.parametrize("case", ["complex_bs", "no_t_users", "zero_gains"])
    def test_same_sample_path_as_explicit_draw(self, case, rng):
        # the batched draw consumes the generator like the one-user-at-a-time replay
        if case == "complex_bs":
            system = random_system(rng, m=6, n=7, k_t=2, k_r=2, complex_bs=True)
        elif case == "no_t_users":
            system = random_system(rng, m=5, n=8, k_t=0, k_r=3)
        else:
            system = replace(
                random_system(rng, m=4, n=6, k_t=1, k_r=1),
                gains=LinkGains(beta_g=0.0, beta_bar=np.array([0.0, 0.7]),
                                beta_tilde=np.array([0.5, 0.0])),
            )
        config = StarConfig.random(system.dims.n, rng)
        _, q, d, h = explicit_draw(system, config, seed=8)
        real = first_trial(system, config, np.random.default_rng(8))
        assert real.q.shape == q.shape and real.h.shape == h.shape
        assert_rows_close(real.q, q, rtol=1e-12)
        assert_rows_close(real.d, d, rtol=1e-12)
        assert_rows_close(real.h, h, rtol=1e-12)

    @pytest.mark.parametrize("grid", [(11, 11), (12, 12), (9, 16)])
    def test_folded_factor_draws_as_its_dense_form(self, grid, rng):
        # one generator's draw through the folded factor and through the same
        # factor as a dense N x r array: the same sample path, to roundoff
        n = grid[0] * grid[1]
        system = grid_surface(random_system(rng, m=6, n=n, k_t=2, k_r=2), grid)
        folded = system.corr.ris_factor
        assert isinstance(folded, FoldedFactor)
        dense_corr = replace(system.corr)  # a fresh pair, nothing cached
        dense_corr.__dict__["ris_factor"] = folded @ np.eye(folded.shape[1])
        dense = replace(system, corr=dense_corr)
        config = StarConfig.random(n, rng)
        seeds = np.random.SeedSequence(9).spawn(3)
        real = sample_realization(system, config, [np.random.default_rng(s) for s in seeds])
        ref = sample_realization(dense, config, [np.random.default_rng(s) for s in seeds])
        for field in ("q", "d", "h"):
            assert_rows_close(getattr(real, field), getattr(ref, field), rtol=1e-12)

    @pytest.mark.parametrize("case", ["full_rank", "correlated", "more_users_than_elements"])
    def test_joint_law_matches_g_forming_draw(self, case, rng):
        # E h_k h_k^H and the cross-user moments E|h_k^H h_i|^2 of 20,000
        # trials against the draw that forms G; "correlated" is a 2 x 2
        # tenth-wavelength surface, where all users' cascaded links are
        # nearly collinear, and the last case has K = 5 users on N = 4
        # elements, so every Gram is singular
        if case == "full_rank":
            system = random_system(rng, m=4, n=5, k_t=2, k_r=1)
        else:
            k_t, k_r = (2, 1) if case == "correlated" else (3, 2)
            system = surface_system(rng, ArrayGeometry(2, 2, 0.1, 0.1), k_t, k_r)
        config = StarConfig.random(system.dims.n, rng)
        z = law_z_scores(system, config, 20_000, seed=3)
        assert z.max() <= LAW_Z, z.max()

    def test_law_test_rejects_a_per_user_factor(self, rng, monkeypatch):
        # F = diag(sqrt(W_kk)) keeps every user's own covariance but draws
        # the users' cascaded links independently; the cross moments show it
        system = surface_system(rng, ArrayGeometry(2, 2, 0.1, 0.1), 2, 1)
        config = StarConfig.random(4, rng)
        monkeypatch.setattr(channel, "_gram_factor", lambda gram: np.sqrt(
            np.diagonal(gram, axis1=-2, axis2=-1).real)[..., None] * np.eye(gram.shape[-1]))
        assert law_z_scores(system, config, 20_000, seed=3).max() > LAW_Z

    @pytest.mark.parametrize("n", [6, 4])
    def test_dark_region_gives_the_direct_channel_exactly(self, n, rng):
        # every element reflects fully, so the t users' cascaded links are
        # 0; n = 4 has K = 5 > N users
        system = random_system(rng, m=4, n=n, k_t=3, k_r=2)
        config = StarConfig.random(n, rng)
        config.beta[:] = [[0.0], [1.0]]
        real = sample_realization(system, config, rng.spawn(6))
        np.testing.assert_array_equal(real.h[:, :3], real.d[:, :3])
        assert np.all(real.h[:, 3:] != real.d[:, 3:])

    @pytest.mark.parametrize("n", [6, 3])
    def test_zero_gains_give_exact_zeros(self, n, rng):
        # user 0 has only the cascaded link, user 1 only the direct one and
        # user 3 none; the Gram's zero column lies between nonzero ones,
        # where the eigenvectors alone leave roundoff; n = 3 has K = 4 > N
        system = replace(random_system(rng, m=4, n=n, k_t=2, k_r=2),
                         gains=LinkGains(beta_g=1.0, beta_bar=np.array([0.0, 0.5, 0.5, 0.0]),
                                         beta_tilde=np.array([0.7, 0.0, 0.7, 0.0])))
        config = StarConfig.random(n, rng)
        real = sample_realization(system, config, rng.spawn(6))
        np.testing.assert_array_equal(real.q[:, [1, 3]], 0.0)
        np.testing.assert_array_equal(real.d[:, [0, 3]], 0.0)
        np.testing.assert_array_equal(real.h[:, 3], 0.0)
        np.testing.assert_array_equal(real.h[:, 1], real.d[:, 1])
        assert np.all(real.h[:, 0] != 0.0)

    @pytest.mark.parametrize("r, k", [(6, 4), (3, 5), (1, 4)])
    def test_gram_factor_reproduces_singular_grams(self, r, k, rng):
        # singular Grams (a zero user column in every trial, one all-zero
        # trial, and r < K in two cases): F^H F = W to roundoff, F is the
        # Hermitian root, and a zero column of W gives an exact zero row and
        # column of F
        v = cn(rng, (7, r, k))
        v[:, :, 1] = 0.0
        v[3] = 0.0
        gram = np.swapaxes(v.conj(), -1, -2) @ v
        factor = channel._gram_factor(gram)
        assert factor.shape == gram.shape
        rebuilt = np.swapaxes(factor.conj(), -1, -2) @ factor
        assert np.max(np.abs(rebuilt - gram)) <= 1e-12 * np.max(np.abs(gram))
        assert np.max(np.abs(factor - np.swapaxes(factor.conj(), -1, -2))) <= \
            1e-12 * np.max(np.abs(factor))
        np.testing.assert_array_equal(factor[:, :, 1], 0.0)
        np.testing.assert_array_equal(factor[:, 1], 0.0)
        np.testing.assert_array_equal(factor[3], 0.0)

    def test_complex_normal_matches_explicit_formula(self):
        first = complex_normal([np.random.default_rng(4)], (3, 5))[0][0]
        rng = np.random.default_rng(4)
        expected = (rng.standard_normal((3, 5))
                    + 1j * rng.standard_normal((3, 5))) / np.sqrt(2.0)
        np.testing.assert_array_equal(first, expected)
