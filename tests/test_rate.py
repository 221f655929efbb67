import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import bits, random_system, uncorrelated_ris_system
from starmimo.channel import StarConfig, SystemModel, covariance_scalars
from starmimo import referee
from starmimo.correlation import (
    FFT_MIN_N,
    ArrayGeometry,
    CorrelationPair,
    GridKernel,
    LinkGains,
    build_ris_correlation,
)
from starmimo.gradients import build_workspace, grad_objective, grad_objective_from_workspace
from starmimo.rate import ClosedForm, assemble_report, sinr_from_terms, sum_se


def scalar_system(alpha, eps, noise_lift, m):
    """One user whose covariance scalar is ``alpha`` whatever the surface does
    (no cascaded gain), unit BS eigenvalues, estimation noise ``eps`` and
    noise weight K sigma^2 / rho = ``noise_lift``; so Psi has eigenvalues
    alpha^2 / (alpha + eps)."""
    return SystemModel(
        corr=CorrelationPair.from_matrices(np.eye(m), np.eye(1)),
        gains=LinkGains(beta_g=0.0, beta_bar=[alpha], beta_tilde=[1.0]),
        k_t=1, tau_c=200, tau=1, rho=1.0 / noise_lift, pilot_power=1.0 / eps, sigma2=1.0,
    )


def grid_system(n_v, n_h, rng):
    """Two users, one per region, on an (n_v, n_h) sinc grid of quarter-
    wavelength spacing, kept as its offset table."""
    corr = CorrelationPair.from_grid(np.eye(4), ArrayGeometry(n_h, n_v, 0.25, 0.25))
    return SystemModel(
        corr=corr,
        gains=LinkGains(beta_g=1.0, beta_bar=rng.uniform(0.2, 1.0, 2),
                        beta_tilde=rng.uniform(0.2, 1.0, 2)),
        k_t=1, tau_c=200, tau=2, rho=1.0, pilot_power=1.0, sigma2=0.1,
    )


def report_of(system):
    return sum_se(StarConfig.equal_split(system.dims.n), system)


class TestSignalTerm:
    def test_half_identity(self):
        # psi = 1 / (1 + 1) = 0.5 on four unit eigenvalues
        assert report_of(scalar_system(1.0, 1.0, 1.0, 4)).s[0] == pytest.approx(4.0)

    def test_zero(self):
        assert report_of(scalar_system(0.0, 1.0, 1.0, 4)).s[0] == 0.0

    def test_identity(self):
        # noiseless pilots: psi = alpha on eight unit eigenvalues
        assert report_of(scalar_system(1.0, 1e-15, 1.0, 8)).s[0] == pytest.approx(64.0)


class TestInterferenceTerm:
    def test_single_user_example(self):
        # K=1, M=4, alpha=1, unit BS eigenvalues, psi = 0.5, K sigma^2/rho = 0.5
        system = scalar_system(1.0, 1.0, 0.5, 4)
        value = report_of(system).i_tilde[0]
        assert value == pytest.approx(4 * 0.5 - 4 * 0.25 + 0.5 * 4 * 0.5)
        assert value == pytest.approx(2.0)
        assert sum_se(StarConfig.equal_split(1), system, method="dense").i_tilde[0] \
            == pytest.approx(2.0)

    def test_all_zero_estimates(self):
        report = report_of(scalar_system(0.0, 1.0, 1.0, 4))
        assert report.i_tilde[0] == 0.0
        assert report.gamma[0] == 0.0
        assert sinr_from_terms(np.zeros(1), np.zeros(1))[0] == 0.0

    def test_vanishing_noise_stays_nonnegative(self, rng):
        # rho -> infinity leaves sum tr(R_k Psi_i) - tr(Psi_k^2) >= 0
        for _ in range(3):
            system = random_system(rng, m=6, k_t=2, k_r=1, rho=1e12, sigma2=0.2)
            report = sum_se(StarConfig.random(system.dims.n, rng), system)
            assert np.all(report.i_tilde >= -1e-12)

    def test_rejects_bad_power(self, rng):
        system = random_system(rng)
        with pytest.raises(ValueError, match="powers must be positive"):
            replace(system, rho=0.0)


class TestSumSe:
    def test_prelog_arithmetic(self):
        # single user at SINR 3 with a 200-use block and 4 pilot symbols
        _, total = assemble_report(np.array([3.0]), np.array([1.0]), prelog=196 / 200)
        assert total == pytest.approx(1.96)

    def test_all_training_gives_zero(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        system = replace(system, tau_c=4, tau=4)
        config = StarConfig.random(4, rng)
        assert sum_se(config, system).sum_se == 0.0

    def test_phase_independence_without_ris_correlation(self, rng):
        system = uncorrelated_ris_system(rng)
        base = StarConfig.random(system.dims.n, rng)
        values = []
        for _ in range(10):
            draw = StarConfig.random(system.dims.n, rng)
            draw.beta = base.beta.copy()
            values.append(sum_se(draw, system).sum_se)
        assert np.ptp(values) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fast_path_equals_dense(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 17))
        n = int(rng.integers(2, 17))
        k_t = int(rng.integers(1, 3))
        k_r = int(rng.integers(1, 3))
        system = random_system(rng, m=m, n=n, k_t=k_t, k_r=k_r,
                               complex_bs=bool(seed % 2))
        config = StarConfig.random(n, rng)
        fast = sum_se(config, system, method="eig")
        dense = sum_se(config, system, method="dense")
        np.testing.assert_allclose(fast.s, dense.s, rtol=1e-9)
        np.testing.assert_allclose(fast.i_tilde, dense.i_tilde, rtol=1e-9)
        np.testing.assert_allclose(fast.gamma, dense.gamma, rtol=1e-9)
        assert fast.sum_se == pytest.approx(dense.sum_se, rel=1e-9)

    def test_rejects_unknown_method(self, rng):
        system = random_system(rng)
        with pytest.raises(ValueError):
            sum_se(StarConfig.random(system.dims.n, rng), system, method="magic")

    def test_common_rotation_invariance_per_region(self, rng):
        system = random_system(rng, complex_bs=False)
        config = StarConfig.random(system.dims.n, rng)
        base = sum_se(config, system).sum_se
        rot_t = config.copy()
        rot_t.theta[0] = rot_t.theta[0] * np.exp(1j * 1.234)
        rot_r = config.copy()
        rot_r.theta[1] = rot_r.theta[1] * np.exp(1j * -0.521)
        assert sum_se(rot_t, system).sum_se == pytest.approx(base, rel=1e-10)
        assert sum_se(rot_r, system).sum_se == pytest.approx(base, rel=1e-10)

    def test_sign_flip_invariance(self, rng):
        system = random_system(rng)
        config = StarConfig.random(system.dims.n, rng)
        base = sum_se(config, system).sum_se
        flipped = config.copy()
        for idx in rng.choice(system.dims.n, size=2, replace=False):
            flipped.beta[0, idx] *= -1.0
            flipped.theta[0, idx] *= -1.0
        assert sum_se(flipped, system).sum_se == pytest.approx(base, rel=1e-10)

    def test_non_negative_outputs(self, rng):
        for _ in range(5):
            system = random_system(rng)
            report = sum_se(StarConfig.random(system.dims.n, rng), system)
            assert np.all(report.gamma >= 0)
            assert report.sum_se >= 0
            assert np.all(report.s >= 0)

    def test_monotone_in_power_budget(self, rng):
        base = random_system(rng, complex_bs=False)
        config = StarConfig.random(base.dims.n, rng)
        previous = -np.inf
        for rho in (0.1, 0.5, 1.0, 5.0, 50.0):
            value = sum_se(config, replace(base, rho=rho)).sum_se
            assert value >= previous - 1e-12
            previous = value


class TestGridSurface:
    def test_kernel_evaluation_leaves_the_dense_surface_unbuilt(self, rng):
        # below FFT_MIN_N the kernel is the dense square, gathered from the
        # squared offset table rather than from r_ris
        system = grid_system(3, 4, rng)
        assert system.dims.n < FFT_MIN_N
        config = StarConfig.random(system.dims.n, rng)
        ClosedForm(system).score(config.theta, config.beta)
        assert "r_ris" not in system.corr.__dict__
        np.testing.assert_array_equal(system.corr.ris_abs2, np.square(system.corr.r_ris))

    def test_dense_referee_makes_no_surface_sized_temporary(self, rng):
        system = grid_system(32, 32, rng)
        n = system.dims.n
        config = StarConfig.random(n, rng)
        assert system.corr.r_ris.shape == (n, n)
        tracemalloc.start()
        try:
            dense = sum_se(config, system, method="dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an N x N float64 array is N^2 * 8 bytes
        assert peak < 0.25 * n * n * 8
        assert dense.sum_se == pytest.approx(sum_se(config, system).sum_se, rel=1e-9)

    @pytest.mark.parametrize("grid", [(8, 8), (3, 7), (9, 16), (1, 130), (1, 1)])
    def test_dense_referees_match_an_explicit_copy(self, grid, rng, monkeypatch):
        # the explicit copy's blocks are views of its matrix; the grid's are
        # gathered from its offset table, at most 5 rows each, so that they
        # split its grid rows
        system = grid_system(*grid, rng)
        n = system.dims.n
        geom = ArrayGeometry(grid[1], grid[0], 0.25, 0.25)
        explicit = replace(system, corr=CorrelationPair.from_matrices(
            system.corr.r_bs, build_ris_correlation(geom)))
        config = StarConfig.random(n, rng)
        report = sum_se(config, explicit, method="dense")
        grad = grad_objective(config, explicit, method="dense")
        monkeypatch.setattr(referee, "ROW_BLOCK_BYTES", 5 * n * 8)
        blocked = sum_se(config, system, method="dense")
        assert blocked.sum_se == pytest.approx(report.sum_se, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(blocked.i_tilde, report.i_tilde, rtol=1e-12)
        gathered = []
        ris_rows = CorrelationPair.ris_rows
        monkeypatch.setattr(CorrelationPair, "ris_rows", lambda corr, start, stop: (
            gathered.append(stop - start) or ris_rows(corr, start, stop)))
        blocked_grad = grad_objective(config, system, method="dense")
        # the gradient referee reads R_RIS once: blocks of 5 rows, or of an
        # eighth of the rows where that is fewer
        assert sum(gathered) == n
        assert len(gathered) == -(-n // max(1, min(n // 8, 5)))
        for ours, theirs in ((blocked_grad.d_theta, grad.d_theta),
                             (blocked_grad.d_beta, grad.d_beta)):
            np.testing.assert_allclose(ours, theirs, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(theirs)))
        assert "r_ris" not in system.corr.__dict__

    @pytest.mark.parametrize("grid", [(64, 64), (1, 4096)])
    def test_dense_referees_hold_no_surface_matrix(self, grid, rng):
        system = grid_system(*grid, rng)
        n = system.dims.n
        config = StarConfig.random(n, rng)
        tracemalloc.start()
        try:
            dense = sum_se(config, system, method="dense")
            grad = grad_objective(config, system, method="dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1/8 of one N x N float64 matrix
        assert peak < n * n
        assert "r_ris" not in system.corr.__dict__
        assert dense.sum_se == pytest.approx(sum_se(config, system).sum_se, rel=1e-9)
        assert np.all(np.isfinite(grad.d_theta)) and np.all(np.isfinite(grad.d_beta))


class TestBatchInvariance:
    """A start's evaluation has the same bits in any batch: the kernel product
    is one gemm (or one FFT stack) per start and every trace and sum runs
    along the start's own row."""

    SYSTEMS = {
        "dense-grid": lambda rng: grid_system(8, 8, rng),
        "dense-matrices": lambda rng: random_system(rng, m=6, n=20, k_t=2, k_r=2),
        "fft-grid": lambda rng: grid_system(24, 24, rng),
    }

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    def test_each_start_alone_in_three_and_in_ten(self, kind, rng):
        system = self.SYSTEMS[kind](rng)
        n = system.dims.n
        assert isinstance(system.corr.ris_abs2, GridKernel) == (kind == "fft-grid")
        assert (n >= FFT_MIN_N) == (kind == "fft-grid")
        configs = [StarConfig.random(n, rng) for _ in range(10)]
        theta = np.stack([c.theta for c in configs])
        beta = np.stack([c.beta for c in configs])
        closed = ClosedForm(system)
        ten = closed.score(theta, beta)
        for p in range(10):
            first = min(p, 7)  # the start at every position of a batch of three
            three = closed.score(theta[first:first + 3], beta[first:first + 3])
            one = closed.score(theta[p], beta[p])
            for batch, row in ((ten, p), (three, p - first)):
                np.testing.assert_array_equal(bits(batch.alphas[row]), bits(one.alphas))
                np.testing.assert_array_equal(bits(batch.a[row]), bits(one.a))
                np.testing.assert_array_equal(bits(batch.sums[:, row]), bits(one.sums))


class TestEntryPoints:
    """The entry points that take a system return what PGAM's round gets from
    the system's kernel, bit for bit, on a batch with one row of direct gains
    per start; and that agrees with the dense referees."""

    SYSTEMS = {
        "dense-matrices": lambda rng: random_system(rng, m=6, n=20, k_t=2, k_r=2),
        "fft-grid": lambda rng: grid_system(24, 24, rng),
    }

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    def test_entry_points_return_the_kernel_values(self, kind, rng):
        system = self.SYSTEMS[kind](rng)
        n, k, starts = system.dims.n, system.dims.k, 3
        assert isinstance(system.corr.ris_abs2, GridKernel) == (kind == "fft-grid")
        system = replace(system, gains=replace(system.gains,
                                               beta_bar=rng.uniform(0.2, 1.0, (starts, k))))
        configs = [StarConfig.random(n, rng) for _ in range(starts)]
        theta = np.stack([c.theta for c in configs])
        beta = np.stack([c.beta for c in configs])
        closed = ClosedForm(system)
        score = closed.score(theta, beta)
        grad = closed.gradient(score)

        point = report = sum_se(StarConfig(theta, beta), system)
        for ours, hot in ((point.a, score.a), (point.alphas, score.alphas),
                          (point.sums, score.sums), (report.s, score.s),
                          (report.i_tilde, score.i_tilde), (report.gamma, score.gamma),
                          (report.sum_se, score.sum_se)):
            np.testing.assert_array_equal(bits(ours), bits(hot))
        diagonals = np.empty(theta.shape, dtype=complex)
        alphas = covariance_scalars(system, StarConfig(theta, beta), diagonals)
        np.testing.assert_array_equal(bits(alphas), bits(score.alphas))
        np.testing.assert_array_equal(bits(diagonals), bits(score.a))
        _, sums, i_tilde = ClosedForm(system).spectrum(score.alphas)
        _, spectral_sum_se = assemble_report(sums[0] ** 2, i_tilde, system.dims.prelog)
        np.testing.assert_array_equal(bits(sums), bits(score.sums))
        np.testing.assert_array_equal(bits(spectral_sum_se), bits(score.sum_se))
        entry = grad_objective_from_workspace(point, system, build_workspace(point, system))
        np.testing.assert_array_equal(bits(entry.d_theta), bits(grad.d_theta))
        np.testing.assert_array_equal(bits(entry.d_beta), bits(grad.d_beta))

        for row, config in enumerate(configs):
            alone = replace(system, gains=replace(system.gains,
                                                  beta_bar=system.gains.beta_bar[row]))
            dense = referee.dense_evaluate(config.theta, config.beta, alone)
            assert report.sum_se[row] == pytest.approx(dense.sum_se, rel=1e-9)
            np.testing.assert_allclose(report.i_tilde[row], dense.i_tilde, rtol=1e-9)
            dense_grad = grad_objective(config, alone, method="dense")
            for ours, theirs in ((grad.d_theta[row], dense_grad.d_theta),
                                 (grad.d_beta[row], dense_grad.d_beta)):
                np.testing.assert_allclose(ours, theirs, rtol=1e-9,
                                           atol=1e-9 * np.max(np.abs(ours)))
