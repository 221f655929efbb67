"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Operating points that the source setup leaves open (transmit
power, path-loss exponents, element area) use the documented package
defaults; every tolerance below is fixed here, not tuned at runtime.
"""

from dataclasses import replace

import numpy as np


from conftest import (alpha_partials, feasibility_errors, one_user_system, random_system,
                      record_evaluations, scored_objectives, uncorrelated_ris_system)
from starmimo.channel import StarConfig, complex_normal, covariance_scalars, sample_realization
from starmimo.cli import ScenarioConfig, build_system, run_protocol, derive_seed
from starmimo.estimation import apply_wiener_filter
from starmimo.gradients import finite_difference_gradient, grad_objective
from starmimo.montecarlo import mc_sinr
from starmimo.optimizer import PgamOptions, pgam
from starmimo.rate import dense_evaluate, evaluate, from_alphas, sum_se

VI_SETUP = {
    "name": "acceptance",
    "dims": {"m": 64, "n": 64, "k_t": 2, "k_r": 2, "tau_c": 200, "tau": 4},
    "protocols": ["es"],
    "seed": 1,
}

DESK_SETUP = {
    "name": "desk",
    "dims": {"m": 16, "n": 36, "k_t": 2, "k_r": 2, "tau_c": 200, "tau": 4},
    "powers": {"snr_db": 115.0},
    "protocols": ["es"],
    "optimizer": {"n_starts": 5, "max_iters": 1000},
    "seed": 0,
}


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_closed_form_vs_monte_carlo():
    """Per-user SINR gap between the closed form and 1000-trial simulation
    stays within 10% at the full-scale setup (M=64, N=64, K=4)."""
    cfg = ScenarioConfig.from_dict(VI_SETUP)
    system = build_system(cfg)
    config = StarConfig.equal_split(64, np.random.default_rng(3))
    analytic = sum_se(config, system)
    estimate = mc_sinr(system, config, 1000, seed=7)
    gap = np.abs(estimate.gamma_hat - analytic.gamma) / analytic.gamma
    assert np.all(gap <= 0.10), f"per-user gaps {gap}"
    report(1, f"max per-user SINR gap {gap.max():.3f} <= 0.10 at 1000 trials")


def test_criterion_2_gradient_oracle():
    """Closed-form gradient within 1e-6 relative l2 error of central finite
    differences on 20 random instances, users in both regions."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        k_t = int(rng.integers(1, 3))
        k_r = int(rng.integers(1, 3))
        system = random_system(rng, m=m, n=n, k_t=k_t, k_r=k_r,
                               complex_bs=bool(rng.integers(0, 2)))
        config = StarConfig.random(n, rng)
        closed = grad_objective(config, system)
        numeric = finite_difference_gradient(config, system)
        num = np.sqrt(np.linalg.norm(closed.d_theta - numeric.d_theta) ** 2
                      + np.linalg.norm(closed.d_beta - numeric.d_beta) ** 2)
        den = np.sqrt(np.linalg.norm(numeric.d_theta) ** 2
                      + np.linalg.norm(numeric.d_beta) ** 2)
        err = num / den
        worst = max(worst, err)
        assert err < 1e-6, f"instance {trial}: relative error {err:.2e}"
    report(2, f"20/20 instances matched finite differences, worst {worst:.2e} < 1e-6")


def test_criterion_3_fast_path_equivalence():
    """Eigenbasis evaluation of S_k, I_k, the six eigen-sums per user and the
    derivatives of S_k and I_k in the covariance scalars equals the
    dense-matrix evaluation within 1e-9 relative error."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(6):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(2, 17))
        system = random_system(rng, m=m, n=n, k_t=int(rng.integers(1, 3)),
                               k_r=int(rng.integers(1, 3)),
                               complex_bs=bool(rng.integers(0, 2)))
        config = StarConfig.random(n, rng)
        fast = sum_se(config, system, method="eig")
        dense = sum_se(config, system, method="dense")
        point = evaluate(config.theta, config.beta, system)
        dense_point = dense_evaluate(config.theta, config.beta, system)
        (d_signal, d_interference), (dense_signal, dense_interference) = (
            alpha_partials(p, system) for p in (point, dense_point))
        for a, b in ((fast.s, dense.s), (fast.i_tilde, dense.i_tilde),
                     (point.sums.ravel(), dense_point.sums.ravel()),
                     (d_signal, dense_signal),
                     (d_interference.ravel(), dense_interference.ravel())):
            err = np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))
            worst = max(worst, err)
            assert err < 1e-9
    report(3, f"signal/interference/eigen-sums/alpha derivatives agree, worst {worst:.2e} < 1e-9")


def test_criterion_4_algorithm_invariants(monkeypatch):
    """Feasibility within 1e-10 after every iteration (of every candidate,
    accepted or not), non-decreasing objectives, bounded termination, and
    bit-identical seeded traces."""
    rng = np.random.default_rng(4)
    systems = [
        random_system(rng, m=8, n=9, k_t=2, k_r=2, complex_bs=False),
        build_system(ScenarioConfig.from_dict(DESK_SETUP)),
    ]
    for system in systems:
        points = record_evaluations(monkeypatch)
        options = PgamOptions(max_iters=200, seed=17)
        init = StarConfig.random(system.dims.n, np.random.default_rng(8))
        trace = pgam(system, options, init)
        assert trace.iterations <= options.max_iters
        assert set(trace.objectives) <= scored_objectives(points)
        assert all(t <= 1e-10 and e <= 1e-10 for t, e in map(feasibility_errors, points))
        assert np.all(np.diff(trace.objectives) >= 0)

        again = pgam(system, options, init.copy())
        assert trace.objectives == again.objectives
        np.testing.assert_array_equal(trace.final_config.theta,
                                      again.final_config.theta)
        np.testing.assert_array_equal(trace.final_config.beta,
                                      again.final_config.beta)
    report(4, "feasibility 1e-10, monotone objectives, bounded and reproducible")


def test_criterion_5_ordering_properties():
    """Protocol and geometry orderings on the fixed desk instance
    (M=16, N=36, K=4), five starts, shared seeds."""
    cfg = ScenarioConfig.from_dict(DESK_SETUP)
    seed = derive_seed(cfg.seed, 0)
    system = build_system(cfg)

    es = run_protocol("es", cfg, system, seed).sum_se
    ms = run_protocol("ms", cfg, system, seed).sum_se
    random_phase = run_protocol("random-phase", cfg, system, seed).sum_se
    no_direct = run_protocol("es", cfg, build_system(cfg, no_direct=True), seed).sum_se
    by_spacing = {
        spacing: run_protocol("es", cfg, build_system(cfg, ris_spacing=spacing),
                               seed).sum_se
        for spacing in (0.1, 0.25, 0.5)
    }

    assert es >= ms, f"ES {es} < rounded MS {ms}"
    assert ms >= random_phase, f"MS {ms} < random phases {random_phase}"
    assert no_direct < es, f"blocked direct {no_direct} not below {es}"
    assert by_spacing[0.1] < by_spacing[0.25] < by_spacing[0.5], by_spacing
    report(5, f"ES {es:.3f} >= MS {ms:.3f} >= random {random_phase:.3f}; "
              f"no-direct {no_direct:.3f} < ES; spacing SE "
              f"{by_spacing[0.1]:.3f} < {by_spacing[0.25]:.3f} < {by_spacing[0.5]:.3f}")


def test_criterion_6_phase_independence_without_correlation():
    """With an uncorrelated surface the rate ignores the phases: constant SE
    over 10 random phase vectors and vanishing tangent derivatives."""
    rng = np.random.default_rng(6)
    system = uncorrelated_ris_system(rng, m=8, n=12)
    base = StarConfig.random(12, rng)
    values = []
    for _ in range(10):
        draw = StarConfig.random(12, rng)
        draw.beta = base.beta.copy()
        values.append(sum_se(draw, system).sum_se)
    spread = np.ptp(values)
    assert spread < 1e-10, f"SE spread {spread:.2e}"

    grad = grad_objective(base, system)
    worst = 0.0
    for _ in range(10):
        direction = 1j * base.theta * rng.standard_normal(base.theta.shape)
        deriv = abs(2.0 * np.real(np.vdot(grad.d_theta, direction)))
        worst = max(worst, deriv)
    assert worst < 1e-8
    report(6, f"SE spread {spread:.1e} < 1e-10; max tangent derivative {worst:.1e} < 1e-8")


def test_criterion_7_estimation_sanity():
    """Empirical estimate covariance within 5% of the closed form over
    50,000 draws at M=4; error/estimate cross-covariance within 3 standard
    errors of zero."""
    rng = np.random.default_rng(77)
    system = random_system(rng, m=4, n=4, k_t=1, k_r=0, complex_bs=False)
    config = StarConfig.random(4, rng)
    alpha = covariance_scalars(system, config)[0]
    eps = system.epsilon

    # channels drawn in chunks of 5000 trials, one generator each; the pilot
    # noise of a chunk in one draw
    n_draws, chunk = 50_000, 5000
    cov_hat = np.zeros((4, 4), dtype=complex)
    cross = np.zeros((4, 4), dtype=complex)
    cross_sq = np.zeros((4, 4))
    for _ in range(n_draws // chunk):
        rngs = rng.spawn(chunk)
        h = sample_realization(system, config, rngs).h[:, 0]
        r = h + np.sqrt(eps) * complex_normal([rng], h.shape)[0][0]
        h_hat = apply_wiener_filter(r, alpha, system.corr, eps)
        err = h - h_hat
        cov_hat += h_hat.T @ h_hat.conj()
        outer = err[:, :, None] * h_hat.conj()[:, None, :]
        cross += outer.sum(axis=0)
        cross_sq += (np.abs(outer) ** 2).sum(axis=0)
    cov_hat /= n_draws
    cross /= n_draws
    cross_sq /= n_draws

    u = system.corr.bs_eigvecs
    sigma = system.corr.bs_eigvals
    psi = u @ np.diag((alpha * sigma) ** 2 / (alpha * sigma + eps)) @ u.conj().T
    frob = np.linalg.norm(cov_hat - psi) / np.linalg.norm(psi)
    assert frob < 0.05, f"estimate covariance off by {frob:.3f}"

    std_err = np.sqrt(np.maximum(cross_sq - np.abs(cross) ** 2, 0.0) / n_draws)
    ratio = np.abs(cross) / np.maximum(std_err, 1e-300)
    assert np.all(ratio <= 3.0), f"max cross-covariance z-score {ratio.max():.2f}"
    report(7, f"estimate covariance error {frob:.3f} < 0.05; "
              f"max orthogonality z-score {ratio.max():.2f} <= 3")


def test_criterion_8_monotonicity_suites():
    """Sum SE non-decreasing in the power budget; estimate eigenvalues
    non-decreasing as the pilot noise falls."""
    rng = np.random.default_rng(8)
    base = random_system(rng, complex_bs=False)
    config = StarConfig.random(base.dims.n, rng)
    previous = -np.inf
    for rho in np.logspace(-2, 3, 12):
        value = sum_se(config, replace(base, rho=float(rho))).sum_se
        assert value >= previous - 1e-12
        previous = value

    r_bs = np.diag(rng.uniform(0.1, 3.0, 10))
    last = None
    for eps in np.logspace(1, -6, 15):
        psi, _, _ = from_alphas(np.array([0.8]), one_user_system(r_bs, pilot_power=1.0 / eps))
        if last is not None:
            assert np.all(psi >= last - 1e-15)
        last = psi
    report(8, "sum SE monotone in power budget; estimate spectrum monotone in pilot quality")
