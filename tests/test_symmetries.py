"""Exact symmetries of the model, as referees of its layout convention.

Users are ordered t-region first, and row 0 of a configuration is the
t-region.  The dense referees share that convention, so a wrong use of it
applied everywhere passes every agreement test; a symmetry of the model
does not share it.  Each case runs on an explicit surface and on a grid
large enough for the ``GridKernel`` path.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_system
from starmimo.channel import StarConfig, covariance_scalars
from starmimo.correlation import FFT_MIN_N, ArrayGeometry, CorrelationPair, GridKernel, LinkGains
from starmimo.gradients import grad_objective
from starmimo.rate import evaluate, sum_se

GRID = ArrayGeometry(n_h=25, n_v=24, spacing_h=0.25, spacing_v=0.25)
SURFACES = ["matrices", "grid"]


def instance(surface, seed, k_t, k_r):
    """A random system with O(1) gains and a random feasible point on it."""
    rng = np.random.default_rng(seed)
    system = random_system(rng, m=5, n=7, k_t=k_t, k_r=k_r)
    if surface == "grid":
        system = replace(system, corr=CorrelationPair.from_grid(system.corr.r_bs, GRID))
        assert system.dims.n >= FFT_MIN_N and isinstance(system.corr.ris_abs2, GridKernel)
    return system, StarConfig.random(system.dims.n, rng), rng


def reorder_users(system, order, k_t):
    """``system`` with user ``order[i]``'s gains given to user i and the
    first ``k_t`` users in the t-region."""
    gains = system.gains
    return replace(system, k_t=k_t, gains=LinkGains(
        beta_g=gains.beta_g, beta_bar=gains.beta_bar[order], beta_tilde=gains.beta_tilde[order]))


def assert_close(actual, expected, rtol=1e-12):
    """Agreement to ``rtol`` of the largest entry of ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=0,
                               atol=rtol * np.max(np.abs(expected)))


# (k_t, k_r) with one to six users, either region possibly empty
splits = st.integers(1, 6).flatmap(lambda k: st.integers(0, k).map(lambda k_t: (k_t, k - k_t)))


@pytest.mark.parametrize("surface", SURFACES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), split=splits)
def test_region_mirror(surface, seed, split):
    # swap the t and r rows of theta and beta, k_t with k_r, and the two
    # user groups with their gains: the same physical system
    k_t, k_r = split
    system, config, _ = instance(surface, seed, k_t, k_r)
    order = np.r_[k_t:k_t + k_r, :k_t]
    mirrored = reorder_users(system, order, k_r)
    flipped = StarConfig(config.theta[::-1], config.beta[::-1])

    report, mirror_report = sum_se(config, system), sum_se(flipped, mirrored)
    assert mirror_report.sum_se == pytest.approx(report.sum_se, rel=1e-12)
    assert_close(mirror_report.gamma, report.gamma[order])
    grad, mirror_grad = grad_objective(config, system), grad_objective(flipped, mirrored)
    assert_close(mirror_grad.d_theta, grad.d_theta[::-1])
    assert_close(mirror_grad.d_beta, grad.d_beta[::-1])

    # The mirror commutes with a fault that hands every user the other
    # region's trace, so pin one side: with the r-row dark, an r-region
    # user keeps exactly its direct gain and a t-region user gains more.
    n = system.dims.n
    dark = StarConfig(np.ones((2, n)), [np.ones(n), np.zeros(n)])
    alphas, beta_bar = covariance_scalars(system, dark), system.gains.beta_bar
    np.testing.assert_array_equal(alphas[k_t:], beta_bar[k_t:])
    assert np.all(alphas[:k_t] > beta_bar[:k_t])


@pytest.mark.parametrize("surface", SURFACES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), split=splits)
def test_user_permutation_within_a_region(surface, seed, split):
    k_t, k_r = split
    system, config, rng = instance(surface, seed, k_t, k_r)
    order = np.r_[rng.permutation(k_t), k_t + rng.permutation(k_r)].astype(int)
    report = sum_se(config, system)
    permuted = sum_se(config, reorder_users(system, order, k_t))
    for name in ("s", "i_tilde", "gamma"):
        assert_close(getattr(permuted, name), getattr(report, name)[order])
    assert permuted.sum_se == pytest.approx(report.sum_se, rel=1e-12)


@pytest.mark.parametrize("surface", SURFACES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), split=splits,
       angles=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 2))
def test_region_phase_rotation_and_conjugation(surface, seed, split, angles):
    # a region reads its phases only through phi_u^H |R_RIS|^2 phi_u, and the
    # kernel is real: one common phase per region, or conjugating every
    # phase, leaves both traces and so the sum SE unchanged
    system, config, _ = instance(surface, seed, *split)
    rotated = StarConfig(config.theta * np.exp(1j * np.array(angles))[:, None], config.beta)
    conjugated = StarConfig(config.theta.conj(), config.beta)
    for method in ("eig", "dense"):
        expected = sum_se(config, system, method=method).sum_se
        for image in (rotated, conjugated):
            assert sum_se(image, system, method=method).sum_se == pytest.approx(
                expected, rel=1e-12)


def transposed(x, n_v, n_h):
    """The element axis of ``x``, laid out on an n_v x n_h grid (horizontal
    index fastest), re-laid on the n_h x n_v grid of its transpose."""
    grid = x.reshape(x.shape[:-1] + (n_v, n_h))
    return np.swapaxes(grid, -1, -2).reshape(x.shape)


# odd, even, 1 x n and n x 1 grids on the dense kernel, and one large enough
# for the GridKernel path, each with unequal spacings
TRANSPOSE_GRIDS = [(3, 5), (4, 6), (5, 4), (1, 7), (7, 1), (24, 25)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("grid", TRANSPOSE_GRIDS)
def test_grid_transpose(grid, seed):
    # an n_v x n_h grid with spacings (s_v, s_h) is the n_h x n_v grid with
    # spacings (s_h, s_v) with its elements relabelled: the kernel, the
    # objective, the dense referee and the folded factor must all agree
    n_v, n_h = grid
    rng = np.random.default_rng(seed)
    s_v, s_h = rng.uniform(0.1, 0.6, 2)
    system = random_system(rng, m=5, n=7, k_t=2, k_r=1)
    pairs = [replace(system, corr=CorrelationPair.from_grid(system.corr.r_bs, geom))
             for geom in (ArrayGeometry(n_h=n_h, n_v=n_v, spacing_h=s_h, spacing_v=s_v),
                          ArrayGeometry(n_h=n_v, n_v=n_h, spacing_h=s_v, spacing_v=s_h))]
    assert isinstance(pairs[0].corr.ris_abs2, GridKernel) == (n_v * n_h >= FFT_MIN_N)
    config = StarConfig.random(n_v * n_h, rng)
    image = StarConfig(transposed(config.theta, n_v, n_h), transposed(config.beta, n_v, n_h))

    point = evaluate(config.theta, config.beta, pairs[0])
    image_point = evaluate(image.theta, image.beta, pairs[1])
    assert_close(image_point.alphas, point.alphas)
    assert_close(image_point.a, transposed(point.a, n_v, n_h))
    assert image_point.report.sum_se == pytest.approx(point.report.sum_se, rel=1e-12)
    assert sum_se(image, pairs[1], method="dense").sum_se == pytest.approx(
        sum_se(config, pairs[0], method="dense").sum_se, rel=1e-12)

    # L (L^T I) runs both the fold and the unfold of each folded factor
    gram, image_gram = (factor @ (factor.T @ np.eye(n_v * n_h))
                        for factor in (pair.corr.ris_factor for pair in pairs))
    order = transposed(np.arange(n_v * n_h), n_v, n_h)
    assert np.max(np.abs(image_gram - gram[np.ix_(order, order)])) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_element_relabelling(seed):
    # permuting the elements of an explicit surface, R_RIS and phi together,
    # is the same system
    rng = np.random.default_rng(seed)
    system = random_system(rng, m=5, n=7, k_t=2, k_r=2)
    order = rng.permutation(7)
    r_ris = system.corr.r_ris
    relabelled = replace(system, corr=CorrelationPair.from_matrices(
        system.corr.r_bs, r_ris[np.ix_(order, order)]))
    config = StarConfig.random(7, rng)
    image = StarConfig(config.theta[:, order], config.beta[:, order])
    for method in ("eig", "dense"):
        assert sum_se(image, relabelled, method=method).sum_se == pytest.approx(
            sum_se(config, system, method=method).sum_se, rel=1e-12)
    grad = grad_objective(config, system, method="dense")
    image_grad = grad_objective(image, relabelled, method="dense")
    assert_close(image_grad.d_theta, grad.d_theta[:, order])
    assert_close(image_grad.d_beta, grad.d_beta[:, order])
