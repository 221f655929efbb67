import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bits, feasibility_errors, random_system, record_evaluations,
                      scored_objectives, uncorrelated_ris_system)
from dataclasses import replace

from starmimo.channel import StarConfig
from starmimo.cli import _without_direct
from starmimo.correlation import CorrelationPair, LinkGains
from starmimo.gradients import GradientPair, grad_objective
from starmimo.optimizer import (
    OptionError,
    PgamFailure,
    PgamOptions,
    armijo_condition,
    canonicalize_signs,
    initial_points,
    multi_start,
    pgam,
    pgam_lockstep,
    project_beta,
    project_theta,
    round_to_ms,
    step_between,
)
from starmimo.rate import sum_se


def zero_cascade(system):
    """The same system without cascaded gain: the objective cannot move."""
    gains = LinkGains(beta_g=0.0, beta_bar=system.gains.beta_bar,
                      beta_tilde=np.zeros(system.dims.k))
    return replace(system, gains=gains)


def binary_start(n):
    """Transmit-only amplitudes with unit phases: both projections map it
    exactly to itself."""
    return StarConfig(theta=np.ones((2, n)), beta=[np.ones(n), np.zeros(n)])


class TestProjections:
    def test_theta_examples(self):
        np.testing.assert_allclose(project_theta(np.array([2.0 + 0j])), [1.0 + 0j])
        np.testing.assert_allclose(project_theta(np.array([3.0 + 4.0j])), [0.6 + 0.8j])
        np.testing.assert_allclose(project_theta(np.array([0.0 + 0j])), [1.0 + 0j])

    def test_beta_examples(self):
        np.testing.assert_allclose(project_beta(np.array([[3.0], [4.0]])), [[0.6], [0.8]])
        np.testing.assert_allclose(project_beta(np.array([[-1.0], [0.0]])), [[-1.0], [0.0]])
        np.testing.assert_allclose(
            project_beta(np.array([[0.0], [0.0]])), [[np.sqrt(0.5)], [np.sqrt(0.5)]]
        )

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 4)])
    def test_beta_rejects_input_without_a_region_axis(self, shape):
        with pytest.raises(ValueError, match="region axis"):
            project_beta(np.ones(shape))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 16))
    def test_projections_always_feasible(self, seed, n):
        local = np.random.default_rng(seed)
        v = local.standard_normal(2 * n) + 1j * local.standard_normal(2 * n)
        theta = project_theta(v)
        np.testing.assert_allclose(np.abs(theta), np.ones(2 * n), atol=1e-12)
        b = project_beta(local.standard_normal((2, n)) * 10)
        np.testing.assert_allclose(b[0] ** 2 + b[1] ** 2, np.ones(n), atol=1e-12)


def masked_theta(v):
    """The masked divide: zero (and NaN) entries map to 1."""
    mag = np.abs(v)
    return np.divide(v, mag, out=np.ones_like(v), where=mag > 0)


def masked_beta(v):
    """The masked divide: zero (and NaN) pairs map to (sqrt(1/2), sqrt(1/2))."""
    norm = np.hypot(v[..., :1, :], v[..., 1:, :])
    return np.divide(v, norm, out=np.full_like(v, np.sqrt(0.5)), where=norm > 0)


class TestProjectionFastPath:
    """With every divisor positive the projections divide without a mask;
    the bits are the masked divide's, and the caller's array is left as it
    was on either path."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(1, 4), n=st.integers(1, 16),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]))
    def test_no_zeros_gives_the_masked_bits(self, seed, p, n, scale):
        local = np.random.default_rng(seed)
        v = scale * (local.standard_normal((p, 2, n)) + 1j * local.standard_normal((p, 2, n)))
        b = scale * local.standard_normal((p, 2, n))
        v_before, b_before = v.copy(), b.copy()
        np.testing.assert_array_equal(bits(project_theta(v)), bits(masked_theta(v_before)))
        np.testing.assert_array_equal(bits(project_beta(b)), bits(masked_beta(b_before)))
        np.testing.assert_array_equal(bits(v), bits(v_before))
        np.testing.assert_array_equal(bits(b), bits(b_before))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(1, 4), n=st.integers(1, 16),
           special=st.sampled_from([0.0, np.nan]))
    def test_zero_or_nan_entries_map_as_before(self, seed, p, n, special):
        local = np.random.default_rng(seed)
        v = local.standard_normal((p, 2, n)) + 1j * local.standard_normal((p, 2, n))
        b = local.standard_normal((p, 2, n))
        hit = local.random((p, 2, n)) < 0.3
        hit.flat[local.integers(hit.size)] = True  # at least one
        v[hit] = special
        pair_hit = hit[:, :1, :] & hit[:, 1:, :]
        b[hit] = special
        v_before, b_before = v.copy(), b.copy()
        theta = project_theta(v)
        beta = project_beta(b)
        np.testing.assert_array_equal(bits(theta), bits(masked_theta(v_before)))
        np.testing.assert_array_equal(bits(beta), bits(masked_beta(b_before)))
        np.testing.assert_array_equal(theta[hit], 1.0)
        np.testing.assert_array_equal(beta[np.broadcast_to(pair_hit, b.shape)], np.sqrt(0.5))
        np.testing.assert_array_equal(bits(v), bits(v_before))
        np.testing.assert_array_equal(bits(b), bits(b_before))


class TestArmijoCondition:
    def _zero_grad(self, n):
        return GradientPair(d_theta=np.zeros((2, n), dtype=complex),
                            d_beta=np.zeros((2, n)))

    def test_zero_step_accepted_unless_the_score_falls(self):
        # a zero step's model value is f_old itself: an equal score passes
        theta = np.ones((2, 2), dtype=complex)
        beta = np.ones((2, 2)) * np.sqrt(0.5)
        grad = self._zero_grad(2)
        step = step_between(theta, beta, theta, beta)
        assert armijo_condition(1.0, 1.0, grad, step, mu=0.5)
        assert armijo_condition(1.0 + 1e-9, 1.0, grad, step, mu=0.5)
        assert not armijo_condition(1.0 - 1e-9, 1.0, grad, step, mu=0.5)

    def test_tiny_step_accepts_any_displacement(self):
        theta_old = np.ones((2, 1), dtype=complex)
        theta_new = np.exp(1j * 0.3) * theta_old
        beta = np.array([[1.0], [0.0]])
        grad = self._zero_grad(1)
        # the -1/mu penalty dominates, so the model value dives to -inf
        assert armijo_condition(0.0, 1.0, grad, step_between(theta_new, beta, theta_old, beta),
                                mu=1e-12)


class TestPgam:
    def test_invariants_on_random_instance(self, rng, monkeypatch):
        system = random_system(rng, m=6, n=8, k_t=2, k_r=2, complex_bs=False)
        init = StarConfig.random(8, rng)
        points = record_evaluations(monkeypatch)
        options = PgamOptions(max_iters=150, seed=0)
        trace = pgam(system, options, init)
        assert trace.iterations <= options.max_iters
        # every candidate is feasible, and every accepted iterate is one
        assert set(trace.objectives) <= scored_objectives(points)
        for point in points:
            theta_err, energy_err = feasibility_errors(point)
            assert theta_err <= 1e-10
            assert energy_err <= 1e-10
        objs = np.asarray(trace.objectives)
        assert np.all(np.diff(objs) >= 0)
        assert trace.reason in ("objective tolerance", "max iterations")

    def test_projects_infeasible_start(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1)
        init = StarConfig(theta=[np.full(4, 3.0 + 4.0j), np.full(4, 0.0 + 0.0j)],
                          beta=[np.full(4, 2.0), np.full(4, 3.0)])
        trace = pgam(system, PgamOptions(max_iters=5), init)
        trace.final_config.validate()

    def test_constant_objective_stops_immediately(self, rng):
        # no cascaded gain: the objective cannot move, the first iteration
        # reports zero gain and the tolerance stops the run
        system = zero_cascade(random_system(rng, m=4, n=4, k_t=1, k_r=1))
        trace = pgam(system, PgamOptions(), StarConfig.equal_split(4, rng))
        assert trace.reason == "objective tolerance"
        assert trace.iterations == 1
        assert trace.objectives[0] == trace.objectives[-1]

    def test_phases_frozen_without_ris_correlation(self, rng, monkeypatch):
        # only the amplitude block can move the objective; each candidate's
        # phase block equals the previous iterate's up to a real elementwise
        # factor (sign flips allowed by the projection)
        system = uncorrelated_ris_system(rng, n=6)
        points = record_evaluations(monkeypatch)
        init = StarConfig.random(6, rng)
        trace = pgam(system, PgamOptions(max_iters=40), init)
        assert trace.iterations > 1 and len(points) > trace.iterations
        for point in points:
            ratio = point.theta[0] / init.theta
            assert np.max(np.abs(ratio.imag)) < 1e-9

    def test_line_search_stall_reported(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1, complex_bs=False)
        options = PgamOptions(mu_init=1e12, max_backtracks=0, max_iters=10)
        trace = pgam(system, options, StarConfig.random(4, rng))
        assert trace.reason == "line-search stall"

    def test_seed_reproducibility(self, rng):
        system = random_system(rng, m=5, n=6, complex_bs=False)
        options = PgamOptions(max_iters=60, seed=123)
        first = multi_start([system], options)[0]
        second = multi_start([system], options)[0]
        assert first.objectives == second.objectives
        assert first.step_sizes == second.step_sizes
        np.testing.assert_array_equal(first.final_config.theta,
                                      second.final_config.theta)
        np.testing.assert_array_equal(first.final_config.beta,
                                      second.final_config.beta)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PgamOptions(mu_init=0.0)
        with pytest.raises(ValueError):
            PgamOptions(kappa=1.0)
        with pytest.raises(ValueError):
            PgamOptions(n_starts=0)

    @pytest.mark.parametrize("name, value", [
        ("max_iters", 0), ("max_iters", -3), ("tol", -1e-9), ("tol", float("nan")),
        ("tol", float("inf")), ("max_backtracks", -1), ("mu_init", float("inf")),
        ("mu_init", float("nan")),
    ])
    def test_out_of_range_option_names_field(self, name, value):
        with pytest.raises(OptionError) as err:
            PgamOptions(**{name: value})
        assert err.value.field == name

    @pytest.mark.parametrize("name, value", [
        ("max_iters", 2.5), ("max_iters", 10.0), ("max_iters", True),
        ("max_backtracks", 1.5), ("max_backtracks", False), ("n_starts", 2.0),
        ("n_starts", True), ("n_starts", "5"), ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_non_integer_count_or_seed_names_field(self, name, value):
        with pytest.raises(OptionError) as err:
            PgamOptions(**{name: value})
        assert err.value.field == name

    def test_boundary_options_accepted(self):
        options = PgamOptions(max_iters=1, tol=0.0, max_backtracks=0)
        assert (options.max_iters, options.tol, options.max_backtracks) == (1, 0.0, 0)

    def test_stopping_defaults_pinned(self):
        # the documented operating defaults: stop below 1e-5 objective gain
        # or at 200 iterations, best of 5 starts
        options = PgamOptions()
        assert options.tol == 1e-5
        assert options.max_iters == 200
        assert options.n_starts == 5


class TestKernelEvaluations:
    """pgam evaluates the objective kernel once per trial point and feeds the
    accepted trial's cache to the next gradient."""

    def test_one_evaluation_per_trial(self, rng, monkeypatch):
        system = random_system(rng, m=6, n=8, k_t=2, k_r=2, complex_bs=False)
        init = StarConfig.random(8, rng)
        calls = record_evaluations(monkeypatch)
        trace = pgam(system, PgamOptions(mu_init=1e3, max_iters=40), init)
        assert trace.reason != "line-search stall"
        assert sum(trace.backtrack_counts) > 0
        assert len(calls) == 1 + sum(1 + b for b in trace.backtrack_counts)

    def test_fixed_point_accepted_in_one_evaluation(self, rng, monkeypatch):
        # no cascaded gain: the gradient is exactly zero, so from a binary
        # start with unit phases the step cannot move the iterate; Armijo's
        # test accepts the re-scored point and the tolerance stops the run
        system = zero_cascade(random_system(rng, m=4, n=4, k_t=1, k_r=1))
        calls = record_evaluations(monkeypatch)
        trace = pgam(system, PgamOptions(), binary_start(4))
        assert trace.reason == "objective tolerance"
        assert trace.iterations == 1
        assert trace.stationarity == [0.0]
        assert len(calls) == 2  # the starting point and its one trial


class TestLockstep:
    """All starts in one batch give, bit for bit, the traces of one-start runs."""

    CASES = {
        "backtracking": dict(mu_init=1e3, max_iters=40),
        "unequal-stops": dict(tol=1e-3, max_iters=200),
        "stall": dict(mu_init=1e12, max_backtracks=0, max_iters=30),
        "stall-and-cap": dict(mu_init=1e2, max_backtracks=2, max_iters=30),
    }

    @staticmethod
    def assert_same_traces(batch, alone):
        assert len(batch) == len(alone)
        for got, want in zip(batch, alone):
            assert got.objectives == want.objectives
            assert got.step_sizes == want.step_sizes
            assert got.backtrack_counts == want.backtrack_counts
            assert got.stationarity == want.stationarity
            assert got.reason == want.reason
            for name in ("theta", "beta"):
                np.testing.assert_array_equal(getattr(got.final_config, name),
                                              getattr(want.final_config, name))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_equals_one_start_runs(self, case):
        system = random_system(np.random.default_rng(12345), m=6, n=8, k_t=2, k_r=2,
                               complex_bs=False)
        options = PgamOptions(seed=1, **self.CASES[case])
        inits = initial_points(system.dims.n, options)
        alone = [pgam(system, options, init) for init in inits]
        self.assert_same_traces(pgam_lockstep(system, options, inits), alone)
        # each case exercises what it is named for
        reasons = {trace.reason for trace in alone}
        if case == "backtracking":
            assert len({tuple(trace.backtrack_counts) for trace in alone}) > 1
        if case == "unequal-stops":
            assert len({trace.iterations for trace in alone}) > 1
        if case == "stall":
            assert reasons == {"line-search stall"}
            assert len({trace.iterations for trace in alone}) > 1
        if case == "stall-and-cap":
            assert reasons == {"line-search stall", "max iterations"}
            assert sum(map(sum, (trace.backtrack_counts for trace in alone))) > 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_with_their_own_direct_gains(self, case):
        # a system and its direct-link-free twin in one batch, one beta_bar
        # row per start, the two systems' rows interleaved: every stop
        # drops beta_bar rows from the middle of the batch
        system = random_system(np.random.default_rng(12345), m=6, n=8, k_t=2, k_r=2,
                               complex_bs=False)
        owners = [system, _without_direct(system)]
        options = PgamOptions(seed=1, **self.CASES[case])
        inits = [init for init in initial_points(system.dims.n, options) for _ in owners]
        owners = owners * options.n_starts
        batch = replace(system, gains=replace(system.gains, beta_bar=np.stack(
            [owner.gains.beta_bar for owner in owners])))
        alone = [pgam(owner, options, init) for owner, init in zip(owners, inits)]
        self.assert_same_traces(pgam_lockstep(batch, options, inits), alone)
        # the direct gains change every start's objective; in every case
        # but backtracking, where all starts hit the cap, starts stop apart,
        # so beta_bar rows leave the batch mid-run
        assert all(a.objectives[0] != b.objectives[0] for a, b in zip(alone[::2], alone[1::2]))
        if case != "backtracking":
            assert len({trace.iterations for trace in alone}) > 1

    def test_multi_start_batches_systems_that_differ_in_beta_bar(self):
        system = random_system(np.random.default_rng(12345), m=6, n=8, k_t=2, k_r=2,
                               complex_bs=False)
        twin = _without_direct(system)
        options = PgamOptions(mu_init=1e3, tol=1e-3, seed=1)
        batched = multi_start([system, twin], options)
        self.assert_same_traces(batched, [multi_start([system], options)[0],
                                          multi_start([twin], options)[0]])
        assert batched[0].final_objective != batched[1].final_objective

    @pytest.mark.parametrize("change", ["beta_hat", "corr"])
    def test_multi_start_rejects_systems_differing_beyond_beta_bar(self, change):
        system = random_system(np.random.default_rng(12345), m=6, n=8, k_t=2, k_r=2,
                               complex_bs=False)
        if change == "beta_hat":
            other = replace(system, gains=replace(system.gains,
                                                  beta_tilde=2.0 * system.gains.beta_tilde))
        else:  # equal matrices, but not the shared pair the batch evaluates on
            other = replace(system, corr=CorrelationPair.from_matrices(system.corr.r_bs,
                                                                       system.corr.r_ris))
        with pytest.raises(ValueError, match="differ only in beta_bar"):
            multi_start([system, other], PgamOptions(max_iters=1))

    def test_fixed_point_rows_beside_moving_rows(self, rng):
        # no cascaded gain: from a binary start the step cannot move the
        # iterate (a fixed-point accept), from a random start the
        # projections may still move it by roundoff; with tol=0 nothing
        # stops early
        system = zero_cascade(random_system(rng, m=4, n=4, k_t=1, k_r=1))
        options = PgamOptions(tol=0.0, max_iters=4)
        inits = [binary_start(4), StarConfig.random(4, rng),
                 binary_start(4), StarConfig.random(4, rng)]
        alone = [pgam(system, options, init) for init in inits]
        self.assert_same_traces(pgam_lockstep(system, options, inits), alone)
        assert alone[0].stationarity == [0.0] * 4

    @staticmethod
    def count_batch_sizes(monkeypatch):
        from starmimo.rate import ClosedForm

        batch_sizes = []
        original = ClosedForm.score

        def counted(closed, theta, beta, *scalars):
            batch_sizes.append(theta.shape[0])
            return original(closed, theta, beta, *scalars)

        monkeypatch.setattr(ClosedForm, "score", counted)
        return batch_sizes

    @staticmethod
    def expected_batch_sizes(traces):
        """The batch size of every kernel call of a lockstep run without
        stalls: the start, then per iteration one call per line-search round
        over every running start, and one over the continuing starts if some
        stop."""
        assert all(trace.reason != "line-search stall" for trace in traces)
        sizes = [len(traces)]
        for i in range(max(trace.iterations for trace in traces)):
            running = [trace for trace in traces if trace.iterations > i]
            sizes += [len(running)] * max(1 + trace.backtrack_counts[i] for trace in running)
            going = sum(trace.iterations > i + 1 or trace.reason == "max iterations"
                        for trace in running)
            if 0 < going < len(running):
                sizes.append(going)
        return sizes

    def test_one_evaluation_per_line_search_round(self, monkeypatch):
        system = random_system(np.random.default_rng(12345), m=6, n=8, k_t=2, k_r=2,
                               complex_bs=False)
        options = PgamOptions(mu_init=1e3, max_iters=30, seed=1)
        inits = initial_points(system.dims.n, options)
        batch_sizes = self.count_batch_sizes(monkeypatch)
        traces = pgam_lockstep(system, options, inits)
        assert sum(map(sum, (trace.backtrack_counts for trace in traces))) > 0
        # iteration i runs as many rounds as its most backtracking start, and
        # each round scores every start running in it
        assert batch_sizes == self.expected_batch_sizes(traces)

    @staticmethod
    def exact_start(rng, n):
        """Phases and amplitude pairs from the 3-4-5 triangle: both
        projections map them exactly to themselves, so a step too small to
        move them is an exact fixed point."""
        theta = rng.choice([0.6 + 0.8j, -0.8 + 0.6j, -0.6 - 0.8j, 0.8 - 0.6j], size=(2, n))
        return StarConfig(theta=theta, beta=rng.permuted(np.tile([[0.6], [0.8]], n), axis=0))

    @pytest.mark.parametrize("case", ["shrinking", "all-fixed", "fixed-after-backtracking"])
    def test_evaluation_paths(self, case, monkeypatch):
        system = random_system(np.random.default_rng(12345), m=6, n=8, k_t=2, k_r=2,
                               complex_bs=False)
        n = system.dims.n
        if case == "shrinking":
            options = PgamOptions(mu_init=1e3, tol=1e-3, seed=1)
            inits = initial_points(n, options)
        elif case == "all-fixed":
            system = zero_cascade(system)
            options = PgamOptions(n_starts=3)
            inits = [binary_start(n)] * 3
        else:
            # the exact start rejects its first step; the next, 1e-30 times
            # smaller, cannot move it, while the other start accepted at once
            options = PgamOptions(mu_init=1e3, kappa=1e-30, tol=0.0, max_iters=3, seed=1)
            inits = [initial_points(n, options)[0],
                     self.exact_start(np.random.default_rng(71), n)]
        alone = [pgam(system, options, init) for init in inits]
        batch_sizes = self.count_batch_sizes(monkeypatch)
        traces = pgam_lockstep(system, options, inits)
        self.assert_same_traces(traces, alone)
        assert batch_sizes == self.expected_batch_sizes(traces)
        if case == "shrinking":
            assert sum(map(sum, (trace.backtrack_counts for trace in traces))) > 0
            # two or more stops with starts left running: the batch shrinks
            assert len({trace.iterations for trace in traces}) > 2
        elif case == "all-fixed":
            assert batch_sizes == [3, 3]
            assert all(trace.reason == "objective tolerance" for trace in traces)
        else:
            assert traces[0].backtrack_counts[0] == 0
            assert (traces[1].backtrack_counts[0], traces[1].stationarity[0]) == (1, 0.0)
            assert batch_sizes[:3] == [2, 2, 2]


class TestFailures:
    """A NaN objective or gradient raises PgamFailure with its iteration.
    The projections map a NaN candidate to a feasible point, so without
    these checks a NaN step would pass silently."""

    @staticmethod
    def run_poisoned(monkeypatch, name, poison, call):
        """pgam_lockstep over three starts with ``poison`` applied to the
        result of call ``call`` (1-based) of the kernel's method ``name``;
        the unpoisoned run's traces must show no backtrack, so call i of
        ``score`` is iteration i - 1 and call i of ``gradient`` is
        iteration i."""
        from starmimo.rate import ClosedForm

        system = random_system(np.random.default_rng(3), m=6, n=8, k_t=2, k_r=2)
        options = PgamOptions(mu_init=1e-3, tol=0.0, max_iters=6, n_starts=3, seed=2)
        inits = initial_points(system.dims.n, options)
        clean = pgam_lockstep(system, options, inits)
        assert all(trace.iterations == 6 and not any(trace.backtrack_counts)
                   for trace in clean)
        calls = []
        original = getattr(ClosedForm, name)

        def poisoned(*args):
            calls.append(1)
            result = original(*args)
            return poison(result) if len(calls) == call else result

        monkeypatch.setattr(ClosedForm, name, poisoned)
        with pytest.raises(PgamFailure) as failure:
            pgam_lockstep(system, options, inits)
        return failure.value

    @staticmethod
    def nan_objective(score):
        # one start's objective only: the check covers every row
        value = score.sum_se.copy()
        value[1] = np.nan
        return score._replace(sum_se=value)

    def test_non_finite_starting_objective(self, monkeypatch):
        failure = self.run_poisoned(monkeypatch, "score", self.nan_objective, 1)
        assert failure.iteration == 0 and "starting point" in str(failure)

    @pytest.mark.parametrize("iteration", [1, 4])
    def test_non_finite_line_search_objective(self, monkeypatch, iteration):
        failure = self.run_poisoned(monkeypatch, "score", self.nan_objective, iteration + 1)
        assert failure.iteration == iteration and "line search" in str(failure)

    @pytest.mark.parametrize("block", ["d_theta", "d_beta"])
    @pytest.mark.parametrize("iteration", [1, 4])
    def test_non_finite_gradient(self, monkeypatch, block, iteration):
        def nan_gradient(grad):
            values = getattr(grad, block).copy()
            values[2, 1, 5] = np.nan
            return grad._replace(**{block: values})

        failure = self.run_poisoned(monkeypatch, "gradient", nan_gradient, iteration)
        assert failure.iteration == iteration and "gradient" in str(failure)


class TestStationarity:
    def test_matches_hand_computation(self, rng):
        system = random_system(rng, m=4, n=4, k_t=1, k_r=1, complex_bs=False)
        init = StarConfig.random(4, rng)
        trace = pgam(system, PgamOptions(mu_init=0.3, max_iters=1), init)
        mu = trace.step_sizes[0]
        assert mu == 0.3
        grad = grad_objective(init, system)
        theta, beta = init.theta, init.beta
        step = 0.0
        for j in np.ndindex(theta.shape):
            moved = theta[j] + mu * grad.d_theta[j]
            step += abs(moved / abs(moved) - theta[j]) ** 2
        for j in range(4):
            a, b = beta[:, j] + mu * grad.d_beta[:, j]
            norm = np.hypot(a, b)
            step += (a / norm - beta[0, j]) ** 2 + (b / norm - beta[1, j]) ** 2
        assert trace.stationarity == [pytest.approx(np.sqrt(step) / mu, rel=1e-9)]
        final = trace.final_config
        moved = np.sqrt(np.sum(np.abs(final.theta - theta) ** 2)
                        + np.sum((final.beta - beta) ** 2))
        assert trace.stationarity[0] == pytest.approx(moved / mu, rel=1e-9)

    def test_one_value_per_accepted_step(self, rng):
        system = random_system(rng, m=6, n=8, k_t=2, k_r=2, complex_bs=False)
        trace = pgam(system, PgamOptions(mu_init=1e3, max_iters=25),
                     StarConfig.random(8, rng))
        assert len(trace.stationarity) == trace.iterations
        assert all(value > 0 for value in trace.stationarity)


class TestMultiStart:
    def test_single_start_matches_canonical_run(self, rng):
        system = random_system(rng, complex_bs=False)
        options = PgamOptions(max_iters=40, n_starts=1, seed=7)
        best = multi_start([system], options)[0]
        stream = np.random.SeedSequence(7).spawn(1)[0]
        init = StarConfig.equal_split(system.dims.n, np.random.default_rng(stream))
        direct = pgam(system, options, init)
        assert best.objectives == direct.objectives

    def test_ties_go_to_the_lower_start(self, rng):
        # no cascaded gain: every start ends at the same objective
        system = zero_cascade(random_system(rng, m=4, n=4, k_t=1, k_r=1))
        options = PgamOptions(n_starts=4, seed=11)
        best = multi_start([system], options)[0]
        first = pgam(system, options, initial_points(4, options)[0])
        assert best.objectives == first.objectives
        np.testing.assert_array_equal(best.final_config.theta, first.final_config.theta)

    def test_best_of_runs(self, rng):
        system = random_system(rng, complex_bs=False)
        options = PgamOptions(max_iters=40, n_starts=4, seed=3)
        best = multi_start([system], options)[0]
        for idx, stream in enumerate(np.random.SeedSequence(3).spawn(4)):
            local = np.random.default_rng(stream)
            init = (StarConfig.equal_split(system.dims.n, local) if idx == 0
                    else StarConfig.random(system.dims.n, local))
            single = pgam(system, options, init)
            assert best.final_objective >= single.final_objective


class TestCanonicalizeAndRounding:
    def test_canonicalize_preserves_objective(self, rng):
        system = random_system(rng)
        config = StarConfig.random(system.dims.n, rng)
        config.beta[0, 0] *= -1.0
        config.beta[1, 2] *= -1.0
        canon = canonicalize_signs(config)
        assert np.all(canon.beta[0] >= 0)
        assert np.all(canon.beta[1] >= 0)
        assert sum_se(canon, system).sum_se == pytest.approx(
            sum_se(config, system).sum_se, rel=1e-12
        )

    def test_rounding_examples(self):
        config = StarConfig(theta=np.ones((2, 2), dtype=complex),
                            beta=[[0.9, np.sqrt(0.5)], [np.sqrt(1 - 0.81), np.sqrt(0.5)]])
        ms = round_to_ms(config)
        ms.validate()
        np.testing.assert_array_equal(ms.beta[0], [1.0, 1.0])  # tie goes to t
        np.testing.assert_array_equal(ms.beta[1], [0.0, 0.0])
        assert ms.protocol == "ms"

    def test_rounding_uses_magnitudes(self):
        config = StarConfig(theta=np.ones((2, 1), dtype=complex),
                            beta=[[-0.9], [np.sqrt(1 - 0.81)]])
        ms = round_to_ms(config)
        np.testing.assert_array_equal(ms.beta[0], [1.0])
        # the sign was absorbed into the phase before rounding
        np.testing.assert_array_equal(ms.theta[0], [-1.0 + 0j])

    def test_ms_no_better_than_es(self, rng):
        system = random_system(rng, m=6, n=8, complex_bs=False)
        options = PgamOptions(max_iters=400, seed=2)
        trace = multi_start([system], options)[0]
        es_value = trace.final_objective
        ms_value = sum_se(round_to_ms(trace.final_config), system).sum_se
        assert ms_value <= es_value * (1 + 1e-9) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_rounding_always_binary_feasible(self, seed):
        local = np.random.default_rng(seed)
        n = int(local.integers(1, 12))
        config = StarConfig.random(n, local)
        # random sign pattern, as a mid-optimization iterate would carry
        flips = local.integers(0, 2, n).astype(bool)
        config.beta[0, flips] *= -1.0
        config.theta[0, flips] *= -1.0
        ms = round_to_ms(config)
        ms.validate()
        np.testing.assert_array_equal(ms.beta[0] + ms.beta[1], np.ones(n))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_joint_sign_flip_never_moves_objective(self, seed):
        local = np.random.default_rng(seed)
        system = random_system(local, m=4, n=5, k_t=1, k_r=1)
        config = StarConfig.random(5, local)
        base = sum_se(config, system).sum_se
        sign = np.ones((2, 5))
        for row in range(2):
            sign[row, local.integers(0, 2, 5).astype(bool)] = -1.0
        flipped = replace(config, theta=config.theta * sign, beta=config.beta * sign)
        assert sum_se(flipped, system).sum_se == pytest.approx(base, rel=1e-10)
