import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from starmimo.channel import StarConfig
from starmimo.cli import (
    CSV_COLUMNS,
    SECTION_KEYS,
    ConfigError,
    ScenarioConfig,
    build_system,
    main,
    noise_power,
    run_experiment,
    run_protocol,
    user_positions,
    write_csv,
)
from starmimo.correlation import FFT_MIN_N, GridKernel
from starmimo.optimizer import PgamOptions, multi_start
from starmimo.rate import evaluate, from_alphas, sum_se

SRC = Path(__file__).resolve().parents[1] / "src"

DESK = {
    "name": "desk",
    "dims": {"m": 8, "n": 9, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 4},
    "powers": {"snr_db": 110.0},
    "protocols": ["es"],
    "optimizer": {"n_starts": 2, "max_iters": 15},
    "seed": 5,
}


class TestNoisePower:
    def test_reference_bandwidth(self):
        # -174 dBm/Hz over 200 kHz is -120.99 dBm
        assert noise_power(200e3) == pytest.approx(7.962e-16, rel=1e-3)

    def test_one_hertz(self):
        assert noise_power(1.0) == pytest.approx(10 ** ((-174.0 - 30.0) / 10.0))

    def test_ten_hertz_adds_ten_db(self):
        assert noise_power(10.0) / noise_power(1.0) == pytest.approx(10.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            noise_power(0.0)


class TestScenarioConfig:
    def test_minimal_config_parses(self):
        cfg = ScenarioConfig.from_dict(DESK)
        assert cfg.m == 8 and cfg.n == 9
        assert cfg.snr_db == 110.0

    def test_pilot_length_defaults_to_user_count(self):
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 8, "n": 9, "k_t": 2, "k_r": 1, "tau_c": 200}
        cfg = ScenarioConfig.from_dict(raw)
        assert cfg.tau == 3

    def test_missing_dimension_names_field(self):
        raw = {k: v for k, v in DESK.items()}
        raw["dims"] = {"n": 9, "k_t": 1, "k_r": 1}
        with pytest.raises(ConfigError, match="dims.m"):
            ScenarioConfig.from_dict(raw)

    def test_non_square_surface_rejected(self):
        raw = json.loads(json.dumps(DESK))
        raw["dims"]["n"] = 7
        with pytest.raises(ConfigError, match="dims.n"):
            ScenarioConfig.from_dict(raw)

    def test_both_powers_rejected(self):
        raw = json.loads(json.dumps(DESK))
        raw["powers"] = {"snr_db": 100.0, "rho_dbm": 30.0}
        with pytest.raises(ConfigError, match="powers"):
            ScenarioConfig.from_dict(raw)

    def test_unknown_protocol_rejected(self):
        raw = json.loads(json.dumps(DESK))
        raw["protocols"] = ["es", "zf"]
        with pytest.raises(ConfigError, match="protocols"):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("bad", [5, None, {"es": 1}, "es"])
    def test_protocols_must_be_a_list(self, bad):
        raw = json.loads(json.dumps(DESK))
        raw["protocols"] = bad
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == "protocols"

    def test_sweep_values_validated(self):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "n", "values": [9, 12]}
        with pytest.raises(ConfigError, match="sweep.values"):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -0.25])
    def test_bad_ris_spacing_names_field(self, bad):
        raw = json.loads(json.dumps(DESK))
        raw["correlation"] = {"ris_spacing": bad}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == "correlation.ris_spacing"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -0.25,
                                     "wide"])
    def test_bad_ris_spacing_sweep_value_names_field(self, bad):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "ris_spacing", "values": [0.25, bad]}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == "sweep.values"

    @pytest.mark.parametrize("section, key, bad", [
        ("dims", "m", "eight"), ("dims", "n", [9]), ("dims", "k_t", None),
        ("dims", "k_r", 1.5e400), ("dims", "tau_c", "long"), ("dims", "tau", {}),
        ("geometry", "d0", "far"), ("geometry", "d0", float("nan")),
        ("geometry", "bs_xy", [0.0]), ("geometry", "ris_xy", ["x", 1.0]),
        ("geometry", "ris_xy", 5.0),
        ("powers", "bandwidth_hz", "wide"), ("powers", "snr_db", float("nan")),
        ("pathloss", "ris_exponent", "steep"), ("pathloss", "direct_exponent", float("inf")),
        ("pathloss", "penetration_db", [15]), ("pathloss", "wavelength_m", "short"),
        ("pathloss", "element_area", "big"),
        ("correlation", "bs_param", "half"), ("correlation", "ris_spacing", "wide"),
        ("conventional", "t_fraction", "half"),
        ("optimizer", "mu_init", "big"), ("optimizer", "kappa", "half"),
        ("optimizer", "tol", "small"), ("optimizer", "max_iters", "many"),
        ("optimizer", "max_backtracks", 2.5e308 * 10), ("optimizer", "n_starts", "five"),
        ("mc", "trials", "lots"),
        (None, "seed", "lucky"), (None, "seed", -1), (None, "seed", True),
        (None, "seed", 10 ** 400),
        # counts must be integers, and numbers must not be strings
        ("optimizer", "n_starts", 2.9), ("optimizer", "max_iters", 100.5),
        ("dims", "m", 8.5), ("mc", "trials", "1000"), ("optimizer", "mu_init", "1.0"),
        ("powers", "snr_db", "3"),
    ])
    def test_non_numeric_field_names_field(self, section, key, bad):
        raw = json.loads(json.dumps(DESK))
        target = raw if section is None else raw.setdefault(section, {})
        if section == "powers":
            target.clear()
        target[key] = bad
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == (key if section is None else f"{section}.{key}")

    @pytest.mark.parametrize("key, bad", [
        ("max_iters", 0), ("tol", -1e-6), ("tol", float("nan")), ("tol", float("inf")),
        ("max_backtracks", -1), ("mu_init", 0.0), ("kappa", 1.0), ("n_starts", 0),
    ])
    def test_out_of_range_optimizer_field_names_field(self, key, bad):
        raw = json.loads(json.dumps(DESK))
        raw["optimizer"] = {key: bad}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == f"optimizer.{key}"

    @pytest.mark.parametrize("key, bad, reason", [
        ("mu_init", 0.0, "initial step size must be finite and positive"),
        ("kappa", 1.0, "backtracking factor must lie in (0, 1)"),
        ("tol", -1e-6, "tolerance must be finite and non-negative"),
        ("max_iters", 0, "must be an integer of at least 1, got 0"),
        ("max_backtracks", -1, "must be an integer of at least 0, got -1"),
        ("n_starts", 0, "must be an integer of at least 1, got 0"),
    ])
    def test_out_of_range_optimizer_field_is_named_once(self, key, bad, reason):
        raw = json.loads(json.dumps(DESK))
        raw["optimizer"] = {key: bad}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert str(err.value) == f"optimizer.{key}: {reason}"
        assert err.value.field == f"optimizer.{key}"

    def test_optimizer_defaults_are_pgam_options(self):
        raw = json.loads(json.dumps(DESK))
        del raw["optimizer"]
        parsed, default = ScenarioConfig.from_dict(raw).optimizer, PgamOptions()
        for f in fields(PgamOptions):
            value = getattr(parsed, f.name)
            assert value == getattr(default, f.name)
            assert type(value) is type(getattr(default, f.name))
        assert SECTION_KEYS["optimizer"] == tuple(
            f.name for f in fields(PgamOptions) if f.name != "seed")

    @pytest.mark.parametrize("powers, pathloss", [
        ({"snr_db": -300.0}, {}), ({"snr_db": 300.0}, {}),
        ({"rho_dbm": -300.0}, {}), ({"rho_dbm": 300.0}, {}),
        ({"snr_db": 110.0, "pilot_power_dbm": -300.0}, {}),
        ({"snr_db": 110.0, "pilot_power_dbm": 300.0}, {}),
        ({"snr_db": 110.0}, {"penetration_db": -300.0}),
        ({"snr_db": 110.0}, {"penetration_db": 300.0}),
        ({"snr_db": 110.0}, {"ris_exponent": 0.0}), ({"snr_db": 110.0}, {"ris_exponent": 10.0}),
        ({"snr_db": 110.0}, {"direct_exponent": 0.0}),
        ({"snr_db": 110.0}, {"direct_exponent": 10.0}),
    ])
    def test_range_ends_build_a_finite_system(self, powers, pathloss):
        raw = json.loads(json.dumps(DESK))
        raw.update(powers=powers, pathloss=pathloss)
        system = build_system(ScenarioConfig.from_dict(raw))
        report = sum_se(StarConfig.equal_split(system.dims.n), system)
        assert np.isfinite(report.sum_se)

    @pytest.mark.parametrize("parameter, bad", [
        ("n", "x"), ("n", None), ("m", "x"), ("m", 0), ("m", float("inf")),
        ("snr_db", "loud"), ("rho_dbm", float("nan")),
        ("snr_db", "3"), ("n", "16"), ("n", 16.7), ("m", 8.5), ("m", True),
    ])
    def test_bad_sweep_value_names_field(self, parameter, bad):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": parameter, "values": [bad]}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == "sweep.values"

    @pytest.mark.parametrize("values", [5, "16", {}, []])
    def test_sweep_values_must_be_a_non_empty_list(self, values):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "n", "values": values}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == "sweep.values"

    def test_numbers_are_converted_once(self):
        # integral floats are accepted as counts; the converted values are
        # what the run and its CSV see
        raw = json.loads(json.dumps(DESK))
        raw["optimizer"] = {"n_starts": 3.0}
        raw["sweep"] = {"parameter": "m", "values": [8.0, 16]}
        cfg = ScenarioConfig.from_dict(raw)
        assert cfg.optimizer.n_starts == 3 and type(cfg.optimizer.n_starts) is int
        assert cfg.sweep_values == (8, 16)
        assert all(type(value) is int for value in cfg.sweep_values)
        raw["sweep"] = {"parameter": "snr_db", "values": [3, 4.5]}
        cfg = ScenarioConfig.from_dict(raw)
        assert cfg.sweep_values == (3.0, 4.5)
        assert all(type(value) is float for value in cfg.sweep_values)

    def test_empty_protocols_rejected(self):
        raw = json.loads(json.dumps(DESK))
        raw["protocols"] = []
        raw["sweep"] = {"parameter": "m", "values": [4, 8]}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == "protocols"

    def test_sweep_values_without_parameter_rejected(self):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"values": [16, 36]}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == "sweep.parameter"

    def test_unknown_sweep_parameter(self):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "k", "values": [1, 2]}
        with pytest.raises(ConfigError, match="sweep.parameter"):
            ScenarioConfig.from_dict(raw)


class TestGeometry:
    def test_single_user_at_midpoint(self):
        raw = json.loads(json.dumps(DESK))
        cfg = ScenarioConfig.from_dict(raw)
        pos = user_positions(cfg)
        # one t user above the surface, one r user below
        np.testing.assert_allclose(pos[0], [50.0, 20.0])
        np.testing.assert_allclose(pos[1], [50.0, 0.0])

    def test_equal_spacing_with_endpoints(self):
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 8, "n": 9, "k_t": 3, "k_r": 0, "tau_c": 200, "tau": 4}
        cfg = ScenarioConfig.from_dict(raw)
        pos = user_positions(cfg)
        np.testing.assert_allclose(pos[:, 0], [40.0, 50.0, 60.0])
        np.testing.assert_allclose(pos[:, 1], [20.0, 20.0, 20.0])

    def test_build_system_shapes(self):
        cfg = ScenarioConfig.from_dict(DESK)
        system = build_system(cfg)
        assert system.dims.m == 8
        assert system.corr.r_ris.shape == (9, 9)
        assert system.gains.k == 2
        # direct links carry the penetration loss, so they are weaker than
        # the same-distance unpenalized gain
        assert np.all(system.gains.beta_bar > 0)

    def test_large_surface_optimizes_without_a_dense_matrix(self):
        raw = json.loads(json.dumps(DESK))
        raw["dims"]["n"] = 4096
        cfg = ScenarioConfig.from_dict(raw)
        tracemalloc.start()
        try:
            system = build_system(cfg)
            multi_start([system], PgamOptions(n_starts=1, max_iters=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "r_ris" not in system.corr.__dict__
        # one N x N float64 matrix is 128 MiB
        assert peak < 4096 ** 2 * 8

    def test_no_direct_variant(self):
        cfg = ScenarioConfig.from_dict(DESK)
        system = build_system(cfg, no_direct=True)
        np.testing.assert_array_equal(system.gains.beta_bar, np.zeros(2))

    def test_element_area_follows_spacing(self):
        cfg = ScenarioConfig.from_dict(DESK)
        half = build_system(cfg, ris_spacing=0.5)
        quarter = build_system(cfg, ris_spacing=0.25)
        # aperture scales with the square of the element size
        assert half.gains.beta_g == pytest.approx(4.0 * quarter.gains.beta_g)


class TestRunExperiment:
    def test_rows_structure_and_determinism(self, tmp_path):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "m", "values": [4, 8]}
        raw["protocols"] = ["es", "random-phase"]
        cfg = ScenarioConfig.from_dict(raw)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        rows = write_csv(cfg, first)
        write_csv(cfg, second)
        assert first.read_bytes() == second.read_bytes()
        assert len(rows) == 4
        assert [r["scenario"] for r in rows] == ["es", "random-phase"] * 2
        assert rows[0]["sweep_value"] == 4
        header = first.read_text().splitlines()
        assert header[0].startswith("# starmimo csv schema")
        assert header[1].split(",")[0] == "sweep_parameter"

    def test_optimized_beats_random_phases(self):
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 8, "n": 16, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 4}
        raw["optimizer"] = {"n_starts": 3, "max_iters": 300}
        raw["protocols"] = ["es", "random-phase"]
        cfg = ScenarioConfig.from_dict(raw)
        rows = run_experiment(cfg)
        values = {r["scenario"]: float(r["sum_se"]) for r in rows}
        assert values["es"] >= values["random-phase"]

    @pytest.mark.parametrize("n", [16, 576])
    def test_random_phase_row_is_the_median_draw(self, n):
        # the draws are scored in one batch, yet the row is the median of
        # their one-at-a-time sum_se values, bit for bit; 576 runs the FFT kernel
        raw = json.loads(json.dumps(DESK))
        raw["dims"]["n"] = n
        raw["optimizer"] = {"n_starts": 5}
        cfg = ScenarioConfig.from_dict(raw)
        system = build_system(cfg)
        assert isinstance(system.corr.ris_abs2, GridKernel) == (n >= FFT_MIN_N)
        result = run_protocol("random-phase", cfg, system, 7)
        draws = [StarConfig.equal_split(n, np.random.default_rng(stream))
                 for stream in np.random.SeedSequence(7).spawn(5)]
        values = [sum_se(draw, system).sum_se for draw in draws]
        median = sorted(range(5), key=values.__getitem__)[2]
        assert result.sum_se == values[median]
        for name in ("theta", "beta"):
            np.testing.assert_array_equal(getattr(result.config, name),
                                          getattr(draws[median], name))

    def test_element_sweep_keeps_es_above_ms(self):
        # binary configurations are a subset of the energy-splitting set, so
        # a converged ES value sits above its rounding up to the stopping
        # tolerance (at low power the optimum is essentially binary and the
        # two coincide)
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 8, "n": 16, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 4}
        raw["powers"] = {"snr_db": 115.0}
        raw["optimizer"] = {"n_starts": 2, "max_iters": 20000, "tol": 1e-10}
        raw["protocols"] = ["es", "ms"]
        raw["sweep"] = {"parameter": "n", "values": [4, 9, 16]}
        cfg = ScenarioConfig.from_dict(raw)
        rows = run_experiment(cfg)
        for value in (4, 9, 16):
            pair = {r["scenario"]: float(r["sum_se"]) for r in rows
                    if r["sweep_value"] == value}
            assert pair["es"] >= pair["ms"] - 1e-7, f"N={value}: {pair}"

    def test_mc_columns_present_when_enabled(self):
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 4, "n": 4, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 4}
        raw["optimizer"] = {"n_starts": 1, "max_iters": 3}
        raw["mc"] = {"enabled": True, "trials": 50}
        cfg = ScenarioConfig.from_dict(raw)
        rows = run_experiment(cfg)
        assert rows[0]["mc_sum_se"] != ""
        assert float(rows[0]["mc_stderr"]) >= 0.0

    def test_partial_rows_flushed_on_failure(self, tmp_path, monkeypatch):
        import starmimo.cli as cli_module

        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "m", "values": [4, 8]}
        raw["optimizer"] = {"n_starts": 1, "max_iters": 2}
        cfg = ScenarioConfig.from_dict(raw)

        calls = {"count": 0}
        original = cli_module.run_protocol

        def explode_on_second(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("boom")
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, "run_protocol", explode_on_second)
        out = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError):
            write_csv(cfg, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # schema comment + header + first row

    def test_one_system_and_multi_start_per_sweep_point(self, monkeypatch):
        import dataclasses

        import starmimo.cli as cli_module
        from starmimo.optimizer import canonicalize_signs, round_to_ms

        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "m", "values": [4, 8]}
        raw["protocols"] = ["es", "ms", "es-no-direct"]
        cfg = ScenarioConfig.from_dict(raw)

        builds, batches, calls = [], [], []
        original_build = cli_module.build_system

        def build_system(*args, **kwargs):
            builds.append(kwargs)
            return original_build(*args, **kwargs)

        def batched(systems, options):
            batches.append(list(systems))
            return multi_start(systems, options)

        monkeypatch.setattr(cli_module, "build_system", build_system)
        monkeypatch.setattr(cli_module, "multi_start", batched)
        run_protocol = cli_module.run_protocol

        def capture(protocol, cfg, system, opt_seed, *rest):
            result = run_protocol(protocol, cfg, system, opt_seed, *rest)
            calls.append((protocol, system, opt_seed, result))
            return result

        monkeypatch.setattr(cli_module, "run_protocol", capture)
        rows = run_experiment(cfg)

        # one build per sweep point, whose correlation pair the
        # direct-link-free variant shares, and one multi-start batch per
        # point: es and ms on the built system, es-no-direct on its variant
        assert len(builds) == 2 and len(batches) == 2 and len(calls) == 6
        for point, batch in enumerate(batches):
            es, ms, no_direct = calls[3 * point: 3 * point + 3]
            assert tuple(call[0] for call in (es, ms, no_direct)) == tuple(cfg.protocols)
            assert batch[0] is es[1] is ms[1] and batch[1] is no_direct[1]
            assert len(batch) == 2
            assert no_direct[1].corr is es[1].corr
            np.testing.assert_array_equal(no_direct[1].gains.beta_bar, 0.0)
            assert no_direct[1].gains.beta_g == es[1].gains.beta_g
            np.testing.assert_array_equal(no_direct[1].gains.beta_tilde,
                                          es[1].gains.beta_tilde)
        # every system's trace is, bit for bit, its own-system multi-start's
        for (protocol, system, opt_seed, result), row in zip(calls, rows):
            options = dataclasses.replace(cfg.optimizer, seed=opt_seed)
            [alone] = multi_start([system], options)
            assert result.trace.objectives == alone.objectives
            assert result.trace.step_sizes == alone.step_sizes
            assert result.trace.stationarity == alone.stationarity
            expected = (round_to_ms if protocol == "ms" else canonicalize_signs)(
                alone.final_config)
            for name in ("theta", "beta"):
                np.testing.assert_array_equal(getattr(result.config, name),
                                              getattr(expected, name))
            assert result.sum_se == sum_se(expected, system).sum_se
            assert row["sum_se"] == f"{result.sum_se:.10g}"

    @staticmethod
    def count_batches(monkeypatch, cfg):
        """The systems of each ``multi_start`` call ``run_experiment(cfg)``
        makes, and the rows."""
        import starmimo.cli as cli_module

        batches = []

        def batched(systems, options):
            batches.append(list(systems))
            return multi_start(systems, options)

        monkeypatch.setattr(cli_module, "multi_start", batched)
        return batches, run_experiment(cfg)

    @pytest.mark.parametrize("protocols, built_first", [
        (["es", "ms", "conventional", "random-phase", "es-no-direct"], True),
        (["conventional", "random-phase", "es-no-direct", "ms", "es"], False),
    ])
    def test_one_multi_start_per_point_whatever_the_protocol_order(self, monkeypatch,
                                                                     protocols, built_first):
        # the point's first optimized protocol runs the one batch, over the
        # built model and its direct-link-free variant in protocol order,
        # whichever protocols come before it
        import starmimo.cli as cli_module

        raw = json.loads(json.dumps(DESK))
        raw["protocols"] = protocols
        systems = []
        original = cli_module.build_system

        def build_system(*args, **kwargs):
            systems.append(original(*args, **kwargs))
            return systems[-1]

        monkeypatch.setattr(cli_module, "build_system", build_system)
        [batch], rows = self.count_batches(monkeypatch, ScenarioConfig.from_dict(raw))
        [built] = systems
        assert len(batch) == 2
        blocked = batch[built_first]
        assert batch[not built_first] is built and blocked is not built
        assert blocked.corr is built.corr
        np.testing.assert_array_equal(blocked.gains.beta_bar, 0.0)
        assert [row["scenario"] for row in rows] == protocols

    def test_unoptimized_protocols_make_no_multi_start(self, monkeypatch):
        raw = json.loads(json.dumps(DESK))
        raw["protocols"] = ["conventional", "random-phase"]
        batches, rows = self.count_batches(monkeypatch, ScenarioConfig.from_dict(raw))
        assert batches == [] and len(rows) == 2

    def test_conventional_is_scored_once_per_point(self, monkeypatch):
        # the split surface's four-pattern batch gives the row its value; no
        # second kernel call re-scores the winner
        import starmimo.rate as rate_module

        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "snr_db", "values": [100.0, 110.0, 120.0]}
        raw["protocols"] = ["conventional"]
        calls = []
        score = rate_module.ClosedForm.score

        def counted(*args):
            calls.append(args[0])
            return score(*args)

        monkeypatch.setattr(rate_module.ClosedForm, "score", counted)
        rows = run_experiment(ScenarioConfig.from_dict(raw))
        assert len(calls) == len(rows) == 3

    @pytest.mark.parametrize("n", [36, 1024])
    @pytest.mark.parametrize("batched", [False, True])
    def test_optimized_rows_are_the_closed_form_at_their_configuration(self, n, batched):
        # es and es-no-direct report their trace's final objective, which is
        # the closed form at the sign-canonical configuration to the bit
        import dataclasses

        import starmimo.cli as cli_module

        raw = json.loads(json.dumps(DESK))
        raw["dims"]["n"] = n
        raw["optimizer"]["max_iters"] = 8
        cfg = ScenarioConfig.from_dict(raw)
        system = build_system(cfg)
        assert isinstance(system.corr.ris_abs2, GridKernel) == (n >= FFT_MIN_N)
        systems = {"es": system, "es-no-direct": cli_module._without_direct(system)}
        options = dataclasses.replace(cfg.optimizer, seed=11)
        traces = (multi_start(list(systems.values()), options) if batched
                  else [None] * len(systems))
        for (protocol, model), trace in zip(systems.items(), traces):
            result = run_protocol(protocol, cfg, model, 11, trace)
            assert np.all(result.config.beta >= 0.0)
            assert result.sum_se == result.trace.final_objective
            assert result.sum_se == sum_se(result.config, model).sum_se

    def test_es_point_evaluates_only_its_multi_start(self, monkeypatch):
        import dataclasses

        import starmimo.cli as cli_module
        import starmimo.rate as rate_module

        cfg = ScenarioConfig.from_dict(DESK)
        calls = []
        score = rate_module.ClosedForm.score

        def counted(*args):
            calls.append(args[0])
            return score(*args)

        monkeypatch.setattr(rate_module.ClosedForm, "score", counted)
        options = dataclasses.replace(cfg.optimizer, seed=cli_module.derive_seed(cfg.seed, 0))
        multi_start([build_system(cfg)], options)
        alone = len(calls)
        calls.clear()
        [row] = run_experiment(cfg)
        # the row is the multi-start's value; no kernel call re-scores it
        assert len(calls) == alone and row["scenario"] == "es"

    def test_conventional_row_is_the_best_sign_pattern(self):
        # the first round(t_fraction * N) elements transmit, the rest
        # reflect; each region's phases are all 1 or alternate +1/-1 by
        # element index, and the best of the four patterns is reported with
        # no iterations
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 6, "n": 16, "k_t": 1, "k_r": 2, "tau_c": 200, "tau": 4}
        raw["conventional"] = {"t_fraction": 0.25}
        raw["protocols"] = ["conventional"]
        cfg = ScenarioConfig.from_dict(raw)
        [row] = run_experiment(cfg)

        system = build_system(cfg)
        transmits = np.array([1.0] * 4 + [0.0] * 12)
        signs = (np.ones(16), np.array([1.0, -1.0] * 8))
        candidates = [StarConfig(theta=[t, r], beta=[transmits, 1.0 - transmits])
                      for t in signs for r in signs]
        values = [sum_se(config, system).sum_se for config in candidates]
        best = candidates[int(np.argmax(values))]
        result = run_protocol("conventional", cfg, system, 0)
        for name in ("theta", "beta"):
            np.testing.assert_array_equal(getattr(result.config, name), getattr(best, name))
        # the value of the four-pattern batch is the winner's own score
        assert result.sum_se == max(values)
        assert row["sum_se"] == f"{max(values):.10g}"
        assert row["iterations"] == 0

    def test_convergence_rows_equal_one_start_runs(self):
        from starmimo.channel import StarConfig
        from starmimo.cli import derive_seed
        from starmimo.optimizer import pgam

        raw = json.loads(json.dumps(DESK))
        raw["kind"] = "convergence"
        raw["optimizer"] = {"n_starts": 3, "max_iters": 30, "mu_init": 100.0}
        cfg = ScenarioConfig.from_dict(raw)
        rows = run_experiment(cfg)

        system = build_system(cfg)
        expected = []
        streams = np.random.SeedSequence(derive_seed(cfg.seed, 0)).spawn(3)
        for idx, stream in enumerate(streams):
            local = np.random.default_rng(stream)
            init = (StarConfig.equal_split(9, local) if idx == 0
                    else StarConfig.random(9, local))
            trace = pgam(system, cfg.optimizer, init)
            expected += [(f"start{idx}", it, f"{value:.10g}", trace.iterations)
                         for it, value in enumerate(trace.objectives)]
        assert [(r["scenario"], r["sweep_value"], r["sum_se"], r["iterations"])
                for r in rows] == expected

    def test_row_contract(self, monkeypatch):
        # the row dicts the writer callback sees: the schema-1 columns in
        # order, the swept number, iterations and seed as ints, the rest text
        import starmimo.cli as cli_module

        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "n", "values": [4, 9]}
        raw["protocols"] = ["es", "ms", "conventional", "random-phase", "es-no-direct"]
        raw["mc"] = {"enabled": True, "trials": 20}
        raw["timings"] = True
        results = []
        run_protocol = cli_module.run_protocol

        def capture(*args, **kwargs):
            results.append(run_protocol(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli_module, "run_protocol", capture)
        rows = run_experiment(ScenarioConfig.from_dict(raw))
        assert len(rows) == len(results) == 10
        for row, result in zip(rows, results):
            assert tuple(row) == CSV_COLUMNS
            assert type(row["sweep_value"]) is int and row["sweep_value"] in (4, 9)
            assert type(row["iterations"]) is int and type(row["seed"]) is int
            assert row["iterations"] == result.iterations
            text = [row[c] for c in CSV_COLUMNS if c not in ("sweep_value", "iterations", "seed")]
            assert all(isinstance(value, str) and value for value in text)
        for point in (results[:5], results[5:]):
            es, ms, conventional, random_phase, no_direct = point
            assert es.trace is not None and ms.trace is es.trace
            assert no_direct.trace is not None and no_direct.trace is not es.trace
            assert conventional.trace is None and random_phase.trace is None

        raw = json.loads(json.dumps(DESK))
        raw["kind"] = "convergence"
        for row in run_experiment(ScenarioConfig.from_dict(raw)):
            assert tuple(row) == CSV_COLUMNS
            assert [type(row[c]) for c in ("sweep_value", "iterations", "seed")] == [int] * 3
            assert (row["sweep_parameter"], row["mc_sum_se"], row["mc_stderr"],
                    row["elapsed_s"]) == ("iteration", "", "", "")
            assert isinstance(row["sum_se"], str) and row["scenario"].startswith("start")

    def test_convergence_kind_rows(self):
        raw = json.loads(json.dumps(DESK))
        raw["kind"] = "convergence"
        raw["dims"] = {"m": 4, "n": 4, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 4}
        raw["optimizer"] = {"n_starts": 2, "max_iters": 5}
        cfg = ScenarioConfig.from_dict(raw)
        rows = run_experiment(cfg)
        starts = {r["scenario"] for r in rows}
        assert starts == {"start0", "start1"}
        first = [r for r in rows if r["scenario"] == "start0"]
        assert [r["sweep_value"] for r in first] == list(range(len(first)))
        values = [float(r["sum_se"]) for r in first]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCorrelationReuse:
    """A sweep's points share the run's correlation statistics, and only
    within one ``run_experiment`` call."""

    @staticmethod
    def built_pairs(monkeypatch) -> list:
        import starmimo.cli as cli_module

        pairs, original = [], cli_module.build_system

        def build_system(*args, **kwargs):
            system = original(*args, **kwargs)
            pairs.append(system.corr)
            return system

        monkeypatch.setattr(cli_module, "build_system", build_system)
        return pairs

    @staticmethod
    def sweep(parameter, values, protocols=("es",)):
        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": parameter, "values": list(values)}
        raw["protocols"] = list(protocols)
        raw["optimizer"]["max_iters"] = 3
        return ScenarioConfig.from_dict(raw)

    def test_element_sweep_decomposes_r_bs_once_per_run(self, monkeypatch):
        # every eigh of the run, the surface factors' too; Monte Carlo is on,
        # so every point also draws through bs_factor
        eighs, original = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: eighs.append(np.array(a)) or original(a))
        pairs = self.built_pairs(monkeypatch)
        cfg = replace(self.sweep("n", [4, 9, 16], ("es", "random-phase", "es-no-direct")),
                      mc_enabled=True, mc_trials=4)

        def r_bs_eighs():
            return sum(np.array_equal(a, pairs[0].r_bs) for a in eighs)

        run_experiment(cfg)
        assert r_bs_eighs() == 1 and len(pairs) == 3
        for pair, n in zip(pairs, cfg.sweep_values):
            assert pair.n == n and pair.bs_eigvecs is pairs[0].bs_eigvecs
            assert "bs_factor" in pair.__dict__
        run_experiment(cfg)
        assert r_bs_eighs() == 2 and pairs[3].bs_eigvecs is not pairs[0].bs_eigvecs

    @pytest.mark.parametrize("parameter, values", [("snr_db", [100.0, 110.0, 120.0]),
                                                   ("rho_dbm", [10.0, 20.0])])
    def test_power_sweep_shares_one_pair(self, monkeypatch, parameter, values):
        pairs = self.built_pairs(monkeypatch)
        cfg = self.sweep(parameter, values)
        first = run_experiment(cfg)
        assert len(pairs) == len(values) and all(pair is pairs[0] for pair in pairs)
        second = run_experiment(cfg)
        assert pairs[len(values)] is not pairs[0]
        assert all(pair is pairs[len(values)] for pair in pairs[len(values):])
        assert first == second

    def test_shared_statistics_leave_the_rows(self, monkeypatch):
        import starmimo.cli as cli_module

        original = cli_module.build_system
        for parameter, values in (("n", [4, 9]), ("ris_spacing", [0.25, 0.5]),
                                  ("m", [4, 8]), ("snr_db", [100.0, 110.0])):
            cfg = self.sweep(parameter, values, ("es", "ms", "random-phase"))
            shared = run_experiment(cfg)
            with monkeypatch.context() as patch:
                # every point on statistics of its own
                patch.setattr(cli_module, "build_system",
                              lambda cfg, corr=None, **overrides: original(cfg, **overrides))
                assert run_experiment(cfg) == shared

    def test_a_new_surface_frees_the_previous_kernel(self, monkeypatch):
        import gc
        import weakref

        import starmimo.cli as cli_module

        kernels, alive = [], []
        run_protocol = cli_module.run_protocol

        def capture(protocol, cfg, system, *rest):
            gc.collect()
            alive.append([kernel() is not None for kernel in kernels])
            result = run_protocol(protocol, cfg, system, *rest)
            kernels.append(weakref.ref(system.corr.ris_abs2))
            return result

        monkeypatch.setattr(cli_module, "run_protocol", capture)
        run_experiment(self.sweep("n", [4, 9, 16]))
        assert alive == [[], [False], [False, False]]


class TestConventionalReferee:
    """The ``conventional`` row against the closed form itself.  On the split
    surface the closed form reads each region's phases only through
    T_u = phi_u^H |R_RIS|^2 phi_u, so it is a function F(T_t, T_r) on
    [0, S_t] x [0, S_r] with S_u = 1_u^T |R_RIS|^2 1_u (equal phases)."""

    # (config edit, sweep-point override, whether F peaks at (S_t, S_r))
    CASES = {
        "desk": (None, {}, True),
        "sweep_snr-85dB": ("sweep_snr", {"snr_db": 85.0}, False),
        "sweep_snr-115dB": ("sweep_snr", {"snr_db": 115.0}, True),
        "t_fraction-0": (0.0, {}, True),
        "t_fraction-0.25": (0.25, {}, True),
        "t_fraction-1": (1.0, {}, True),
    }

    @staticmethod
    def family_max(system, beta):
        """Best sum SE over phases 1 on even and e^{i omega_u} on odd
        elements, on a 33 x 33 grid of (omega_t, omega_r) in [0, pi]^2."""
        n = system.dims.n
        phases = np.ones((33, n), dtype=complex)
        phases[:, 1::2] = np.exp(1j * np.linspace(0.0, np.pi, 33))[:, None]
        theta = np.stack([np.repeat(phases, 33, axis=0), np.tile(phases, (33, 1))], axis=1)
        return evaluate(theta, np.tile(beta, (len(theta), 1, 1)), system).report.sum_se.max()

    @staticmethod
    def rectangle_bound(system, config, points=201, chunk=8):
        """F's maximum on a grid over [0, S_t] x [0, S_r], and whether it
        sits at (S_t, S_r).  ``from_alphas`` takes ``chunk`` rows of T_t at
        a time, so its (6, rows, points, K, M) work array stays small."""
        a = np.abs(system.corr.r_ris) ** 2
        t_t = np.linspace(0.0, config.beta[0] @ a @ config.beta[0], points)
        t_r = np.linspace(0.0, config.beta[1] @ a @ config.beta[1], points)
        grid = (t_t[:, None, None], t_r[None, :, None])
        traces = np.concatenate([np.broadcast_to(grid[u], (points, points, 1))
                                 for u in system.region], axis=-1)
        alphas = system.gains.beta_bar + system.gains.beta_hat * traces
        values = np.concatenate([from_alphas(alphas[i:i + chunk], system)[2].sum_se
                                 for i in range(0, points, chunk)])
        i, j = np.unravel_index(np.argmax(values), values.shape)
        return values[i, j], (t_t[i], t_r[j]) == (t_t[-1], t_r[-1])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_row_against_the_closed_form(self, case):
        edit, overrides, corner = self.CASES[case]
        if edit == "sweep_snr":
            cfg = ScenarioConfig.from_file(SRC.parent / "configs" / "sweep_snr.json")
        else:
            raw = json.loads(json.dumps(DESK))
            if edit is not None:
                raw["conventional"] = {"t_fraction": edit}
            cfg = ScenarioConfig.from_dict(raw)
        system = build_system(cfg, **overrides)
        result = run_protocol("conventional", cfg, system, 0)
        result.config.validate()

        assert result.sum_se == pytest.approx(self.family_max(system, result.config.beta),
                                              rel=1e-12)
        bound, at_corner = self.rectangle_bound(system, result.config)
        assert result.sum_se <= bound * (1.0 + 1e-12)
        assert at_corner == corner
        if at_corner:
            assert result.sum_se == pytest.approx(bound, rel=1e-12)


class TestMain:
    def test_bad_config_returns_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"dims\": {}}")
        assert main(["--config", str(path)]) == 2
        assert "dims.m" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, bad", [
        ("geometry", "d0", "far"), ("powers", "bandwidth_hz", "wide"),
        ("optimizer", "max_iters", 0), ("sweep", "values", ["x"]),
        ("powers", "snr_db", 4000.0), ("pathloss", "ris_exponent", -300.0),
    ])
    def test_bad_field_exits_with_its_name_and_no_traceback(self, tmp_path, section, key,
                                                            bad):
        raw = json.loads(json.dumps(DESK))
        raw.setdefault(section, {})[key] = bad
        if section == "sweep":
            raw["sweep"]["parameter"] = "n"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        proc = subprocess.run(
            [sys.executable, "-m", "starmimo.cli", "--config", str(path),
             "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert proc.returncode == 2
        assert f"{section}.{key}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_overflowing_path_gains_exit_with_pathloss_and_no_traceback(self, tmp_path):
        # each field is in range, but 1e300 m^2 elements behind a 300 dB
        # penetration gain overflow the direct gains; the config parses, and
        # the model build rejects it
        raw = json.loads(json.dumps(DESK))
        raw["pathloss"] = {"element_area": 1e300, "penetration_db": -300}
        ScenarioConfig.from_dict(raw)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw))
        # the first point fails before any row is complete: an existing out
        # keeps its bytes
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier,run\r\n1,2\r\n")
        proc = subprocess.run(
            [sys.executable, "-m", "starmimo.cli", "--config", str(path),
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: pathloss:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert out.read_bytes() == b"earlier,run\r\n1,2\r\n"

    def test_undecodable_config_returns_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert main(["--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fld, edit", [
        ("optimzer", lambda raw: raw.update(optimzer={"n_starts": 1})),
        ("dims.tua", lambda raw: raw["dims"].update(tua=4)),
        ("config", lambda raw: [raw]),
        ("mc.enabled", lambda raw: raw.update(mc={"enabled": "no"})),
        ("timings", lambda raw: raw.update(timings=1)),
        ("name", lambda raw: raw.update(name=5)),
        ("out", lambda raw: raw.update(out=["a.csv"])),
        ("correlation.bs_model", lambda raw: raw.update(correlation={"bs_model": None})),
        ("correlation.bs_model", lambda raw: raw.update(correlation={"bs_model": "foo"})),
        ("correlation.bs_param", lambda raw: raw.update(correlation={"bs_param": 1.5})),
        ("geometry.d0", lambda raw: raw.update(geometry={"d0": -20.0})),
        ("geometry.d0", lambda raw: raw.update(geometry={"d0": 0})),
        ("pathloss.wavelength_m", lambda raw: raw.update(pathloss={"wavelength_m": -0.1})),
        ("pathloss.element_area", lambda raw: raw.update(pathloss={"element_area": -1})),
        ("powers.bandwidth_hz", lambda raw: raw["powers"].update(bandwidth_hz=-1e3)),
        ("dims.n", lambda raw: raw["dims"].update(n=-4)),
        ("dims.n", lambda raw: raw["dims"].update(n=0)),
        ("geometry.bs_xy", lambda raw: raw.update(geometry={"bs_xy": [50.0, 10.0]})),
        # the lone t-region user sits d0 / 2 above the surface
        ("geometry.bs_xy", lambda raw: raw.update(geometry={"bs_xy": [50.0, 20.0]})),
        # beyond these ranges, build_system overflows
        ("powers.snr_db", lambda raw: raw["powers"].update(snr_db=4000.0)),
        ("powers.snr_db", lambda raw: raw["powers"].update(snr_db=-300.5)),
        ("powers.rho_dbm", lambda raw: raw.update(powers={"rho_dbm": 5000.0})),
        ("powers.rho_dbm", lambda raw: raw.update(powers={"rho_dbm": -301.0})),
        ("powers.pilot_power_dbm", lambda raw: raw["powers"].update(pilot_power_dbm=5000.0)),
        ("powers.pilot_power_dbm", lambda raw: raw["powers"].update(pilot_power_dbm=-400.0)),
        ("pathloss.penetration_db", lambda raw: raw.update(pathloss={"penetration_db": -5000})),
        ("pathloss.penetration_db", lambda raw: raw.update(pathloss={"penetration_db": 301})),
        ("pathloss.ris_exponent", lambda raw: raw.update(pathloss={"ris_exponent": -300})),
        ("pathloss.ris_exponent", lambda raw: raw.update(pathloss={"ris_exponent": 10.5})),
        ("pathloss.direct_exponent", lambda raw: raw.update(pathloss={"direct_exponent": -0.1})),
        ("pathloss.direct_exponent", lambda raw: raw.update(pathloss={"direct_exponent": 11})),
        ("sweep.values", lambda raw: raw.update(sweep={"parameter": "snr_db",
                                                       "values": [110.0, 4000.0]})),
        ("sweep.values", lambda raw: raw.update(powers={"rho_dbm": 20.0}, sweep={
            "parameter": "rho_dbm", "values": [-300.5]})),
        # a convergence run is one untimed es multi-start at dims; a sweep,
        # Monte Carlo, other protocols or timings would be ignored
        ("sweep.parameter", lambda raw: raw.update(kind="convergence", sweep={
            "parameter": "n", "values": [16, 36]})),
        ("mc.enabled", lambda raw: raw.update(kind="convergence", mc={"enabled": True})),
        ("protocols", lambda raw: raw.update(kind="convergence",
                                             protocols=["ms", "random-phase"])),
        ("timings", lambda raw: raw.update(kind="convergence", timings=True)),
    ])
    def test_rejected_at_parse_with_field_and_status_2(self, tmp_path, capsys, fld, edit):
        raw = json.loads(json.dumps(DESK))
        raw = edit(raw) or raw
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.field == fld
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fld}:")
        assert not out.exists()

    def test_unwritable_out_returns_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(DESK))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out: ") and str(tmp_path) in err

    @pytest.mark.parametrize("flag, value, fld", [("--seed", "-1", "seed"),
                                                  ("--mc-trials", "1", "mc.trials")])
    def test_bad_flag_value_names_field(self, tmp_path, capsys, flag, value, fld):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(DESK))
        out = tmp_path / "out.csv"
        assert main(["--config", str(path), "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fld}:")
        assert not out.exists()

    def test_full_run_with_overrides(self, tmp_path, capsys):
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 4, "n": 4, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 4}
        raw["optimizer"] = {"n_starts": 1, "max_iters": 2}
        raw["mc"] = {"enabled": True, "trials": 500}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "result.csv"
        code = main(["--config", str(config_path), "--out", str(out),
                     "--seed", "9", "--no-mc"])
        assert code == 0
        text = out.read_text()
        assert "es" in text
        rows = text.splitlines()
        assert rows[-1].split(",")[-1] == "9"  # overridden seed recorded

    def test_mc_trials_override(self, tmp_path):
        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 4, "n": 4, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 4}
        raw["optimizer"] = {"n_starts": 1, "max_iters": 2}
        raw["mc"] = {"enabled": True, "trials": 1000}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "result.csv"
        assert main(["--config", str(config_path), "--out", str(out),
                     "--mc-trials", "20"]) == 0
        assert out.exists()
