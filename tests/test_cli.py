import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from starmimo.channel import StarConfig
from starmimo.cli import (
    SECTION_KEYS,
    ConfigError,
    ScenarioConfig,
    build_system,
    main,
    noise_power,
    run_experiment,
    user_positions,
    write_csv,
)
from starmimo.optimizer import PgamOptions, multi_start
from starmimo.rate import sum_se

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

    def test_optimizer_defaults_are_pgam_options(self):
        raw = json.loads(json.dumps(DESK))
        del raw["optimizer"]
        parsed, default = ScenarioConfig.from_dict(raw).optimizer, PgamOptions()
        for f in fields(PgamOptions):
            value = getattr(parsed, f.name)
            assert value == getattr(default, f.name)
            assert type(value) is type(getattr(default, f.name))
        assert SECTION_KEYS["optimizer"] == tuple(
            f.name for f in fields(PgamOptions) if f.name not in ("seed", "freeze_amplitudes"))

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
            multi_start(system, PgamOptions(n_starts=1, max_iters=1))
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
        from starmimo.optimizer import multi_start, round_to_ms
        from starmimo.rate import sum_se

        raw = json.loads(json.dumps(DESK))
        raw["sweep"] = {"parameter": "m", "values": [4, 8]}
        raw["protocols"] = ["es", "ms", "es-no-direct"]
        cfg = ScenarioConfig.from_dict(raw)

        counts = {"build_system": 0, "multi_start": 0}
        ms_calls = []

        def counting(name):
            original = getattr(cli_module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli_module, name, wrapper)

        counting("build_system")
        counting("multi_start")
        run_protocol = cli_module.run_protocol

        def capture(protocol, cfg, system, opt_seed, *rest):
            result = run_protocol(protocol, cfg, system, opt_seed, *rest)
            if protocol == "ms":
                ms_calls.append((system, opt_seed, result))
            return result

        monkeypatch.setattr(cli_module, "run_protocol", capture)
        rows = run_experiment(cfg)

        # one build per (sweep point, direct-link variant); es and ms share
        # one multi-start, es-no-direct runs its own
        assert counts == {"build_system": 4, "multi_start": 4}
        assert len(ms_calls) == 2
        ms_rows = [r for r in rows if r["scenario"] == "ms"]
        for (system, opt_seed, result), row in zip(ms_calls, ms_rows):
            options = dataclasses.replace(cfg.optimizer, seed=opt_seed)
            expected = round_to_ms(multi_start(system, options).final_config)
            for name in ("theta_t", "theta_r", "beta_t", "beta_r"):
                np.testing.assert_array_equal(getattr(result.config, name),
                                              getattr(expected, name))
            assert result.sum_se == sum_se(expected, system).sum_se
            assert row["sum_se"] == f"{result.sum_se:.10g}"

    def test_conventional_row_equals_one_start_runs(self):
        import dataclasses

        from starmimo.channel import StarConfig
        from starmimo.cli import derive_seed
        from starmimo.optimizer import pgam
        from starmimo.rate import sum_se

        raw = json.loads(json.dumps(DESK))
        raw["dims"] = {"m": 6, "n": 16, "k_t": 1, "k_r": 2, "tau_c": 200, "tau": 4}
        raw["optimizer"] = {"n_starts": 4, "max_iters": 40}
        raw["conventional"] = {"t_fraction": 0.25}
        raw["protocols"] = ["conventional"]
        cfg = ScenarioConfig.from_dict(raw)
        [row] = run_experiment(cfg)

        # reference: the split-surface starts run one at a time, best kept
        system = build_system(cfg)
        opt_seed = derive_seed(cfg.seed, 0)
        options = dataclasses.replace(cfg.optimizer, seed=opt_seed, freeze_amplitudes=True)
        beta_t = np.array([1.0] * 4 + [0.0] * 12)
        best = None
        for stream in np.random.SeedSequence(opt_seed).spawn(4):
            local = np.random.default_rng(stream)
            init = StarConfig(theta_t=np.exp(1j * local.uniform(0.0, 2.0 * np.pi, 16)),
                              theta_r=np.exp(1j * local.uniform(0.0, 2.0 * np.pi, 16)),
                              beta_t=beta_t, beta_r=1.0 - beta_t)
            trace = pgam(system, options, init)
            if best is None or trace.final_objective > best.final_objective:
                best = trace
        np.testing.assert_array_equal(best.final_config.beta_t, beta_t)
        assert row["sum_se"] == f"{sum_se(best.final_config, system).sum_se:.10g}"
        assert row["iterations"] == best.iterations

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
