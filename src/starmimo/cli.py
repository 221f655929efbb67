"""Config-driven experiment runner.

Each scenario lives in one JSON file: dimensions, deployment geometry,
powers, correlation knobs, the protocols to compare, optimizer/Monte Carlo
options, and an optional sweep.  Output is a CSV with one row per sweep
point per protocol, written in sweep order and flushed incrementally so a
failing sweep keeps its completed rows.  Same config + same seed gives a
byte-identical file (wall-clock timings are off unless requested, since they
are the one non-deterministic column).

Flags: ``--config <path> [--seed <u64>] [--out <path>] [--mc-trials <n>]
[--no-mc] [--timings]``; flags override the config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .channel import StarConfig, SystemDims, SystemModel
from .correlation import (
    BS_CORRELATION_MODELS,
    ArrayGeometry,
    CorrelationPair,
    LinkGains,
    build_bs_correlation,
    build_ris_correlation,
    path_gain,
)
from .montecarlo import mc_sinr
from .optimizer import (
    OptionError,
    PgamOptions,
    canonicalize_signs,
    initial_points,
    multi_start,
    pgam_lockstep,
    round_to_ms,
)
from .rate import sum_se

CSV_SCHEMA = 1
CSV_COLUMNS = (
    "sweep_parameter", "sweep_value", "scenario", "sum_se",
    "mc_sum_se", "mc_stderr", "iterations", "elapsed_s", "seed",
)
PROTOCOLS = ("es", "ms", "conventional", "random-phase", "es-no-direct")
SWEEP_PARAMETERS = ("n", "m", "snr_db", "rho_dbm", "ris_spacing")
# the optimizer section's fields; the runner sets seed and freeze_amplitudes itself
OPTIMIZER_FIELDS = tuple(f for f in fields(PgamOptions)
                         if f.name not in ("seed", "freeze_amplitudes"))
SECTION_KEYS = {
    "dims": ("m", "n", "k_t", "k_r", "tau_c", "tau"),
    "geometry": ("bs_xy", "ris_xy", "d0"),
    "powers": ("rho_dbm", "snr_db", "pilot_power_dbm", "bandwidth_hz"),
    "pathloss": ("ris_exponent", "direct_exponent", "penetration_db", "wavelength_m",
                 "element_area"),
    "correlation": ("bs_model", "bs_param", "ris_spacing"),
    "conventional": ("t_fraction",),
    "optimizer": tuple(f.name for f in OPTIMIZER_FIELDS),
    "mc": ("enabled", "trials"),
    "sweep": ("parameter", "values"),
}
TOP_LEVEL_KEYS = ("name", "kind", "protocols", "seed", "out", "timings", *SECTION_KEYS)
_REQUIRED = object()  # the default of a config field that must be given
# beyond these, the powers and path gains build_system forms overflow or vanish
DB_RANGE = (-300.0, 300.0)
EXPONENT_RANGE = (0.0, 10.0)
LN2 = math.log(2.0)


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld


def noise_power(bandwidth_hz: float) -> float:
    """Thermal noise power in watts: -174 dBm/Hz plus 10 log10(bandwidth)."""
    if bandwidth_hz <= 0:
        raise ConfigError("powers.bandwidth_hz", "bandwidth must be positive")
    dbm = -174.0 + 10.0 * math.log10(bandwidth_hz)
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class ScenarioConfig:
    """Parsed, validated scenario description."""

    name: str
    kind: str                    # "sweep" or "convergence"
    m: int
    n: int
    k_t: int
    k_r: int
    tau_c: int
    tau: int
    bs_xy: tuple
    ris_xy: tuple
    d0: float
    rho_dbm: float | None
    snr_db: float | None
    pilot_power_dbm: float | None
    bandwidth_hz: float
    ris_exponent: float
    direct_exponent: float
    penetration_db: float
    wavelength_m: float
    element_area: float | None
    bs_model: str
    bs_param: float
    ris_spacing: float
    protocols: tuple
    conventional_t_fraction: float
    optimizer: PgamOptions
    mc_enabled: bool
    mc_trials: int
    sweep_parameter: str | None
    sweep_values: tuple
    seed: int
    out: str
    timings: bool = False

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config", f"expected a mapping at the top level, "
                              f"got {type(raw).__name__}")
        _reject_unknown_keys(raw, TOP_LEVEL_KEYS, "")

        def section(key):
            value = raw.get(key, {})
            if not isinstance(value, dict):
                raise ConfigError(key, "must be a mapping")
            _reject_unknown_keys(value, SECTION_KEYS[key], f"{key}.")
            return value

        dims = section("dims")
        geometry = section("geometry")
        powers = section("powers")
        pathloss = section("pathloss")
        correlation = section("correlation")
        opt = section("optimizer")
        mc = section("mc")
        sweep = section("sweep")

        kind = raw.get("kind", "sweep")
        if kind not in ("sweep", "convergence"):
            raise ConfigError("kind", f"must be 'sweep' or 'convergence', got {kind!r}")

        protocols = raw.get("protocols", ["es"])
        if not isinstance(protocols, list):
            raise ConfigError("protocols", f"expected a list of protocol names, got {protocols!r}")
        protocols = tuple(protocols)
        for proto in protocols:
            if proto not in PROTOCOLS:
                raise ConfigError("protocols", f"unknown protocol {proto!r}; "
                                  f"choose from {PROTOCOLS}")
        if len(protocols) != len(set(protocols)):
            raise ConfigError("protocols", "duplicate entries")

        sweep_parameter = sweep.get("parameter")
        in_vals = ()
        if kind == "sweep":
            if sweep_parameter is not None:
                if sweep_parameter not in SWEEP_PARAMETERS:
                    raise ConfigError("sweep.parameter",
                                      f"must be one of {SWEEP_PARAMETERS}")
                values = sweep.get("values")
                if not isinstance(values, list) or not values:
                    raise ConfigError("sweep.values", "expected a non-empty list")
                value_kind = int if sweep_parameter in ("n", "m") else float
                in_vals = tuple(_convert(value, "sweep.values", value_kind)
                                for value in values)

        def optimizer_options():
            try:
                return PgamOptions(**{
                    f.name: _field(opt, f"optimizer.{f.name}", type(f.default), f.default)
                    for f in OPTIMIZER_FIELDS
                })
            except OptionError as exc:
                raise ConfigError(f"optimizer.{exc.field}", str(exc)) from None

        # fields are converted in declaration order, so the first bad one is named
        m, n = _field(dims, "dims.m", int), _field(dims, "dims.n", int)
        k_t, k_r = _field(dims, "dims.k_t", int), _field(dims, "dims.k_r", int)
        cfg = cls(
            name=_field(raw, "name", str, "scenario"),
            kind=kind,
            m=m,
            n=n,
            k_t=k_t,
            k_r=k_r,
            tau_c=_field(dims, "dims.tau_c", int, 200),
            tau=_field(dims, "dims.tau", int, k_t + k_r),
            bs_xy=_point(geometry, "geometry", "bs_xy", (0.0, 0.0)),
            ris_xy=_point(geometry, "geometry", "ris_xy", (50.0, 10.0)),
            d0=_field(geometry, "geometry.d0", float, 20.0),
            rho_dbm=_field(powers, "powers.rho_dbm", float, None),
            snr_db=(100.0 if "rho_dbm" not in powers and "snr_db" not in powers
                    else _field(powers, "powers.snr_db", float, None)),
            pilot_power_dbm=_field(powers, "powers.pilot_power_dbm", float, None),
            bandwidth_hz=_field(powers, "powers.bandwidth_hz", float, 200e3),
            ris_exponent=_field(pathloss, "pathloss.ris_exponent", float, 2.2),
            direct_exponent=_field(pathloss, "pathloss.direct_exponent", float, 3.5),
            penetration_db=_field(pathloss, "pathloss.penetration_db", float, 15.0),
            wavelength_m=_field(pathloss, "pathloss.wavelength_m", float, 0.1),
            element_area=_field(pathloss, "pathloss.element_area", float, None),
            bs_model=_field(correlation, "correlation.bs_model", str, "exponential"),
            bs_param=_field(correlation, "correlation.bs_param", float, 0.5),
            ris_spacing=_field(correlation, "correlation.ris_spacing", float, 0.25),
            protocols=protocols,
            conventional_t_fraction=_field(section("conventional"),
                                           "conventional.t_fraction", float, 0.5),
            optimizer=optimizer_options(),
            mc_enabled=_field(mc, "mc.enabled", bool, False),
            mc_trials=_field(mc, "mc.trials", int, 1000),
            sweep_parameter=sweep_parameter,
            sweep_values=in_vals,
            seed=_field(raw, "seed", int, 0),
            out=_field(raw, "out", str, "results.csv"),
            timings=_field(raw, "timings", bool, False),
        )
        cfg.validate()
        return cfg

    def validate(self):
        if self.m < 1:
            raise ConfigError("dims.m", "must be >= 1")
        if self.k_t < 0 or self.k_r < 0 or self.k_t + self.k_r < 1:
            raise ConfigError("dims.k_t/k_r", "need at least one user")
        if self.tau < self.k_t + self.k_r:
            raise ConfigError("dims.tau", "orthogonal pilots need tau >= K")
        if self.tau_c < self.tau:
            raise ConfigError("dims.tau_c", "coherence block shorter than pilots")
        _square_side(self.n, "dims.n")
        if (self.rho_dbm is None) == (self.snr_db is None):
            raise ConfigError("powers", "set exactly one of rho_dbm or snr_db")
        swept_db = self.sweep_values if self.sweep_parameter in ("snr_db", "rho_dbm") else ()
        for fld, value, (low, high) in (
                ("powers.rho_dbm", self.rho_dbm, DB_RANGE),
                ("powers.snr_db", self.snr_db, DB_RANGE),
                ("powers.pilot_power_dbm", self.pilot_power_dbm, DB_RANGE),
                ("pathloss.ris_exponent", self.ris_exponent, EXPONENT_RANGE),
                ("pathloss.direct_exponent", self.direct_exponent, EXPONENT_RANGE),
                ("pathloss.penetration_db", self.penetration_db, DB_RANGE),
                ("conventional.t_fraction", self.conventional_t_fraction, (0.0, 1.0)),
                *(("sweep.values", value, DB_RANGE) for value in swept_db)):
            if value is not None and not low <= value <= high:
                raise ConfigError(fld, f"must lie in [{low}, {high}], got {value!r}")
        for fld, value in (("geometry.d0", self.d0), ("powers.bandwidth_hz", self.bandwidth_hz),
                           ("pathloss.wavelength_m", self.wavelength_m),
                           ("pathloss.element_area", self.element_area),
                           ("correlation.ris_spacing", self.ris_spacing)):
            if value is not None:
                _check_positive(value, fld)
        if self.bs_model not in BS_CORRELATION_MODELS:
            raise ConfigError("correlation.bs_model",
                              f"must be one of {BS_CORRELATION_MODELS}, got {self.bs_model!r}")
        if self.bs_model == "exponential" and not 0.0 <= self.bs_param < 1.0:
            raise ConfigError("correlation.bs_param", "exponential correlation needs a "
                              f"value in [0, 1), got {self.bs_param!r}")
        bs = np.asarray(self.bs_xy)
        if np.linalg.norm(np.asarray(self.ris_xy) - bs) == 0.0:
            raise ConfigError("geometry.bs_xy", "the BS sits on the surface")
        if np.any(np.linalg.norm(user_positions(self) - bs, axis=1) == 0.0):
            raise ConfigError("geometry.bs_xy", "the BS sits on a user position")
        if self.kind == "sweep" and self.sweep_parameter is not None:
            for value in self.sweep_values:
                if self.sweep_parameter == "n":
                    _square_side(value, "sweep.values")
                if self.sweep_parameter == "m" and value < 1:
                    raise ConfigError("sweep.values", f"antenna count must be >= 1, got {value!r}")
                if self.sweep_parameter == "ris_spacing":
                    _check_positive(value, "sweep.values")
        if self.mc_trials < 2:
            raise ConfigError("mc.trials", "needs at least 2 trials")
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        return self


def _convert(value, fld: str, kind=float):
    """The number ``value`` as ``kind`` (float or int) for the config field
    ``fld``.  A string, a bool, a non-finite number or, for an int, a number
    with a fractional part is a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(fld, f"expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(fld, f"expected a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(fld, f"expected an integer, got {value!r}")
    return kind(value)


def _reject_unknown_keys(sec: dict, allowed: tuple, prefix: str) -> None:
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}", f"unknown key; expected one of {allowed}")


def _field(sec: dict, fld: str, kind: type, default=_REQUIRED):
    """The field ``fld`` of the section ``sec`` as a ``kind``, or ``default``
    if it is absent.  A number (``kind`` int or float) goes through
    :func:`_convert`; any other value must be a ``kind``.  A field without a
    default is required; one whose default is None may also be null."""
    value = sec.get(fld.rsplit(".", 1)[-1], default)
    if value is _REQUIRED:
        raise ConfigError(fld, "missing required field")
    if value is None and default is None:
        return None
    if kind in (int, float):
        return _convert(value, fld, kind)
    if not isinstance(value, kind):
        raise ConfigError(fld, f"expected a {kind.__name__}, got {value!r}")
    return value


def _point(sec: dict, sec_name: str, key: str, default: tuple) -> tuple:
    """An (x, y) coordinate pair of finite numbers."""
    value = sec.get(key, default)
    fld = f"{sec_name}.{key}"
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(fld, f"expected an [x, y] pair, got {value!r}")
    return tuple(_convert(coord, fld) for coord in value)


def _square_side(n: int, fld: str) -> int:
    if n < 1:
        raise ConfigError(fld, f"surface needs at least one element, got {n}")
    side = math.isqrt(int(n))
    if side * side != n:
        raise ConfigError(fld, f"surface is a square array; {n} is not a perfect square")
    return side


def _check_positive(value: float, fld: str) -> None:
    # the comparisons are False for NaN
    if not 0.0 < value < math.inf:
        raise ConfigError(fld, f"must be finite and positive, got {value!r}")


def user_positions(cfg: ScenarioConfig) -> np.ndarray:
    """(K, 2) user coordinates: t-region users first, then r-region.

    Each region's users sit on a horizontal segment of length d0 centered on
    the surface's x-coordinate, offset +-d0/2 vertically (t above, r below),
    equally spaced with endpoints included; a lone user sits at the midpoint.
    """
    x_r, y_r = cfg.ris_xy

    def segment(count: int, y: float) -> np.ndarray:
        if count == 0:
            return np.empty((0, 2))
        if count == 1:
            return np.array([[x_r, y]])
        x = np.linspace(x_r - cfg.d0 / 2.0, x_r + cfg.d0 / 2.0, count)
        return np.column_stack([x, np.full(count, y)])

    top = segment(cfg.k_t, y_r + cfg.d0 / 2.0)
    bottom = segment(cfg.k_r, y_r - cfg.d0 / 2.0)
    return np.vstack([top, bottom])


def build_system(cfg: ScenarioConfig, *, n: int | None = None, m: int | None = None,
                 snr_db: float | None = None, rho_dbm: float | None = None,
                 ris_spacing: float | None = None,
                 no_direct: bool = False) -> SystemModel:
    """Assemble the immutable system model for one sweep point."""
    n = cfg.n if n is None else int(n)
    m = cfg.m if m is None else int(m)
    spacing = cfg.ris_spacing if ris_spacing is None else float(ris_spacing)
    side = _square_side(n, "dims.n")
    # element size equals spacing (gapless surface), so the per-element
    # aperture shrinks quadratically with denser packing
    area = cfg.element_area
    if area is None:
        area = (spacing * cfg.wavelength_m) ** 2

    sigma2 = noise_power(cfg.bandwidth_hz)
    if rho_dbm is not None:
        rho = 10.0 ** ((rho_dbm - 30.0) / 10.0)
    elif snr_db is not None:
        rho = 10.0 ** (snr_db / 10.0) * sigma2
    elif cfg.rho_dbm is not None:
        rho = 10.0 ** ((cfg.rho_dbm - 30.0) / 10.0)
    else:
        rho = 10.0 ** (cfg.snr_db / 10.0) * sigma2

    k = cfg.k_t + cfg.k_r
    pilot_power = rho / k if cfg.pilot_power_dbm is None \
        else 10.0 ** ((cfg.pilot_power_dbm - 30.0) / 10.0)

    geom = ArrayGeometry(n_h=side, n_v=side, spacing_h=spacing, spacing_v=spacing)
    corr = CorrelationPair.from_matrices(
        build_bs_correlation(m, cfg.bs_model, cfg.bs_param),
        build_ris_correlation(geom),
    )

    bs = np.asarray(cfg.bs_xy, dtype=float)
    ris = np.asarray(cfg.ris_xy, dtype=float)
    users = user_positions(cfg)
    d_br = float(np.linalg.norm(ris - bs))
    beta_g = path_gain(d_br, cfg.ris_exponent, area)
    beta_tilde = np.array([
        path_gain(float(np.linalg.norm(u - ris)), cfg.ris_exponent, area)
        for u in users
    ])
    if no_direct:
        beta_bar = np.zeros(k)
    else:
        beta_bar = np.array([
            path_gain(float(np.linalg.norm(u - bs)), cfg.direct_exponent,
                      area, cfg.penetration_db)
            for u in users
        ])

    dims = SystemDims(m=m, n=n, k_t=cfg.k_t, k_r=cfg.k_r, tau_c=cfg.tau_c, tau=cfg.tau)
    modes = tuple(["t"] * cfg.k_t + ["r"] * cfg.k_r)
    return SystemModel(
        dims=dims,
        corr=corr,
        gains=LinkGains(beta_g=beta_g, beta_bar=beta_bar, beta_tilde=beta_tilde),
        modes=modes,
        rho=rho,
        pilot_power=pilot_power,
        sigma2=sigma2,
    )


@dataclass
class ProtocolResult:
    config: StarConfig
    sum_se: float
    iterations: int


def derive_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def run_protocol(protocol: str, cfg: ScenarioConfig, system: SystemModel,
                 opt_seed: int, cache: dict | None = None) -> ProtocolResult:
    """One scenario label at one sweep point; the seed is shared across
    protocols so cross-label comparisons see identical starting points.

    ``cache`` is a dict that lives for one sweep point.  With it, "es" and
    "ms" on the same ``system`` object share one ``multi_start`` (the
    runner passes one per sweep point); without it every call runs its own.
    """
    options = replace(cfg.optimizer, seed=opt_seed)
    n = system.dims.n

    if protocol in ("es", "es-no-direct"):
        trace = _multi_start(system, options, cache)
        best = canonicalize_signs(trace.final_config)
        return ProtocolResult(best, sum_se(best, system).sum_se, trace.iterations)

    if protocol == "ms":
        trace = _multi_start(system, options, cache)
        rounded = round_to_ms(trace.final_config)
        return ProtocolResult(rounded, sum_se(rounded, system).sum_se, trace.iterations)

    if protocol == "conventional":
        n_t = int(round(cfg.conventional_t_fraction * n))
        beta_t = np.zeros(n)
        beta_t[:n_t] = 1.0

        def split_start(idx, rng):
            return StarConfig(
                theta_t=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)),
                theta_r=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)),
                beta_t=beta_t.copy(), beta_r=1.0 - beta_t,
            )

        best = multi_start(system, replace(options, freeze_amplitudes=True), split_start)
        final = best.final_config
        return ProtocolResult(final, sum_se(final, system).sum_se, best.iterations)

    if protocol == "random-phase":
        # median of n_starts unoptimized draws: a typical configuration, and
        # the one the Monte Carlo column validates
        draws = []
        for stream in np.random.SeedSequence(opt_seed).spawn(options.n_starts):
            rng = np.random.default_rng(stream)
            draw = StarConfig.equal_split(n, rng)
            draws.append((sum_se(draw, system).sum_se, draw))
        draws.sort(key=lambda pair: pair[0])
        value, config = draws[(len(draws) - 1) // 2]
        return ProtocolResult(config, value, 0)

    raise ConfigError("protocols", f"unknown protocol {protocol!r}")


def _multi_start(system: SystemModel, options: PgamOptions, cache: dict | None):
    """``multi_start``, run once per (system object, options) while ``cache`` lives."""
    if cache is None:
        return multi_start(system, options)
    key = (id(system), options)
    if key not in cache:
        # holding the system keeps its id from being reused by another object
        cache[key] = (system, multi_start(system, options))
    return cache[key][1]


def _mc_columns(cfg: ScenarioConfig, system: SystemModel, result: ProtocolResult,
                mc_seed: int, trials: int):
    estimate = mc_sinr(system, result.config, trials, mc_seed)
    dse = system.dims.prelog / ((1.0 + estimate.gamma_hat) * LN2)
    stderr = float(np.sqrt(np.sum((dse * estimate.std_err) ** 2)))
    return estimate.sum_se_hat, stderr


def run_experiment(cfg: ScenarioConfig, writer=None) -> list[dict]:
    """Execute the scenario and return (and optionally stream) the CSV rows.

    ``writer`` is called with each row dict as soon as it is complete, which
    is how partial sweeps survive a failure mid-run.
    """
    rows = []

    def emit(row: dict):
        rows.append(row)
        if writer is not None:
            writer(row)

    if cfg.kind == "convergence":
        _run_convergence(cfg, emit)
        return rows

    sweep_values = cfg.sweep_values if cfg.sweep_parameter else (None,)
    for sweep_idx, value in enumerate(sweep_values):
        overrides = {}
        if cfg.sweep_parameter is not None:
            overrides[cfg.sweep_parameter] = value
        # one optimizer seed per sweep point, shared across protocols so
        # comparisons between scenario labels see identical starting points
        opt_seed = derive_seed(cfg.seed, sweep_idx)
        # one system model per direct-link variant and one multi-start cache
        # per sweep point, shared by every protocol there
        systems, cache = {}, {}
        for proto_idx, protocol in enumerate(cfg.protocols):
            no_direct = protocol == "es-no-direct"
            if no_direct not in systems:
                systems[no_direct] = build_system(cfg, no_direct=no_direct, **overrides)
            system = systems[no_direct]
            start = time.perf_counter()
            result = run_protocol(protocol, cfg, system, opt_seed, cache)
            mc_se, mc_err = ("", "")
            if cfg.mc_enabled:
                mc_seed = derive_seed(cfg.seed, sweep_idx, proto_idx, 1)
                mc_se, mc_err = _mc_columns(cfg, system, result, mc_seed,
                                            cfg.mc_trials)
                mc_se = f"{mc_se:.10g}"
                mc_err = f"{mc_err:.4g}"
            elapsed = f"{time.perf_counter() - start:.3f}" if cfg.timings else ""
            emit({
                "sweep_parameter": cfg.sweep_parameter or "",
                "sweep_value": "" if value is None else value,
                "scenario": protocol,
                "sum_se": f"{result.sum_se:.10g}",
                "mc_sum_se": mc_se,
                "mc_stderr": mc_err,
                "iterations": result.iterations,
                "elapsed_s": elapsed,
                "seed": cfg.seed,
            })
    return rows


def _run_convergence(cfg: ScenarioConfig, emit):
    """Objective-versus-iteration rows, one scenario label per start."""
    system = build_system(cfg)
    options = replace(cfg.optimizer, seed=derive_seed(cfg.seed, 0))
    traces = pgam_lockstep(system, options, initial_points(system.dims.n, options))
    for start_idx, trace in enumerate(traces):
        for iteration, objective in enumerate(trace.objectives):
            emit({
                "sweep_parameter": "iteration",
                "sweep_value": iteration,
                "scenario": f"start{start_idx}",
                "sum_se": f"{objective:.10g}",
                "mc_sum_se": "",
                "mc_stderr": "",
                "iterations": trace.iterations,
                "elapsed_s": "",
                "seed": cfg.seed,
            })


def write_csv(cfg: ScenarioConfig, path: str | Path) -> list[dict]:
    """Run the scenario, streaming rows to ``path`` with the versioned header."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# starmimo csv schema {CSV_SCHEMA}\n")
        out = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        out.writeheader()

        def writer(row):
            out.writerow(row)
            fh.flush()

        return run_experiment(cfg, writer=writer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starmimo-run",
        description="Run one scenario config and write the sweep CSV.",
    )
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output CSV path")
    parser.add_argument("--mc-trials", type=int, default=None,
                        help="override the Monte Carlo trial count")
    parser.add_argument("--no-mc", action="store_true",
                        help="skip the Monte Carlo columns")
    parser.add_argument("--timings", action="store_true",
                        help="record wall-clock time per row (breaks byte-identity)")
    args = parser.parse_args(argv)

    try:
        cfg = ScenarioConfig.from_file(args.config)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.mc_trials is not None:
        cfg.mc_trials = args.mc_trials
    if args.no_mc:
        cfg.mc_enabled = False
    if args.timings:
        cfg.timings = True

    try:
        rows = write_csv(cfg.validate(), cfg.out)  # the flags are checked too
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.name}: wrote {len(rows)} rows to {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
