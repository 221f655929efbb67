"""Config-driven experiment runner.

Each scenario lives in one JSON file: dimensions, deployment geometry,
powers, correlation knobs, the protocols to compare, optimizer/Monte Carlo
options, and an optional sweep.  Output is a CSV with one row per sweep
point per protocol (for a convergence run, per iteration per start), written
in order and flushed incrementally so a failing sweep keeps its completed
rows; both run kinds hand each row's values to one formatter.  Same config +
same seed gives a byte-identical file (wall-clock timings are off unless
requested, since they are the one non-deterministic column).

Flags: ``--config <path> [--seed <u64>] [--out <path>] [--mc-trials <n>]
[--no-mc] [--timings]``; flags override the config file and are checked
like its fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .channel import StarConfig, SystemModel

# build_ris_correlation is not called here: the surface is built by
# CorrelationPair.from_grid.  perfbench's tracer wraps a function only in the
# modules that import it by name, and reports
# correlation.build_ris_correlation.ms only for a wrapped function.
from .correlation import (  # noqa: F401
    BS_CORRELATION_MODELS,
    ArrayGeometry,
    CorrelationPair,
    LinkGains,
    build_bs_correlation,
    build_ris_correlation,
    path_gain,
)
from .montecarlo import McEstimate, mc_sinr
from .optimizer import (
    OptionError,
    PgamOptions,
    PgamTrace,
    canonicalize_signs,
    initial_points,
    multi_start,
    pgam_lockstep,
    round_to_ms,
    split_surface,
)
from .rate import ClosedForm, sum_se

CSV_SCHEMA = 1
CSV_COLUMNS = (
    "sweep_parameter", "sweep_value", "scenario", "sum_se",
    "mc_sum_se", "mc_stderr", "iterations", "elapsed_s", "seed",
)
PROTOCOLS = ("es", "ms", "conventional", "random-phase", "es-no-direct")
OPTIMIZED = ("es", "ms", "es-no-direct")  # the protocols a multi-start serves
SWEEP_PARAMETERS = ("n", "m", "snr_db", "rho_dbm", "ris_spacing")
# the optimizer section's fields; the runner derives the seed per sweep point
OPTIMIZER_FIELDS = tuple(f for f in fields(PgamOptions) if f.name != "seed")
_REQUIRED = object()  # the default of a config field that must be given
# beyond these, the powers and path gains build_system forms overflow or vanish
DB_RANGE = (-300.0, 300.0)
EXPONENT_RANGE = (0.0, 10.0)


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_power(bandwidth_hz: float) -> float:
    """Thermal noise power in watts: -174 dBm/Hz plus 10 log10(bandwidth)."""
    if bandwidth_hz <= 0:
        raise ConfigError("powers.bandwidth_hz", "bandwidth must be positive")
    return _dbm_to_watts(-174.0 + 10.0 * math.log10(bandwidth_hz))


def _entry(path: str, kind, default=_REQUIRED, check=None):
    """One row of the config table, kept as the metadata of a ScenarioConfig field.

    ``path`` is where the field sits in the JSON object.  ``kind`` is int or
    float (see :func:`_convert`), str, bool, list (kept as a tuple), a tuple
    of the allowed strings, or a parser ``kind(value, path, parsed)`` given
    the fields parsed before it.  ``default`` stands in for an absent key; a
    callable default is computed from the field's section and the fields
    before it, and a field whose default is None may also be null.
    ``check(value, path)`` raises a ConfigError for a parsed value out of
    range; it is not run on None.
    """
    return field(metadata={"path": path, "kind": kind, "default": default, "check": check})


def _between(low: float, high: float):
    def check(value, fld):
        # the comparisons are False for NaN
        if not low <= value <= high:
            raise ConfigError(fld, f"must lie in [{low}, {high}], got {value!r}")
    return check


def _at_least(low: int):
    def check(value, fld):
        if value < low:
            raise ConfigError(fld, f"must be >= {low}, got {value!r}")
    return check


def _positive(value: float, fld: str) -> None:
    # the comparisons are False for NaN
    if not 0.0 < value < math.inf:
        raise ConfigError(fld, f"must be finite and positive, got {value!r}")


def _square_side(n: int, fld: str) -> int:
    if n < 1:
        raise ConfigError(fld, f"surface needs at least one element, got {n}")
    side = math.isqrt(int(n))
    if side * side != n:
        raise ConfigError(fld, f"surface is a square array; {n} is not a perfect square")
    return side


def _protocol_names(protocols: tuple, fld: str) -> None:
    if not protocols:
        raise ConfigError(fld, "expected at least one protocol")
    for proto in protocols:
        if proto not in PROTOCOLS:
            raise ConfigError(fld, f"unknown protocol {proto!r}; choose from {PROTOCOLS}")
    if len(protocols) != len(set(protocols)):
        raise ConfigError(fld, "duplicate entries")


def _point(value, fld: str, parsed: dict) -> tuple:
    """An (x, y) coordinate pair of finite numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(fld, f"expected an [x, y] pair, got {value!r}")
    return tuple(_convert(coord, fld) for coord in value)


def _optimizer_options(section: dict, fld: str, parsed: dict) -> PgamOptions:
    """The optimizer section: its keys, kinds, defaults and ranges are the
    fields of PgamOptions."""
    try:
        return PgamOptions(**{
            f.name: _convert(section.get(f.name, f.default), f"{fld}.{f.name}", type(f.default))
            for f in OPTIMIZER_FIELDS
        })
    except OptionError as exc:
        raise ConfigError(f"{fld}.{exc.field}", exc.reason) from None


def _swept_values(values, fld: str, parsed: dict) -> tuple:
    """The sweep values, each converted to the kind of the swept field (whose
    entry checks them in ``validate``); none are allowed without a parameter."""
    parameter = parsed["sweep_parameter"]
    if parameter is None:
        if values != ():
            raise ConfigError("sweep.parameter", "missing; sweep.values needs a parameter")
        return ()
    if not isinstance(values, list) or not values:
        raise ConfigError(fld, "expected a non-empty list")
    kind = _ENTRIES[parameter].metadata["kind"]
    return tuple(_convert(value, fld, kind) for value in values)


def _snr_default(powers: dict, parsed: dict):
    """100 dB when the powers section sets neither rho_dbm nor snr_db."""
    return None if powers.keys() & {"rho_dbm", "snr_db"} else 100.0


@dataclass
class ScenarioConfig:
    """Parsed, validated scenario description.

    Each field's metadata is its row of the config table (see
    :func:`_entry`).  Parsing, defaults, unknown-key rejection, range checks
    and sweep-value checks all read the table; fields are converted in
    declaration order, so the first bad one is the one named.
    """

    name: str = _entry("name", str, "scenario")
    kind: str = _entry("kind", ("sweep", "convergence"), "sweep")
    m: int = _entry("dims.m", int, check=_at_least(1))
    n: int = _entry("dims.n", int, check=_square_side)
    k_t: int = _entry("dims.k_t", int)
    k_r: int = _entry("dims.k_r", int)
    tau_c: int = _entry("dims.tau_c", int, 200)
    tau: int = _entry("dims.tau", int, lambda dims, parsed: parsed["k_t"] + parsed["k_r"])
    bs_xy: tuple = _entry("geometry.bs_xy", _point, (0.0, 0.0))
    ris_xy: tuple = _entry("geometry.ris_xy", _point, (50.0, 10.0))
    d0: float = _entry("geometry.d0", float, 20.0, _positive)
    rho_dbm: float | None = _entry("powers.rho_dbm", float, None, _between(*DB_RANGE))
    snr_db: float | None = _entry("powers.snr_db", float, _snr_default, _between(*DB_RANGE))
    pilot_power_dbm: float | None = _entry("powers.pilot_power_dbm", float, None,
                                           _between(*DB_RANGE))
    bandwidth_hz: float = _entry("powers.bandwidth_hz", float, 200e3, _positive)
    ris_exponent: float = _entry("pathloss.ris_exponent", float, 2.2,
                                 _between(*EXPONENT_RANGE))
    direct_exponent: float = _entry("pathloss.direct_exponent", float, 3.5,
                                    _between(*EXPONENT_RANGE))
    penetration_db: float = _entry("pathloss.penetration_db", float, 15.0, _between(*DB_RANGE))
    wavelength_m: float = _entry("pathloss.wavelength_m", float, 0.1, _positive)
    element_area: float | None = _entry("pathloss.element_area", float, None, _positive)
    bs_model: str = _entry("correlation.bs_model", BS_CORRELATION_MODELS, "exponential")
    bs_param: float = _entry("correlation.bs_param", float, 0.5)
    ris_spacing: float = _entry("correlation.ris_spacing", float, 0.25, _positive)
    protocols: tuple = _entry("protocols", list, ["es"], _protocol_names)
    conventional_t_fraction: float = _entry("conventional.t_fraction", float, 0.5,
                                            _between(0.0, 1.0))
    optimizer: PgamOptions = _entry("optimizer", _optimizer_options, {})
    mc_enabled: bool = _entry("mc.enabled", bool, False)
    mc_trials: int = _entry("mc.trials", int, 1000, _at_least(2))
    sweep_parameter: str | None = _entry("sweep.parameter", SWEEP_PARAMETERS, None)
    sweep_values: tuple = _entry("sweep.values", _swept_values, ())
    seed: int = _entry("seed", int, 0, _at_least(0))
    out: str = _entry("out", str, "results.csv")
    timings: bool = _entry("timings", bool, False)

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), overrides)

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "ScenarioConfig":
        """The config ``raw`` describes.  ``overrides`` maps JSON paths
        (``"mc.trials"``) to values that replace the file's; each is parsed
        by its field's entry after the file's own value, so both must be
        valid."""
        overrides = overrides or {}
        if not isinstance(raw, dict):
            raise ConfigError("config", f"expected a mapping at the top level, "
                              f"got {type(raw).__name__}")
        _reject_unknown_keys(raw, TOP_LEVEL_KEYS, "")
        for name, keys in SECTION_KEYS.items():
            if not isinstance(raw.get(name, {}), dict):
                raise ConfigError(name, "must be a mapping")
            _reject_unknown_keys(raw.get(name, {}), keys, f"{name}.")

        parsed = {}
        for f in fields(cls):
            path, kind, default = (f.metadata[key] for key in ("path", "kind", "default"))
            section, _, key = path.rpartition(".")
            sec = raw.get(section, {}) if section else raw
            if callable(default):
                default = default(sec, parsed)
            value = sec.get(key, default)
            if value is _REQUIRED:
                raise ConfigError(path, "missing required field")
            parsed[f.name] = _parse(value, path, kind, default, parsed)
            if path in overrides:
                parsed[f.name] = _parse(overrides[path], path, kind, default, parsed)
        return cls(**parsed).validate()

    def validate(self):
        """Check every field by its entry and each sweep value by the swept
        field's entry, then the rules that tie fields together."""
        for f in fields(self):
            _check(f, getattr(self, f.name), f.metadata["path"])
        for value in self.sweep_values:
            _check(_ENTRIES[self.sweep_parameter], value, "sweep.values")
        if self.kind == "convergence":  # one es multi-start at dims, untimed
            for fld, ignored in (("sweep.parameter", self.sweep_parameter is not None),
                                 ("mc.enabled", self.mc_enabled),
                                 ("protocols", self.protocols != ("es",)),
                                 ("timings", self.timings)):
                if ignored:
                    raise ConfigError(fld, "a convergence run traces the es multi-start "
                                      "at one point, without Monte Carlo or timings")
        if self.k_t < 0 or self.k_r < 0 or self.k_t + self.k_r < 1:
            raise ConfigError("dims.k_t/k_r", "need at least one user")
        if self.tau < self.k_t + self.k_r:
            raise ConfigError("dims.tau", "orthogonal pilots need tau >= K")
        if self.tau_c < self.tau:
            raise ConfigError("dims.tau_c", "coherence block shorter than pilots")
        if (self.rho_dbm is None) == (self.snr_db is None):
            raise ConfigError("powers", "set exactly one of rho_dbm or snr_db")
        if self.bs_model == "exponential" and not 0.0 <= self.bs_param < 1.0:
            raise ConfigError("correlation.bs_param", "exponential correlation needs a "
                              f"value in [0, 1), got {self.bs_param!r}")
        bs = np.asarray(self.bs_xy)
        if np.linalg.norm(np.asarray(self.ris_xy) - bs) == 0.0:
            raise ConfigError("geometry.bs_xy", "the BS sits on the surface")
        if np.any(np.linalg.norm(user_positions(self) - bs, axis=1) == 0.0):
            raise ConfigError("geometry.bs_xy", "the BS sits on a user position")
        return self


_ENTRIES = {f.name: f for f in fields(ScenarioConfig)}


def _section_keys() -> dict:
    """The keys of each config section, read from the field table."""
    keys = {}
    for f in fields(ScenarioConfig):
        section, _, key = f.metadata["path"].rpartition(".")
        if section:
            keys[section] = (*keys.get(section, ()), key)
        elif f.metadata["kind"] is _optimizer_options:
            keys[key] = tuple(option.name for option in OPTIMIZER_FIELDS)
    return keys


SECTION_KEYS = _section_keys()
TOP_LEVEL_KEYS = tuple(dict.fromkeys(f.metadata["path"].split(".")[0]
                                     for f in fields(ScenarioConfig)))


def _parse(value, fld: str, kind, default, parsed: dict):
    """``value`` as a field of ``kind`` with ``default`` (see :func:`_entry`)."""
    if value is None and default is None:
        return None
    if kind in (int, float):
        return _convert(value, fld, kind)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(fld, f"must be one of {kind}, got {value!r}")
        return value
    if kind in (str, bool, list):
        if not isinstance(value, kind):
            raise ConfigError(fld, f"expected a {kind.__name__}, got {value!r}")
        return tuple(value) if kind is list else value
    return kind(value, fld, parsed)


def _check(entry, value, fld: str) -> None:
    """Run the check of the table ``entry`` on ``value``, naming ``fld``."""
    check = entry.metadata["check"]
    if check is not None and value is not None:
        check(value, fld)


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


def build_system(cfg: ScenarioConfig, *, no_direct: bool = False,
                 corr: CorrelationPair | None = None, **overrides) -> SystemModel:
    """Assemble the immutable system model for one sweep point.

    ``overrides`` replace config fields, a sweep point's ``n=36`` say, and
    are checked by their fields' entries; overriding ``snr_db`` or
    ``rho_dbm`` drops the other power field.  ``no_direct`` blocks the
    direct links (:func:`_without_direct`).  ``corr``, the previous point's
    pair, lends the statistics the point leaves unchanged
    (``CorrelationPair.from_grid``).
    """
    if overrides.keys() & {"snr_db", "rho_dbm"}:
        overrides = {"snr_db": None, "rho_dbm": None, **overrides}
    cfg = replace(cfg, **overrides).validate()
    side = _square_side(cfg.n, "dims.n")
    # element size equals spacing (gapless surface), so the per-element
    # aperture shrinks quadratically with denser packing
    area = cfg.element_area
    if area is None:
        area = (cfg.ris_spacing * cfg.wavelength_m) ** 2

    sigma2 = noise_power(cfg.bandwidth_hz)
    if cfg.rho_dbm is not None:
        rho = _dbm_to_watts(cfg.rho_dbm)
    else:
        rho = 10.0 ** (cfg.snr_db / 10.0) * sigma2

    k = cfg.k_t + cfg.k_r
    pilot_power = rho / k if cfg.pilot_power_dbm is None \
        else _dbm_to_watts(cfg.pilot_power_dbm)

    geom = ArrayGeometry(n_h=side, n_v=side, spacing_h=cfg.ris_spacing,
                         spacing_v=cfg.ris_spacing)
    corr = CorrelationPair.from_grid(build_bs_correlation(cfg.m, cfg.bs_model, cfg.bs_param),
                                     geom, corr)

    bs = np.asarray(cfg.bs_xy, dtype=float)
    ris = np.asarray(cfg.ris_xy, dtype=float)
    users = user_positions(cfg)
    d_br = float(np.linalg.norm(ris - bs))
    beta_g = path_gain(d_br, cfg.ris_exponent, area)
    beta_tilde = np.array([
        path_gain(float(np.linalg.norm(u - ris)), cfg.ris_exponent, area)
        for u in users
    ])
    beta_bar = np.array([
        path_gain(float(np.linalg.norm(u - bs)), cfg.direct_exponent,
                  area, cfg.penetration_db)
        for u in users
    ])
    if not np.isfinite([beta_g, *beta_bar, *beta_tilde]).all():
        raise ConfigError("pathloss", "every field is in range, but the path gains overflow")

    system = SystemModel(
        corr=corr,
        gains=LinkGains(beta_g=beta_g, beta_bar=beta_bar, beta_tilde=beta_tilde),
        k_t=cfg.k_t, tau_c=cfg.tau_c, tau=cfg.tau,
        rho=rho,
        pilot_power=pilot_power,
        sigma2=sigma2,
    )
    return _without_direct(system) if no_direct else system


def _without_direct(system: SystemModel) -> SystemModel:
    """``system`` with every direct link blocked (``beta_bar`` zero), on the
    same ``CorrelationPair``, so the two share its cached factors."""
    return replace(system, gains=replace(system.gains, beta_bar=np.zeros(system.dims.k)))


@dataclass
class ProtocolResult:
    """A protocol's configuration and closed-form sum SE; ``trace`` is the
    multi-start's ``PgamTrace`` (shared by es and ms), None if unoptimized."""

    config: StarConfig
    sum_se: float
    trace: PgamTrace | None = None

    @property
    def iterations(self) -> int:
        return 0 if self.trace is None else self.trace.iterations


def derive_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def run_protocol(protocol: str, cfg: ScenarioConfig, system: SystemModel,
                 opt_seed: int, trace: PgamTrace | None = None) -> ProtocolResult:
    """One scenario label at one sweep point; the seed is shared across
    protocols so cross-label comparisons see identical starting points.

    An optimized protocol reads ``trace``, the multi-start trace of
    ``system`` (:func:`_sweep_rows` runs a point's in one batch), and runs
    that multi-start itself when called without one.  Its result holds the
    trace; "es" and "es-no-direct" report its final objective, "ms" scores
    its rounded point.
    """
    options = replace(cfg.optimizer, seed=opt_seed)
    n = system.dims.n

    if protocol in OPTIMIZED:
        if trace is None:
            [trace] = multi_start([system], options)
        if protocol == "ms":
            best = round_to_ms(trace.final_config)
            return ProtocolResult(best, sum_se(best, system).sum_se, trace)
        # the sign flip leaves phi = beta theta exact, so the trace's value is
        # the closed form at the canonical point to the bit
        return ProtocolResult(canonicalize_signs(trace.final_config), trace.final_objective,
                              trace)

    if protocol == "conventional":
        return ProtocolResult(*split_surface(system, int(round(cfg.conventional_t_fraction * n))))

    if protocol == "random-phase":
        # the median of n_starts unoptimized draws: a typical configuration,
        # and the one the Monte Carlo column validates; all scored in one batch
        draws = [StarConfig.equal_split(n, np.random.default_rng(stream))
                 for stream in np.random.SeedSequence(opt_seed).spawn(options.n_starts)]
        theta = np.stack([draw.theta for draw in draws])
        beta = np.stack([draw.beta for draw in draws])
        values = ClosedForm(system).score(theta, beta).sum_se
        pick = np.argsort(values, kind="stable")[(len(draws) - 1) // 2]
        return ProtocolResult(draws[pick], float(values[pick]))

    raise ConfigError("protocols", f"unknown protocol {protocol!r}")


def run_experiment(cfg: ScenarioConfig, writer=None) -> list[dict]:
    """Execute the scenario and return (and optionally stream) the CSV rows.

    ``writer`` is called with each row dict as soon as it is complete, which
    is how partial sweeps survive a failure mid-run.  Both run kinds yield
    their rows' values, and :func:`_format_row` alone turns them into columns.
    """
    rows = []
    for values in (_convergence_rows if cfg.kind == "convergence" else _sweep_rows)(cfg):
        rows.append(_format_row(cfg, *values))
        if writer is not None:
            writer(rows[-1])
    return rows


def _format_row(cfg: ScenarioConfig, parameter: str, value, scenario: str, se: float,
                iterations: int, mc: McEstimate | None = None,
                elapsed: float | None = None) -> dict:
    """The one place schema-1 columns are formatted; a missing Monte Carlo
    estimate or timing is an empty column, and the ints and ``value`` stay."""
    return dict(zip(CSV_COLUMNS, (
        parameter, value, scenario, f"{se:.10g}",
        "" if mc is None else f"{mc.sum_se_hat:.10g}",
        "" if mc is None else f"{mc.sum_se_stderr:.4g}",
        iterations, "" if elapsed is None else f"{elapsed:.3f}", cfg.seed)))


def _sweep_rows(cfg: ScenarioConfig):
    """One row's values per sweep point per protocol, in sweep order; each
    point's system is built on the previous point's correlation pair.

    A point's first optimized protocol runs one multi-start batch over the
    models the point optimizes, in protocol order: the built model for "es"
    and "ms", its direct-link-free variant for "es-no-direct".  Its row's
    timing carries the batch, and each protocol is handed its model's trace.
    """
    corr = None
    for sweep_idx, value in enumerate(cfg.sweep_values or ("",)):
        overrides = {cfg.sweep_parameter: value} if cfg.sweep_parameter else {}
        # one optimizer seed per sweep point, shared across protocols so
        # comparisons between scenario labels see identical starting points
        opt_seed = derive_seed(cfg.seed, sweep_idx)
        # one system model per sweep point, and its direct-link-free variant
        # on the same correlation pair
        built = build_system(cfg, corr=corr, **overrides)
        corr = built.corr
        blocked = _without_direct(built)
        models = [blocked if protocol == "es-no-direct" else built for protocol in cfg.protocols]
        optimized = list(dict.fromkeys(model for model, protocol in zip(models, cfg.protocols)
                                       if protocol in OPTIMIZED))
        traces = {}
        for proto_idx, (protocol, system) in enumerate(zip(cfg.protocols, models)):
            start = time.perf_counter()
            if protocol in OPTIMIZED and not traces:
                options = replace(cfg.optimizer, seed=opt_seed)
                traces = dict(zip(optimized, multi_start(optimized, options)))
            result = run_protocol(protocol, cfg, system, opt_seed, traces.get(system))
            mc = (mc_sinr(system, result.config, cfg.mc_trials,
                          derive_seed(cfg.seed, sweep_idx, proto_idx, 1))
                  if cfg.mc_enabled else None)
            elapsed = time.perf_counter() - start if cfg.timings else None
            yield (cfg.sweep_parameter or "", value, protocol, result.sum_se, result.iterations,
                   mc, elapsed)


def _convergence_rows(cfg: ScenarioConfig):
    """Objective-versus-iteration rows' values, one scenario label per start."""
    system = build_system(cfg)
    options = replace(cfg.optimizer, seed=derive_seed(cfg.seed, 0))
    traces = pgam_lockstep(system, options, initial_points(system.dims.n, options))
    for start_idx, trace in enumerate(traces):
        for iteration, objective in enumerate(trace.objectives):
            yield "iteration", iteration, f"start{start_idx}", objective, trace.iterations


def write_csv(cfg: ScenarioConfig, path: str | Path) -> list[dict]:
    """Run the scenario, streaming rows to ``path`` with the versioned header;
    ``path`` is opened at the first row, so an earlier failure leaves it as it was."""
    path = Path(path)
    with ExitStack() as stack:
        fh = out = None

        def writer(row):
            nonlocal fh, out
            if out is None:
                path.parent.mkdir(parents=True, exist_ok=True)
                fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
                fh.write(f"# starmimo csv schema {CSV_SCHEMA}\n")
                out = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
                out.writeheader()
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

    flags = {"seed": args.seed, "out": args.out, "mc.trials": args.mc_trials,
             "mc.enabled": False if args.no_mc else None,
             "timings": True if args.timings else None}
    try:
        cfg = ScenarioConfig.from_file(
            args.config, {path: value for path, value in flags.items() if value is not None})
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = write_csv(cfg, cfg.out)
    except OSError as exc:
        print(f"error: out: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:  # a point's model could not be built
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.name}: wrote {len(rows)} rows to {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
