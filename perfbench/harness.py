"""One workload run: passes of ``cli.run_experiment``, checks, and metrics.

A run makes one untimed pass that warms caches and runs every correctness
check, then timed passes until the run's measuring time is up (at least
``MIN_PASSES``).  Each pass parses the scenario
afresh and calls ``cli.run_experiment`` with a writer callback; the time
between callbacks is the time of one CSV row.  Timed passes must reproduce
the checked pass row for row (apart from ``elapsed_s``).

Reported timings are calibrated: a short fixed piece of work that does not
use starmimo (``calibrate``) is timed before every timed pass, after each of
its rows, after the pass, and before and after every set-up probe.  Each
timed interval (a row, a pass, a probe) is scaled by (``CALIBRATION_S`` over
the mean of the calibrations made at its ends and within it) to the power of
the workload's ``calibration_exponent``; calibration time itself is never
counted.  A shared host's other tenants slow the program and the
calibration, in spells of seconds and stretches of minutes; the scaled time
estimates what the work would take at the host speed at which the
calibration takes ``CALIBRATION_S``.  Raw times are kept in the run record.

Without tracing the run reports the end-to-end metrics.  With tracing it
alternates untraced and traced passes and reports per-layer metrics from
the traced ones, plus ``trace.overhead``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, TraceSummary
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS")
SETUP_PROBES = (3, 15)   # fresh processes timed per run, at least and at most;
SETUP_SECONDS = 3.0      # more than the minimum while under this; setup_s is their median
DENSE_RTOL = 1e-9        # eigenbasis sum_se vs the dense-matrix referee
MC_SIGMAS = 5.0          # MC sum_se must lie this many reference std errors from the reference
TAIL_BEYOND = 10         # samples the tail percentile must leave above it
MIN_PASSES = 3           # timed passes per run, however long they take
CALIBRATION_S = 0.018    # the calibration's time on an idle 2-vCPU Xeon VM; the scale of timings
# Figures kept in the run record only, not in BENCHMARK.json, and their units.
RECORD_ONLY = {"row_s.p50": "s", "sweep_s.raw": "s", "setup_s.raw": "s",
               "mc_trials_per_s": "1/s", "ops_failed_frac": "1"}
PROTOCOLS = ("es", "ms", "conventional", "random-phase", "es-no-direct")
LAYERS = ("cli", "optimizer", "rate", "gradients", "channel", "correlation",
          "estimation", "montecarlo")

def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_cli():
    """Import ``starmimo.cli`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    from starmimo import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"starmimo imported from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


# -- calibration --------------------------------------------------------------

_CALIBRATION_ROUNDS = 300


@functools.cache
def _calibration_operands():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    return a @ a.conj().T, rng.standard_normal(64) + 0j


def calibrate() -> float:
    """Seconds taken by fixed work in the program's mix: small complex matrix
    products, a small eigendecomposition and interpreted arithmetic."""
    import numpy as np

    a, v = _calibration_operands()
    start = time.perf_counter()
    total = 0.0
    for i in range(_CALIBRATION_ROUNDS):
        x = a @ v
        total += float(np.real(np.vdot(x, v))) / (1 + i)
        total += float(np.linalg.eigh(a[:16, :16])[0][0])
        total += sum(k * 0.5 for k in range(50))
    return time.perf_counter() - start


def calibration_factor(calibrations: list, exponent: float) -> float:
    """The factor by which a time measured amid ``calibrations`` is scaled."""
    return (CALIBRATION_S / statistics.fmean(calibrations)) ** exponent


# -- passes -----------------------------------------------------------------

@dataclass
class Pass:
    rows: list
    row_seconds: list
    seconds: float
    error: str | None = None
    calibrations: list = field(default_factory=list)  # made in the pass, if calibrated


def run_pass(cli, raw: dict, calibrate_rows: bool = False) -> Pass:
    """Parse ``raw`` afresh and run it once; time the pass and each row.

    With ``calibrate_rows`` a calibration runs before the pass, in the writer
    callback after every row and after the pass, outside the timed stretches.
    """
    stamps, resumes, rows, calibrations = [], [], [], []

    def writer(row):
        stamps.append(time.perf_counter())
        rows.append(dict(row))
        if calibrate_rows:
            calibrations.append(calibrate())
        resumes.append(time.perf_counter())

    try:
        cfg = cli.ScenarioConfig.from_dict(json.loads(json.dumps(raw)))
    except Exception:  # the program rejected a valid scenario: a failed pass
        return Pass([], [], 0.0, traceback.format_exc())
    error = None
    if calibrate_rows:
        calibrations.append(calibrate())
    start = time.perf_counter()
    try:
        cli.run_experiment(cfg, writer=writer)
    except Exception:  # counted as failed rows; the run goes on to report it
        error = traceback.format_exc()
    end = time.perf_counter()
    if calibrate_rows:
        calibrations.append(calibrate())
    # each row runs from the end of the previous callback to the start of its own
    row_seconds = [b - a for a, b in zip([start] + resumes[:-1], stamps)]
    seconds = end - start - sum(b - a for a, b in zip(stamps, resumes))
    return Pass(rows, row_seconds, seconds, error, calibrations)


def comparable(row: dict) -> dict:
    return {key: value for key, value in row.items() if key != "elapsed_s"}


def reference_row(row: dict) -> list:
    """The reference-table entry of one CSV row."""
    mc = row.get("mc_sum_se", "")
    return [row["sweep_value"], row["scenario"], float(row["sum_se"]),
            float(mc) if mc != "" else None,
            float(row["mc_stderr"]) if mc != "" else None]


# -- correctness checks -------------------------------------------------------

class Checker:
    """Checks the untimed pass against the reference table and the referees."""

    def __init__(self, cli, reference: list):
        from starmimo import rate

        self.cli = cli
        self.rate = rate
        self.reference = reference
        self.captured: list[tuple[str, float, list]] = []
        self.notes: list[str] = []
        self.ratios: list[float] = []

    def run(self, raw: dict) -> tuple[Pass, list[list[str]]]:
        """Run the checked pass; return it and the problems of each row slot."""
        original = getattr(self.cli, "run_protocol", None)
        if original is None:
            self.notes.append("cli.run_protocol not found; protocol results not checked")
            checked_pass = run_pass(self.cli, raw)
        else:
            self.cli.run_protocol = self._capture(original)
            try:
                checked_pass = run_pass(self.cli, raw)
            finally:
                self.cli.run_protocol = original
        return checked_pass, self._check_rows(checked_pass.rows)

    def _capture(self, original):
        signature = inspect.signature(original)

        def run_protocol(*args, **kwargs):
            result = original(*args, **kwargs)
            try:
                arguments = signature.bind(*args, **kwargs).arguments
                protocol, system = arguments["protocol"], arguments["system"]
            except (TypeError, KeyError):
                self.notes.append("cli.run_protocol arguments not recognised; "
                                  "protocol results not checked")
                return result
            self.captured.append((protocol, float(result.sum_se),
                                  self._check_result(system, result)))
            return result

        return run_protocol

    def _check_result(self, system, result) -> list[str]:
        problems = []
        try:
            result.config.validate()
        except ValueError as exc:
            problems.append(f"StarConfig.validate: {exc}")
        value = float(result.sum_se)
        if not math.isfinite(value):
            return problems + [f"non-finite sum_se {value}"]
        try:
            dense = float(self.rate.sum_se(result.config, system, method="dense").sum_se)
        except Exception as exc:  # a referee that cannot run is a failed check
            return problems + [f"dense sum_se raised {exc!r}"]
        if not abs(dense - value) <= DENSE_RTOL * abs(dense):
            problems.append(f"sum_se {value!r} vs dense {dense!r}")
        return problems

    def _check_rows(self, rows: list) -> list[list[str]]:
        seen: dict[str, int] = {}
        slots = []
        for i in range(max(len(rows), len(self.reference))):
            if i >= len(rows):
                slots.append(["row missing"])
                continue
            if i >= len(self.reference):
                slots.append(["row not in the reference table"])
                continue
            row, (ref_value, ref_scenario, ref_se, ref_mc, ref_err) = rows[i], self.reference[i]
            if (row["sweep_value"], row["scenario"]) != (ref_value, ref_scenario):
                slots.append([f"row ({row['sweep_value']}, {row['scenario']}) where the "
                              f"reference has ({ref_value}, {ref_scenario})"])
                continue
            problems = []
            value = _number(row.get("sum_se"))
            if value is None or value < 0:
                problems.append(f"sum_se {row.get('sum_se')!r} is not a finite SE")
            elif ref_se > 0:
                self.ratios.append(value / ref_se)
            if ref_mc is not None:
                mc = _number(row.get("mc_sum_se"))
                if mc is None or not abs(mc - ref_mc) <= MC_SIGMAS * ref_err:
                    problems.append(f"MC sum_se {row.get('mc_sum_se')!r} not within "
                                    f"{MC_SIGMAS:g} x {ref_err:.3g} of {ref_mc:.6g}")
            occurrence = seen.get(row["scenario"], 0)
            seen[row["scenario"]] = occurrence + 1
            mine = [c for c in self.captured if c[0] == row["scenario"]]
            if occurrence < len(mine):
                _, result_se, result_problems = mine[occurrence]
                problems += result_problems
                if value is not None and not abs(value - result_se) <= DENSE_RTOL * abs(result_se):
                    problems.append(f"CSV sum_se {value!r} vs returned {result_se!r}")
            else:  # a row the result checks never saw is not a checked row
                problems.append("no ProtocolResult captured from cli.run_protocol "
                                "for this row; its result checks did not run")
            slots.append(problems)
        return slots


def _number(text) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


# -- tracing hooks ------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def make_hooks() -> dict:
    """Counters read from arguments and results at the traced boundaries.

    Byte counts are computed from array shapes and dtypes, not measured: a
    dense matvec with a real N x N kernel and a complex vector multiplies in
    complex, so numpy upcasts the whole kernel and touches N^2 x 16 bytes.
    """
    import numpy as np

    complex_item = np.dtype(complex).itemsize

    def kernel_bytes(matrix, vector):
        return matrix.size * np.result_type(matrix.dtype, vector.dtype).itemsize

    def pbm(args, kwargs, result, seconds):
        r_ris, phi = _arg(args, kwargs, 0, "r_ris"), _arg(args, kwargs, 1, "phi")
        return {"channel.ris_kernel.bytes": kernel_bytes(r_ris, phi),
                "channel.ris_kernel.calls": 1}

    def covariance(args, kwargs, result, seconds):
        system, config = _arg(args, kwargs, 0, "system"), _arg(args, kwargs, 1, "config")
        # Only a kernel the program built counts; reading the cached property
        # here would build it in the traced pass.
        kernel = getattr(system.corr, "__dict__", {}).get("ris_abs2")
        if kernel is None:
            return {}
        return {  # one matvec per region, t and r
            "channel.ris_kernel.bytes": 2 * kernel_bytes(kernel, config.phi("t")),
            "channel.ris_kernel.calls": 2}

    def draw(args, kwargs, result, seconds):
        dims = _arg(args, kwargs, 0, "system").dims
        m, n, k = dims.m, dims.n, dims.k
        # operands and results of the products forming G, q, d and h, all complex
        g = m * m + 2 * m * n + n * n + m * n
        q = 2 * k * n + n * n
        d = 2 * k * m + m * m
        h = k * (m * n + n + m)
        return {"channel.sample_realization.bytes": (g + q + d + h) * complex_item}

    def protocol(args, kwargs, result, seconds):
        label = _arg(args, kwargs, 0, "protocol")
        return {f"cli.run_protocol.{label}.seconds": seconds,
                f"cli.run_protocol.{label}.calls": 1}

    per_protocol = tuple(f"cli.run_protocol.{p}.{x}" for p in PROTOCOLS
                         for x in ("seconds", "calls"))
    return {
        "optimizer.pgam": [
            (("optimizer.pgam.iterations",),
             lambda a, k, r, s: {"optimizer.pgam.iterations": r.iterations}),
            (("optimizer.pgam.cap_hits",),
             lambda a, k, r, s: {"optimizer.pgam.cap_hits": r.reason == "max iterations"}),
            (("optimizer.pgam.backtracks",),
             lambda a, k, r, s: {"optimizer.pgam.backtracks": sum(r.backtrack_counts)}),
        ],
        "channel.pbm_quadratic_diag": [
            (("channel.ris_kernel.bytes", "channel.ris_kernel.calls"), pbm)],
        "channel.covariance_scalars": [
            (("channel.ris_kernel.bytes", "channel.ris_kernel.calls"), covariance)],
        "channel.sample_realization": [(("channel.sample_realization.bytes",), draw)],
        "montecarlo.mc_sinr": [
            (("montecarlo.trials",),
             lambda a, k, r, s: {"montecarlo.trials": _arg(a, k, 2, "n_trials")})],
        "cli.run_protocol": [(per_protocol, protocol)],
    }


# -- metrics ------------------------------------------------------------------

def row_percentiles(passes: list) -> dict:
    """Median and tail of the row times of the timed passes.

    The median pools every row of every pass.  The tail is taken per pass,
    as the highest nearest-rank percentile that leaves ``TAIL_BEYOND`` rows
    of the pass above it (the slowest row when a pass has fewer than
    ``2 * TAIL_BEYOND`` rows), and the median over passes is reported.  Pooled
    over passes, the tail would follow the one or two passes a run spends in
    a slow spell of a shared machine rather than the slow rows.
    """
    pooled = [t for rows in passes for t in rows]
    tails, percentile = [], 100.0
    for rows in passes:
        ordered = sorted(rows)
        n = len(ordered)
        rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n
        tails.append(ordered[rank - 1])
        percentile = 100.0 * rank / n
    return {
        "p50": statistics.median(pooled),
        "tail": statistics.median(tails),
        "tail_percentile": percentile,
        "samples": len(pooled),
    }


def cf_gap_max(rows: list) -> float:
    """Largest relative gap between the closed form and MC over the rows."""
    gaps = [abs(float(r["sum_se"]) - float(r["mc_sum_se"])) / float(r["mc_sum_se"])
            for r in rows if r.get("mc_sum_se") not in ("", None)]
    return max(gaps, default=0.0)


def per_layer_metrics(s, rows0: list, overhead: float | None) -> dict:
    """Per-layer metrics from a trace summary; ``None`` marks an absent metric.

    A function's ``.us``/``.ms``/``.s`` figure is its layer self time per
    call; ``.calls`` and the optimizer counts are per pass.  A layer that
    does not run on the workload reports 0.  ``channel.ris_kernel.bytes`` is
    absent when no traced call used a built ``|R|^2`` kernel.
    """
    passes = s.passes

    def calls(span):
        return s.calls.get(span, 0) / passes if span in s.installed else None

    def per_call(span, scale):
        if span not in s.installed:
            return None
        count = s.calls.get(span, 0)
        return s.layer_self[span] / count * scale if count else 0.0

    def counter(key):
        return None if key in s.absent or key not in s.counters else s.counters[key]

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    def per_pass(key):
        value = counter(key)
        return None if value is None else value / passes

    pgam, sum_se, mc = "optimizer.pgam", "rate.sum_se", "montecarlo.mc_sinr"
    iterations = counter("optimizer.pgam.iterations")
    evals = (s.children_of(sum_se, pgam)
             if pgam in s.installed and sum_se in s.installed else None)
    mc_time = (None if mc not in s.installed else
               (s.inclusive[mc] - s.time_under("correlation.matrix_sqrt_psd", mc)) * 1e3)

    out = {
        "cli.build_system.ms": (per_call("cli.build_system", 1e3), "ms"),
        "cli.build_system.calls": (calls("cli.build_system"), "count"),
    }
    for p in PROTOCOLS:
        out[f"cli.run_protocol.{p}.s"] = (
            ratio(counter(f"cli.run_protocol.{p}.seconds"),
                  counter(f"cli.run_protocol.{p}.calls")), "s")
    out.update({
        "optimizer.multi_start.calls": (calls("optimizer.multi_start"), "count"),
        "optimizer.pgam.calls": (calls(pgam), "count"),
        "optimizer.pgam.iterations": (per_pass("optimizer.pgam.iterations"), "count"),
        "optimizer.pgam.cap_hits": (per_pass("optimizer.pgam.cap_hits"), "count"),
        "optimizer.pgam.backtracks": (per_pass("optimizer.pgam.backtracks"), "count"),
        "optimizer.pgam.iter_ms": (
            ratio(s.layer_self[pgam] * 1e3 if pgam in s.installed else None, iterations), "ms"),
        "optimizer.line_search.accept_ratio": (ratio(iterations, evals), "1"),
        "rate.sum_se.us": (per_call(sum_se, 1e6), "us"),
        "rate.sum_se.calls": (calls(sum_se), "count"),
    })
    for span in ("gradients.build_workspace", "gradients.grad_objective_from_workspace",
                 "channel.covariance_scalars", "channel.pbm_quadratic_diag"):
        out[f"{span}.us"] = (per_call(span, 1e6), "us")
        out[f"{span}.calls"] = (calls(span), "count")
    draw = "channel.sample_realization"
    out.update({
        "channel.ris_kernel.bytes": (ratio(counter("channel.ris_kernel.bytes"),
                                           counter("channel.ris_kernel.calls") or None),
                                     "bytes"),
        f"{draw}.ms": (per_call(draw, 1e3), "ms"),
        f"{draw}.bytes": (ratio(counter(f"{draw}.bytes"), s.calls.get(draw, 0)), "bytes"),
        "correlation.build_ris_correlation.ms": (
            per_call("correlation.build_ris_correlation", 1e3), "ms"),
        "correlation.from_matrices.ms": (per_call("correlation.from_matrices", 1e3), "ms"),
        "correlation.matrix_sqrt_psd.ms": (per_call("correlation.matrix_sqrt_psd", 1e3), "ms"),
        "estimation.apply_wiener_filter.us": (per_call("estimation.apply_wiener_filter", 1e6), "us"),
        "estimation.apply_wiener_filter.calls": (calls("estimation.apply_wiener_filter"), "count"),
        "montecarlo.mc_sinr.s": (per_call(mc, 1.0), "s"),
        "montecarlo.trial_ms": (ratio(mc_time, counter("montecarlo.trials")), "ms"),
        "montecarlo.cf_gap.max": (cf_gap_max(rows0), "1"),
        "trace.overhead": (overhead, "1"),
    })
    for layer in LAYERS:
        present = any(name.startswith(layer + ".") for name in s.installed)
        out[f"{layer}.self_s"] = (s.layer_time.get(layer, 0.0) / passes if present else None, "s")
    return out


# -- a whole run --------------------------------------------------------------

@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                                  # name -> (value, unit)
    extras: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def result_line(self) -> str:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in self.metrics.items() if value is not None}
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": metrics})


def measure_setup(workload: Workload, instance: int, probes=SETUP_PROBES) -> tuple:
    """Cold set-up times, each in a fresh interpreter, and the calibrations
    around them; one untimed warm-up first.

    Cheap set-ups get more probes, so that their median is as steady as that
    of the expensive ones."""
    probe = str(HERE / "setup_probe.py")
    payload = {"src": str(SRC), "config": workload.scenario(instance),
               "systems": workload.system_overrides()}

    def once(body):
        done = subprocess.run([sys.executable, probe, json.dumps(body)],
                              capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
        return float(done.stdout.strip().splitlines()[-1])

    once(dict(payload, systems=None))  # compiles bytecode and fills the file cache
    least, most = probes
    times, calibrations = [], [calibrate()]
    while len(times) < least or (sum(times) < SETUP_SECONDS and len(times) < most):
        times.append(once(payload))
        calibrations.append(calibrate())
    return times, calibrations


def run_workload(cli, workload: Workload, instance: int, reference: list, seconds: float,
                 trace: bool, spans_path=None, setup_probes=SETUP_PROBES) -> Outcome:
    raw = workload.scenario(instance)
    notes = []
    setup = None if trace else measure_setup(workload, instance, setup_probes)

    checker = Checker(cli, reference)
    first, slots = checker.run(raw)
    notes += checker.notes
    expected = len(slots)
    failed = sum(1 for problems in slots if problems)
    attempted = expected
    for i, problems in enumerate(slots):
        for problem in problems:
            notes.append(f"row {i}: {problem}")
    if first.error:
        notes.append(first.error)
    baseline = [comparable(r) for r in first.rows]

    tracer = Tracer(make_hooks()) if trace else None
    timed = {False: [], True: []}
    started = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - started < seconds:
        traced = trace and index % 2 == 1
        if traced:
            tracer.set_pass(index)
            tracer.install()
        try:
            this = run_pass(cli, raw, calibrate_rows=not trace)
        finally:
            if traced:
                tracer.uninstall()
        attempted += max(expected, len(this.rows))
        mismatched = sum(1 for i in range(max(expected, len(this.rows)))
                         if i >= len(this.rows) or i >= len(baseline)
                         or comparable(this.rows[i]) != baseline[i])
        failed += mismatched
        if mismatched:
            notes.append(f"pass {index + 1}: {mismatched} rows differ from the checked pass")
        if this.error:
            notes.append(this.error)
        else:
            timed[traced].append(this)
        index += 1

    extras = {"instance": instance, "passes": len(timed[False]) + len(timed[True]),
              "ops_failed_frac": failed / attempted if attempted else 1.0,
              "montecarlo.cf_gap.max": cf_gap_max(first.rows),
              "environment": environment()}
    if trace:
        plain = [p.seconds for p in timed[False]]
        traced_s = [p.seconds for p in timed[True]]
        overhead = (statistics.median(traced_s) / statistics.median(plain)
                    if plain and traced_s else None)
        summary = TraceSummary(tracer, max(1, len(timed[True])))
        metrics = per_layer_metrics(summary, first.rows, overhead)
        if spans_path is not None:
            tracer.write(spans_path)
            extras["spans"] = str(spans_path)
    else:
        setup_times, setup_calibrations = setup
        exponent = workload.calibration_exponent
        metrics = {"setup_s": (statistics.median(
            t * calibration_factor(setup_calibrations[i:i + 2], exponent)
            for i, t in enumerate(setup_times)), "s")}
        extras.update({"setup_samples_raw": setup_times,
                       "setup_calibrations": setup_calibrations,
                       "setup_s.raw": statistics.median(setup_times),
                       "calibration_exponent": exponent})
        if timed[False]:
            plain = timed[False]
            sweep = statistics.median(p.seconds * calibration_factor(p.calibrations, exponent)
                                      for p in plain)
            rows = row_percentiles([
                [t * calibration_factor(p.calibrations[i:i + 2], exponent)
                 for i, t in enumerate(p.row_seconds)] for p in plain])
            metrics.update({
                "sweep_s": (sweep, "s"),
                "row_s.tail": (rows["tail"], "s"),
            })
            extras.update({"row_s.p50": rows["p50"],
                           "pass_seconds_raw": [p.seconds for p in plain],
                           "pass_calibrations": [p.calibrations for p in plain],
                           "sweep_s.raw": statistics.median(p.seconds for p in plain),
                           "row_samples": rows["samples"],
                           "row_tail_percentile": rows["tail_percentile"]})
            trials = raw.get("mc", {}).get("trials", 0) if raw.get("mc", {}).get("enabled") else 0
            mc_rows = sum(1 for r in first.rows if r.get("mc_sum_se") not in ("", None))
            if trials and mc_rows:
                extras["mc_trials_per_s"] = trials * mc_rows / sweep
        values = [v for v in (_number(r.get("sum_se")) for r in first.rows) if v is not None]
        if values:
            metrics["sum_se.mean"] = (statistics.fmean(values), "bit/s/Hz")
        if checker.ratios:
            metrics["sum_se.worst_ratio"] = (min(checker.ratios), "1")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    correct = failed == 0 and not first.error
    return Outcome(correct, attempted, failed, metrics, extras, notes)
