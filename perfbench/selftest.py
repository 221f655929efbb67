"""Self-test of the benchmark at tiny sizes (seconds).

    python3 perfbench/selftest.py

It checks that BENCHMARK.json and reference.json agree with workloads.py.
For a tiny version of each workload it records a reference table in memory
and checks that an untraced run and a traced run report every metric that
BENCHMARK.json names, with its unit, and pass every check.  Then it corrupts
the reference table (a sum_se, an MC value, a row label) and the program's
reported sum_se, and makes the ms rows without cli.run_protocol, and checks
that sum_se.worst_ratio or the checks flag each.  It also checks the
arithmetic of timing calibration and that a calibrated pass brackets every
row.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import sys

import harness
from workloads import WORKLOADS, Workload

_TINY = {
    "dims": {"m": 8, "n": 9, "k_t": 1, "k_r": 1, "tau_c": 200, "tau": 2},
    "correlation": {"bs_model": "exponential", "bs_param": 0.5, "ris_spacing": 0.25},
}
TINY = (
    Workload("tiny-sweep", dict(_TINY, powers={"snr_db": 115.0},
             protocols=["es", "ms", "conventional", "random-phase", "es-no-direct"],
             optimizer={"n_starts": 2, "max_iters": 5},
             sweep={"parameter": "n", "values": [4, 9]}), "tiny sweep-small"),
    Workload("tiny-surface", dict(_TINY, powers={"snr_db": 115.0}, protocols=["es"],
             optimizer={"n_starts": 1, "max_iters": 1},
             sweep={"parameter": "n", "values": [16, 25]}), "tiny surface-large"),
    Workload("tiny-mc", dict(_TINY, powers={"snr_db": 100.0}, protocols=["random-phase"],
             optimizer={"n_starts": 3}, mc={"enabled": True, "trials": 20},
             sweep={"parameter": "n", "values": [4, 9]}), "tiny mc-validate"),
)


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        self.failures += not ok


def names_and_units(outcome) -> dict:
    return {name: unit for name, (value, unit) in outcome.metrics.items() if value is not None}


def bypassing_run_protocol(cli, protocol: str, body):
    """Run ``body`` with ``protocol``'s rows made past whatever wraps cli.run_protocol."""
    unwrapped, experiment = cli.run_protocol, cli.run_experiment

    def run_experiment(*args, **kwargs):
        wrapped = cli.run_protocol

        def route(label, *rest, **kw):
            return (unwrapped if label == protocol else wrapped)(label, *rest, **kw)

        cli.run_protocol = route
        try:
            return experiment(*args, **kwargs)
        finally:
            cli.run_protocol = wrapped

    cli.run_experiment = run_experiment
    try:
        return body()
    finally:
        cli.run_experiment = experiment


def main() -> int:
    harness.pin_blas_threads()
    cli = harness.import_cli()
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    report = Report()
    report.expect([(w["name"], w["why"]) for w in spec["workloads"]]
                  == [(w.name, w.why) for w in WORKLOADS.values()],
                  "BENCHMARK.json lists the workloads of workloads.py")
    with open(harness.HERE / "reference.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"]
    report.expect(all(recorded[w.name]["config"] == w.config for w in WORKLOADS.values()),
                  "reference.json was recorded for the current workload configs")

    def run(workload, reference, trace=False):
        return harness.run_workload(cli, workload, 0, reference, seconds=0.0, trace=trace,
                                    setup_probes=(1, 1))

    c = harness.CALIBRATION_S
    report.expect(math.isclose(harness.calibration_factor([c, 2 * c, 3 * c], 1.0), 0.5)
                  and math.isclose(harness.calibration_factor([c, 3 * c], 0.5), 0.5 ** 0.5),
                  "times are scaled by the mean calibration to the workload's exponent")
    timed = harness.run_pass(cli, TINY[0].scenario(0), calibrate_rows=True)
    report.expect(len(timed.calibrations) == len(timed.row_seconds) + 2 == len(timed.rows) + 2
                  and 0 < math.fsum(timed.row_seconds) <= timed.seconds,
                  "a calibrated pass calibrates before, after every row and after it, "
                  "and counts none of that time")

    for workload in TINY:
        first = harness.run_pass(cli, workload.scenario(0))
        reference = [harness.reference_row(row) for row in first.rows]
        tag = workload.name

        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            outcome = run(workload, reference, trace)
            reported = names_and_units(outcome)
            missing = [m["name"] for m in spec[section]
                       if reported.get(m["name"]) != m["unit"]]
            report.expect(not missing, f"{tag} trace={int(trace)}: every {section} metric "
                                       f"with its unit {missing or ''}")
            report.expect(outcome.correct and outcome.failed == 0,
                          f"{tag} trace={int(trace)}: checks pass on the recorded reference")
            if not trace:
                report.expect(outcome.metrics["sum_se.worst_ratio"][0] == 1.0,
                              f"{tag}: sum_se.worst_ratio is 1 against its own reference")

        raised = copy.deepcopy(reference)
        raised[0][2] *= 1.1
        outcome = run(workload, raised)
        report.expect(outcome.metrics["sum_se.worst_ratio"][0] < 0.95,
                      f"{tag}: a raised reference sum_se lowers sum_se.worst_ratio")

        relabelled = copy.deepcopy(reference)
        relabelled[0][1] = "no-such-protocol"
        outcome = run(workload, relabelled)
        report.expect(not outcome.correct and outcome.failed >= 1,
                      f"{tag}: a wrong row label in the reference fails a check")

        if reference[0][3] is not None:
            shifted = copy.deepcopy(reference)
            shifted[0][3] += 100.0 * shifted[0][4]
            outcome = run(workload, shifted)
            report.expect(not outcome.correct and outcome.failed >= 1,
                          f"{tag}: an MC reference 100 std errors off fails the MC check")

        original = cli.run_protocol

        @functools.wraps(original)
        def misreported(*args, **kwargs):
            result = original(*args, **kwargs)
            return dataclasses.replace(result, sum_se=result.sum_se * (1.0 + 1e-6))

        cli.run_protocol = misreported
        try:
            outcome = run(workload, reference)
        finally:
            cli.run_protocol = original
        report.expect(not outcome.correct and outcome.failed >= 1,
                      f"{tag}: a reported sum_se 1e-6 off the dense referee fails a check")

        if "ms" in workload.config["protocols"]:
            outcome = bypassing_run_protocol(cli, "ms", lambda: run(workload, reference))
            report.expect(not outcome.correct and outcome.failed >= 1,
                          f"{tag}: an ms row made without cli.run_protocol fails a check")

    print(f"{report.failures} failures")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
