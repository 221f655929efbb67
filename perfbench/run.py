"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-small --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  The last line of standard output is the result
as one JSON object; a fuller record (setup samples, row-sample count, tail
percentile, environment) and, when traced, every span are written under
``perfbench/out/``.  ``--seed n`` selects instance ``n mod I`` of the I
instances in ``reference.json``; the instance is the scenario's seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import WORKLOADS

REFERENCE = harness.HERE / "reference.json"
OUT = harness.HERE / "out"


def load_reference(workload) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    entry = table["workloads"][workload.name]
    if entry["config"] != workload.config:
        raise SystemExit(f"error: reference.json was recorded for another {workload.name} "
                         "config; re-record it with record_reference.py at the baseline")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.pin_blas_threads()
    try:
        cli = harness.import_cli()
    except ImportError as exc:
        print(f"error: cannot import starmimo from {harness.SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    entry = load_reference(workload)
    instance = args.seed % len(entry["instances"])
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    outcome = harness.run_workload(
        cli, workload, instance, entry["instances"][instance],
        args.seconds, bool(args.trace),
        spans_path=OUT / f"{stem}-spans.npz" if args.trace else None)

    for note in outcome.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} instance={instance} trace={args.trace} "
          f"correct={outcome.correct} failed={outcome.failed}/{outcome.attempted}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name} = {'absent' if value is None else f'{value:.6g}'} {unit}")
    for name, value in outcome.extras.items():
        unit = harness.RECORD_ONLY.get(name)
        print(f"  [{name}] {value:.6g} {unit}" if unit else f"  [{name}] {value}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "result": json.loads(outcome.result_line()), "extras": outcome.extras,
              "notes": outcome.notes}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(outcome.result_line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
