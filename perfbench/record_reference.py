"""Record the reference table that sum_se.worst_ratio and the MC check read.

    python3 perfbench/record_reference.py --recorded-at COMMIT

Runs one pass of every instance (scenario seed 0 .. INSTANCES-1) of each workload
and stores each CSV row's sweep value, scenario, sum_se, and MC sum_se and
standard error.  Run it at the baseline commit only: a table recorded from
a later commit would make that commit its own reference.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import WORKLOADS

REFERENCE = harness.HERE / "reference.json"
INSTANCES = 32


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recorded-at", required=True,
                        help="the baseline commit the table is recorded at")
    args = parser.parse_args(argv)
    harness.pin_blas_threads()
    cli = harness.import_cli()

    table = {"recorded_at": args.recorded_at, "environment": harness.environment(),
             "workloads": {}}
    for name, workload in WORKLOADS.items():
        instances = []
        for instance in range(INSTANCES):
            done = harness.run_pass(cli, workload.scenario(instance))
            if done.error:
                print(done.error, file=sys.stderr)
                return 1
            instances.append([harness.reference_row(row) for row in done.rows])
            print(f"{name} instance {instance}: {len(done.rows)} rows, {done.seconds:.2f} s",
                  flush=True)
        table["workloads"][name] = {"config": workload.config, "instances": instances}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
