"""Run the benchmark command over several seeds and summarise the spread.

    python3 perfbench/report.py [--workloads NAME ...] [--seeds 0 1 2 ...]

Runs the command in BENCHMARK.json untraced, once per workload and seed, in
sequence, from the repository root.  For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median, and, for end-to-end metrics, the bound from BENCHMARK.json.  Every
result line is kept in perfbench/out/report.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness


def main(argv=None) -> int:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(10)))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {}
    all_correct = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", "0"]
            done = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                                  text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            all_correct &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        results[workload] = runs
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"bound {bound:g}" + ("" if spread < bound / 3 else "  <-- spread >= bound/3"))
            print(f"  {name:45s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  {flag}")
    out = harness.HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
