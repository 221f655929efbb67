"""The benchmark's self-test and its traced runs as tier-1 tests.

``perfbench/`` drives the package from outside: it captures every row's
``ProtocolResult`` from ``cli.run_protocol`` (binding its ``protocol`` and
``system`` parameters), re-checks it against ``rate.sum_se(method="dense")``
and reads per-layer counters at traced function boundaries.
``perfbench/selftest.py`` runs all of that on tiny workloads (about 20 s),
so a change to the contract fails here rather than only in a benchmark run.
The traced runs of the real workloads (about 11 s for all three) catch what
only their sizes reach, such as a metric that goes missing at N = 1024.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELFTEST = ROOT / "perfbench" / "selftest.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def strict_json(line: str) -> dict:
    """``json.loads`` that rejects NaN and +-Infinity, which strict JSON lacks."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in the result line")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_ends_with_every_per_layer_metric(workload, tmp_path):
    # run a copy of perfbench/ and src/, so that the run's records are
    # written under tmp_path and the checkout stays as it is
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = strict_json(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    missing = [m["name"] for m in SPEC["per_layer"] if reported.get(m["name"]) != m["unit"]]
    assert not missing, missing
