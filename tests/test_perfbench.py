"""The benchmark's self-test as a tier-1 test.

``perfbench/`` drives the package from outside: it captures every row's
``ProtocolResult`` from ``cli.run_protocol`` (binding its ``protocol`` and
``system`` parameters), re-checks it against ``rate.sum_se(method="dense")``
and reads per-layer counters at traced function boundaries.
``perfbench/selftest.py`` runs all of that on tiny workloads (about 20 s),
so a change to the contract fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
