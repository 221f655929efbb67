"""Smoke runs of two demos as tier-1 tests.

``01_correlation_and_gains.py`` builds surface correlations at several
spacings and ``07_experiment_runner.py`` drives ``cli.run_experiment`` with
Monte Carlo on; together they take about two seconds and write no files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_correlation_and_gains.py", "07_experiment_runner.py"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
