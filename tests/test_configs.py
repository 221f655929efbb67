"""Every shipped scenario config parses and validates.

Covers the checked-in ``configs/*.json`` and the benchmark's workload
configs in ``perfbench/workloads.py`` (read, never written), so a stricter
config parser cannot break either without a failing test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from starmimo.cli import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def benchmark_workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = benchmark_workloads()


def test_configs_are_present():
    assert len(CONFIGS) == 6
    assert set(WORKLOADS) == {"sweep-small", "surface-large", "mc-validate"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_checked_in_config_validates(path):
    cfg = ScenarioConfig.from_file(path)
    assert cfg.validate() is cfg


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 31])
def test_benchmark_workload_config_validates(name, seed):
    cfg = ScenarioConfig.from_dict(WORKLOADS[name].scenario(seed))
    assert cfg.seed == seed
    assert cfg.validate() is cfg
