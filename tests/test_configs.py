"""Every shipped scenario config parses and validates, and nothing else
gets past the parser but a ConfigError.

Covers the checked-in ``configs/*.json`` and the benchmark's workload
configs in ``perfbench/workloads.py`` (read, never written), so a stricter
config parser cannot break either without a failing test.
"""

import importlib.util
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starmimo.cli import (
    OPTIMIZER_FIELDS,
    SECTION_KEYS,
    TOP_LEVEL_KEYS,
    ConfigError,
    ScenarioConfig,
)

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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_json_value_parses_or_is_a_config_error(data):
    # a value in place of the whole config, of a section or of one field of
    # a checked-in config: a ScenarioConfig or a ConfigError, never another
    # exception (parsing only; no system is built)
    raw = json.loads(data.draw(st.sampled_from(CONFIGS)).read_text())
    value = data.draw(JSON_VALUES)
    where = data.draw(st.sampled_from(["top", "section", "field"]))
    if where == "top":
        raw = value
    elif where == "section":
        raw[data.draw(st.sampled_from(sorted(SECTION_KEYS) + ["new"]))] = value
    else:
        name = data.draw(st.sampled_from(sorted(SECTION_KEYS) + [None]))
        keys = TOP_LEVEL_KEYS if name is None else SECTION_KEYS[name] + ("new",)
        target = raw if name is None else raw.setdefault(name, {})
        target[data.draw(st.sampled_from(sorted(keys)))] = value
    try:
        cfg = ScenarioConfig.from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


# every entry of the config table as (JSON path, kind); the optimizer
# section's entries are the PgamOptions fields it reads
TABLE = ([(f.metadata["path"], f.metadata["kind"]) for f in fields(ScenarioConfig)]
         + [(f"optimizer.{f.name}", type(f.default)) for f in OPTIMIZER_FIELDS])


@pytest.mark.parametrize("path, kind", TABLE, ids=[path for path, _ in TABLE])
def test_value_of_the_wrong_json_kind_names_its_entry(path, kind):
    # a sweep config, so that sweep.values is read too
    raw = json.loads((ROOT / "configs" / "sweep_antennas.json").read_text())
    wrong = 5 if kind is str or isinstance(kind, tuple) else "five"
    section, _, key = path.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[key] = wrong
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(raw)
    assert err.value.field == path


def readme_schema() -> dict:
    """The jsonc block under README's "Scenario config schema", comments stripped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("### Scenario config schema", 1)[1].split("```jsonc\n", 1)[1]
    return json.loads(re.sub(r"//.*", "", block.split("```", 1)[0]))


def test_readme_schema_matches_the_table():
    raw = readme_schema()
    assert set(raw) == set(TOP_LEVEL_KEYS)
    for section, keys in SECTION_KEYS.items():
        assert set(raw[section]) == set(keys), section
    documented = ScenarioConfig.from_dict(raw)
    defaults = ScenarioConfig.from_dict({"dims": raw["dims"]})
    for f in fields(ScenarioConfig):
        if f.metadata["path"].split(".")[0] not in ("dims", "sweep"):
            assert getattr(documented, f.name) == getattr(defaults, f.name), f.metadata["path"]
