"""Plant description, demand pattern, overrides, planned utilization."""

import json
import re
from pathlib import Path

import pytest

from mrpsim.config import (
    _DEFAULT_OVERRIDES,
    DemandPattern,
    build_system,
    load_overrides,
    planned_utilization,
    planned_utilization_table,
    validate_system,
)


def test_planned_utilization_product_machines():
    table = {(m, lvl): u for m, lvl, u in planned_utilization_table()}
    for mid in ("M101", "M102", "M111", "M112"):
        assert table[(mid, "low")] == pytest.approx(0.90, abs=1e-9)
        assert table[(mid, "medium")] == pytest.approx(0.95, abs=1e-9)
        assert table[(mid, "high")] == pytest.approx(0.98, abs=1e-9)


def test_planned_utilization_component_machines_exact():
    table = {(m, lvl): u for m, lvl, u in planned_utilization_table()}
    # (1600 * 0.68 + 2 * 94) / 1440 and (1600 * 0.68 + 1 * 94) / 1440
    for mid in ("M201", "M202"):
        assert table[(mid, "foq800")] == 1276.0 / 1440.0
        assert table[(mid, "foq1600")] == 1182.0 / 1440.0


def test_planned_utilization_formula():
    system = build_system("low")
    # one 800-piece lot per day on a product machine: (800*1.35 + 216)/1440
    assert planned_utilization(system, 101, 1.0, 800) == pytest.approx(0.90)
    # half load
    assert planned_utilization(system, 101, 0.5, 400) == pytest.approx(0.45)
    with pytest.raises(KeyError):
        planned_utilization(system, 999, 1.0, 800)


def test_build_system_levels():
    for level, setup in (("low", 216.0), ("medium", 288.0), ("high", 331.2)):
        system = build_system(level)
        assert system.machines[101].setup_mean_min == setup
        assert system.machines[201].setup_mean_min == 94.0
    with pytest.raises(ValueError, match="utilization"):
        build_system("extreme")


def test_system_structure():
    system = build_system("low")
    assert sorted(system.final_products) == [10, 11, 12, 13, 14, 15, 16, 17]
    assert sorted(system.components) == [20, 21]
    assert system.items[10].routing == (102, 101)
    assert system.items[14].routing == (112, 111)
    assert system.items[20].routing == (201,)
    assert system.items[10].component == 20
    assert system.items[15].component == 21
    assert system.items[10].component_qty == 2
    assert system.cost_rates.wip == 0.5
    assert system.cost_rates.fgi == 1.0
    assert system.cost_rates.backorder == 19.0
    assert system.component_plt == 3
    assert system.horizon == 30
    validate_system(system)   # no raise


def test_demand_pattern_first_dues():
    pattern = DemandPattern()
    assert pattern.first_due(10) == 13
    assert pattern.first_due(14) == 13
    assert pattern.first_due(11) == 14
    assert pattern.first_due(15) == 14
    assert pattern.first_due(12) == 15
    assert pattern.first_due(16) == 15
    assert pattern.first_due(13) == 16
    assert pattern.first_due(17) == 16


def test_demand_pattern_due_dates():
    pattern = DemandPattern()
    # two products per line are due each period from 13 on
    for period in range(13, 41):
        due_products = [p for p in range(10, 18)
                        if list(pattern.due_dates(p, period, period)) == [period]]
        assert len(due_products) == 2
    # nothing before or at the initial delay
    for period in range(0, 13):
        assert not any(pattern.due_dates(p, period, period)
                       for p in range(10, 18))
    assert list(pattern.due_dates(10, 13, 13)) == [13]
    assert list(pattern.due_dates(10, 17, 17)) == [17]
    assert not pattern.due_dates(10, 14, 14)
    # a window lists every due date in it, and none at or before the delay
    assert list(pattern.due_dates(10, 1, 23)) == [13, 17, 21]
    assert list(pattern.due_dates(13, 13, 23)) == [16, 20]


def test_overrides_change_values():
    system = build_system("low", {"costs": {"backorder": 25.0},
                                  "planning": {"horizon": 40}})
    assert system.cost_rates.backorder == 25.0
    assert system.horizon == 40
    # untouched values keep defaults
    assert system.cost_rates.wip == 0.5


def test_overrides_reject_unknown_section():
    with pytest.raises(ValueError, match="unknown config section"):
        build_system("low", {"cost": {"wip": 1.0}})


def test_overrides_reject_unknown_key():
    with pytest.raises(ValueError, match="unknown config key costs.markup"):
        build_system("low", {"costs": {"markup": 1.0}})


def test_overrides_reject_non_numbers():
    with pytest.raises(ValueError, match="must be a number"):
        build_system("low", {"costs": {"wip": "cheap"}})
    with pytest.raises(ValueError, match="must be a number"):
        build_system("low", {"costs": {"wip": True}})
    with pytest.raises(ValueError, match="must be an object"):
        build_system("low", {"costs": 3})


def test_load_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"setup": {"cv": 0.0}}))
    data = load_overrides(str(path))
    assert data == {"setup": {"cv": 0.0}}
    system = build_system("low", data)
    assert system.setup_cv == 0.0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="JSON object"):
        load_overrides(str(bad))


def test_readme_config_example_is_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Config overrides", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert json.loads(block) == _DEFAULT_OVERRIDES
