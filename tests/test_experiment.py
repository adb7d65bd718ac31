"""Experiment harness: grid enumeration, execution, result files, analysis."""

import copy
import os

import pytest

from mrpsim import experiment
from mrpsim.experiment import (
    PRESETS,
    BestCell,
    ExperimentError,
    GridSpec,
    Instance,
    best_per_instance,
    compare_modes,
    enumerate_cells,
    read_results,
    run_cell,
    run_grid,
    significance_stars,
    write_manifest,
    write_results,
)

TINY = GridSpec(name="tiny", alphas=(0.02,), sst_factors=(0.0,), plts=(1,),
                fop_periods=(1,), foq_quantities=(), component_lots=(800,),
                modes=("standard",), replications=2, run_length=30, warmup=5)


# ----------------------------------------------------------- cardinalities

def test_full_grid_cardinalities():
    spec = PRESETS["full"]
    assert spec.n_parameter_sets == 960
    assert spec.n_instances == 105
    unbiased = [i for i in spec.instances() if i.beta == 0]
    biased = [i for i in spec.instances() if i.beta == 1]
    assert len(unbiased) == 21
    assert len(biased) == 84
    assert spec.n_cells == 4_032_000


def test_preset_cardinalities():
    assert PRESETS["desk"].n_cells == 2160
    assert PRESETS["null-anchor"].n_cells == 360
    assert PRESETS["bias"].n_cells == 720


def test_instance_ids_are_unique():
    spec = PRESETS["full"]
    ids = [i.instance_id for i in spec.instances()]
    assert len(set(ids)) == 105
    assert "low-a0.06-b0-unbiased" in ids
    assert "high-a0.12-b1-permanent_overbooking" in ids


def test_instance_validation():
    with pytest.raises(ValueError, match="unbiased"):
        Instance("low", 0.06, 0, "permanent_overbooking")
    with pytest.raises(ValueError, match="bias schedule"):
        Instance("low", 0.06, 1, "unbiased")
    with pytest.raises(ValueError, match="unknown bias"):
        Instance("low", 0.06, 1, "sinusoidal")


def test_enumeration_is_deterministic():
    a = enumerate_cells(PRESETS["desk"])
    b = enumerate_cells(PRESETS["desk"])
    assert [(c.index, c.instance, c.params, c.mode, c.replication)
            for c in a] == [(c.index, c.instance, c.params, c.mode,
                             c.replication) for c in b]
    assert [c.index for c in a] == list(range(2160))


# ---------------------------------------------------------------- running

def test_run_grid_rows_and_worker_invariance(tmp_path):
    rows_serial = run_grid(TINY, base_seed=7, workers=1)
    rows_pool = run_grid(TINY, base_seed=7, workers=2)
    assert rows_serial == rows_pool
    assert len(rows_serial) == 2
    assert rows_serial[0]["replication"] == 0
    assert rows_serial[1]["replication"] == 1
    assert rows_serial[0]["overall_cost"] != rows_serial[1]["overall_cost"]

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(rows_serial, str(a))
    write_results(rows_pool, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_grid_reports_failing_cells():
    broken = GridSpec(name="broken", alphas=(0.0,), sst_factors=(0.0,),
                      plts=(1,), fop_periods=(1,), foq_quantities=(),
                      component_lots=(800,), modes=("standard",),
                      replications=1, run_length=10, warmup=40)
    with pytest.raises(ExperimentError, match="low-a0-b0-unbiased"):
        run_grid(broken, workers=1)


SHARED = GridSpec(name="shared", alphas=(0.04, 0.10), sst_factors=(0.2,),
                  plts=(1, 3), fop_periods=(1,), foq_quantities=(),
                  component_lots=(800,), replications=2, run_length=40,
                  warmup=5)


def test_run_grid_shared_tapes_match_cells_run_alone():
    # 2 instances x 2 replications x 2 parameter sets x 2 modes: each
    # (instance, replication) tape serves four cells
    cells = enumerate_cells(SHARED)
    assert len(cells) == 16
    alone = [run_cell(c, 11, SHARED.run_length, SHARED.warmup) for c in cells]
    assert run_grid(SHARED, base_seed=11, workers=1) == alone
    assert run_grid(SHARED, base_seed=11, workers=2) == alone


def _dies_on_cell_5(cell, *args, **kwargs):
    if cell.index == 5:
        os._exit(3)
    return _real_run_cell(cell, *args, **kwargs)


_real_run_cell = run_cell


def test_dead_worker_becomes_experiment_error(monkeypatch):
    monkeypatch.setattr(experiment, "run_cell", _dies_on_cell_5)
    with pytest.raises(ExperimentError, match="not collected") as info:
        run_grid(SHARED, base_seed=11, workers=2)
    assert "cell 5 (" in str(info.value)


def test_progress_callback():
    seen = []
    run_grid(TINY, workers=1, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


# ------------------------------------------------------------ result files

def test_write_read_roundtrip(tmp_path):
    rows = run_grid(TINY, workers=1)
    path = tmp_path / "results.csv"
    write_results(rows, str(path))
    assert read_results(str(path)) == rows


def test_append_skips_identical_duplicates(tmp_path):
    rows = run_grid(TINY, workers=1)
    path = tmp_path / "results.csv"
    write_results(rows, str(path))
    extra = copy.deepcopy(rows[0])
    extra["replication"] = 5
    write_results(rows + [extra], str(path), append=True)
    merged = read_results(str(path))
    assert len(merged) == 3


def test_append_rejects_conflicting_duplicates(tmp_path):
    rows = run_grid(TINY, workers=1)
    path = tmp_path / "results.csv"
    write_results(rows, str(path))
    clashing = copy.deepcopy(rows[0])
    clashing["overall_cost"] += 1.0
    with pytest.raises(ValueError, match="conflicting duplicate"):
        write_results([clashing], str(path), append=True)


def test_read_rejects_malformed_files(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("not,the,header\n")
    with pytest.raises(ValueError, match="header"):
        read_results(str(path))

    rows = run_grid(TINY, workers=1)
    write_results(rows, str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("short,row\n")
    with pytest.raises(ValueError, match="line 4"):
        read_results(str(path))


def test_manifest_contents(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(str(path), PRESETS["desk"], base_seed=42, workers=4)
    text = path.read_text()
    assert "grid: desk" in text
    assert "cells: 2160" in text
    assert "base seed: 42" in text
    assert "worker count never affects results" in text


# -------------------------------------------------------------- aggregation

def synthetic_rows():
    """Two instances x two modes x two parameter sets x three replications."""
    rows = []
    costs = {
        ("standard", 0.2): (9548.0, 9550.0, 9546.0),
        ("standard", 0.4): (9600.0, 9604.0, 9596.0),
        ("extended", 0.2): (7830.0, 7832.0, 7828.0),
        ("extended", 0.4): (7900.0, 7904.0, 7896.0),
    }
    for mode in ("standard", "extended"):
        for sst in (0.2, 0.4):
            for rep in range(3):
                rows.append({
                    "instance_id": "low-a0.06-b0-unbiased", "alpha": 0.06,
                    "beta": 0, "bias": "unbiased", "utilization": "low",
                    "mode": mode, "sst_factor": sst, "plt": 2,
                    "policy": "FOP", "policy_param": 2, "comp_lot": 800,
                    "replication": rep, "seed": 42,
                    "overall_cost": costs[(mode, sst)][rep],
                    "wip_cost": 100.0, "fgi_cost": 50.0,
                    "backorder_cost": 10.0, "service_level": 0.99,
                    "n_final_orders": 720, "leadtime_mean": 2.5,
                    "leadtime_sd": 0.4,
                })
    return rows


def test_best_per_instance_picks_cheapest():
    best = best_per_instance(synthetic_rows())
    std = best[("low-a0.06-b0-unbiased", "standard")]
    ext = best[("low-a0.06-b0-unbiased", "extended")]
    assert std.sst_factor == 0.2 and std.mean_cost == pytest.approx(9548.0)
    assert ext.sst_factor == 0.2 and ext.mean_cost == pytest.approx(7830.0)
    assert std.costs == (9548.0, 9550.0, 9546.0)
    assert std.replications == 3


def test_best_per_instance_breaks_ties_toward_smaller_sst():
    rows = synthetic_rows()
    for row in rows:
        row["overall_cost"] = 5000.0
    best = best_per_instance(rows)
    assert best[("low-a0.06-b0-unbiased", "standard")].sst_factor == 0.2


def test_best_per_instance_rejects_unbalanced_replications():
    rows = synthetic_rows()
    with pytest.raises(ValueError, match="replication"):
        best_per_instance(rows[:-1])


def test_compare_modes_welch():
    comps = compare_modes(synthetic_rows())
    assert len(comps) == 1
    c = comps[0]
    assert c.instance_id == "low-a0.06-b0-unbiased"
    assert c.standard.mean_cost == pytest.approx(9548.0)
    assert c.extended.mean_cost == pytest.approx(7830.0)
    assert c.cost_reduction == pytest.approx((7830.0 - 9548.0) / 9548.0)
    assert c.p_value < 0.01
    assert c.stars == "**"
    assert c.test == "welch"


def test_compare_modes_paired():
    comps = compare_modes(synthetic_rows(), paired=True)
    assert comps[0].test == "paired"
    assert comps[0].p_value < 0.01


def test_compare_modes_identical_costs_not_significant():
    rows = synthetic_rows()
    for row in rows:
        row["overall_cost"] = 4242.0   # zero variance in both modes
    comps = compare_modes(rows)
    assert comps[0].cost_reduction == 0.0
    assert comps[0].p_value == 1.0
    assert comps[0].stars == ""


def test_compare_modes_zero_variance_but_different_means():
    rows = synthetic_rows()
    for row in rows:
        row["overall_cost"] = 4000.0 if row["mode"] == "extended" else 5000.0
    comps = compare_modes(rows)
    assert comps[0].p_value == 0.0
    assert comps[0].stars == "**"


def test_significance_stars():
    assert significance_stars(0.009) == "**"
    assert significance_stars(0.04) == "*"
    assert significance_stars(0.06) == ""
    assert significance_stars(0.05) == ""
