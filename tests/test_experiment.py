"""Experiment harness: grid enumeration, execution, result files, analysis."""

import builtins
import csv
import gc
import hashlib
import os
import pickle
import platform
import tempfile
import tracemalloc
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrpsim import cli, driver, experiment
from mrpsim.config import UTILIZATION_LEVELS
from mrpsim.forecast import BIASED_SCHEDULES
from mrpsim.kpi import float_sum
from mrpsim.experiment import (
    PRESETS,
    RESULT_COLUMNS,
    BestCell,
    ExperimentError,
    GridSpec,
    Instance,
    ResultRows,
    best_per_instance,
    compare_modes,
    default_workers,
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
    with pytest.raises(ValueError, match="unknown bias"):
        Instance("low", 0.06, "sinusoidal")
    assert Instance("low", 0.06).beta == 0
    assert Instance("low", 0.06, "permanent_overbooking").beta == 1
    assert Instance("low", 0.06, "temporary_underbooking").instance_id == \
        "low-a0.06-b1-temporary_underbooking"


def test_grid_spec_rejects_negative_replications():
    with pytest.raises(ValueError, match="got -2"):
        GridSpec(name="negative", replications=-2)
    with pytest.raises(ValueError, match="got -1"):
        replace(TINY, replications=-1)
    # empty grids stay valid
    for empty in (replace(TINY, replications=0),
                  replace(TINY, fop_periods=(), foq_quantities=())):
        assert empty.n_cells == len(enumerate_cells(empty)) == 0
        assert list(enumerate_cells(empty)) == []


def test_grid_spec_rejects_repeated_values():
    for name, values in (("alphas", (0.02, 0.02)),
                         ("utilizations", ("low", "high", "low")),
                         ("biased_schedules", ("permanent_overbooking",) * 2),
                         ("plts", (1, 3, 3)), ("modes", ("standard",) * 2)):
        with pytest.raises(ValueError, match=f"{name} repeats {values[-1]!r}"):
            replace(TINY, **{name: values})


def test_grid_spec_rejects_alphas_that_share_an_instance_id():
    # alpha is written with :g, six significant digits, in the instance_id
    for spec, instance_id in (
            (TINY, "low-a0.1-b0-unbiased"),
            (replace(TINY, include_unbiased=False,
                     biased_schedules=("permanent_overbooking",)),
             "low-a0.1-b1-permanent_overbooking")):
        with pytest.raises(ValueError,
                           match=f"instance_id repeats '{instance_id}'"):
            replace(spec, alphas=(0.02, 0.1, 0.1000001))
        assert replace(spec, alphas=(0.1, 0.100001)).n_instances == 2


def test_grid_spec_rejects_unknown_utilizations():
    with pytest.raises(ValueError, match="utilizations .* got 'mid'"):
        replace(TINY, utilizations=("low", "mid"))
    assert replace(TINY, utilizations=()).n_cells == 0


def test_grid_spec_rejects_unknown_biased_schedules():
    # "unbiased" would enumerate the unbiased instances a second time
    for bias in ("unbiased", "sinusoidal"):
        with pytest.raises(ValueError,
                           match=f"biased_schedules .* got {bias!r}"):
            replace(TINY, biased_schedules=("permanent_overbooking", bias))
    assert replace(TINY, biased_schedules=()).n_instances == 1


@pytest.mark.parametrize("name, value", [
    ("sst_factors", 0.3), ("plts", 5), ("fop_periods", 3),
    ("foq_quantities", 300), ("component_lots", 400), ("modes", "bogus")])
def test_grid_spec_rejects_planning_values_no_cell_can_run(name, value):
    # each would build, count its cells and fail only once they are made
    with pytest.raises(ValueError, match=f"{name} must be in .* got {value!r}"):
        GridSpec(name="x", **{name: (value,)})
    with pytest.raises(ValueError, match=f"{name} must be in .* got {value!r}"):
        replace(TINY, **{name: getattr(TINY, name) + (value,)})


def _listed_cells(spec):
    """The grid's cells as enumeration built them before it was a view."""
    settings = [replace(params, mode=mode) for params in spec.parameter_sets()
                for mode in spec.modes]
    cells = []
    for instance in spec.instances():
        for params in settings:
            for rep in range(spec.replications):
                cells.append(experiment.Cell(len(cells), instance, params, rep))
    return cells


_SMALL_SPECS = st.builds(
    GridSpec, name=st.just("small"),
    utilizations=st.lists(st.sampled_from(UTILIZATION_LEVELS), min_size=1,
                          max_size=2, unique=True).map(tuple),
    alphas=st.lists(st.sampled_from((0.0, 0.04)), min_size=1,
                    unique=True).map(tuple),
    include_unbiased=st.booleans(),
    biased_schedules=st.lists(st.sampled_from(("permanent_overbooking",
                                               "temporary_underbooking")),
                              unique=True).map(tuple),
    sst_factors=st.lists(st.sampled_from((0.0, 0.2)), min_size=1,
                         unique=True).map(tuple),
    plts=st.lists(st.sampled_from((1, 3)), min_size=1, unique=True).map(tuple),
    fop_periods=st.lists(st.sampled_from((1, 9)), unique=True).map(tuple),
    foq_quantities=st.lists(st.sampled_from((200, 400)),
                            unique=True).map(tuple),
    component_lots=st.just((800,)),
    modes=st.sampled_from((("standard",), ("extended",),
                           ("standard", "extended"),
                           ("extended", "standard"))),
    replications=st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(spec=_SMALL_SPECS)
@example(spec=replace(TINY, fop_periods=()))
@example(spec=replace(TINY, replications=0))
@example(spec=replace(TINY, alphas=(0.04, 0.10), plts=(1, 3), replications=1,
                      modes=("extended", "standard")))
def test_cell_view_equals_the_listed_cells(spec):
    listed, view = _listed_cells(spec), enumerate_cells(spec)
    n = len(listed)
    assert len(view) == n == spec.n_cells
    assert list(view) == listed
    assert [view[i] for i in range(-n, n)] == listed + listed
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            view[outside]
    # a slice would build a list of cells: the view names and refuses it
    with pytest.raises(TypeError, match="'slice' object"):
        view[0:2]


def test_enumeration_is_deterministic():
    a = enumerate_cells(PRESETS["desk"])
    b = enumerate_cells(PRESETS["desk"])
    assert [(c.index, c.instance, c.params, c.mode, c.replication)
            for c in a] == [(c.index, c.instance, c.params, c.mode,
                             c.replication) for c in b]
    assert [c.index for c in a] == list(range(2160))


def test_cells_carry_their_mode_in_params():
    spec = PRESETS["desk"]
    cells = enumerate_cells(spec)
    assert all(c.params.mode == c.mode for c in cells)
    assert Counter(c.params.mode for c in cells) == \
        {"standard": 1080, "extended": 1080}
    # each parameter set runs its modes in spec order, replications innermost
    assert [cells[i].params.mode for i in range(2 * spec.replications)] == \
        ["standard"] * spec.replications + ["extended"] * spec.replications
    row = run_cell(cells[spec.replications], 3, 30, 5)
    assert row["mode"] == "extended"


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

    empty = GridSpec(name="e", fop_periods=(), foq_quantities=())
    assert run_grid(empty, workers=1) == run_grid(empty, workers=2) == []


def test_grid_spec_rejects_alphas_no_cell_can_run():
    for alpha in (-0.02, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            replace(TINY, alphas=(0.02, alpha))
    # biased instances check their alpha too
    with pytest.raises(ValueError, match="got -0.02"):
        replace(TINY, include_unbiased=False, alphas=(-0.02,),
                biased_schedules=("permanent_overbooking",))


def test_grid_spec_rejects_run_windows_no_cell_can_run():
    for run_length, warmup in ((30, 30), (10, 40), (30, -1)):
        with pytest.raises(ValueError, match=f"warmup {warmup}, run length "
                                             f"{run_length}"):
            replace(TINY, run_length=run_length, warmup=warmup)
    assert replace(TINY, run_length=6, warmup=5).n_cells == 2


def test_run_grid_reports_failing_cells(monkeypatch):
    class FailingRun(experiment.SimulationRun):
        def run(self):
            raise RuntimeError("simulated failure")

    monkeypatch.setattr(experiment, "SimulationRun", FailingRun)
    broken = GridSpec(name="broken", alphas=(0.0,), sst_factors=(0.0,),
                      plts=(1,), fop_periods=(1,), foq_quantities=(),
                      component_lots=(800,), modes=("standard",),
                      replications=1, run_length=10, warmup=5)
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


def _expand(spec, tasks):
    """The cells each pool task runs."""
    cells = enumerate_cells(spec)
    return [[cells[i] for i in task] for task in tasks]


def test_run_grid_runs_whole_groups(monkeypatch):
    # serially one tape per (instance, replication); the pool's tasks are
    # cut from the same groups, replication by replication
    built, cut = [], []
    real_build, real_tasks = driver.build_tape, experiment._tasks

    def counting_build(config, normals):
        # a real build changes the store's key; a hand-back keeps it
        held = normals.key
        tape = real_build(config, normals=normals)
        if normals.key != held:
            built.append((config.scenario, config.replication))
        return tape

    monkeypatch.setattr(driver, "build_tape", counting_build)
    monkeypatch.setattr(experiment, "_tasks", lambda *args: (
        cut.append(real_tasks(*args)) or cut[-1]))
    run_grid(SHARED, base_seed=11, workers=1)
    assert len(built) == len(set(built)) == 4
    run_grid(SHARED, base_seed=11, workers=2)
    keys = [[(c.instance.alpha, c.replication) for c in task]
            for task in _expand(SHARED, cut[-1])]
    assert all(len(set(task)) == 1 for task in keys)
    assert [key for task in keys for key in task] == [
        key for key in ((0.04, 0), (0.1, 0), (0.04, 1), (0.1, 1))
        for _ in range(4)]


def test_pool_parent_builds_no_cells(monkeypatch):
    built, real_cell = [], experiment.Cell

    def counting_cell(index, *args):
        built.append(index)
        return real_cell(index, *args)

    monkeypatch.setattr(experiment, "Cell", counting_cell)
    rows = run_grid(SHARED, base_seed=11, workers=2)
    assert len(rows) == 16
    assert built == []
    run_grid(SHARED, base_seed=11, workers=1)
    assert sorted(built) == list(range(16))


def test_extended_twins_reuse_standard_runs_that_never_diverge(monkeypatch):
    cells = enumerate_cells(SHARED)
    diverging = set()
    for cell in cells:
        if cell.mode == "standard":
            inst = cell.instance
            run = experiment.SimulationRun(experiment.make_config(
                utilization=inst.utilization, alpha=inst.alpha,
                bias=inst.bias, params=cell.params, base_seed=11,
                replication=cell.replication, run_length=SHARED.run_length,
                warmup=SHARED.warmup))
            run.run()
            if run.divergence_period is not None:
                diverging.add(cell.index)
    reusable = sum(c.mode == "standard" and c.index not in diverging
                   for c in cells)
    assert 0 < reusable < len(cells) // 2

    simulated = []

    class CountingRun(experiment.SimulationRun):
        def run(self):
            simulated.append(self.config.params)
            return super().run()

    monkeypatch.setattr(experiment, "SimulationRun", CountingRun)
    # the rows equal cells run alone, see the test above
    run_grid(SHARED, base_seed=11, workers=1)
    assert len(simulated) == len(cells) - reusable


def test_twin_slot_never_crosses_a_group():
    # extended before standard, one sst-0 parameter set (its standard run
    # never diverges) and two replications: a group ends on a reusable
    # standard run whose parameters match the next group's first cell
    spec = replace(SHARED, alphas=(0.04,), sst_factors=(0.0,), plts=(1,),
                   modes=("extended", "standard"))
    cells = enumerate_cells(spec)
    assert len(cells) == 4
    alone = [run_cell(c, 11, spec.run_length, spec.warmup) for c in cells]
    assert run_grid(spec, base_seed=11, workers=1) == alone


# analyze-full's grid in perfbench: 3 groups of 16 cells, each
# (instance, replication) a group, both modes
_TWIN_GRIDS = (
    GridSpec(name="analyze-full", alphas=(0.02, 0.06, 0.10),
             sst_factors=(0.2, 1.5), plts=(1, 4), fop_periods=(1,),
             foq_quantities=(400,), component_lots=(800,), replications=1),
    SHARED, PRESETS["desk"])


@pytest.mark.parametrize("spec", _TWIN_GRIDS, ids=lambda s: s.name)
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_pool_slices_never_split_a_twin_pair(spec, workers):
    cells = enumerate_cells(spec)
    rank = {instance: i for i, instance in enumerate(spec.instances())}
    order = sorted(cells, key=lambda c: (c.replication, rank[c.instance]))
    group = lambda c: (c.instance, c.replication)  # noqa: E731
    groups = [list(g) for _, g in groupby(order, key=group)]
    tasks = _expand(spec, experiment._tasks(spec, workers))
    assert [c for task in tasks for c in task] == order
    for task in tasks:
        assert {group(c) for c in task} == {group(task[0])}, (
            f"a task spans two groups from cell {task[0].index}")
    # whole groups once there are enough of them to keep the pool busy
    assert (len(tasks) == len(groups)) == (len(groups) >= 4 * workers)
    twin = lambda c: (group(c), replace(c.params, mode="standard"))  # noqa: E731
    for part, following in zip(tasks, tasks[1:]):
        last, first = part[-1], following[0]
        assert twin(last) != twin(first), (
            f"a task boundary parts cell {last.index} from its twin, "
            f"cell {first.index}")


@settings(max_examples=150, deadline=None)
@given(spec=_SMALL_SPECS, workers=st.integers(1, 9))
def test_task_ranges_cover_each_cell_once_in_whole_twin_pairs(spec, workers):
    tasks = experiment._tasks(spec, workers)
    assert all(type(task) is range and task for task in tasks)
    assert sorted(i for task in tasks for i in task) == \
        list(range(spec.n_cells))
    settings_ = [replace(params, mode=mode)
                 for params in spec.parameter_sets() for mode in spec.modes]
    twin = lambda params: replace(params, mode="standard")  # noqa: E731
    groups = []
    for task in _expand(spec, tasks):
        # one (instance, replication) group, its settings in order
        key = {(c.instance, c.replication) for c in task}
        assert len(key) == 1
        first = settings_.index(task[0].params)
        assert [c.params for c in task] == settings_[first:first + len(task)]
        # a group's tasks follow each other, and no boundary parts twins
        if first:
            assert groups[-1] == key, "a group's tasks are apart"
            assert twin(settings_[first - 1]) != twin(settings_[first])
        else:
            groups.append(key)
    n_groups = spec.n_instances * spec.replications if tasks else 0
    assert len(groups) == n_groups
    # the groups of one tape key, (alpha, bias, replication), are adjacent,
    # and so are those of one replication, which share its normals
    keys = [(instance.alpha, instance.bias, rep)
            for (instance, rep), in groups]
    assert len(set(keys)) == len([k for k, _ in groupby(keys)])
    reps = [rep for _, _, rep in keys]
    assert len(set(reps)) == len([r for r, _ in groupby(reps)])
    whole = (workers == 1 or n_groups >= 4 * workers
             or spec.n_parameter_sets == 1)
    assert (len(tasks) == n_groups) == (whole or not tasks)


# grid-crn's grid in perfbench: one group of 72 cells
GRID_CRN = GridSpec(name="grid-crn", utilizations=("medium",), alphas=(0.06,),
                    sst_factors=(0.2, 0.6, 1.5), plts=(1, 3, 8),
                    fop_periods=(1, 9), foq_quantities=(200, 1600),
                    component_lots=(800,), replications=1)


def test_pool_tasks_of_the_benchmark_grids():
    # one group of 72 cells: 8 tasks at 2 workers, so 8 tape builds
    tasks = _expand(GRID_CRN, experiment._tasks(GRID_CRN, 2))
    assert [len(task) for task in tasks] == [10] * 7 + [2]
    # analyze-full's three groups of 16 cells: 9 tasks at 2 workers
    cells = enumerate_cells(_TWIN_GRIDS[0])
    tasks = _expand(_TWIN_GRIDS[0], experiment._tasks(_TWIN_GRIDS[0], 2))
    assert [c for task in tasks for c in task] == list(cells)
    assert [len(task) for task in tasks] == [6, 6, 4] * 3


# the _TWIN_GRIDS are analyze-full, SHARED and the desk preset
@pytest.mark.parametrize("spec", (GRID_CRN, _TWIN_GRIDS[0], SHARED,
                                  *PRESETS.values()), ids=lambda s: s.name)
def test_serial_tasks_are_whole_groups(spec):
    block = spec.n_parameter_sets * len(spec.modes) * spec.replications
    groups = {(start // block, rep): range(start + rep, start + block,
                                           spec.replications)
              for start in range(0, spec.n_cells, block)
              for rep in range(spec.replications)}
    # by replication, then forecast scenario, in the order of its first
    # instance, then the scenario's instances, one utilization after
    # another; with one utilization, replication then instance
    instances = spec.instances()
    scenario = lambda i: (instances[i].alpha, instances[i].bias)  # noqa: E731
    scenarios = list(dict.fromkeys(map(scenario, range(len(instances)))))
    assert experiment._tasks(spec, 1) == [
        groups[i, rep] for rep in range(spec.replications)
        for key in scenarios
        for i in range(len(instances)) if scenario(i) == key]
    if len(spec.utilizations) == 1:
        assert experiment._tasks(spec, 1) == [
            groups[i, rep] for rep in range(spec.replications)
            for i in range(len(instances))]


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_grids_have_no_tasks(workers):
    for empty in (replace(TINY, fop_periods=(), foq_quantities=()),
                  replace(TINY, alphas=()), replace(TINY, replications=0)):
        assert experiment._tasks(empty, workers) == []
        assert run_grid(empty, workers=workers) == []


def test_serial_progress_comes_before_the_next_cell(monkeypatch):
    events = []

    def recording_run_cell(cell, *args, **kwargs):
        events.append(("run", cell.index))
        return run_cell(cell, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_cell", recording_run_cell)
    run_grid(SHARED, base_seed=11, workers=1,
             progress=lambda done, total: events.append(("progress", done)))
    # groups run their cells with the replication fixed, replication by
    # replication: 0, 2, 4, 6, 8, ..., 14, 1, 3, ...
    order = [index for rep in (0, 1) for instance in (0, 8)
             for index in range(instance + rep, instance + 8, 2)]
    assert events == [event for done, index in enumerate(order, start=1)
                      for event in (("run", index), ("progress", done))]


@pytest.mark.parametrize("spec, workers", [(PRESETS["full"], 8),
                                           (GRID_CRN, 2)],
                         ids=["full", "grid-crn"])
def test_pool_tasks_pickle_small(monkeypatch, spec, workers):
    # what the pool sends per task is the same few hundred bytes whether a
    # group holds 1,920 cells (full) or is cut into parts of 10 (grid-crn)
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            for task in tasks:
                sizes.append(len(pickle.dumps((fn, task))))
                yield []

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    run_grid(spec, workers=workers)
    assert len(sizes) == len(experiment._tasks(spec, workers))
    assert max(sizes) < 1024


# One unbiased and one biased instance, plt 1 and 4, FOP 9 and FOQ 400,
# both modes, two replications: 64 short cells.
PINNED_GRID = GridSpec(name="pinned", utilizations=("medium",), alphas=(0.08,),
                       biased_schedules=("permanent_underbooking",),
                       sst_factors=(0.2, 1.0), plts=(1, 4), fop_periods=(9,),
                       foq_quantities=(400,), component_lots=(800,),
                       replications=2, run_length=80, warmup=10)
PINNED_SHA256 = "a91434c1db3656e74ca44ad92e3cce3e66f70d9d97c69f56182d02c4b875d485"


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_results_bytes_are_pinned(tmp_path, workers):
    assert PINNED_GRID.n_cells == 64
    path = tmp_path / "results.csv"
    write_results(run_grid(PINNED_GRID, base_seed=42, workers=workers),
                  str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256


# Three utilizations of one unbiased and one biased scenario, plt 1 and 4,
# FOP 9 and FOQ 400, both modes, two replications: 96 short cells, whose
# 12 groups read 4 tapes.
UTILIZATIONS_GRID = replace(
    PINNED_GRID, name="utilizations", utilizations=UTILIZATION_LEVELS,
    alphas=(0.06,), biased_schedules=("permanent_overbooking",),
    sst_factors=(0.2,), run_length=60)
UTILIZATIONS_SHA256 = (
    "c940dd5babf2a36d625373fcc7fd4a52eaab54ae024bcf3171ad09598a7241ea")


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_of_several_utilizations_bytes_are_pinned(tmp_path, workers):
    assert UTILIZATIONS_GRID.n_cells == 96
    path = tmp_path / "results.csv"
    write_results(run_grid(UTILIZATIONS_GRID, base_seed=42, workers=workers),
                  str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        UTILIZATIONS_SHA256


# One utilization, alphas 0.1 and 1.5 under all five schedules, the pinned
# grid's parameter sets, two replications: 320 short cells, whose 10
# scenarios replay one store of normals per replication, and at alpha 1.5
# read past the ones alpha 0.1 drew.
SCENARIOS_GRID = replace(PINNED_GRID, name="scenarios", alphas=(0.1, 1.5),
                         biased_schedules=BIASED_SCHEDULES, run_length=60)
SCENARIOS_SHA256 = (
    "3beeb8da37601c320118a8c584d509c0b151bd575cd6175560a98642c78d0226")


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_of_all_scenarios_bytes_are_pinned(tmp_path, workers):
    assert SCENARIOS_GRID.n_cells == 320
    path = tmp_path / "results.csv"
    write_results(run_grid(SCENARIOS_GRID, base_seed=42, workers=workers),
                  str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCENARIOS_SHA256


# FOP 2, 5, 6 and 9 at plt 1 and 8, sst 0.2 and 1.5, both modes, low and
# high utilization, one unbiased and one biased scenario, two replications:
# 256 short cells whose FOP windows reach past the last bucket where a new
# lot can start within the component lead time.
TAILS_GRID = GridSpec(name="tails", utilizations=("low", "high"),
                      alphas=(0.1,), biased_schedules=("permanent_underbooking",),
                      sst_factors=(0.2, 1.5), plts=(1, 8),
                      fop_periods=(2, 5, 6, 9), foq_quantities=(),
                      component_lots=(800,), replications=2, run_length=80,
                      warmup=10)
TAILS_SHA256 = (
    "f6bb10a8812de37f91139a31fbcf90dfcc2b454c1d6624bc8d1a500e772af9d3")


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_of_fop_tails_bytes_are_pinned(tmp_path, workers):
    assert TAILS_GRID.n_cells == 256
    path = tmp_path / "results.csv"
    write_results(run_grid(TAILS_GRID, base_seed=42, workers=workers),
                  str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TAILS_SHA256


# Two utilizations of one unbiased and one biased scenario, one sst-0
# parameter set, extended before standard, three replications: 24 cells in
# 12 groups.  At one worker the cells run as one stream, every group ends
# on a standard run that never diverges, and the next group starts with
# the same parameter set's extended cell, which is not its twin.
TWINS_GRID = GridSpec(name="twins", utilizations=("low", "high"),
                      alphas=(0.06,), biased_schedules=("permanent_underbooking",),
                      sst_factors=(0.0,), plts=(1,), fop_periods=(1,),
                      foq_quantities=(), component_lots=(800,),
                      modes=("extended", "standard"), replications=3,
                      run_length=60, warmup=10)
TWINS_SHA256 = (
    "6fba93fbde90bf756941829390afeec87fcbee4782e9248f1cdf476761fa4b1a")


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_of_twins_at_group_boundaries_bytes_are_pinned(tmp_path,
                                                            workers):
    assert TWINS_GRID.n_cells == 24
    path = tmp_path / "results.csv"
    write_results(run_grid(TWINS_GRID, base_seed=42, workers=workers),
                  str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TWINS_SHA256


def test_one_generator_per_replication_and_stream(monkeypatch):
    # at one worker the scenarios of a replication replay the normals its
    # first sampled scenario drew: each stream that draws is seeded once
    spec = replace(SCENARIOS_GRID, alphas=(0.0, 0.02, 0.12), sst_factors=(0.2,),
                   plts=(1,), modes=("standard",), run_length=40)
    seeded, real_stream_rng = [], driver.stream_rng

    def counting_stream_rng(*key):
        seeded.append(key)
        return real_stream_rng(*key)

    monkeypatch.setattr(driver, "stream_rng", counting_stream_rng)
    alone = set()
    for rep in range(spec.replications):
        for instance in spec.instances():
            driver.build_tape(experiment.make_config(
                alpha=instance.alpha, bias=instance.bias, replication=rep,
                run_length=spec.run_length, warmup=spec.warmup))
            alone.update(seeded)
            seeded.clear()
    assert {rep for _, rep, _, _ in alone} == {0, 1}
    run_grid(spec, base_seed=42, workers=1)
    assert len(seeded) == len(alone) and set(seeded) == alone


def test_utilizations_share_tapes_and_match_cells_run_alone():
    spec = UTILIZATIONS_GRID
    alone = [run_cell(c, 42, spec.run_length, spec.warmup)
             for c in enumerate_cells(spec)]
    # the utilizations tell the rows apart
    assert len({(row["overall_cost"], row["leadtime_mean"]) for row in alone
                if row["mode"] == "standard"}) == 48
    assert run_grid(spec, base_seed=42, workers=1) == alone
    assert run_grid(spec, base_seed=42, workers=2) == alone
    # at one replication the biased scenario's groups follow the unbiased
    # ones of the same alpha and replication, and must not take their tape
    assert run_grid(replace(spec, replications=1), base_seed=42,
                    workers=1) == alone[::2]


def test_one_tape_per_scenario_and_replication_on_one_store(monkeypatch):
    # serially one tape per (alpha, bias, replication), whatever the
    # utilization, replication by replication, on one store per
    # replication that holds one tape: the old tape is gone before the next
    # is built, and the store goes when the replication changes.  The test
    # holds each store by a weak reference and the last tape in `held`,
    # which must be the tape's only referrer once its successor's build is
    # under way: nothing of the program keeps it alive.
    built, stores, held, building = [], [], [], []
    real_build, real_advance = driver.build_tape, driver.advance

    def counting_build(config, normals):
        assert (normals.base_seed, normals.replication) == \
            (42, config.replication)
        # every store of an earlier replication is gone
        assert all(ref() in (None, normals) for ref in stores)
        building[:] = [True]
        tape = real_build(config, normals=normals)
        building.clear()
        if not held or held[-1] is not tape:
            # a new tape: is it on the store of the one before?
            built.append(((config.scenario.alpha, config.scenario.bias,
                           config.replication),
                          bool(stores) and stores[-1]() is normals))
            stores.append(weakref.ref(normals))
            held[:] = [tape]
        return tape

    def checked_advance(*args):
        if building and held:
            # a build is under way: the tape before it has no referrer but
            # the test's
            assert gc.get_referrers(held[-1]) == [held]
            building.clear()
        return real_advance(*args)

    monkeypatch.setattr(driver, "build_tape", counting_build)
    monkeypatch.setattr(driver, "advance", checked_advance)
    run_grid(UTILIZATIONS_GRID, base_seed=42, workers=1)
    assert [key for key, _ in built] == [
        (0.06, bias, rep) for rep in (0, 1)
        for bias in ("unbiased", "permanent_overbooking")]
    # one store per replication, shared by its two scenarios
    assert [shared for _, shared in built] == [False, True, False, True]


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


@pytest.mark.parametrize("workers", [0, -3])
def test_run_grid_rejects_worker_counts_below_one(monkeypatch, workers):
    real_pool, opened = experiment.ProcessPoolExecutor, []

    def counting_pool(max_workers):
        opened.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", counting_pool)
    with pytest.raises(ValueError, match="at least 1"):
        run_grid(TINY, workers=workers)
    assert opened == []
    run_grid(TINY, workers=2)
    assert opened == [2]


def test_one_task_grids_run_in_this_process(monkeypatch):
    # one instance, one replication, one twin pair: 2 cells in one task
    pair = replace(TINY, modes=("standard", "extended"), replications=1)
    expected = run_grid(pair, base_seed=7, workers=1)

    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} opened for one task")

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
    for workers in (2, 8):
        assert experiment._tasks(pair, workers) == [range(0, 2)]
        assert run_grid(pair, base_seed=7, workers=workers) == expected


def test_progress_callback():
    for workers in (1, 2):
        seen = []
        run_grid(TINY, workers=workers,
                 progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


def test_default_workers_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert experiment.default_workers() == 1


def test_default_workers_without_affinity_counts_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert experiment.default_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiment.default_workers() == 1


# ------------------------------------------------------------ result files

def test_write_read_roundtrip(tmp_path):
    rows = run_grid(replace(TINY, modes=("standard", "extended")), workers=1)
    path = tmp_path / "results.csv"
    write_results(rows, str(path))
    read = read_results(str(path))
    assert len(read) == len(rows) == 4
    assert best_per_instance(read) == best_per_instance(rows)
    # one string object per distinct value, across the rows of one read
    standard, extended = best_per_instance(read).values()
    for field_name in ("instance_id", "bias", "utilization", "policy"):
        assert getattr(standard, field_name) is getattr(extended, field_name)


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

    # the ranking key must be finite, whatever the row's place
    rows[1]["overall_cost"] = float("-inf")
    write_results(rows, str(path))
    with pytest.raises(ValueError,
                       match="line 3, column overall_cost: '-inf'"):
        read_results(str(path))


BLOCK_DEFECTS = {"bad int": ("plt", "1.5"), "bad float": ("wip_cost", "12x"),
                 "nan": ("overall_cost", "nan"), "inf": ("alpha", "-inf"),
                 "short row": (None, None)}


def results_text(lines: list[str]) -> str:
    return "\n".join([",".join(RESULT_COLUMNS), *lines]) + "\n"


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
@pytest.mark.parametrize("defect", sorted(BLOCK_DEFECTS))
def test_a_bad_line_is_named_at_either_end_of_a_later_block(tmp_path, defect,
                                                            last):
    """A file is parsed a block of lines at a time.  A fault on the first or
    the last line of the second block, after blank lines, is named by its
    line (blank lines count) and column, as it is anywhere else."""
    block = experiment._BLOCK_LINES
    good = [str(synthetic_rows()[0][c]) for c in RESULT_COLUMNS]
    lines = [",".join(good)] * (3 * block)
    for blank in (3, block - 2, block - 1, 2 * block - 3, 2 * block - 2):
        lines[blank] = ""
    at = 2 * block - 1 if last else block
    column, text = BLOCK_DEFECTS[defect]
    bad = list(good)
    if column is None:
        bad.pop()
        message = f"results line {at + 2}: expected 21 fields, got 20"
    else:
        bad[RESULT_COLUMNS.index(column)] = text
        message = f"results line {at + 2}, column {column}: '{text}'"
    lines[at] = ",".join(bad)
    path = tmp_path / "results.csv"
    path.write_text(results_text(lines))
    with pytest.raises(ValueError) as caught:
        read_results(str(path))
    assert str(caught.value) == message
    # mended, the file reads, and its blank lines are skipped
    lines[at] = ",".join(good)
    path.write_text(results_text(lines))
    assert len(read_results(str(path))) == 3 * block - 5


@pytest.mark.parametrize("full_block", [True, False],
                         ids=["full-block-then-blank", "header-then-blanks"])
def test_a_block_of_only_blank_lines_reads_as_no_rows(tmp_path, capsys,
                                                      full_block):
    """A block whose every line is blank adds no rows: a file of one full
    block and then a blank line, and a header with only blank lines after
    it, once raised IndexError, which `analyze` reported as a failed cell
    (exit 1)."""
    block = experiment._BLOCK_LINES
    lines = [""] * 3
    if full_block:
        # both modes of one parameter set over block / 2 replications
        rows = [{**synthetic_rows()[0], "mode": mode, "replication": rep}
                for mode in ("standard", "extended")
                for rep in range(block // 2)]
        lines[:0] = [",".join(str(row[c]) for c in RESULT_COLUMNS)
                     for row in rows]
    path = tmp_path / "results.csv"
    path.write_text(results_text(lines))
    assert len(read_results(str(path))) == (block if full_block else 0)
    assert cli.main(["analyze", "--in", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_a_block_names_its_first_bad_line(tmp_path):
    """Line 3 has a non-finite alpha and a bad seed, line 4 a bad alpha:
    line 3's parse fault is named, although its column comes later."""
    good = [str(synthetic_rows()[0][c]) for c in RESULT_COLUMNS]
    third, fourth = list(good), list(good)
    third[RESULT_COLUMNS.index("alpha")] = "nan"
    third[RESULT_COLUMNS.index("seed")] = "x"
    fourth[RESULT_COLUMNS.index("alpha")] = "y"
    path = tmp_path / "results.csv"
    path.write_text(results_text([",".join(r) for r in (good, third, fourth)]))
    with pytest.raises(ValueError,
                       match=r"^results line 3, column seed: 'x'$"):
        read_results(str(path))


@pytest.mark.parametrize("column, text", [
    ("instance_id", '"low-a0.06-b0-unbiased"'), ("alpha", '"0.06"'),
    ("policy", '"FOP"'), ("bias", '"unbiased,permanent"')])
def test_a_quoted_field_is_refused_by_line_and_column(tmp_path, capsys,
                                                      column, text):
    """`write_csv` never quotes, so a results file holds no `"`.  A CSV
    reader would unquote the field and read on; here the line and the column
    that hold the quote are named, and `analyze` exits 2.  A comma inside
    quotes ends the field like any other."""
    path = tmp_path / "results.csv"
    write_results(synthetic_rows(), str(path))
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[RESULT_COLUMNS.index(column)] = text
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    message = f"results line 3, column {column}: quoted {text.split(',')[0]!r}"
    with pytest.raises(ValueError) as caught:
        read_results(str(path))
    assert str(caught.value) == message
    assert cli.main(["analyze", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# floats whose `str` has an exponent, and a few plain ones
FLOAT_FORMS = (1e-05, 5e+20, 2.5e-08, 1e+16, 7e-300, 0.1, 0.0, 123.0)


def csv_reader_parse(path: str) -> ResultRows:
    """A results file read by `csv.reader`, as `read_results` once did: blank
    lines skipped, each field parsed by its column's type."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == RESULT_COLUMNS
    return ResultRows(
        dict(zip(RESULT_COLUMNS, (parse(text) for parse, text in
                                  zip(experiment._PARSERS, row))))
        for row in rows if row)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_results_equals_a_csv_reader_parse(data):
    """A file `write_results` wrote, with floats in exponent form, LF or CRLF
    line ends, blank lines anywhere (also on either side of the boundary
    between the first two blocks of lines) and with or without its final
    line end, reads to the rows `csv.reader` gives."""
    rng = data.draw(st.randoms(use_true_random=True), label="rng")
    n_sets = data.draw(st.integers(1, 4) | st.integers(86, 130),
                       label="parameter sets")
    replications = data.draw(st.integers(1, 3), label="replications")

    def value() -> float:
        return rng.choice((*FLOAT_FORMS, rng.uniform(0.0, 1e4)))

    alpha, ssts = value(), [value() for _ in range(n_sets)]
    rows = [{"instance_id": "low-a0.06-b0-unbiased", "alpha": alpha,
             "beta": 0, "bias": "unbiased", "utilization": "low",
             "mode": mode, "sst_factor": sst, "plt": 2, "policy": "FOQ",
             "policy_param": param, "comp_lot": 800, "replication": rep,
             "seed": 42, "overall_cost": value(), "wip_cost": value(),
             "fgi_cost": value(), "backorder_cost": value(),
             "service_level": value(), "n_final_orders": rng.randint(0, 900),
             "leadtime_mean": value(), "leadtime_sd": value()}
            for mode in ("standard", "extended")
            for param, sst in enumerate(ssts) for rep in range(replications)]
    if data.draw(st.booleans(), label="shuffled"):
        rng.shuffle(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.csv")
        write_results(rows, path)
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=4),
                            label="blank lines"):
            lines.insert(at, "")
        block = experiment._BLOCK_LINES
        for at in data.draw(st.lists(st.sampled_from(
                (block - 2, block - 1, block, block + 1)), max_size=3),
                label="blank lines at the block boundary"):
            lines.insert(at, "")
        end = data.draw(st.sampled_from(("\n", "\r\n")), label="line end")
        final = data.draw(st.booleans(), label="final line end")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(end.join([header, *lines]) + (end if final else ""))
        read, reference = read_results(path), csv_reader_parse(path)
    assert len(read) == len(reference) == len(rows)
    best, expected = best_per_instance(read), best_per_instance(reference)
    assert best == expected and list(best) == list(expected)


def text_forms(value) -> tuple[str, ...]:
    """Texts that a results column's parser reads as `value`: its `str`,
    and for a number a padded form ("0.2" as "0.20", "1e-05" as
    "1.0e-05", 2 as "02") and a signed one ("+2", and a float in 17
    significant digits)."""
    if isinstance(value, str):
        return (value,)
    if isinstance(value, int):
        return (str(value), f"+{value}", f"0{value}") if value >= 0 \
            else (str(value),)
    mantissa, _, exponent = repr(value).partition("e")
    padded = mantissa + ("0" if "." in mantissa else ".0")
    return (repr(value), padded + ("e" + exponent if exponent else ""),
            f"{value:+.16e}")


def parsed(line: str) -> dict:
    """A results line's values, each parsed by its column's parser."""
    return {column: parse(text) for column, parse, text in
            zip(RESULT_COLUMNS, experiment._PARSERS, line.split(","))}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pooled_read_equals_the_row_dicts(data):
    """Rows a grid writes, shuffled or split by replication (each set's
    rows far apart), with their numbers in other texts ("0.2" as "0.20",
    "1e-05" as "1.0e-05", a zero as "-0.0", 2 as "+2"), read through the
    per-column pools to the groups, instances and winners that
    `ResultRows` makes of the same rows as dicts: a pool hands each text
    its own value, also when it was first seen blocks before."""
    rng = data.draw(st.randoms(use_true_random=True), label="rng")
    rows = analysis_rows(seed=data.draw(st.integers(0, 3), label="seed"))
    for row in rows:
        row["service_level"] = rng.choice(
            (row["service_level"], 1e-05, 0.0, -0.0, 5e-324))
    order = data.draw(st.sampled_from(("written", "shuffled", "split")),
                      label="order")
    if order == "shuffled":
        rng.shuffle(rows)
    elif order == "split":
        rows.sort(key=lambda row: row["replication"])
    lines = [",".join(rng.choice(text_forms(row[column]))
                      for column in RESULT_COLUMNS) for row in rows]
    block = data.draw(st.sampled_from((7, 64, experiment._BLOCK_LINES)),
                      label="block lines")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(experiment, "_BLOCK_LINES", block):
        path = os.path.join(tmp, "results.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(results_text(lines))
        read = read_results(path)
    reference = ResultRows(map(parsed, lines))

    def groups(summary: ResultRows) -> list:
        return [(cell, parameters, values.tobytes())
                for cell, sets in summary._groups.items()
                for parameters, values in sets.items()]

    assert len(read) == len(reference) == len(rows)
    assert groups(read) == groups(reference)
    assert read._instances == reference._instances
    best, expected = best_per_instance(read), best_per_instance(reference)
    assert best == expected and list(best) == list(expected)
    # both now in replication order
    assert groups(read) == groups(reference)


@pytest.mark.parametrize("column, text", [
    ("plt", "x"), ("alpha", "nan"), ("sst_factor", "-inf")])
def test_a_bad_pooled_text_is_named_in_a_later_block(tmp_path, column, text):
    """A pooled column parses each distinct text once per read.  A bad text
    that first appears in the second block, after that column's good texts
    are pooled, is named by its line and column as before; mended, the
    file reads."""
    rows = [{**row, "replication": row["replication"] + 3 * turn}
            for turn in range(3) for row in analysis_rows()]
    lines = [",".join(str(row[c]) for c in RESULT_COLUMNS) for row in rows]
    block = experiment._BLOCK_LINES
    assert block < len(lines) < 2 * block
    at = block + 9
    fields = lines[at].split(",")
    good = fields[RESULT_COLUMNS.index(column)]
    fields[RESULT_COLUMNS.index(column)] = text
    assert good in {line.split(",")[RESULT_COLUMNS.index(column)]
                    for line in lines[:block]}
    path = tmp_path / "results.csv"
    path.write_text(results_text([*lines[:at], ",".join(fields),
                                  *lines[at + 1:]]))
    with pytest.raises(ValueError) as caught:
        read_results(str(path))
    assert str(caught.value) == \
        f"results line {at + 2}, column {column}: '{text}'"
    path.write_text(results_text(lines))
    assert len(read_results(str(path))) == len(rows)


@pytest.mark.parametrize("top", [2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1, 2 ** 64])
def test_replications_beyond_2_to_the_53_are_read_or_refused(top):
    """A group's array holds each replication as a float.  Replications up
    to 2**53 are exact there and read as written, and a message prints them
    as ints; one beyond, which its float would merge with a neighbour's, is
    refused, from a file or from row dicts."""
    neighbour = top - 1 if top > 0 else top + 1
    rows = [{**row, "replication": (neighbour, top)[row["replication"] % 2]}
            for row in synthetic_rows() if row["replication"] < 2]
    if abs(top) > 2 ** 53:
        message = (f"replication {top} is beyond 2**53, so its number "
                   f"cannot be kept exactly")
        for make in (ResultRows, read_back):
            with pytest.raises(ValueError) as caught:
                make(rows)
            assert str(caught.value) == message
        return
    for read in (ResultRows(rows), read_back(rows)):
        best = best_per_instance(read)
        key = ("low-a0.06-b0-unbiased", "standard")
        assert best[key].costs == (9548.0, 9550.0)
        assert {tuple(map(int, values[::experiment._STRIDE]))
                for sets in read._groups.values()
                for values in sets.values()} == {(neighbour, top)}
    rows[-1]["replication"] = neighbour
    with pytest.raises(ValueError) as caught:
        best_per_instance(read_back(rows))
    assert str(caught.value) == (
        f"replications differ or repeat across parameter sets: "
        f"[({neighbour}, {neighbour}), ({neighbour}, {top})]")


@pytest.mark.parametrize("at", ["same block", "later block"])
def test_an_instance_with_two_identities_is_refused(tmp_path, at):
    """Every row of an instance must repeat its utilization, alpha, beta
    and bias; once, the first row's were kept and the rest ignored, so a
    file whose last rows of an instance named another utilization and
    alpha was tabled under the first.  The fault is found in the block
    where it first shows, or against the identity kept from an earlier
    block."""
    rows = synthetic_rows()
    for row in rows[-2:]:
        row.update(utilization="high", alpha=0.1)
    block = len(rows) - 2 if at == "later block" else len(rows)
    with mock.patch.object(experiment, "_BLOCK_LINES", block):
        with pytest.raises(ValueError) as caught:
            read_back(rows)
    message = ("instance low-a0.06-b0-unbiased has rows of two identities "
               "(utilization, alpha, beta, bias): ('low', 0.06, 0, "
               "'unbiased') and ('high', 0.1, 0, 'unbiased')")
    assert str(caught.value) == message
    with pytest.raises(ValueError, match="two identities"):
        ResultRows(rows)


def test_manifest_contents(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(str(path), PRESETS["desk"], base_seed=42, workers=4,
                   wall_s=12.34)
    text = path.read_text()
    assert "wall time: 12.3 s (cells and results.csv)\n" in text
    assert "grid: desk" in text
    assert "cells: 2160" in text
    assert "base seed: 42" in text
    assert "worker count never affects results" in text
    assert f"usable CPUs: {default_workers()}\n" in text
    assert f"python: {platform.python_version()}\n" in text
    assert ("random numbers: one forecast tape per (seed, replication, "
            "forecast scenario)") in text
    assert ("standard normals are drawn once per (seed, replication) and "
            "shared by every forecast scenario") in text


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


@pytest.mark.parametrize("reversed_sst", [0.2, 0.4])
def test_a_cost_tie_holds_in_any_row_order(reversed_sst):
    """Both standard parameter sets cost 0.1, 0.2 and 0.3 in replications 0,
    1 and 2; one is read in that order, the other in reverse.  Summed in
    file order they would not tie (0.6000000000000001 against 0.6), so the
    larger sst could win; summed in replication order they tie, and the
    smaller sst wins with the replication-order mean."""
    rows = synthetic_rows()
    for row in rows:
        if row["mode"] == "standard":
            row["overall_cost"] = (0.1, 0.2, 0.3)[row["replication"]]
    later = [r for r in rows if r["mode"] == "standard"
             and r["sst_factor"] == reversed_sst]
    rows = [r for r in rows if r not in later] + later[::-1]
    for given_rows in (rows, read_back(rows)):
        best = best_per_instance(given_rows)[
            "low-a0.06-b0-unbiased", "standard"]
        assert best.sst_factor == 0.2
        assert best.costs == (0.1, 0.2, 0.3)
        assert best.mean_cost == (0.1 + 0.2 + 0.3) / 3


def test_best_per_instance_rejects_unbalanced_replications():
    rows = synthetic_rows()
    with pytest.raises(ValueError, match="replication"):
        best_per_instance(rows[:-1])


@pytest.mark.parametrize("defect", ["doubled", "shifted"])
def test_best_per_instance_rejects_repeated_or_differing_replications(defect):
    rows = synthetic_rows()
    if defect == "doubled":
        rows += synthetic_rows()
    else:
        rows[-1]["replication"] = 3     # extended sst 0.4 reads reps 0, 1, 3
    with pytest.raises(ValueError, match="replications differ or repeat"):
        best_per_instance(rows)


def counting_grouping(monkeypatch) -> list:
    """Count the calls of the grouping behind `best_per_instance`."""
    calls = []
    grouping = experiment._best_cells

    def counted(rows):
        calls.append(len(rows))
        return grouping(rows)

    monkeypatch.setattr(experiment, "_best_cells", counted)
    return calls


def test_an_analysis_pass_ranks_a_read_once(tmp_path, monkeypatch):
    """`compare_modes` and then every table, as `mrpsim analyze` and
    `mrpsim tables` do, group and rank one read of a file a single time."""
    from mrpsim.tables import TABLES

    path = tmp_path / "results.csv"
    write_results(synthetic_rows(), str(path))
    calls = counting_grouping(monkeypatch)
    rows = read_results(str(path))
    assert isinstance(rows, ResultRows)
    compare_modes(rows)
    for name in sorted(TABLES):
        TABLES[name](rows, False, False)
    assert calls == [12]
    # a second read of the same file is ranked afresh
    best_per_instance(read_results(str(path)))
    assert calls == [12, 12]


def test_best_per_instance_of_a_list_equals_that_of_its_read(tmp_path,
                                                             monkeypatch):
    rows = synthetic_rows()
    path = tmp_path / "results.csv"
    write_results(rows, str(path))
    read = read_results(str(path))
    calls = counting_grouping(monkeypatch)
    best = best_per_instance(read)
    assert best == best_per_instance(rows)
    assert list(best) == list(best_per_instance(rows))
    # a list is ranked on every call, a read once
    assert calls == [12, 12, 12]


def test_best_per_instance_hands_out_a_fresh_dict(tmp_path):
    path = tmp_path / "results.csv"
    write_results(synthetic_rows(), str(path))
    read = read_results(str(path))
    best = best_per_instance(read)
    expected = dict(best)
    key = ("low-a0.06-b0-unbiased", "standard")
    best.pop(key)
    best[("x", "standard")] = expected[key]
    assert best_per_instance(read) == expected
    assert best_per_instance(read) is not best_per_instance(read)
    # the cells are shared between calls, so they are frozen
    with pytest.raises(FrozenInstanceError):
        expected[key].mean_cost = 0.0


def test_an_unbalanced_read_is_refused_on_every_call(tmp_path):
    path = tmp_path / "results.csv"
    write_results(synthetic_rows()[:-1], str(path))
    read = read_results(str(path))
    for _ in range(3):
        with pytest.raises(ValueError, match="unbalanced replication counts"):
            best_per_instance(read)
    with pytest.raises(ValueError, match="unbalanced replication counts"):
        compare_modes(read)


def read_back(rows: list[dict]) -> ResultRows:
    """`rows` written to a results file and read again."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.csv")
        write_results(rows, path)
        return read_results(path)


def test_row_order_does_not_change_the_analysis():
    """A results file with its body reversed, or with its instances' rows
    interleaved, gives the same winners, comparisons and table bytes; the
    same file written twice is refused."""
    from mrpsim.tables import TABLES

    rows = analysis_rows()
    by_instance = [list(g) for _, g in
                   groupby(rows, key=lambda r: r["instance_id"])]
    interleaved = [row for turn in zip(*by_instance) for row in turn]
    assert len(by_instance) == 4 and len(interleaved) == len(rows)

    def analysis(ordered: list[dict]):
        read = read_back(ordered)
        return (best_per_instance(read),
                [compare_modes(read, paired) for paired in (False, True)],
                [TABLES[name](read, paired, csv) for name in sorted(TABLES)
                 for paired in (False, True) for csv in (False, True)])

    expected = analysis(rows)
    assert analysis(rows[::-1]) == expected
    assert analysis(interleaved) == expected
    with pytest.raises(ValueError, match="replications differ or repeat"):
        best_per_instance(read_back(rows + rows))


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


def cost_samples(scale: float, n: int, integers: bool):
    """n costs of magnitude `scale`: integer-valued from five levels (so ties
    are common), or continuous."""
    level = round(scale)
    value = (st.integers(0, 4).map(lambda k: float(level + k * (level // 8)))
             if integers else
             st.floats(0.5, 2.0).map(lambda u: u * scale))
    return st.lists(value, min_size=n, max_size=n)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_t_test_p_values_equal_scipy_stats(data):
    """`_test_costs` forms the t statistic and degrees of freedom in the same
    operations as scipy 1.17.1's `ttest_ind(equal_var=False)` and `ttest_rel`
    and takes the same `special.stdtr` tail, so its p-values equal theirs to
    the last bit.  One side may be constant while the other varies."""
    import warnings

    from scipy import stats

    n = data.draw(st.integers(2, 20), label="n")
    scale = data.draw(st.floats(1e2, 1e5), label="scale")
    integers = data.draw(st.booleans(), label="integers")
    a = data.draw(cost_samples(scale, n, integers), label="a")
    b = data.draw(cost_samples(scale, n, integers), label="b")
    if data.draw(st.booleans(), label="constant a"):
        a = [a[0]] * n
    assume(len(set(b)) > 1)   # so neither zero-variance branch is taken
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # precision loss
        welch = stats.ttest_ind(a, b, equal_var=False).pvalue
        assert experiment._test_costs(tuple(a), tuple(b), False) == welch
        if len({x - y for x, y in zip(a, b)}) > 1:
            paired = stats.ttest_rel(a, b).pvalue
            assert experiment._test_costs(tuple(a), tuple(b), True) == paired


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 20), data=st.data())
def test_t_test_zero_variance_branches(n, data):
    """Two constant samples, or paired samples whose differences are
    constant, have no t statistic: equal means give p = 1, unequal p = 0."""
    level = data.draw(st.integers(100, 100_000), label="level")
    shift = data.draw(st.integers(-50, 50), label="shift")
    constant, shifted = (float(level),) * n, (float(level + shift),) * n
    expected = 1.0 if shift == 0 else 0.0
    for paired in (False, True):
        assert experiment._test_costs(constant, shifted, paired) == expected
    a = tuple(data.draw(cost_samples(level, n, True), label="a"))
    assume(len(set(a)) > 1)
    b = tuple(x + shift for x in a)
    assert experiment._test_costs(a, b, True) == expected


# ------------------------------------------------------ pinned analysis bytes

def analysis_rows(seed: int = 2024) -> list[dict]:
    """Seeded rows shaped like a small study: four instances (two unbiased,
    two biased) x 8 parameter sets x both modes x 3 replications.  In
    (low-a0.02, standard) two parameter sets tie exactly for the lowest
    mean cost, so the tie-break decides the winner."""
    import random

    rng = random.Random(seed)
    instances = [Instance("low", 0.02), Instance("medium", 0.06),
                 Instance("low", 0.06, "permanent_overbooking"),
                 Instance("high", 0.02, "permanent_underbooking")]
    params = [(sst, plt, policy, value) for sst in (0.2, 0.6)
              for plt in (1, 3) for policy, value in (("FOP", 1), ("FOQ", 400))]
    rows = []
    for inst in instances:
        for mode in ("standard", "extended"):
            for sst, plt, policy, value in params:
                for rep in range(3):
                    wip = rng.uniform(4000.0, 9000.0)
                    fgi = rng.uniform(300.0, 6000.0)
                    backorder = rng.uniform(0.0, 4000.0) * rng.random()
                    rows.append({
                        "instance_id": inst.instance_id, "alpha": inst.alpha,
                        "beta": inst.beta, "bias": inst.bias,
                        "utilization": inst.utilization, "mode": mode,
                        "sst_factor": sst, "plt": plt, "policy": policy,
                        "policy_param": value, "comp_lot": 800,
                        "replication": rep, "seed": seed,
                        "overall_cost": wip + fgi + backorder,
                        "wip_cost": wip, "fgi_cost": fgi,
                        "backorder_cost": backorder,
                        "service_level": rng.uniform(0.8, 1.0),
                        "n_final_orders": rng.randint(600, 900),
                        "leadtime_mean": rng.uniform(1.0, 6.0),
                        "leadtime_sd": rng.uniform(0.1, 2.0),
                    })
    tied = [r for r in rows if r["instance_id"] == "low-a0.02-b0-unbiased"
            and r["mode"] == "standard"]
    for r in tied:
        if r["plt"] == 1 and r["policy"] == "FOP":
            r["overall_cost"] = 1000.0 + r["replication"]
    return rows


ANALYSIS_SHA256 = \
    "0ebe086230c500257d166abaf338b287a005801b1d350b6546f09460d73098ca"


def test_analysis_bytes_are_pinned():
    """`compare_modes` (Welch and paired) and every table renderer, text and
    CSV, render the same bytes as when this digest was pinned."""
    from mrpsim.tables import TABLES

    rows = analysis_rows()
    best = best_per_instance(rows)
    tied = best[("low-a0.02-b0-unbiased", "standard")]
    assert (tied.sst_factor, tied.mean_cost) == (0.2, 1001.0)
    digest = hashlib.sha256()
    for paired in (False, True):
        digest.update(repr(compare_modes(rows, paired=paired)).encode())
        for name in sorted(TABLES):
            for csv in (False, True):
                digest.update(TABLES[name](rows, paired, csv).encode())
    assert digest.hexdigest() == ANALYSIS_SHA256


def text_cells(table: str) -> list[list[str]]:
    """A text table's header and body rows, cut at the column widths of
    its rule line and stripped of their padding."""
    lines = table.splitlines()[2:]
    widths = [len(dashes) for dashes in lines[1].split("  ")]
    starts = [sum(widths[:i]) + 2 * i for i in range(len(widths))]
    return [[line[at:at + width].strip() for at, width in zip(starts, widths)]
            for line in lines[:1] + lines[2:]]


@pytest.mark.parametrize("modes, empty", [
    (("standard", "extended"), {"noise-high"}),
    (("standard",), {"best-extended", "mode-comparison", "noise-high",
                     "bias"})])
def test_csv_and_text_tables_say_the_same(modes, empty):
    """Every table's CSV variant has its text table's header and body rows,
    cell for cell, less the padding and the thousands separators that CSV
    drops (`mode-comparison`'s empty `sig` cell included).  A file of one
    mode leaves the tables of the other, and the comparison, empty."""
    from mrpsim.tables import TABLES

    rows = [r for r in analysis_rows() if r["mode"] in modes]
    bodiless = set()
    for name in sorted(TABLES):
        for paired in (False, True):
            text = text_cells(TABLES[name](rows, paired, False))
            csv = [line.split(",") for line in
                   TABLES[name](rows, paired, True).splitlines()]
            assert csv == [[cell.replace(",", "") for cell in row]
                           for row in text], (name, paired)
            if len(csv) == 1:
                bodiless.add(name)
    assert bodiless == empty


def _sum_as_python_3_12(iterable, start=0):
    """`sum()` as Python 3.12 adds: exact while the items are ints,
    compensated (Neumaier) once a float appears."""
    items = list(iterable)
    if all(isinstance(x, int) for x in (start, *items)):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in map(float, items):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


def test_result_bytes_do_not_depend_on_how_sum_adds(monkeypatch, tmp_path):
    """The pinned grid and analysis bytes hold when `sum()` compensates, as
    it does from Python 3.12."""
    from mrpsim import forecast, kpi

    for module in (kpi, experiment, forecast):
        monkeypatch.setattr(module, "sum", _sum_as_python_3_12, raising=False)
    path = tmp_path / "results.csv"
    write_results(run_grid(PINNED_GRID, base_seed=42, workers=1), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256
    test_analysis_bytes_are_pinned()


def parameter_set(row: dict) -> tuple:
    return tuple(row[c] for c in ("instance_id", "mode", "sst_factor", "plt",
                                  "policy", "policy_param", "comp_lot"))


def reference_best_per_instance(rows: list[dict]) -> dict:
    """`best_per_instance` as first written, but for the means, which it
    sums in replication order, and for its refusals, which name the counts
    or the first two distinct replication orders: every group fully
    aggregated, a `BestCell` built whenever a group beats the current
    best."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(parameter_set(row), []).append(row)
    counts = {len(g) for g in groups.values()}
    if len(counts) > 1:
        raise ValueError(f"unbalanced replication counts per parameter set: "
                         f"{sorted(counts)}")
    orders = {tuple(sorted(r["replication"] for r in g))
              for g in groups.values()}
    if len(orders) > 1 or any(len(set(o)) < len(o) for o in orders):
        listed = [tuple(map(int, o)) for o in sorted(orders)[:2]]
        raise ValueError(f"replications differ or repeat across parameter "
                         f"sets: {listed}")
    best: dict[tuple[str, str], BestCell] = {}
    order: dict[tuple[str, str], tuple] = {}
    for key, group in groups.items():
        instance_id, mode, sst, plt, policy, value, comp_lot = key
        n = len(group)
        by_replication = sorted(group, key=lambda r: r["replication"])
        agg = {k: float_sum(r[k] for r in by_replication) / n
               for k in ("overall_cost", "wip_cost", "fgi_cost",
                         "backorder_cost", "service_level", "leadtime_mean")}
        rank = (agg["overall_cost"], sst, plt, policy, value, comp_lot)
        bkey = (instance_id, mode)
        if bkey in best and order[bkey] <= rank:
            continue
        order[bkey] = rank
        first = group[0]
        best[bkey] = BestCell(
            instance_id=instance_id, utilization=first["utilization"],
            alpha=first["alpha"], beta=first["beta"], bias=first["bias"],
            mode=mode, sst_factor=sst, plt=plt, policy=policy,
            policy_param=value, comp_lot=comp_lot, replications=n,
            costs=tuple(r["overall_cost"] for r in by_replication),
            mean_cost=agg["overall_cost"], mean_wip=agg["wip_cost"],
            mean_fgi=agg["fgi_cost"], mean_backorder=agg["backorder_cost"],
            mean_service=agg["service_level"],
            mean_leadtime=agg["leadtime_mean"])
    return best


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_best_per_instance_matches_reference_on_shuffled_ties(data):
    """Costs drawn from a few values make exact and near ties common (0.1 +
    0.2 + 0.3 sums differently in another order); in any row order the
    winners, their fields and the key order equal the reference's, which
    ranks on costs summed in replication order."""
    values = st.sampled_from((0.1, 0.2, 0.3, 1.0, 2.0))
    rows = []
    for iid, util in (("low-a0-b0-unbiased", "low"),
                      ("high-a0-b1-permanent_overbooking", "high")):
        for mode in ("standard", "extended"):
            for sst in (0.0, 0.4):
                for policy, value in (("FOP", 1), ("FOQ", 800)):
                    for rep in range(3):
                        rows.append({
                            "instance_id": iid, "alpha": 0.0, "beta": 0,
                            "bias": "unbiased", "utilization": util,
                            "mode": mode, "sst_factor": sst, "plt": 1,
                            "policy": policy, "policy_param": value,
                            "comp_lot": 800, "replication": rep, "seed": 1,
                            "overall_cost": data.draw(values),
                            "wip_cost": data.draw(values),
                            "fgi_cost": 0.5, "backorder_cost": 0.0,
                            "service_level": data.draw(values),
                            "n_final_orders": 700, "leadtime_mean": 2.0,
                            "leadtime_sd": 0.5,
                        })
    rows = data.draw(st.permutations(rows))
    expected = reference_best_per_instance(rows)
    for given_rows in (rows, read_back(rows)):
        best = best_per_instance(given_rows)
        assert list(best) == list(expected)
        assert best == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_damaged_parameter_set_is_refused_as_the_reference_refuses(data):
    """One parameter set with a replication moved, a row doubled or a row
    dropped, sometimes the first set in file order, is refused with the
    reference's message, from the rows and from their read, on every
    call."""
    rows = data.draw(st.sampled_from((synthetic_rows, analysis_rows)))()
    sets = list(dict.fromkeys(map(parameter_set, rows)))
    damaged = sets[0] if data.draw(st.booleans(), label="first") \
        else data.draw(st.sampled_from(sets), label="set")
    at = data.draw(st.sampled_from(
        [i for i, row in enumerate(rows) if parameter_set(row) == damaged]))
    damage = data.draw(st.sampled_from(("moved", "doubled", "dropped")))
    if damage == "moved":
        rows[at] = {**rows[at], "replication": data.draw(
            st.integers(-1, 4).filter(lambda r: r != rows[at]["replication"]),
            label="replication")}
    elif damage == "doubled":
        rows.insert(at, dict(rows[at]))
    else:
        del rows[at]
    with pytest.raises(ValueError) as caught:
        reference_best_per_instance(rows)
    message = str(caught.value)
    for given_rows in (rows, read_back(rows)):
        for _ in range(2):
            with pytest.raises(ValueError) as caught:
                best_per_instance(given_rows)
            assert str(caught.value) == message


def test_ranking_holds_no_memory_per_parameter_set():
    """Ranking walks the parameter sets once and builds no list per set:
    what `best_per_instance` allocates at its peak on a summary of 10,000
    in-order sets stays under a bound that does not grow with the sets."""
    row = synthetic_rows()[0]
    read = ResultRows({**row, "policy_param": value, "replication": rep}
                      for value in range(10_000) for rep in range(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        best = best_per_instance(read)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert best[row["instance_id"], row["mode"]].policy_param == 0
    assert peak < 256 * 1024


def test_a_summary_shares_each_parameter_tuple(tmp_path):
    """A summary keeps one dict of parameter sets per (instance, mode), and
    each distinct parameter tuple is one object shared by all of them, from
    a file and from row dicts.  On a file of 2 instances x 2 modes x 960
    parameter sets x 2 replications, what `read_results` holds, by
    tracemalloc on Python 3.11.7, fell from 344 B per parameter set, when
    every set carried its own (instance, mode, parameters) key, to 278 B."""
    import random

    rng = random.Random(7)
    spec = GridSpec(name="shared", utilizations=("low",), alphas=(0.06,),
                    biased_schedules=("permanent_overbooking",),
                    replications=2)
    rows = [{"instance_id": cell.instance.instance_id,
             "alpha": cell.instance.alpha, "beta": cell.instance.beta,
             "bias": cell.instance.bias,
             "utilization": cell.instance.utilization, "mode": cell.mode,
             "sst_factor": cell.params.sst_factor, "plt": cell.params.plt,
             "policy": cell.params.policy,
             "policy_param": cell.params.policy_param,
             "comp_lot": cell.params.component_lot,
             "replication": cell.replication, "seed": 42,
             "overall_cost": rng.uniform(5000.0, 20000.0),
             "wip_cost": rng.uniform(4000.0, 9000.0),
             "fgi_cost": rng.uniform(300.0, 6000.0),
             "backorder_cost": rng.uniform(0.0, 4000.0),
             "service_level": rng.uniform(0.8, 1.0), "n_final_orders": 700,
             "leadtime_mean": rng.uniform(1.0, 6.0), "leadtime_sd": 0.5}
            for cell in enumerate_cells(spec)]
    path = str(tmp_path / "results.csv")
    write_results(rows, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read = read_results(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_sets = spec.n_instances * len(spec.modes) * spec.n_parameter_sets
    assert len(read) == len(rows) == 2 * n_sets
    for summary in (read, ResultRows(rows)):
        assert len(summary._groups) == 4
        shared = {}
        for sets in summary._groups.values():
            assert len(sets) == spec.n_parameter_sets
            for parameters in sets:
                assert shared.setdefault(parameters, parameters) is parameters
        assert len(shared) == spec.n_parameter_sets
    assert held / n_sets < 310
