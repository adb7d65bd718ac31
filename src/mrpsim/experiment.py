"""Factorial experiment harness: run configs, grids, parallel execution,
result files.

A test instance fixes the demand environment (utilization level, forecast
noise alpha and bias schedule; the bias switch beta is 1 exactly when the
schedule is not "unbiased"); the inner grid crosses the planning parameters
(safety stock factor, planned lead time, lot policy and parameter, component
lot size, netting mode) and the replications.  The full study is

    instances:  3 utilizations x 7 alphas x (1 unbiased + 4 biased) = 105
    parameters: 8 SST x 6 PLT x (5 FOP + 5 FOQ) x 2 component lots  = 960
    cells:      105 x 960 x 2 modes x 20 replications               = 4,032,000

Cells are independent runs: every cell derives its random numbers from
(base seed, replication, stream) alone and rows are reduced in enumeration
order, so neither execution order nor worker count changes a result.  What
the cells of a grid share, and the task order that lets them, is stated at
`_tasks`.  Desk-scale presets cover the same machinery in minutes.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Sequence
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from itertools import chain, islice, repeat
from operator import index as as_index, itemgetter

from . import __version__
from .forecast import (BIASED_SCHEDULES, ScenarioParams, StreamNormals,
                       forecast_terms)
from .config import RUN_LENGTH, UTILIZATION_LEVELS, WARMUP, build_system
from .driver import RunConfig, SimulationRun
from .kpi import check_window, float_sum
from .mrp import (COMPONENT_LOTS, FOP_PERIODS, FOQ_QUANTITIES, MODES,
                  PLT_VALUES, SST_FACTORS, PlanningParams)

RESULT_COLUMNS = ("instance_id", "alpha", "beta", "bias", "utilization",
                  "mode", "sst_factor", "plt", "policy", "policy_param",
                  "comp_lot", "replication", "seed", "overall_cost",
                  "wip_cost", "fgi_cost", "backorder_cost", "service_level",
                  "n_final_orders", "leadtime_mean", "leadtime_sd")
_INT_COLUMNS = {"beta", "plt", "policy_param", "comp_lot", "replication",
                "seed", "n_final_orders"}
_STR_COLUMNS = {"instance_id", "bias", "utilization", "mode", "policy"}

FULL_ALPHAS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12)


@dataclass(frozen=True)
class Instance:
    """One demand environment; `ScenarioParams` checks its alpha and bias."""

    utilization: str
    alpha: float
    bias: str = "unbiased"

    def __post_init__(self) -> None:
        ScenarioParams(self.alpha, self.bias)

    @property
    def beta(self) -> int:
        return int(self.bias != "unbiased")

    @property
    def instance_id(self) -> str:
        return f"{self.utilization}-a{self.alpha:g}-b{self.beta}-{self.bias}"


def make_config(utilization: str = "low", alpha: float = 0.0,
                bias: str = "unbiased", params: PlanningParams | None = None,
                base_seed: int = 42, replication: int = 0,
                run_length: int = RUN_LENGTH, warmup: int = WARMUP,
                overrides: dict | None = None,
                debug_checks: bool = False, trace: bool = False) -> RunConfig:
    """The one constructor of `RunConfig`, for grid cells and the CLI alike;
    `bias` names the forecast scenario's schedule in `forecast.SCHEDULES`."""
    if replication < 0:
        raise ValueError(f"replication must be at least 0, got {replication}")
    system = build_system(utilization, overrides)
    scenario = ScenarioParams(alpha=alpha, bias=bias)
    forecast_terms(scenario, system.demand.expected_amount)   # refuses overflow
    if params is None:
        params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP",
                                policy_param=1)
    return RunConfig(system=system, scenario=scenario, params=params,
                     base_seed=base_seed, replication=replication,
                     run_length=run_length, warmup=warmup,
                     debug_checks=debug_checks, trace=trace)


@dataclass(frozen=True)
class GridSpec:
    """Enumerable description of one experiment."""

    name: str
    utilizations: tuple[str, ...] = ("low",)
    alphas: tuple[float, ...] = FULL_ALPHAS
    include_unbiased: bool = True
    biased_schedules: tuple[str, ...] = ()
    sst_factors: tuple[float, ...] = SST_FACTORS
    plts: tuple[int, ...] = PLT_VALUES
    fop_periods: tuple[int, ...] = FOP_PERIODS
    foq_quantities: tuple[int, ...] = FOQ_QUANTITIES
    component_lots: tuple[int, ...] = COMPONENT_LOTS
    modes: tuple[str, ...] = MODES
    replications: int = 20
    run_length: int = RUN_LENGTH
    warmup: int = WARMUP

    def __post_init__(self) -> None:
        if self.replications < 0:
            raise ValueError(f"replications must be at least 0, got "
                             f"{self.replications}")
        for name, allowed in (
                ("utilizations", UTILIZATION_LEVELS), ("plts", PLT_VALUES),
                ("biased_schedules", BIASED_SCHEDULES), ("modes", MODES),
                ("sst_factors", SST_FACTORS), ("fop_periods", FOP_PERIODS),
                ("foq_quantities", FOQ_QUANTITIES),
                ("component_lots", COMPONENT_LOTS)):
            for value in getattr(self, name):
                if value not in allowed:
                    raise ValueError(f"{name} must be in {allowed}, "
                                     f"got {value!r}")
        for alpha in self.alphas:   # at the default plant, once per alpha
            make_config(alpha=alpha)
        named = {f.name: getattr(self, f.name) for f in fields(self)}
        # alphas alike under :g share an instance id
        named["instance_id"] = tuple(i.instance_id for i in self.instances())
        for name, values in named.items():
            if isinstance(values, tuple):
                for i, value in enumerate(values):
                    if value in values[:i]:
                        raise ValueError(f"{name} repeats {value!r}")
        check_window(self.run_length, self.warmup)

    def instances(self) -> list[Instance]:
        out = []
        if self.include_unbiased:
            for util in self.utilizations:
                for alpha in self.alphas:
                    out.append(Instance(util, alpha))
        for util in self.utilizations:
            for alpha in self.alphas:
                for bias in self.biased_schedules:
                    out.append(Instance(util, alpha, bias))
        return out

    def parameter_sets(self) -> list[PlanningParams]:
        out = []
        for sst in self.sst_factors:
            for plt in self.plts:
                for policy, values in (("FOP", self.fop_periods),
                                       ("FOQ", self.foq_quantities)):
                    for value in values:
                        for comp_lot in self.component_lots:
                            out.append(PlanningParams(sst, plt, policy, value,
                                                      comp_lot))
        return out

    @property
    def n_parameter_sets(self) -> int:
        return len(self.parameter_sets())

    @property
    def instance_counts(self) -> tuple[int, int]:
        """(unbiased, biased) instance counts."""
        biased = sum(i.beta for i in self.instances())
        return self.n_instances - biased, biased

    @property
    def n_instances(self) -> int:
        return len(self.instances())

    @property
    def n_cells(self) -> int:
        return (self.n_instances * self.n_parameter_sets * len(self.modes)
                * self.replications)


# directional desk study: heuristic vs standard netting, unbiased demand
_DESK = GridSpec(name="desk", alphas=(0.02, 0.06, 0.10),
                 sst_factors=(0.2, 0.4, 0.6, 1.5), plts=(1, 3, 4),
                 fop_periods=(1,), foq_quantities=(200, 400),
                 component_lots=(800,), replications=10)

PRESETS: dict[str, GridSpec] = {
    "full": GridSpec(name="full", utilizations=("low", "medium", "high"),
                     biased_schedules=BIASED_SCHEDULES),
    "desk": _DESK,
    # deterministic-demand anchor: FOP 1 vs FOQ 800 must coincide
    "null-anchor": GridSpec(name="null-anchor", alphas=(0.0,),
                            sst_factors=(0.0, 0.2, 0.4), plts=(1, 2, 3),
                            fop_periods=(1,), foq_quantities=(800,),
                            component_lots=(800,), modes=("standard",),
                            replications=20),
    # permanent forecast bias on the desk's grid, extended netting only
    "bias": replace(_DESK, name="bias", alphas=(0.06,), modes=("extended",),
                    include_unbiased=False, biased_schedules=(
                        "permanent_overbooking", "permanent_underbooking")),
}


@dataclass(frozen=True)
class Cell:
    index: int
    instance: Instance
    params: PlanningParams     # carries the netting mode
    replication: int

    @property
    def mode(self) -> str:
        return self.params.mode


class CellView(Sequence):
    """A grid's cells in enumeration order: instance, then (parameter set,
    mode), then replication.  It holds only the instances, the settings and
    the replication count, and builds a `Cell` when one is asked for by
    index (`_tasks` hands out ranges of these indices)."""

    def __init__(self, spec: GridSpec) -> None:
        self.instances = tuple(spec.instances())
        self.settings = tuple(replace(params, mode=mode)
                              for params in spec.parameter_sets()
                              for mode in spec.modes)
        self.replications = spec.replications

    def __len__(self) -> int:
        return len(self.instances) * len(self.settings) * self.replications

    def __getitem__(self, index: int) -> Cell:
        # IndexError past either end; TypeError for a slice, whose list of
        # cells would undo the view's laziness
        index = range(len(self))[as_index(index)]
        instance, rest = divmod(index, len(self.settings) * self.replications)
        setting, rep = divmod(rest, self.replications)
        return Cell(index, self.instances[instance], self.settings[setting],
                    rep)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def enumerate_cells(spec: GridSpec) -> CellView:
    """The grid's cells in enumeration order, as a view that builds each
    `Cell` on demand, so it holds no cells whatever the grid's size."""
    return CellView(spec)


def run_cell(cell: Cell, base_seed: int, run_length: int, warmup: int,
             overrides: dict | None = None, twin: list | None = None,
             normals: StreamNormals | None = None) -> dict:
    """Execute one cell on `normals`, the store of its replication, and
    flatten its KPIs into a result row.  `twin` is a one-entry list handed
    from cell to cell: a standard run that never parted from its twin
    leaves the twin's (instance, replication, parameter set) and its row
    there, and the next cell, if it is that twin, takes the row with its
    own mode instead of simulating.  Every call empties it."""
    if twin:
        key, row = twin.pop()
        if key == (cell.instance, cell.replication, cell.params):
            return dict(row, mode=cell.mode)
    inst = cell.instance
    config = make_config(utilization=inst.utilization, alpha=inst.alpha,
                         bias=inst.bias, params=cell.params,
                         base_seed=base_seed, replication=cell.replication,
                         run_length=run_length, warmup=warmup,
                         overrides=overrides)
    run = SimulationRun(config, normals=normals)
    summary = run.run()
    row = {
        "instance_id": inst.instance_id, "alpha": inst.alpha,
        "beta": inst.beta, "bias": inst.bias,
        "utilization": inst.utilization, "mode": cell.mode,
        "sst_factor": cell.params.sst_factor, "plt": cell.params.plt,
        "policy": cell.params.policy,
        "policy_param": cell.params.policy_param,
        "comp_lot": cell.params.component_lot,
        "replication": cell.replication, "seed": base_seed,
        "overall_cost": summary.overall_cost, "wip_cost": summary.wip_cost,
        "fgi_cost": summary.fgi_cost,
        "backorder_cost": summary.backorder_cost,
        "service_level": summary.service_level,
        "n_final_orders": summary.n_final_orders,
        "leadtime_mean": summary.leadtime_mean,
        "leadtime_sd": summary.leadtime_sd,
    }
    if (twin is not None and cell.mode == "standard"
            and run.divergence_period is None):
        twin.append(((inst, cell.replication,
                      replace(cell.params, mode="extended")), row))
    return row


def _describe(cell: Cell) -> str:
    return (f"cell {cell.index} ({cell.instance.instance_id} "
            f"{cell.params.label()} rep {cell.replication})")


def _tasks(spec: GridSpec, workers: int) -> list[range]:
    """The grid's work as tasks, each the `range` of its cells' enumeration
    indices: with S settings (parameter sets x modes) and R replications,
    settings [a, b) of instance i at replication r are
    `range((i*S + a)*R + r, (i*S + b)*R, R)`.  No cells, no tasks.

    The cells of one (seed, replication) share one `StreamNormals` store,
    whose forecast normals every scenario's tape replays and whose shop
    normals every cell's setups read; the cells of one forecast scenario
    share its tape whatever their utilization, which sets only setup times;
    and an extended cell whose standard twin ran just before it and never
    parted takes the twin's row (`run_cell`).  So tasks run by replication,
    then forecast scenario (alpha, bias), then the scenario's instances,
    and a group runs each parameter set's modes back to back.  At one
    worker each task is a whole (instance, replication) group.  At several,
    a grid of fewer than 4 * `workers` groups has each group cut into up to
    ceil(4 * workers / groups) parts with a store of their own, each a
    multiple of the mode count long, so no cut separates twins.  Sharing
    moves no byte (test_run_grid_shared_tapes_match_cells_run_alone)."""
    n_modes, reps = len(spec.modes), spec.replications
    settings, groups = spec.n_parameter_sets * n_modes, spec.n_instances * reps
    if not groups * settings:
        return []
    parts = -(-4 * workers // groups) if workers > 1 else 1
    size = -(-settings // parts)
    size = -(-size // n_modes) * n_modes
    scenarios: dict[tuple, list[int]] = {}
    for i, instance in enumerate(spec.instances()):
        scenarios.setdefault((instance.alpha, instance.bias), []).append(i)
    return [range((i * settings + a) * reps + rep,
                  (i * settings + min(a + size, settings)) * reps, reps)
            for rep in range(reps) for same in scenarios.values()
            for i in same for a in range(0, settings, size)]


def _run_task(spec: GridSpec, base_seed: int, overrides: dict | None, indices):
    """Run the cells of `indices`, one `_tasks` range or a chain of them,
    sharing as `_tasks` states; yield (index, row, error) per cell."""
    cells, twin, normals = enumerate_cells(spec), [], None
    for cell in map(cells.__getitem__, indices):
        if normals is None or normals.replication != cell.replication:
            normals = StreamNormals(base_seed, cell.replication)
        try:
            row, error = run_cell(cell, base_seed, spec.run_length,
                                  spec.warmup, overrides, twin, normals), None
        except Exception as exc:
            row, error = None, f"{_describe(cell)}: {exc}"
        yield cell.index, row, error


def _pool_task(*args) -> list:
    """`_run_task` for a worker process, as a list."""
    return list(_run_task(*args))


class ExperimentError(RuntimeError):
    pass


def default_workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(spec: GridSpec, base_seed: int = 42, workers: int | None = None,
             overrides: dict | None = None, progress=None) -> list[dict]:
    """Run every cell of the grid; rows come back in enumeration order.
    At one worker, or for a grid of at most one task, the tasks of `_tasks`
    run in this process as one `_run_task` stream; otherwise they go to a
    pool as index ranges the worker expands, so the parent never builds the
    grid's cells.  `progress(done, total)` is called once per finished
    cell.  `workers` defaults to one per usable CPU."""
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = enumerate_cells(spec)
    tasks = _tasks(spec, workers)
    results: list = [None] * len(cells)
    errors: dict[int, str] = {}
    done = 0

    def _collect(outcomes) -> None:
        nonlocal done
        for index, row, error in outcomes:
            if error is not None:
                errors[index] = error
            else:
                results[index] = row
            done += 1
            if progress is not None:
                progress(done, len(cells))

    if workers == 1 or len(tasks) <= 1:
        _collect(_run_task(spec, base_seed, overrides,
                           chain.from_iterable(tasks)))
    else:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for outcomes in pool.map(
                        partial(_pool_task, spec, base_seed, overrides), tasks):
                    _collect(outcomes)
        except BrokenProcessPool as exc:
            lost = [i for i, row in enumerate(results)
                    if row is None and i not in errors]
            listed = "\n  ".join(_describe(cells[i]) for i in lost[:10])
            raise ExperimentError(f"{len(lost)} of {len(cells)} cells were not collected, "
                                  f"a worker process died ({exc}):\n  {listed}") from exc

    if errors:
        listed = "\n  ".join(errors[i] for i in sorted(errors)[:10])
        raise ExperimentError(f"{len(errors)} of {len(cells)} cells failed:\n"
                              f"  {listed}")
    return results


# -- result files -------------------------------------------------------------

_ROW_VALUES = itemgetter(*RESULT_COLUMNS)
_PARSERS = tuple(str if c in _STR_COLUMNS else int if c in _INT_COLUMNS
                 else float for c in RESULT_COLUMNS)
_FLOAT_AT = tuple(i for i, parse in enumerate(_PARSERS) if parse is float)
# the columns whose few distinct texts `read_results` parses once each
_POOLED = _STR_COLUMNS | {"alpha", "beta", "sst_factor", "plt",
                          "policy_param", "comp_lot", "replication", "seed"}
_UNPOOLED_AT = tuple(i for i in _FLOAT_AT
                     if RESULT_COLUMNS[i] not in _POOLED)
# a summary's groups are keyed by (instance, mode), then by parameters
_CELL_AT = tuple(map(RESULT_COLUMNS.index, ("instance_id", "mode")))
_PARAMETERS_AT = tuple(map(RESULT_COLUMNS.index, (
    "sst_factor", "plt", "policy", "policy_param", "comp_lot")))
# an instance's id, then its identity fields in `BestCell`'s order
_INSTANCE_AT = tuple(map(RESULT_COLUMNS.index, (
    "instance_id", "utilization", "alpha", "beta", "bias")))
_REPLICATION_AT = RESULT_COLUMNS.index("replication")
# the values a winner averages, in `BestCell`'s order, cost first
_AVERAGED_AT = tuple(map(RESULT_COLUMNS.index, (
    "overall_cost", "wip_cost", "fgi_cost", "backorder_cost",
    "service_level", "leadtime_mean")))
# a group's array holds per row its replication, then the averaged values
_STRIDE = 1 + len(_AVERAGED_AT)
_BLOCK_LINES = 512


def write_csv(path: str, header: tuple, rows) -> None:
    """Write `header` and then each row, a sequence of values, as one line
    of `str` values joined by commas.  Nothing is quoted: no value written
    by mrpsim holds a comma.  `str` of a float is its shortest round-trip
    form, so floats read back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_results(rows: list[dict], path: str) -> None:
    """Write a results CSV: the `RESULT_COLUMNS` header, then one line per
    row in the order given."""
    write_csv(path, RESULT_COLUMNS, map(_ROW_VALUES, rows))


class ResultRows:
    """The summary of some result rows that `best_per_instance` ranks: per
    (instance, mode), a dict from each parameter set (sst, plt, policy,
    value, comp lot) to one `array('d')` of `_STRIDE` values per row, its
    replication number, then the six values a winner averages (cost, wip,
    fgi, backorder, service, lead time); per instance, the identity fields
    (utilization, alpha, beta, bias) all its rows must repeat.  Equal
    parameter tuples are one object, shared by every (instance, mode)
    through `_parameters`.  `len()` is the number of rows.  Rows from
    dicts and from `read_results` alike go through `_add`.

    Ranking runs once, on first use, and is kept for every table drawn
    from the summary.  Every parameter set must carry the same distinct
    replication numbers, else the file is broken or doubled and refused.
    A rank is (mean cost, parameters), so an exact cost tie goes to the
    smaller parameters.  Every mean is summed left to right in replication
    order, so a reordered file ranks, ties and averages exactly as the
    file `run_grid` wrote (test_row_order_does_not_change_the_analysis)."""

    def __init__(self, rows=()) -> None:
        self._groups: dict[tuple[str, str], dict[tuple, array]] = {}
        self._parameters: dict[tuple, tuple] = {}
        self._instances: dict[str, tuple] = {}
        self._add(list(zip(*map(_ROW_VALUES, rows))))

    def __len__(self) -> int:
        return sum(map(len, _arrays(self._groups))) // _STRIDE

    def _add(self, columns: list) -> None:
        """Reduce rows given as columns, one per `RESULT_COLUMNS` entry; no
        columns, no rows.  Refuses (`ValueError`) a replication beyond
        2**53, which its float would round onto a neighbour's, and an
        instance whose rows name two identities."""
        if not columns:
            return
        reps = columns[_REPLICATION_AT]
        rep = max(reps, key=abs)
        if abs(rep) > 2 ** 53:
            raise ValueError(f"replication {rep} is beyond 2**53, so its "
                             f"number cannot be kept exactly")
        instances = self._instances
        for instance in dict.fromkeys(
                zip(*map(columns.__getitem__, _INSTANCE_AT))):
            known = instances.setdefault(instance[0], instance[1:])
            if known != instance[1:]:
                raise ValueError(f"instance {instance[0]} has rows of two "
                                 f"identities (utilization, alpha, beta, "
                                 f"bias): {known} and {instance[1:]}")
        groups, shared = self._groups, self._parameters
        for cell, parameters, values in zip(
                zip(*map(columns.__getitem__, _CELL_AT)),
                zip(*map(columns.__getitem__, _PARAMETERS_AT)),
                zip(reps, *map(columns.__getitem__, _AVERAGED_AT))):
            sets = groups.get(cell)
            if sets is None:
                sets = groups[cell] = {}
            group = sets.get(parameters)
            if group is None:
                parameters = shared.setdefault(parameters, parameters)
                group = sets[parameters] = array("d")
            group.extend(values)

    @cached_property
    def _winners(self) -> dict[tuple[str, str], BestCell]:
        return _best_cells(self)


def _check_row(line: str, lineno: int) -> None:
    """Raise the `ValueError` that names a results line's first fault, by
    line and column, if it has one."""
    row = line.removesuffix("\n").split(",")
    for column, text in zip(RESULT_COLUMNS, row):
        if '"' in text:
            raise ValueError(f"results line {lineno}, column {column}: "
                             f"quoted {text!r}")
    if len(row) != len(RESULT_COLUMNS):
        raise ValueError(f"results line {lineno}: expected "
                         f"{len(RESULT_COLUMNS)} fields, got {len(row)}")
    values = []
    for column, parse, text in zip(RESULT_COLUMNS, _PARSERS, row):
        try:
            values.append(parse(text))
        except ValueError as exc:
            raise ValueError(f"results line {lineno}, column {column}: "
                             f"{text!r}") from exc
    for i in _FLOAT_AT:
        if not math.isfinite(values[i]):
            raise ValueError(f"results line {lineno}, column "
                             f"{RESULT_COLUMNS[i]}: {row[i]!r}")


class _Pool(dict):
    """The distinct texts of one column and their values.  A miss parses
    the text and, for a float column, checks that it is finite; it raises
    `ValueError` on a text that fails either, and keeps no value for it."""

    def __init__(self, parse) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str):
        value = self.parse(text)
        if self.parse is float and not math.isfinite(value):
            raise ValueError(f"{text!r} is not finite")
        self[text] = value
        return value


def _parse_block(block: list[str], first_line: int,
                 parsers: list) -> list[list]:
    """The non-blank lines of a block as parsed columns, one list per
    `RESULT_COLUMNS` entry, or none if every line is blank: the lines are
    joined and split on commas once, and each column is one `map` of its
    parser.  If any of it fails, the block is checked line by line, so the
    error names the first bad line and column."""
    lines = [line for line in block if line != "\n"]
    if not lines:
        return []
    width = len(RESULT_COLUMNS)
    try:
        text = "".join(lines)
        if set(map(str.count, lines, repeat(","))) != {width - 1} \
                or '"' in text:
            raise ValueError("a line has the wrong fields")
        fields = text.removesuffix("\n").replace("\n", ",").split(",")
        columns = [list(map(parse, fields[i::width]))
                   for i, parse in enumerate(parsers)]
        if not all(all(map(math.isfinite, columns[i])) for i in _UNPOOLED_AT):
            raise ValueError("a float is not finite")
    except ValueError:
        for lineno, line in enumerate(block, start=first_line):
            if line != "\n":
                _check_row(line, lineno)
        raise
    return columns


def read_results(path: str) -> ResultRows:
    """Read a results CSV straight into a `ResultRows` summary, a block of
    lines at a time, so no row is kept whole.  Lines may end in LF or CRLF;
    blank lines are skipped but counted in the line numbers of errors.  A
    field is whatever lies between two commas, which is what `write_csv`
    writes, so a quoted field, which a CSV reader would unquote, is
    refused.  Every float must be finite: a nan cost would make the winner
    depend on row order, and a nan alpha would label its instance "a=nan".
    The columns of a parameter set, an instance, the replication and the
    seed repeat a few texts, so each reads through a `_Pool` that lives for
    this call: each distinct text is parsed and checked once, and a string
    column's equal values are one object.  A bad line is refused by a
    `ValueError` that names its line and column."""
    parsers = [_Pool(parse).__getitem__ if column in _POOLED else parse
               for column, parse in zip(RESULT_COLUMNS, _PARSERS)]
    summary = ResultRows()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().removesuffix("\n")
        if tuple(header.split(",")) != RESULT_COLUMNS:
            raise ValueError(f"results file {path} has unexpected header")
        lineno = 2
        while block := list(islice(fh, _BLOCK_LINES)):
            summary._add(_parse_block(block, lineno, parsers))
            lineno += len(block)
    return summary


def write_manifest(path: str, spec: GridSpec, base_seed: int, workers: int,
                   wall_s: float, overrides_path: str | None = None) -> None:
    import platform

    lines = [
        f"mrpsim {__version__}",
        f"grid: {spec.name}",
        f"instances: {spec.n_instances}",
        f"parameter sets per instance: {spec.n_parameter_sets}",
        f"modes: {','.join(spec.modes)}",
        f"replications: {spec.replications}",
        f"cells: {spec.n_cells}",
        f"periods: {spec.run_length} (warmup {spec.warmup})",
        f"base seed: {base_seed}",
        f"workers: {workers} (worker count never affects results)",
        f"usable CPUs: {default_workers()}",
        f"wall time: {wall_s:.1f} s (cells and results.csv)",
        f"python: {platform.python_version()}",
        "random numbers: one forecast tape per (seed, replication, forecast "
        "scenario), built from demand substreams keyed by (seed, replication, "
        "product, due date) and shared by every utilization, parameter set "
        "and mode; the substreams' standard normals are drawn once per (seed, "
        "replication) and shared by every forecast scenario; twins share "
        "runs: an extended cell whose standard twin never met a bucket that "
        "extended netting nets differently reuses that twin's run",
        f"config overrides: {overrides_path or 'none'}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- aggregation ---------------------------------------------------------------

@dataclass(frozen=True)
class BestCell:
    """Cost-minimal parameter set of one (instance, mode), averaged over
    replications.  Frozen: the cells of one `ResultRows` are shared by
    every table drawn from it."""

    instance_id: str
    utilization: str
    alpha: float
    beta: int
    bias: str
    mode: str
    sst_factor: float
    plt: int
    policy: str
    policy_param: int
    comp_lot: int
    replications: int
    costs: tuple[float, ...]
    mean_cost: float
    mean_wip: float
    mean_fgi: float
    mean_backorder: float
    mean_service: float
    mean_leadtime: float

    @property
    def policy_label(self) -> str:
        return f"{self.policy} {self.policy_param}"


def best_per_instance(rows) -> dict[tuple[str, str], BestCell]:
    """Pick the cheapest parameter set per (instance, mode), ranked as
    `ResultRows` states.  `rows` is a `ResultRows`, ranked once and kept,
    or row dicts such as `run_grid`'s, reduced and ranked on every call.
    Each call returns a fresh dict."""
    if not isinstance(rows, ResultRows):
        rows = ResultRows(rows)
    return dict(rows._winners)


def _best_cells(rows: ResultRows) -> dict[tuple[str, str], BestCell]:
    """The checks and ranking that `ResultRows` states, in one walk over
    each (instance, mode)'s parameter sets that builds no list per set and
    ends on that (instance, mode)'s `BestCell`.  The first group's
    replications, sorted, are the reference, which may not repeat one; a
    group whose replications read otherwise is put into replication order
    here and nowhere else, and must then read as the reference.  A column
    of a group is `values[i::_STRIDE]`, the replications column 0."""
    groups = rows._groups
    counts = set(map(len, _arrays(groups)))
    if len(counts) > 1:
        raise ValueError(f"unbalanced replication counts per parameter set: "
                         f"{sorted(c // _STRIDE for c in counts)}")
    in_order = sorted(next(_arrays(groups), array("d"))[::_STRIDE])
    n, ordered = len(in_order), array("d", in_order).tobytes()
    if len(set(in_order)) < n:
        raise _differing(groups)

    cells = {}
    for (instance_id, mode), sets in groups.items():
        # a rank is (mean cost, parameters), so the parameters break a tie
        best = None
        for parameters, values in sets.items():
            if values[::_STRIDE].tobytes() != ordered:
                at = sorted(range(0, len(values), _STRIDE),
                            key=values.__getitem__)
                if [values[i] for i in at] != in_order:
                    raise _differing(groups)
                values = sets[parameters] = array("d", chain.from_iterable(
                    values[i:i + _STRIDE] for i in at))
            rank = (float_sum(values[1::_STRIDE]) / n, parameters)
            if best is None or not best <= rank:
                best = rank
        mean_cost, parameters = best
        values = sets[parameters]
        # positional, in field order: the instance's identity, the
        # parameters, then the costs and the means in `_AVERAGED_AT` order
        cells[instance_id, mode] = BestCell(
            instance_id, *rows._instances[instance_id], mode, *parameters, n,
            tuple(values[1::_STRIDE]), mean_cost,
            *[float_sum(values[i::_STRIDE]) / n for i in range(2, _STRIDE)])
    return cells


def _arrays(groups: dict[tuple, dict[tuple, array]]):
    """Every group's array, (instance, mode) by (instance, mode)."""
    return chain.from_iterable(map(dict.values, groups.values()))


def _differing(groups: dict[tuple, dict[tuple, array]]) -> ValueError:
    """The refusal of groups whose replications differ or repeat: the first
    two of their distinct orders, sorted, as ints."""
    orders = sorted({tuple(sorted(v[::_STRIDE])) for v in _arrays(groups)})
    return ValueError(f"replications differ or repeat across parameter "
                      f"sets: {[tuple(map(int, r)) for r in orders[:2]]}")


@dataclass
class ModeComparison:
    instance_id: str
    utilization: str
    alpha: float
    standard: BestCell
    extended: BestCell
    cost_reduction: float
    p_value: float
    stars: str
    test: str


def significance_stars(p_value: float) -> str:
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def _test_costs(a: tuple[float, ...], b: tuple[float, ...],
                paired: bool) -> float:
    """Two-sided p-value of a Welch (or paired) t-test of two cost samples.
    The statistic and degrees of freedom are formed in the same operations
    as scipy 1.17's `ttest_ind(equal_var=False)` and `ttest_rel`, and the
    p-value is the `special.stdtr` call those make, so every bit agrees
    without importing scipy's stats module.  Samples of one cost take a
    zero-variance branch: `best_per_instance` never sets one against more."""
    import numpy as np
    from scipy.special import stdtr

    def mean_var(x):
        mean = np.mean(x)
        return mean, np.mean((x - mean) ** 2) * (x.size / (x.size - 1))

    xs, ys = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.var(xs) == 0 and np.var(ys) == 0:
        return 1.0 if xs.mean() == ys.mean() else 0.0
    if paired:
        diffs = xs - ys
        if np.var(diffs) == 0:
            return 1.0 if diffs.mean() == 0 else 0.0
        mean, var = mean_var(diffs)
        df, t = diffs.size - 1, mean / np.sqrt(var / diffs.size)
    else:
        (m1, v1), (m2, v2) = mean_var(xs), mean_var(ys)
        vn1, vn2 = v1 / xs.size, v2 / ys.size
        df = (vn1 + vn2) ** 2 / (vn1 ** 2 / (xs.size - 1)
                                 + vn2 ** 2 / (ys.size - 1))
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
    return float(2 * stdtr(df, -abs(t)))


def compare_modes(rows, paired: bool = False) -> list[ModeComparison]:
    """Best-vs-best comparison of extended against standard netting per
    instance, with Welch (default) or paired t-test significance."""
    best = best_per_instance(rows)
    out = []
    for (instance_id, mode) in sorted(best):
        if mode != "standard":
            continue
        ext_key = (instance_id, "extended")
        if ext_key not in best:
            continue
        std, ext = best[(instance_id, "standard")], best[ext_key]
        reduction = ((ext.mean_cost - std.mean_cost) / std.mean_cost
                     if std.mean_cost else 0.0)
        p = _test_costs(std.costs, ext.costs, paired)
        out.append(ModeComparison(
            instance_id=instance_id, utilization=std.utilization,
            alpha=std.alpha, standard=std, extended=ext,
            cost_reduction=reduction, p_value=p,
            stars=significance_stars(p),
            test="paired" if paired else "welch"))
    out.sort(key=lambda c: (c.utilization, c.alpha, c.instance_id))
    return out
