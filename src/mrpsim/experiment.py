"""Factorial experiment harness: grids, parallel execution, result files.

A test instance fixes the demand environment (utilization level, forecast
noise alpha, bias switch beta and bias schedule); the inner grid crosses the
planning parameters (safety stock factor, planned lead time, lot policy and
parameter, component lot size), the netting mode and the replications.  The
full study is

    instances:  3 utilizations x 7 alphas x (1 unbiased + 4 biased) = 105
    parameters: 8 SST x 6 PLT x (5 FOP + 5 FOQ) x 2 component lots  = 960
    cells:      105 x 960 x 2 modes x 20 replications               = 4,032,000

Cells are independent runs: execution order and worker count cannot change
any result because every cell derives its random numbers from (base seed,
replication, stream) alone, and rows are always reduced in enumeration
order.  The cells of one (instance, replication) share its forecast tape.
Desk-scale presets cover the same machinery in minutes.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

from . import __version__
from .forecast import BIASED_SCHEDULES, SCHEDULES, ScenarioParams
from .config import build_system
from .driver import RunConfig, SimulationRun, Tape
from .mrp import (COMPONENT_LOTS, FOP_PERIODS, FOQ_QUANTITIES, MODES,
                  PLT_VALUES, SST_FACTORS, PlanningParams)

RESULT_COLUMNS = ("instance_id", "alpha", "beta", "bias", "utilization",
                  "mode", "sst_factor", "plt", "policy", "policy_param",
                  "comp_lot", "replication", "seed", "overall_cost",
                  "wip_cost", "fgi_cost", "backorder_cost", "service_level",
                  "n_final_orders", "leadtime_mean", "leadtime_sd")
_KEY_COLUMNS = ("instance_id", "mode", "sst_factor", "plt", "policy",
                "policy_param", "comp_lot", "replication")
_INT_COLUMNS = {"beta", "plt", "policy_param", "comp_lot", "replication",
                "seed", "n_final_orders"}
_STR_COLUMNS = {"instance_id", "bias", "utilization", "mode", "policy"}

FULL_ALPHAS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12)


@dataclass(frozen=True)
class Instance:
    """One demand environment of the study."""

    utilization: str
    alpha: float
    beta: int
    bias: str = "unbiased"

    def __post_init__(self) -> None:
        if self.beta == 0 and self.bias != "unbiased":
            raise ValueError("beta=0 instances must use the unbiased schedule")
        if self.beta == 1 and self.bias == "unbiased":
            raise ValueError("beta=1 instances need a bias schedule")
        if self.bias not in SCHEDULES:
            raise ValueError(f"unknown bias schedule {self.bias!r}")

    @property
    def instance_id(self) -> str:
        return f"{self.utilization}-a{self.alpha:g}-b{self.beta}-{self.bias}"

    def scenario(self, expected_amount: int = 800) -> ScenarioParams:
        return ScenarioParams(alpha=self.alpha, beta=self.beta,
                              schedule=SCHEDULES[self.bias],
                              expected_amount=expected_amount)


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
    run_length: int = 400
    warmup: int = 40

    def instances(self) -> list[Instance]:
        out = []
        if self.include_unbiased:
            for util in self.utilizations:
                for alpha in self.alphas:
                    out.append(Instance(util, alpha, 0))
        for util in self.utilizations:
            for alpha in self.alphas:
                for bias in self.biased_schedules:
                    out.append(Instance(util, alpha, 1, bias))
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
        return (len(self.sst_factors) * len(self.plts)
                * (len(self.fop_periods) + len(self.foq_quantities))
                * len(self.component_lots))

    @property
    def n_instances(self) -> int:
        biased = len(self.biased_schedules)
        per_util = len(self.alphas) * ((1 if self.include_unbiased else 0) + biased)
        return len(self.utilizations) * per_util

    @property
    def n_cells(self) -> int:
        return (self.n_instances * self.n_parameter_sets * len(self.modes)
                * self.replications)


PRESETS: dict[str, GridSpec] = {
    "full": GridSpec(name="full", utilizations=("low", "medium", "high"),
                     biased_schedules=BIASED_SCHEDULES),
    # directional desk study: heuristic vs standard netting, unbiased demand
    "desk": GridSpec(name="desk", alphas=(0.02, 0.06, 0.10),
                     sst_factors=(0.2, 0.4, 0.6, 1.5), plts=(1, 3, 4),
                     fop_periods=(1,), foq_quantities=(200, 400),
                     component_lots=(800,), replications=10),
    # deterministic-demand anchor: FOP 1 vs FOQ 800 must coincide
    "null-anchor": GridSpec(name="null-anchor", alphas=(0.0,),
                            sst_factors=(0.0, 0.2, 0.4), plts=(1, 2, 3),
                            fop_periods=(1,), foq_quantities=(800,),
                            component_lots=(800,), modes=("standard",),
                            replications=20),
    # permanent forecast bias, extended netting only
    "bias": GridSpec(name="bias", alphas=(0.06,), include_unbiased=False,
                     biased_schedules=("permanent_overbooking",
                                       "permanent_underbooking"),
                     sst_factors=(0.2, 0.4, 0.6, 1.5), plts=(1, 3, 4),
                     fop_periods=(1,), foq_quantities=(200, 400),
                     component_lots=(800,), modes=("extended",),
                     replications=10),
}


@dataclass(frozen=True)
class Cell:
    index: int
    instance: Instance
    params: PlanningParams
    mode: str
    replication: int


def enumerate_cells(spec: GridSpec) -> list[Cell]:
    cells = []
    index = 0
    for instance in spec.instances():
        for params in spec.parameter_sets():
            for mode in spec.modes:
                for rep in range(spec.replications):
                    cells.append(Cell(index, instance, params, mode, rep))
                    index += 1
    return cells


def run_cell(cell: Cell, base_seed: int, run_length: int, warmup: int,
             overrides: dict | None = None, tape: Tape | None = None) -> dict:
    """Execute one cell and flatten its KPIs into a result row.  `tape` is
    shared by the cells of one (instance, replication), see `SimulationRun`."""
    system = build_system(cell.instance.utilization, overrides)
    config = RunConfig(system=system,
                       scenario=cell.instance.scenario(
                           system.demand.expected_amount),
                       params=replace(cell.params, mode=cell.mode),
                       base_seed=base_seed,
                       replication=cell.replication, run_length=run_length,
                       warmup=warmup)
    summary = SimulationRun(config, tape=tape).run()
    inst = cell.instance
    return {
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


def _describe(cell: Cell) -> str:
    params = replace(cell.params, mode=cell.mode)
    return (f"cell {cell.index} ({cell.instance.instance_id} "
            f"{params.label()} rep {cell.replication})")


def _run_cells(cells: list[Cell], base_seed: int, run_length: int,
               warmup: int, overrides: dict | None):
    """Yield (index, row, error) per cell, in order.  Consecutive cells of
    one (instance, replication) share a tape; the next pair's empty tape
    drops the old one before it is built."""
    key, tape = None, {}
    for cell in cells:
        if (cell.instance, cell.replication) != key:
            key, tape = (cell.instance, cell.replication), {}
        try:
            row, error = run_cell(cell, base_seed, run_length, warmup,
                                  overrides, tape), None
        except Exception as exc:
            row, error = None, f"{_describe(cell)}: {exc}"
        yield cell.index, row, error


def _run_slice(cells: list[Cell], **settings) -> list:
    return list(_run_cells(cells, **settings))


class ExperimentError(RuntimeError):
    pass


def default_workers() -> int:
    env = os.environ.get("MRPSIM_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_grid(spec: GridSpec, base_seed: int = 42, workers: int | None = None,
             overrides: dict | None = None, progress=None) -> list[dict]:
    """Run every cell of the grid; rows come back in enumeration order.
    Cells execute grouped by (instance, replication), each pool task a
    contiguous slice of that order, so tapes are shared within a slice."""
    cells = enumerate_cells(spec)
    rank = {instance: i for i, instance in enumerate(spec.instances())}
    order = sorted(cells, key=lambda c: (rank[c.instance], c.replication))
    settings = dict(base_seed=base_seed, run_length=spec.run_length,
                    warmup=spec.warmup, overrides=overrides)
    workers = workers or default_workers()
    results: list = [None] * len(cells)
    errors: dict[int, str] = {}
    done = 0

    def _collect(outcome) -> None:
        nonlocal done
        index, row, error = outcome
        if error is not None:
            errors[index] = error
        else:
            results[index] = row
        done += 1
        if progress is not None:
            progress(done, len(cells))

    if workers <= 1 or len(cells) <= 1:
        for outcome in _run_cells(order, **settings):
            _collect(outcome)
    else:
        chunk = max(1, len(order) // (workers * 8))
        slices = [order[i:i + chunk] for i in range(0, len(order), chunk)]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for outcomes in pool.map(partial(_run_slice, **settings), slices):
                    for outcome in outcomes:
                        _collect(outcome)
        except BrokenProcessPool as exc:
            lost = [c for c in cells if results[c.index] is None and c.index not in errors]
            listed = "\n  ".join(_describe(c) for c in lost[:10])
            raise ExperimentError(f"{len(lost)} of {len(cells)} cells were not collected, "
                                  f"a worker process died ({exc}):\n  {listed}") from exc

    if errors:
        listed = "\n  ".join(errors[i] for i in sorted(errors)[:10])
        raise ExperimentError(f"{len(errors)} of {len(cells)} cells failed:\n"
                              f"  {listed}")
    return results


# -- result files -------------------------------------------------------------

def _format_value(column: str, value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _parse_row(row: list[str], lineno: int) -> dict:
    if len(row) != len(RESULT_COLUMNS):
        raise ValueError(f"results line {lineno}: expected "
                         f"{len(RESULT_COLUMNS)} fields, got {len(row)}")
    out = {}
    for column, text in zip(RESULT_COLUMNS, row):
        try:
            if column in _STR_COLUMNS:
                out[column] = text
            elif column in _INT_COLUMNS:
                out[column] = int(text)
            else:
                out[column] = float(text)
        except ValueError as exc:
            raise ValueError(f"results line {lineno}, column {column}: "
                             f"{text!r}") from exc
    return out


def _row_key(row: dict) -> tuple:
    return tuple(row[c] for c in _KEY_COLUMNS)


def write_results(rows: list[dict], path: str, append: bool = False) -> None:
    """Write (or extend) a results CSV; duplicate keys must carry identical
    values, conflicting duplicates are rejected."""
    existing: dict[tuple, dict] = {}
    if append and os.path.exists(path):
        for row in read_results(path):
            existing[_row_key(row)] = row
    new_rows = []
    for row in rows:
        key = _row_key(row)
        if key in existing:
            if existing[key] != row:
                raise ValueError(f"conflicting duplicate result for {key}")
            continue
        existing[key] = row
        new_rows.append(row)
    mode = "a" if append and os.path.exists(path) else "w"
    with open(path, mode, newline="", encoding="utf-8") as fh:
        if mode == "w":
            fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in new_rows:
            fh.write(",".join(_format_value(c, row[c])
                              for c in RESULT_COLUMNS) + "\n")


def read_results(path: str) -> list[dict]:
    import csv

    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RESULT_COLUMNS:
            raise ValueError(f"results file {path} has unexpected header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            rows.append(_parse_row(row, lineno))
    return rows


def write_manifest(path: str, spec: GridSpec, base_seed: int, workers: int,
                   overrides_path: str | None = None) -> None:
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
        "random numbers: one forecast tape per (seed, replication, instance), "
        "built from demand substreams keyed by (seed, replication, product, "
        "due date) and shared by every parameter set and mode",
        f"config overrides: {overrides_path or 'none'}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- aggregation ---------------------------------------------------------------

@dataclass
class BestCell:
    """Cost-minimal parameter set of one (instance, mode), averaged over
    replications."""

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
    costs: tuple[float, ...] = field(default_factory=tuple)
    mean_cost: float = 0.0
    mean_wip: float = 0.0
    mean_fgi: float = 0.0
    mean_backorder: float = 0.0
    mean_service: float = 0.0
    mean_orders: float = 0.0
    mean_leadtime: float = 0.0
    mean_leadtime_sd: float = 0.0

    @property
    def policy_label(self) -> str:
        return f"{self.policy} {self.policy_param}"


def _aggregate(group: list[dict]) -> dict:
    n = len(group)
    agg = {k: sum(r[k] for r in group) / n
           for k in ("overall_cost", "wip_cost", "fgi_cost", "backorder_cost",
                     "service_level", "n_final_orders", "leadtime_mean",
                     "leadtime_sd")}
    agg["costs"] = tuple(r["overall_cost"]
                         for r in sorted(group, key=lambda r: r["replication"]))
    return agg


def best_per_instance(rows: list[dict]) -> dict[tuple[str, str], BestCell]:
    """Pick the cheapest parameter set per (instance, mode).

    Every parameter set must carry the same number of replications;
    incomplete groups indicate a broken results file.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["instance_id"], row["mode"], row["sst_factor"], row["plt"],
               row["policy"], row["policy_param"], row["comp_lot"])
        groups.setdefault(key, []).append(row)

    counts = {len(g) for g in groups.values()}
    if len(counts) > 1:
        raise ValueError(f"unbalanced replication counts per parameter set: "
                         f"{sorted(counts)}")

    best: dict[tuple[str, str], BestCell] = {}
    order: dict[tuple[str, str], tuple] = {}
    for key, group in groups.items():
        instance_id, mode, sst, plt, policy, value, comp_lot = key
        agg = _aggregate(group)
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
            policy_param=value, comp_lot=comp_lot, replications=len(group),
            costs=agg["costs"], mean_cost=agg["overall_cost"],
            mean_wip=agg["wip_cost"], mean_fgi=agg["fgi_cost"],
            mean_backorder=agg["backorder_cost"],
            mean_service=agg["service_level"],
            mean_orders=agg["n_final_orders"],
            mean_leadtime=agg["leadtime_mean"],
            mean_leadtime_sd=agg["leadtime_sd"])
    return best


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
    import numpy as np
    from scipy import stats

    xs, ys = np.asarray(a), np.asarray(b)
    if np.var(xs) == 0 and np.var(ys) == 0:
        return 1.0 if xs.mean() == ys.mean() else 0.0
    if paired:
        diffs = xs - ys
        if np.var(diffs) == 0:
            return 1.0 if diffs.mean() == 0 else 0.0
        return float(stats.ttest_rel(xs, ys).pvalue)
    return float(stats.ttest_ind(xs, ys, equal_var=False).pvalue)


def compare_modes(rows: list[dict], paired: bool = False) -> list[ModeComparison]:
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
