"""The benchmark's workloads and the phases each of them runs.

Every workload is a study session as a user runs it: a grid at one worker,
the same grid (or its first replications) again at two workers, the results
file written, and the analysis `mrpsim analyze` and `mrpsim tables` perform
(`read_results`, `compare_modes`, every renderer in `tables.TABLES`).  The
workloads differ in what they stress; README.md in this directory says why
each one was chosen.

Sizes are nominal: on the baseline machine a workload's measured work takes
about NOMINAL_SECONDS, and `--seconds` scales replications and analysis
passes in proportion.  Everything a run computes is a function of the seed
and the scale, so two runs differ only in their timings.  Timings are in
baseline seconds: host seconds corrected for the host's speed (speed.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from mrpsim import experiment, tables
from mrpsim.experiment import ExperimentError, GridSpec, enumerate_cells
from mrpsim.forecast import BIASED_SCHEDULES
from mrpsim.mrp import MODES

from spans import Tracer
from speed import SpeedTimer, probe
from synth import FULL_SHAPE

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"
DEFAULT_SEED = 42
NOMINAL_SECONDS = 30
SETUP_REPEATS = 5
POOL_PROBE_SAMPLES = 15


class CheckFailed(Exception):
    """An output of the program is wrong, or an operation raised."""


@dataclass(frozen=True)
class Workload:
    name: str
    spec: GridSpec            # replications are set per run
    reps: int                 # 1-worker grid, untraced run
    reps_2w: int              # 2-worker grid: the first reps_2w replications
    reps_trace: int           # 1-worker grid, traced run (traced and not)
    passes: int               # timed analysis passes, untraced run
    passes_trace: int         # analysis passes, traced run (traced and not)
    analyze_full: bool = False   # analyse the synthetic full-shape file


WORKLOADS = {w.name: w for w in (
    # One instance; 72 parameter-set x mode cells share each (instance,
    # replication) forecast picture.  Short and long lot windows.
    Workload("grid-crn",
             GridSpec(name="grid-crn", utilizations=("medium",),
                      alphas=(0.06,), sst_factors=(0.2, 0.6, 1.5),
                      plts=(1, 3, 8), fop_periods=(1, 9),
                      foq_quantities=(200, 1600), component_lots=(800,),
                      modes=MODES),
             reps=1, reps_2w=1, reps_trace=1, passes=200, passes_trace=50),
    # 30 instances, one parameter set: every cell owns its forecast picture.
    Workload("rep-sweep",
             GridSpec(name="rep-sweep", utilizations=("low", "medium", "high"),
                      alphas=(0.02, 0.10), biased_schedules=BIASED_SCHEDULES,
                      sst_factors=(0.4,), plts=(8,), fop_periods=(9,),
                      foq_quantities=(), component_lots=(800,),
                      modes=("extended",)),
             reps=4, reps_2w=2, reps_trace=3, passes=400, passes_trace=50),
    # Analysis of a full-study-shaped results file.  The grid, a slice of
    # the desk preset, gives the simulation metrics a value here too.
    Workload("analyze-full",
             GridSpec(name="analyze-full", alphas=(0.02, 0.06, 0.10),
                      sst_factors=(0.2, 1.5), plts=(1, 4), fop_periods=(1,),
                      foq_quantities=(400,), component_lots=(800,),
                      modes=MODES),
             reps=1, reps_2w=1, reps_trace=1, passes=4, passes_trace=2,
             analyze_full=True),
)}


class Tally:
    """Operations attempted and failed: grid cells and analysis passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


# -- phases --------------------------------------------------------------------

def measure_setup(specs: list[GridSpec]) -> float:
    """Median time from starting a fresh interpreter until it has imported
    mrpsim.cli and enumerated the workload's cells."""
    code = ("import mrpsim.cli\n"
            "from mrpsim.experiment import GridSpec, enumerate_cells\n"
            f"for spec in {specs!r}:\n"
            "    enumerate_cells(spec)\n"
            "print('ready', flush=True)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timer = SpeedTimer()
    for _ in range(SETUP_REPEATS):
        timer.restart()
        with subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = timer.clock()
            child.stdout.read()
        # probe only once the child has exited, so it does not compete
        timer.mark(ready)
        if child.returncode != 0 or line.strip() != "ready":
            raise CheckFailed(f"set-up child exited {child.returncode}")
    return statistics.median(timer.close())


@dataclass
class GridRun:
    rows: list
    timer: SpeedTimer         # one unit per cell at 1 worker, else one
    digest: str

    @property
    def seconds(self) -> float:
        return sum(self.timer.scaled)


def run_grid_phase(spec: GridSpec, seed: int, workers: int, out: Path,
                   tally: Tally) -> GridRun:
    """Run a grid and write its results.  At one worker the spacing of the
    progress callbacks times each cell.  At two, a probe would compete with
    the workers and read a slow host, so the phase is one unit between two
    long probes."""
    n_cells = len(enumerate_cells(spec))
    tally.attempted += n_cells
    if workers == 1:
        timer = SpeedTimer()
        progress = lambda done, total: timer.mark()  # noqa: E731
    else:
        timer = SpeedTimer(probe=lambda: probe(POOL_PROBE_SAMPLES))
        progress = None
    try:
        rows = experiment.run_grid(spec, base_seed=seed, workers=workers,
                                   progress=progress)
    except ExperimentError as exc:
        match = re.match(r"(\d+) of", str(exc))
        tally.failed += int(match.group(1)) if match else n_cells
        raise CheckFailed(f"{spec.name} at {workers} workers: {exc}") from exc
    if progress is None:
        timer.mark()
    timer.close()
    if len(rows) != n_cells or spec.n_cells != n_cells:
        raise CheckFailed(f"{spec.name}: {len(rows)} rows for {n_cells} "
                          f"enumerated cells ({spec.n_cells} counted)")
    experiment.write_results(rows, str(out))
    return GridRun(rows, timer, _sha256(out))


def _analyse(path: Path, step) -> tuple[int, list, list[str]]:
    """`mrpsim analyze` plus `mrpsim tables`: (rows, comparisons, tables).
    `step()` runs between the steps, so that long passes are timed in
    parts.  The rows are freed on return, so passes never hold two copies."""
    rows = experiment.read_results(str(path))
    step()
    comparisons = [(c.instance_id, c.cost_reduction, c.p_value, c.stars)
                   for c in experiment.compare_modes(rows)]
    rendered = []
    for name in sorted(tables.TABLES):
        step()
        rendered.append(tables.TABLES[name](rows, False, False))
    return len(rows), comparisons, rendered


def analysis_passes(path: Path, n: int,
                    tally: Tally) -> tuple[int, SpeedTimer, str]:
    """Analyse a results file n times: (rows, timer of the passes, digest of
    everything rendered).  Every pass must render the same bytes."""
    digests = set()
    timer = SpeedTimer()
    for _ in range(n):
        tally.attempted += 1
        try:
            rows, comparisons, rendered = _analyse(path, timer.mark)
        except (ValueError, ArithmeticError) as exc:
            tally.failed += 1
            raise CheckFailed(f"analysis of {path.name}: {exc}") from exc
        timer.mark()
        digest = hashlib.sha256(repr(comparisons).encode())
        for text in rendered:
            digest.update(text.encode())
        digests.add(digest.hexdigest())
        timer.restart()
    timer.close()
    if len(digests) != 1:
        raise CheckFailed(f"analysis of {path.name} rendered "
                          f"{len(digests)} different outputs")
    return rows, timer, digests.pop()


def synthesize_full(seed: int, out: Path, tally: Tally) -> str:
    """Write the full-shape results file in a child process, so its rows
    never count towards this process's peak memory."""
    tally.attempted += 1
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(HERE / "synth.py"),
                           "--seed", str(seed), "--out", str(out)], env=env)
    if done.returncode != 0:
        tally.failed += 1
        raise CheckFailed(f"synthesizer exited {done.returncode}")
    return _sha256(out)


# -- checks --------------------------------------------------------------------

def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: {got} != {want}")


def check_pinned(digests: dict[str, str], seed: int, seconds: int) -> None:
    """At the default seed and run length every digest must match its pin."""
    for name, digest in digests.items():
        _log(f"sha256 {name}: {digest}")
    if seed != DEFAULT_SEED or seconds != NOMINAL_SECONDS:
        _log(f"pinned digests apply to seed {DEFAULT_SEED} and "
             f"{NOMINAL_SECONDS} s only; not checked")
        return
    pinned = json.loads(PINNED.read_text())
    for name, digest in digests.items():
        if name not in pinned:
            raise CheckFailed(f"no pinned digest for {name}")
        _expect_equal(f"digest of {name}", digest, pinned[name])
    _log(f"{len(digests)} digests match their pins")


def _two_worker_check(one: GridRun, two: GridRun, reps_2w: int,
                      out: Path) -> None:
    subset = [r for r in one.rows if r["replication"] < reps_2w]
    experiment.write_results(subset, str(out))
    _expect_equal("2-worker results against 1-worker results", two.digest,
                  _sha256(out))


def check_coverage(tracer: Tracer, traced: GridRun) -> None:
    """Self times inside the cells must add up to the cells' wall time."""
    covered = tracer.total_self() - tracer.self_s["experiment.write_results"]
    share = covered / sum(traced.timer.raw)
    _log(f"span self times cover {share:.4f} of traced cell wall time")
    if not 0.95 <= share <= 1.0:
        raise CheckFailed(f"span self times cover {share:.4f} of the traced "
                          f"cell wall time, outside [0.95, 1]")


# -- a run ---------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: int, trace: bool,
        workdir: Path, tally: Tally) -> dict[str, tuple[float, str]]:
    """Run one workload; return {metric name: (value, unit)}."""
    scale = seconds / NOMINAL_SECONDS
    reps = _scaled(workload.reps_trace if trace else workload.reps, scale)
    reps_2w = min(reps, _scaled(workload.reps_2w, scale))
    passes = _scaled(workload.passes_trace if trace else workload.passes, scale)
    spec = replace(workload.spec, replications=reps)
    spec_2w = replace(workload.spec, replications=reps_2w)
    name = workload.name
    digests: dict[str, str] = {}

    if not trace:
        setup_s = measure_setup([spec, FULL_SHAPE] if workload.analyze_full
                                else [spec])

    analysed = workdir / "results.csv"
    if workload.analyze_full:
        analysed = workdir / "full.csv"
        digests[f"{name}/full.csv[{FULL_SHAPE.n_cells} rows]"] = \
            synthesize_full(seed, analysed, tally)

    one = run_grid_phase(spec, seed, 1, workdir / "results.csv", tally)
    two = run_grid_phase(spec_2w, seed, 2, workdir / "results_2w.csv", tally)
    _two_worker_check(one, two, reps_2w, workdir / "expected_2w.csv")
    digests[f"{name}/results.csv[{spec.n_cells} cells]"] = one.digest

    # The first pass loads scipy and fills caches; it is not timed.
    analysis_passes(workdir / "results.csv", 1, tally)
    n_rows, passes_timer, tables_digest = analysis_passes(analysed, passes,
                                                          tally)
    digests[f"{name}/tables[{n_rows} rows]"] = tables_digest

    cells_per_s = len(one.rows) / one.seconds
    cells_per_s_2w = len(two.rows) / two.seconds
    _log(f"{name}: {len(one.rows)} cells at 1 worker in {one.seconds:.2f} s "
         f"(host speed {one.timer.speed:.3f}), {len(two.rows)} at 2 workers "
         f"in {two.seconds:.2f} s (host speed {two.timer.speed:.3f}), "
         f"{passes} analysis passes (host speed {passes_timer.speed:.3f})")

    if not trace:
        check_pinned(digests, seed, seconds)
        per_cell = one.timer.scaled
        p90 = statistics.quantiles(per_cell, n=10, method="inclusive")[8]
        return {
            "cells_per_s": (cells_per_s, "cells/s"),
            "cell_s_p50": (statistics.median(per_cell), "s"),
            "cell_s_p90": (p90, "s"),
            "analyze_rows_per_s": (n_rows * passes / sum(passes_timer.scaled),
                                   "rows/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }

    grid_tracer, analysis_tracer = Tracer(), Tracer()
    with grid_tracer.install():
        traced = run_grid_phase(spec, seed, 1, workdir / "results_traced.csv",
                                tally)
    _expect_equal("traced results against untraced results", traced.digest,
                  one.digest)
    with analysis_tracer.install():
        _, traced_passes, traced_tables = analysis_passes(analysed, passes,
                                                          tally)
    _expect_equal("traced tables against untraced tables", traced_tables,
                  tables_digest)
    check_pinned(digests, seed, seconds)
    check_coverage(grid_tracer, traced)

    untraced_s = one.seconds + sum(passes_timer.scaled)
    traced_s = traced.seconds + sum(traced_passes.scaled)
    metrics = layer_metrics(grid_tracer, len(traced.rows), traced.timer.speed,
                            analysis_tracer, passes, traced_passes.speed)
    metrics["experiment.parallel_efficiency"] = (
        cells_per_s_2w / (2 * cells_per_s), "ratio")
    metrics["trace_overhead"] = (traced_s / untraced_s - 1, "ratio")
    return metrics


def layer_metrics(grid: Tracer, cells: int, grid_speed: float,
                  analysis: Tracer, passes: int,
                  analysis_speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures; self times in baseline seconds, like every
    other timing."""
    def per_cell(name):
        return grid.self_s[name] * grid_speed / cells, "s/cell"

    def calls_per_cell(name):
        return grid.calls[name] / cells, "calls/cell"

    def per_pass(name):
        return analysis.self_s[name] * analysis_speed / passes, "s/pass"

    planned, released = grid.counts["lots_planned"], grid.counts["lots_released"]
    tries = grid.calls["inventory.try_release"]
    return {
        "forecast.advance.self_s": per_cell("forecast.advance"),
        "forecast.advance.calls": calls_per_cell("forecast.advance"),
        "forecast.stream_rng.self_s": per_cell("forecast.stream_rng"),
        "forecast.stream_rng.calls": calls_per_cell("forecast.stream_rng"),
        "mrp.plan_item.self_s": per_cell("mrp.plan_item"),
        "mrp.plan_item.calls": calls_per_cell("mrp.plan_item"),
        "mrp.plan_item.buckets": (grid.counts["buckets"]
                                  / grid.calls["mrp.plan_item"], "buckets/call"),
        "mrp.run_mrp.self_s": per_cell("mrp.run_mrp"),
        "mrp.lots_planned": (planned / cells, "lots/cell"),
        "mrp.lots_released": (released / cells, "lots/cell"),
        "mrp.release_ratio": (released / planned, "ratio"),
        "driver.init.self_s": per_cell("driver.init"),
        "driver.run.self_s": per_cell("driver.run"),
        "shopfloor.advance.self_s": per_cell("shopfloor.advance"),
        "shopfloor.dispatch.calls": calls_per_cell("shopfloor.dispatch"),
        "inventory.try_release.calls": calls_per_cell("inventory.try_release"),
        "inventory.block_ratio": (grid.counts["blocked"] / tries, "ratio"),
        "inventory.fulfill_due_demands.self_s":
            per_cell("inventory.fulfill_due_demands"),
        "kpi.self_s": per_cell("kpi"),
        "config.build_system.self_s": per_cell("config.build_system"),
        "experiment.run_cell.self_s": per_cell("experiment.run_cell"),
        "experiment.write_results.self_s": per_cell("experiment.write_results"),
        "experiment.read_results.self_s": per_pass("experiment.read_results"),
        "experiment.compare_modes.self_s": per_pass("experiment.compare_modes"),
        "experiment.best_per_instance.self_s":
            per_pass("experiment.best_per_instance"),
        "experiment.best_per_instance.calls": (
            analysis.calls["experiment.best_per_instance"] / passes,
            "calls/pass"),
        "tables.render.self_s": per_pass("tables.render"),
    }
