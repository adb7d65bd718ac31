"""Command-line front end.

Subcommands:

    validate   print the planned-utilization table and grid cardinalities;
               a machine planned at 100% or more is a usage error
    simulate   run one replication and print its KPI summary (standard
               mode also prints the first period extended netting would
               have planned differently)
    grid       run an experiment preset and write result/manifest files
    analyze    compare extended vs standard netting with significance tests
    tables     render summary tables from a results file

--seed is taken by simulate and grid, --config by validate, simulate and
grid; outputs are deterministic given flags plus seed.  Exit codes: 0
success, 1 any cell failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .config import (RUN_LENGTH, WARMUP, build_system, load_overrides,
                     planned_utilization_table, UTILIZATION_LEVELS)
from .driver import SimulationRun, build_tape
from .forecast import SCHEDULES, dump_tape, load_replay
from .mrp import MODES, PlanningParams
from .experiment import (PRESETS, ExperimentError, ResultRows,
                         best_per_instance, default_workers, make_config,
                         run_grid, read_results, write_csv, write_results,
                         write_manifest)
from .tables import TABLES, has_rows

RESULTS_NAME = "results.csv"
MANIFEST_NAME = "manifest.txt"


def _parse_policy(text: str) -> tuple[str, int]:
    """Accept 'FOP:1' / 'FOQ:200' (case-insensitive name)."""
    name, sep, value = text.partition(":")
    if not sep:
        raise ValueError(f"policy must look like FOP:1 or FOQ:200, got {text!r}")
    try:
        return name.upper(), int(value)
    except ValueError:
        raise ValueError(f"policy parameter must be an integer, got {value!r}")


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrpsim",
        description="Rolling-horizon MRP simulation under forecast evolution")
    parser.add_argument("--version", action="version",
                        version=f"mrpsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several commands share, each declared once
    seed, config, results = (argparse.ArgumentParser(add_help=False)
                             for _ in range(3))
    seed.add_argument("--seed", type=int, default=42,
                      help="base random seed (default 42)")
    config.add_argument("--config", metavar="PATH",
                        help="JSON file overriding system constants")
    results.add_argument("--in", dest="indir", required=True, metavar="DIR",
                         help="results directory or CSV file")
    results.add_argument("--paired", action="store_true",
                         help="paired t-test on common random numbers "
                              "instead of Welch")
    results.add_argument("--csv", action="store_true",
                         help="CSV instead of text")

    p = sub.add_parser("validate", parents=[config],
                       help="check configuration, print utilization and "
                            "grid-count tables")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("simulate", parents=[seed, config],
                       help="run a single replication")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="forecast update std as fraction of expected demand")
    p.add_argument("--bias", choices=tuple(SCHEDULES), default="unbiased",
                   help="forecast bias schedule")
    p.add_argument("--mode", choices=MODES, default="standard")
    p.add_argument("--sst", type=float, default=0.0,
                   help="safety stock factor")
    p.add_argument("--plt", type=int, default=1, help="planned lead time")
    p.add_argument("--policy", default="FOP:1", metavar="FOP:1|FOQ:200",
                   help="lot-sizing policy and parameter")
    p.add_argument("--comp-lot", type=int, default=800,
                   help="component FOQ lot size")
    p.add_argument("--util", choices=UTILIZATION_LEVELS, default="low",
                   help="planned utilization level")
    p.add_argument("--rep", type=int, default=0, help="replication index")
    p.add_argument("--periods", type=int, default=RUN_LENGTH)
    p.add_argument("--warmup", type=int, default=WARMUP)
    p.add_argument("--debug-checks", action="store_true",
                   help="verify conservation and planner bookkeeping every period")
    p.add_argument("--dump-forecasts", metavar="PATH",
                   help="write the run's forecast tape to a CSV file")
    p.add_argument("--replay-forecasts", metavar="PATH",
                   help="build the forecast tape from a dump file's updates")
    p.add_argument("--mrp-trace", metavar="PATH",
                   help="write per-period netting rows, each item's "
                        "decision window only, to a CSV file")
    p.add_argument("--event-trace", metavar="PATH",
                   help="write shop-floor events to a CSV file")
    p.add_argument("--period-log", action="store_true",
                   help="print one line per period")

    p = sub.add_parser("grid", parents=[seed, config],
                       help="run an experiment grid")
    p.set_defaults(run=cmd_grid)
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--out", metavar="DIR",
                   help="directory for results.csv and manifest.txt")
    p.add_argument("--workers", type=_worker_count, default=None,
                   help="worker processes, at least 1 (default: one per CPU)")
    p.add_argument("--dry-run", action="store_true",
                   help="print cell counts without running anything")

    p = sub.add_parser("analyze", parents=[results],
                       help="best-vs-best netting-mode comparison with "
                            "significance stars")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("tables", parents=[results],
                       help="render summary tables")
    p.set_defaults(run=cmd_tables)
    p.add_argument("--table", action="append", choices=sorted(TABLES),
                   help="table name (repeatable; default: all non-empty)")
    p.add_argument("--out", metavar="DIR",
                   help="write each table to DIR/<name>.txt|csv instead of "
                        "printing it, and print one 'wrote PATH' line per "
                        "file")
    return parser


# -- commands ------------------------------------------------------------------

def _load_config(args) -> dict | None:
    if args.config:
        return load_overrides(args.config)
    return None


def cmd_validate(args) -> int:
    overrides = _load_config(args)
    table = planned_utilization_table(overrides)
    overloaded = [f"{machine} {level} ({value:.2f})"
                  for machine, level, value in table if value >= 1]
    if not overloaded:
        print("configuration valid\n")
    print("planned utilization")
    for machine, level, value in table:
        exact = f"  ({value})" if level.startswith("foq") else ""
        print(f"  {machine} {level} {value:.2f}{exact}")
    minutes = build_system("low", overrides).period_minutes
    print("  note: component utilizations are exact setup+run fractions of")
    if overrides:
        print(f"  the {minutes:g}-minute period.\n")
    else:
        print(f"  the {minutes:g}-minute period; the familiar rounded figures "
              "88% and 81.5%")
        print("  sit about 0.6 percentage points below them.\n")
    if overloaded:
        raise ValueError("planned utilization is 100% or more on "
                         + ", ".join(overloaded))
    print("experiment grids")
    header = f"  {'preset':<12}{'param sets':>11}{'unbiased':>10}" \
             f"{'biased':>8}{'modes':>7}{'reps':>6}{'cells':>10}"
    print(header)
    for name, spec in PRESETS.items():
        unbiased, biased = spec.instance_counts
        print(f"  {name:<12}{spec.n_parameter_sets:>11}{unbiased:>10}"
              f"{biased:>8}{len(spec.modes):>7}{spec.replications:>6}"
              f"{spec.n_cells:>10}")
    return 0


def _print_summary(summary, label: str) -> None:
    print(label)
    print(f"  overall cost   {summary.overall_cost:10.1f} CU per period")
    print(f"    WIP          {summary.wip_cost:10.1f}"
          f"   (avg {summary.avg_wip_pieces:,.0f} pieces)")
    print(f"    FGI          {summary.fgi_cost:10.1f}"
          f"   (avg {summary.avg_fgi_pieces:,.0f} pieces)")
    print(f"    backorder    {summary.backorder_cost:10.1f}"
          f"   (avg {summary.avg_backorder_pieces:,.0f} pieces)")
    print(f"  service level  {summary.service_level:10.3f}"
          f"   ({summary.demands_on_time}/{summary.demands_total} on time)")
    print(f"  final orders   {summary.n_final_orders:10d}")
    print(f"  lead time      {summary.leadtime_mean:10.2f}"
          f" +/- {summary.leadtime_sd:.2f} periods")
    util = "  ".join(f"M{mid} {u:.3f}"
                     for mid, u in sorted(summary.machine_utilization.items()))
    print(f"  utilization    {util}")


def cmd_simulate(args) -> int:
    overrides = _load_config(args)
    policy, value = _parse_policy(args.policy)
    params = PlanningParams(sst_factor=args.sst, plt=args.plt, policy=policy,
                            policy_param=value, component_lot=args.comp_lot,
                            mode=args.mode)
    config = make_config(utilization=args.util, alpha=args.alpha,
                         bias=args.bias, params=params, base_seed=args.seed,
                         replication=args.rep, run_length=args.periods,
                         warmup=args.warmup, overrides=overrides,
                         debug_checks=args.debug_checks,
                         trace=bool(args.mrp_trace or args.event_trace
                                    or args.period_log))
    tape = (build_tape(config, load_replay(args.replay_forecasts))
            if args.replay_forecasts else None)
    sim = SimulationRun(config, tape=tape)
    summary = sim.run()

    if args.period_log:
        for t, wip, fgi, backorder, released, shipped in sim.period_log:
            print(f"period {t:4d}  wip {wip:6d}  fgi {fgi:6d}  "
                  f"backorder {backorder:6d}  released {released:2d}  "
                  f"shipped {shipped}")
        print()
    if args.dump_forecasts:
        dump_tape(sim.tape, config.scenario, args.dump_forecasts)
    if args.mrp_trace:
        write_csv(args.mrp_trace,
                  ("period", "item", "bucket", "gross", "receipts",
                   "projected", "net", "lot"), sim.mrp_trace)
    if args.event_trace:
        write_csv(args.event_trace,
                  ("minute", "event", "order", "item", "machine", "qty"),
                  sim.shop.event_log)

    _print_summary(summary,
                   f"{args.util} alpha={args.alpha:g} {args.bias} | "
                   f"{params.label()} | seed {args.seed} rep {args.rep} | "
                   f"{args.periods} periods (warmup {args.warmup})")
    if params.mode == "standard":
        period = sim.divergence_period
        print("extended netting first nets differently: "
              + ("never" if period is None else f"period {period}"))
    return 0


def cmd_grid(args) -> int:
    overrides = _load_config(args)
    spec = PRESETS[args.preset]
    unbiased, biased = spec.instance_counts
    workers = args.workers or default_workers()
    print(f"grid {spec.name}: {spec.n_parameter_sets} parameter sets per "
          f"instance")
    print(f"{unbiased} unbiased instances, {biased} biased instances")
    print(f"{len(spec.modes)} modes x {spec.replications} replications x "
          f"{spec.run_length} periods")
    print(f"{spec.n_cells} cells")
    if args.dry_run:
        return 0
    if not args.out:
        raise ValueError("grid needs --out DIR (or --dry-run)")
    os.makedirs(args.out, exist_ok=True)

    total, start = spec.n_cells, time.perf_counter()
    milestone = max(1, total // 20)

    def progress(done: int, _total: int) -> None:
        if done % milestone == 0 or done == total:
            rate = done / (time.perf_counter() - start)
            print(f"  {done}/{total} cells, {rate:.1f} cells/s, ETA "
                  f"{(total - done) / rate:.0f} s", file=sys.stderr, flush=True)

    rows = run_grid(spec, base_seed=args.seed, workers=workers,
                    overrides=overrides, progress=progress)
    results_path = os.path.join(args.out, RESULTS_NAME)
    write_results(rows, results_path)
    write_manifest(os.path.join(args.out, MANIFEST_NAME), spec, args.seed,
                   workers, time.perf_counter() - start, args.config)
    print(f"wrote {len(rows)} rows to {results_path}")
    return 0


def _read_rows(indir: str) -> ResultRows:
    path = os.path.join(indir, RESULTS_NAME) if os.path.isdir(indir) else indir
    if not os.path.exists(path):
        raise ValueError(f"no results file at {path}")
    return read_results(path)


def cmd_analyze(args) -> int:
    rows = _read_rows(args.indir)
    table = TABLES["mode-comparison"](rows, args.paired, args.csv)
    print(table)
    if not args.csv and not has_rows(table, csv=False):
        modes = sorted({mode for _, mode in best_per_instance(rows)})
        print(f"(no instance has both modes; results contain {modes})")
    return 0


def cmd_tables(args) -> int:
    rows = _read_rows(args.indir)
    names = args.table or sorted(TABLES)
    rendered = {}
    for name in names:
        text = TABLES[name](rows, args.paired, args.csv)
        # drop tables with no body rows unless explicitly requested
        if args.table is None and not has_rows(text, args.csv):
            continue
        rendered[name] = text
    if not rendered:
        print("no table has data for this results file")
        return 0
    for name, text in rendered.items():
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            ext = "csv" if args.csv else "txt"
            path = os.path.join(args.out, f"{name}.{ext}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {path}")
        else:
            print(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed help or a usage message
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
