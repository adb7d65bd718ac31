"""Command-line front end.

Subcommands:

    validate   print the planned-utilization table and grid cardinalities
    simulate   run one replication and print its KPI summary
    grid       run an experiment preset and write result/manifest files
    analyze    compare extended vs standard netting with significance tests
    tables     render summary tables from a results file

Every command accepts --seed and --config; outputs are deterministic given
flags plus seed.  Exit codes: 0 success, 1 any cell failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import (load_overrides, build_system, validate_system,
                     planned_utilization_table, UTILIZATION_LEVELS)
from .driver import SimulationRun, make_config
from .forecast import SCHEDULES, BIASED_SCHEDULES, dump_tape, load_replay
from .mrp import (FOP_PERIODS, FOQ_QUANTITIES, MODES, PLT_VALUES, SST_FACTORS,
                  COMPONENT_LOTS, PlanningParams)
from .experiment import (PRESETS, ExperimentError, default_workers, run_grid,
                         read_results, write_results, write_manifest)
from .tables import TABLES

RESULTS_NAME = "results.csv"
MANIFEST_NAME = "manifest.txt"


class UsageError(Exception):
    pass


def _parse_policy(text: str) -> tuple[str, int]:
    """Accept 'FOP:1' / 'FOQ:200' (case-insensitive name)."""
    name, sep, value = text.partition(":")
    if not sep:
        raise UsageError(f"policy must look like FOP:1 or FOQ:200, got {text!r}")
    try:
        return name.upper(), int(value)
    except ValueError:
        raise UsageError(f"policy parameter must be an integer, got {value!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="base random seed (default 42)")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file overriding system constants")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrpsim",
        description="Rolling-horizon MRP simulation under forecast evolution")
    parser.add_argument("--version", action="version",
                        version=f"mrpsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="check configuration, print utilization and "
                            "grid-count tables")
    _add_common(p)

    p = sub.add_parser("simulate", help="run a single replication")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="forecast update std as fraction of expected demand")
    p.add_argument("--bias", choices=BIASED_SCHEDULES,
                   help="bias schedule (sets beta=1; omit for unbiased)")
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
    p.add_argument("--periods", type=int, default=400)
    p.add_argument("--warmup", type=int, default=40)
    p.add_argument("--debug-checks", action="store_true",
                   help="verify conservation invariants every period")
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

    p = sub.add_parser("grid", help="run an experiment grid")
    _add_common(p)
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--out", metavar="DIR",
                   help="directory for results.csv and manifest.txt")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: MRPSIM_WORKERS or CPUs)")
    p.add_argument("--dry-run", action="store_true",
                   help="print cell counts without running anything")

    p = sub.add_parser("analyze",
                       help="best-vs-best netting-mode comparison with "
                            "significance stars")
    _add_common(p)
    p.add_argument("--in", dest="indir", required=True, metavar="DIR",
                   help="results directory or CSV file")
    p.add_argument("--paired", action="store_true",
                   help="paired t-test on common random numbers instead of "
                        "Welch")
    p.add_argument("--csv", action="store_true", help="CSV instead of text")

    p = sub.add_parser("tables", help="render summary tables")
    _add_common(p)
    p.add_argument("--in", dest="indir", required=True, metavar="DIR")
    p.add_argument("--table", action="append", choices=sorted(TABLES),
                   help="table name (repeatable; default: all non-empty)")
    p.add_argument("--paired", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", metavar="DIR",
                   help="also write each table to DIR/<name>.txt|csv")
    return parser


# -- commands ------------------------------------------------------------------

def _load_config(args) -> dict | None:
    if args.config:
        return load_overrides(args.config)
    return None


def cmd_validate(args) -> int:
    overrides = _load_config(args)
    for level in UTILIZATION_LEVELS:
        validate_system(build_system(level, overrides))
    print("configuration valid\n")
    print("planned utilization")
    for machine, level, value in planned_utilization_table(overrides):
        exact = f"  ({value})" if machine in ("M201", "M202") else ""
        print(f"  {machine} {level} {value:.2f}{exact}")
    print("  note: component utilizations are exact setup+run fractions of")
    print("  the 1440-minute day; the familiar rounded figures 88% and 81.5%")
    print("  sit about 0.6 percentage points below them.\n")
    print("experiment grids")
    header = f"  {'preset':<12}{'param sets':>11}{'unbiased':>10}" \
             f"{'biased':>8}{'modes':>7}{'reps':>6}{'cells':>10}"
    print(header)
    for name in ("full", "desk", "null-anchor", "bias"):
        spec = PRESETS[name]
        unbiased = (len(spec.utilizations) * len(spec.alphas)
                    if spec.include_unbiased else 0)
        biased = (len(spec.utilizations) * len(spec.alphas)
                  * len(spec.biased_schedules))
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


def _write_csv(path: str, header: tuple, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def cmd_simulate(args) -> int:
    overrides = _load_config(args)
    policy, value = _parse_policy(args.policy)
    params = PlanningParams(sst_factor=args.sst, plt=args.plt, policy=policy,
                            policy_param=value, component_lot=args.comp_lot,
                            mode=args.mode)
    beta = 1 if args.bias else 0
    bias = args.bias or "unbiased"
    replay = load_replay(args.replay_forecasts) if args.replay_forecasts else None
    config = make_config(utilization=args.util, alpha=args.alpha, beta=beta,
                         bias=bias, params=params, base_seed=args.seed,
                         replication=args.rep, run_length=args.periods,
                         warmup=args.warmup, overrides=overrides,
                         debug_checks=args.debug_checks, replay=replay)
    mrp_trace = [] if args.mrp_trace else None
    event_log = [] if args.event_trace else None
    period_log = [] if args.period_log else None
    sim = SimulationRun(config, mrp_trace=mrp_trace, event_log=event_log,
                        period_log=period_log)
    summary = sim.run()

    if args.period_log:
        for e in period_log:
            print(f"period {e.period:4d}  wip {e.wip_pieces:6d}  "
                  f"fgi {e.fgi_pieces:6d}  backorder {e.backorder_pieces:6d}  "
                  f"released {e.released_orders:2d}  shipped {e.shipped_demands}")
        print()
    if args.dump_forecasts:
        dump_tape(sim.tape, config.scenario, args.dump_forecasts)
    if args.mrp_trace:
        _write_csv(args.mrp_trace,
                   ("period", "item", "bucket", "gross", "receipts",
                    "projected", "net", "lot"), mrp_trace)
    if args.event_trace:
        _write_csv(args.event_trace,
                   ("minute", "event", "order", "item", "machine", "qty"),
                   event_log)

    _print_summary(summary,
                   f"{args.util} alpha={args.alpha:g} {bias} | {params.label()}"
                   f" | seed {args.seed} rep {args.rep} | "
                   f"{args.periods} periods (warmup {args.warmup})")
    return 0


def cmd_grid(args) -> int:
    overrides = _load_config(args)
    spec = PRESETS[args.preset]
    unbiased = (len(spec.utilizations) * len(spec.alphas)
                if spec.include_unbiased else 0)
    biased = (len(spec.utilizations) * len(spec.alphas)
              * len(spec.biased_schedules))
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
        raise UsageError("grid needs --out DIR (or --dry-run)")
    os.makedirs(args.out, exist_ok=True)

    total = spec.n_cells
    milestone = max(1, total // 20)

    def progress(done: int, _total: int) -> None:
        if done % milestone == 0 or done == total:
            print(f"  {done}/{total} cells", file=sys.stderr, flush=True)

    rows = run_grid(spec, base_seed=args.seed, workers=workers,
                    overrides=overrides, progress=progress)
    results_path = os.path.join(args.out, RESULTS_NAME)
    write_results(rows, results_path)
    write_manifest(os.path.join(args.out, MANIFEST_NAME), spec, args.seed,
                   workers, args.config)
    print(f"wrote {len(rows)} rows to {results_path}")
    return 0


def _read_rows(indir: str) -> list[dict]:
    path = indir
    if os.path.isdir(path):
        path = os.path.join(path, RESULTS_NAME)
    if not os.path.exists(path):
        raise UsageError(f"no results file at {path}")
    return read_results(path)


def cmd_analyze(args) -> int:
    rows = _read_rows(args.indir)
    table = TABLES["mode-comparison"](rows, args.paired, args.csv)
    if table.count("\n") <= 4 and not args.csv:
        modes = sorted({r["mode"] for r in rows})
        print(table)
        print(f"(no instance has both modes; results contain {modes})")
        return 0
    print(table)
    return 0


def cmd_tables(args) -> int:
    rows = _read_rows(args.indir)
    names = args.table or sorted(TABLES)
    rendered = {}
    for name in names:
        text = TABLES[name](rows, args.paired, args.csv)
        # drop tables with no body rows unless explicitly requested
        if args.table is None and text.count("\n") <= 4:
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


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "grid": cmd_grid,
    "analyze": cmd_analyze,
    "tables": cmd_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed help or a usage message
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
