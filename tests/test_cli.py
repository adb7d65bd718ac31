"""Command-line interface: output formats, exit codes, file side effects."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mrpsim.cli import main
from mrpsim.experiment import (PRESETS, Cell, GridSpec, Instance, run_cell,
                               run_grid, write_results)
from mrpsim.mrp import PlanningParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- validate

def test_validate_prints_utilization_table(capsys):
    code, out, err = run_cli(capsys, "validate")
    assert code == 0
    assert "configuration valid" in out
    assert "M101 low 0.90" in out
    assert "M102 medium 0.95" in out
    assert "M111 high 0.98" in out
    assert "M201 foq800 0.89  (0.8861111111111111)" in out
    assert "M202 foq1600 0.82  (0.8208333333333333)" in out
    assert "0.6 percentage points" in out


def test_validate_prints_grid_counts(capsys):
    code, out, err = run_cli(capsys, "validate")
    assert code == 0
    assert "4032000" in out
    assert "2160" in out
    assert "360" in out
    assert "720" in out


def test_validate_accepts_config_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"setup": {"low": 230.0}}))
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 0
    # (800*1.35 + 230) / 1440
    assert "M101 low 0.91" in out


def test_validate_rejects_overloaded_plant(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity": {"period_minutes": 720}}))
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 2
    assert "configuration valid" not in out
    assert "M101 low 1.80" in out
    assert "the 720-minute period." in out
    assert "88%" not in out
    assert err.startswith("error: ")
    assert "M101 low (1.80)" in err


def test_validate_note_follows_the_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity": {"period_minutes": 2880}}))
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 0
    assert "configuration valid" in out
    assert "M101 low 0.45" in out
    assert "the 2880-minute period." in out
    assert "0.6 percentage points" not in out


def test_validate_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"setup": {"turbo": 1.0}}))
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize("command, key", [("validate", "costs.wip"),
                                          ("simulate", "demand.expected_amount")])
def test_a_config_integer_too_large_for_a_float_is_a_usage_error(
        tmp_path, capsys, command, key):
    section, name = key.split(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{section}": {{"{name}": 1{"0" * 400}}}}}')
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert err == f"error: config key {key} must be a number\n"


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("overrides", [
    {"demand": {"interval": 0}},
    {"capacity": {"period_minutes": 0}},
    {"planning": {"component_plt": -1}},
    {"demand": {"interval": 4.7}},
    {"bom": {"quantity": 2.9}},
], ids=["interval-0", "period-0", "plt-negative", "interval-4.7",
        "quantity-2.9"])
def test_out_of_range_config_is_a_usage_error(tmp_path, capsys, command,
                                              overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ")


# -------------------------------------------------------------------- grid

def test_grid_dry_run_counts(capsys):
    code, out, err = run_cli(capsys, "grid", "--preset", "full", "--dry-run")
    assert code == 0
    assert "grid full: 960 parameter sets per instance" in out
    assert "21 unbiased instances, 84 biased instances" in out
    assert "4032000 cells" in out


def test_grid_dry_run_desk(capsys):
    code, out, err = run_cli(capsys, "grid", "--preset", "desk", "--dry-run")
    assert code == 0
    assert "2160 cells" in out


def test_grid_requires_out_dir(capsys):
    code, out, err = run_cli(capsys, "grid", "--preset", "desk")
    assert code == 2
    assert "--out" in err


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_grid_rejects_worker_counts_below_one(tmp_path, capsys, workers):
    code, out, err = run_cli(capsys, "grid", "--preset", "null-anchor",
                             "--out", str(tmp_path), "--workers", workers)
    assert code == 2
    assert "--workers" in err
    assert not (tmp_path / "manifest.txt").exists()


def test_grid_rejects_unknown_preset(capsys):
    code, out, err = run_cli(capsys, "grid", "--preset", "everything",
                             "--dry-run")
    assert code == 2


def test_grid_progress_reports_rate_and_eta(tmp_path, capsys, monkeypatch):
    # one parameter set in both modes: two cells, each reported on stderr
    monkeypatch.setitem(PRESETS, "two-cells", GridSpec(
        name="two-cells", alphas=(0.06,), sst_factors=(0.2,), plts=(1,),
        fop_periods=(1,), foq_quantities=(), component_lots=(800,),
        replications=1, run_length=20, warmup=5))
    code, out, err = run_cli(capsys, "grid", "--preset", "two-cells",
                             "--out", str(tmp_path), "--workers", "1")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 2
    for done, line in enumerate(lines, start=1):
        assert re.fullmatch(rf"  {done}/2 cells, \d+\.\d cells/s, ETA \d+ s",
                            line), line
    assert lines[-1].endswith(", ETA 0 s")
    manifest = (tmp_path / "manifest.txt").read_text()
    assert re.search(r"^wall time: \d+\.\d s \(cells and results\.csv\)$",
                     manifest, re.MULTILINE)


# ---------------------------------------------------------------- simulate

def test_simulate_smoke(capsys):
    code, out, err = run_cli(capsys, "simulate", "--periods", "30",
                             "--warmup", "5")
    assert code == 0
    assert "overall cost" in out
    assert "service level" in out
    assert "final orders" in out
    assert "standard sst=0 plt=1 FOP:1" in out


def test_simulate_takes_the_default_bias_by_name(capsys):
    # --bias offered only the biased schedules, so naming the default failed
    argv = ("simulate", "--alpha", "0.06", "--periods", "30", "--warmup", "5")
    code, named, err = run_cli(capsys, *argv, "--bias", "unbiased")
    assert (code, err) == (0, "")
    assert named == run_cli(capsys, *argv)[1]


def test_simulate_rejects_off_grid_sst(capsys):
    code, out, err = run_cli(capsys, "simulate", "--sst", "0.3",
                             "--periods", "30", "--warmup", "5")
    assert code == 2
    assert "sst_factor must be one of" in err
    assert "0.2" in err and "1.5" in err   # names the allowed set


def test_simulate_rejects_malformed_policy(capsys):
    code, out, err = run_cli(capsys, "simulate", "--policy", "FOQ200")
    assert code == 2
    assert "FOP:1 or FOQ:200" in err


def test_simulate_rejects_non_finite_alpha(capsys):
    code, out, err = run_cli(capsys, "simulate", "--alpha", "nan",
                             "--periods", "20", "--warmup", "5")
    assert code == 2
    assert "error: alpha must be finite" in err


def test_simulate_rejects_negative_replication(capsys):
    code, out, err = run_cli(capsys, "simulate", "--rep", "-1",
                             "--periods", "20", "--warmup", "5")
    assert code == 2
    assert "error: replication must be at least 0, got -1" in err
    assert out == ""


def test_simulate_rejects_unknown_flag(capsys):
    code, out, err = run_cli(capsys, "simulate", "--turbo")
    assert code == 2


def test_simulate_deterministic_output(capsys):
    code_a, out_a, _ = run_cli(capsys, "simulate", "--alpha", "0.06",
                               "--periods", "30", "--warmup", "5")
    code_b, out_b, _ = run_cli(capsys, "simulate", "--alpha", "0.06",
                               "--periods", "30", "--warmup", "5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_simulate_dump_and_replay_roundtrip(tmp_path, capsys):
    dump = tmp_path / "streams.csv"
    code, out_orig, _ = run_cli(capsys, "simulate", "--alpha", "0.08",
                                "--periods", "30", "--warmup", "5",
                                "--dump-forecasts", str(dump))
    assert code == 0
    assert dump.exists()

    # replay reproduces the stochastic run even with sampling switched off
    code, out_replay, _ = run_cli(capsys, "simulate", "--alpha", "0",
                                  "--periods", "30", "--warmup", "5",
                                  "--replay-forecasts", str(dump))
    assert code == 0
    orig_cost = [l for l in out_orig.splitlines() if "overall cost" in l]
    replay_cost = [l for l in out_replay.splitlines() if "overall cost" in l]
    assert orig_cost == replay_cost

    # a longer run reads updates the 30-period dump does not hold
    code, _, err = run_cli(capsys, "simulate", "--alpha", "0",
                           "--periods", "60", "--warmup", "5",
                           "--replay-forecasts", str(dump))
    assert code == 2
    assert "error: replay has no update for product 10 due 33 at j=2" in err


@pytest.mark.parametrize("flag, expected", [("--bias", 480),
                                            ("--config", 700)])
def test_simulate_refuses_a_replay_of_another_scenario(tmp_path, capsys,
                                                       flag, expected):
    dump = tmp_path / "d.csv"
    run = ("simulate", "--periods", "40", "--warmup", "5")
    code, _, _ = run_cli(capsys, *run, "--alpha", "0.06",
                         "--dump-forecasts", str(dump))
    assert code == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"demand": {"expected_amount": 700}}))
    value = "permanent_underbooking" if flag == "--bias" else str(config)
    # the updates alone would run on from the other long-term forecast
    code, out, err = run_cli(capsys, *run, "--alpha", "0", flag, value,
                             "--replay-forecasts", str(dump))
    assert code == 2
    assert out == ""
    assert (f"error: replay's long-term value for product 10 due 13 is 800, "
            f"this run's is {expected}") in err


def test_simulate_dump_bytes_are_pinned(tmp_path, capsys):
    # streams opened with j < H (first_delay 3) and streams the run leaves
    # before delivery (due past period 40) both appear in this dump
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"demand": {"first_delay": 3}}))
    dump = tmp_path / "tape.csv"
    code, _, _ = run_cli(capsys, "simulate", "--alpha", "0.08", "--bias",
                         "temporary_overbooking", "--periods", "40",
                         "--warmup", "5", "--rep", "1", "--seed", "7",
                         "--config", str(config), "--dump-forecasts", str(dump))
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == \
        "58771d25f25561129282a20e1122f182cc48330cc659922870673abfbb3ad2c0"


def test_simulate_trace_files(tmp_path, capsys):
    # product orders wait for material in 30 of the 60 periods, so the MRP
    # trace covers component demand of blocked orders too
    mrp = tmp_path / "mrp.csv"
    events = tmp_path / "events.csv"
    code, out, _ = run_cli(capsys, "simulate", "--alpha", "0.12", "--plt", "8",
                           "--policy", "FOQ:1600", "--periods", "60",
                           "--warmup", "5", "--mrp-trace", str(mrp),
                           "--event-trace", str(events), "--period-log")
    assert code == 0
    assert mrp.read_text().splitlines()[0] == \
        "period,item,bucket,gross,receipts,projected,net,lot"
    assert events.read_text().splitlines()[0] == \
        "minute,event,order,item,machine,qty"
    assert "period    1" in out
    assert hashlib.sha256(mrp.read_bytes()).hexdigest() == \
        "fe069d0b3687366ccddd8f65f92e4f768204f3a5d2b8124aaff71f6dc3287842"
    assert hashlib.sha256(events.read_bytes()).hexdigest() == \
        "dab47ab1cc4f4368ffc7cf1ad454d2353d5adf6dc9a09cfd777cefdacfdebba1"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b90d5f8f5a817a50132d2cfc1516b6f0b369dd914b61e14c7261fc677ce5e83f"


def test_simulate_trace_files_extended_backorders(tmp_path, capsys):
    # extended netting under heavy backorders: covered_until moves with each
    # released FOP:9 lot, and permanent underbooking leaves demand open
    mrp = tmp_path / "mrp.csv"
    events = tmp_path / "events.csv"
    code, out, _ = run_cli(capsys, "simulate", "--alpha", "0.10", "--util",
                           "high", "--bias", "permanent_underbooking",
                           "--mode", "extended", "--sst", "1.5", "--plt", "3",
                           "--policy", "FOP:9", "--periods", "60",
                           "--warmup", "5", "--mrp-trace", str(mrp),
                           "--event-trace", str(events), "--period-log")
    assert code == 0
    assert hashlib.sha256(mrp.read_bytes()).hexdigest() == \
        "18d05f0acc1e4b301d008d66f6dd2d764bac4fee24de45d1fae1e43995716764"
    assert hashlib.sha256(events.read_bytes()).hexdigest() == \
        "7ce1eceddd2b724d5f4a7b33e57bf76e99af3ed3f9f80f3938c27044551889b4"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "05300b28ee2874fed4570e5e4fd55ae6ad083b3fff61276740843e3380cb8574"


def test_period_log_alone_prints_the_same_periods(tmp_path, capsys):
    run = ("simulate", "--alpha", "0.12", "--plt", "8", "--policy", "FOQ:1600",
           "--periods", "60", "--warmup", "5", "--period-log")
    code, alone, _ = run_cli(capsys, *run)
    assert code == 0
    code, traced, _ = run_cli(capsys, *run, "--mrp-trace",
                              str(tmp_path / "mrp.csv"), "--event-trace",
                              str(tmp_path / "events.csv"))
    assert code == 0
    periods = [line for line in alone.splitlines() if line.startswith("period")]
    assert len(periods) == 60
    assert periods == [line for line in traced.splitlines()
                       if line.startswith("period")]


def test_simulate_matches_grid_cell(capsys):
    # the CLI and the grid build a run through the same make_config
    code, out, _ = run_cli(capsys, "simulate", "--util", "medium", "--bias",
                           "permanent_underbooking", "--alpha", "0.06",
                           "--mode", "extended", "--sst", "0.4", "--plt", "3",
                           "--policy", "FOQ:200", "--rep", "1", "--seed", "7",
                           "--periods", "40", "--warmup", "5")
    assert code == 0
    params = PlanningParams(0.4, 3, "FOQ", 200, mode="extended")
    cell = Cell(0, Instance("medium", 0.06, "permanent_underbooking"),
                params, 1)
    row = run_cell(cell, 7, 40, 5)
    assert f"overall cost   {row['overall_cost']:10.1f} CU per period" in out
    assert f"final orders   {row['n_final_orders']:10d}" in out
    assert "medium alpha=0.06 permanent_underbooking" in out


def test_simulate_reports_where_extended_netting_diverges(capsys):
    cell = ("simulate", "--util", "medium", "--alpha", "0.06", "--sst", "0.6",
            "--policy", "FOQ:200", "--periods", "80", "--warmup", "10")
    # plt 1 with FOQ plans on firmed orders: the netting modes tie
    code, out, _ = run_cli(capsys, *cell, "--plt", "1")
    assert code == 0
    assert "extended netting first nets differently: never" in out
    code, out, _ = run_cli(capsys, *cell, "--plt", "3")
    assert code == 0
    assert "extended netting first nets differently: period 13" in out
    code, out, _ = run_cli(capsys, *cell, "--plt", "3", "--mode", "extended")
    assert code == 0
    assert "nets differently" not in out


@pytest.mark.parametrize("mode", ["extended", "standard"])
def test_simulate_prints_the_same_summary_when_traced(capsys, tmp_path, mode):
    # a traced run nets each product's whole decision window, an untraced
    # one only the buckets that can shape what it releases
    cell = ("simulate", "--util", "high", "--alpha", "0.1", "--bias",
            "permanent_underbooking", "--mode", mode, "--sst", "1.5",
            "--plt", "3", "--policy", "FOP:9", "--periods", "60",
            "--warmup", "5")
    code, untraced, _ = run_cli(capsys, *cell)
    assert code == 0
    trace = tmp_path / "mrp.csv"
    code, traced, _ = run_cli(capsys, *cell, "--mrp-trace", str(trace))
    assert code == 0
    assert traced == untraced
    assert trace.stat().st_size > 0


def test_simulate_debug_checks(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--alpha", "0.1",
                           "--periods", "30", "--warmup", "5",
                           "--debug-checks")
    assert code == 0


# --------------------------------------------------------- analyze / tables

@pytest.fixture(scope="module")
def small_results_dir(tmp_path_factory):
    spec = GridSpec(name="small", alphas=(0.06,), sst_factors=(0.0, 0.2),
                    plts=(1,), fop_periods=(1,), foq_quantities=(),
                    component_lots=(800,), replications=2,
                    run_length=30, warmup=5)
    rows = run_grid(spec, workers=1)
    out = tmp_path_factory.mktemp("results")
    write_results(rows, str(out / "results.csv"))
    return out


def file_rows(results_dir) -> list[dict]:
    """The rows of a results file as dicts of their text, which
    `write_results` writes back unchanged."""
    with open(results_dir / "results.csv", newline="",
              encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_analyze_text_output(small_results_dir, capsys):
    code, out, err = run_cli(capsys, "analyze", "--in", str(small_results_dir))
    assert code == 0
    assert "Extended vs standard netting" in out
    assert "low-a0.06-b0-unbiased" in out
    assert "Welch t-test" in out


def test_analyze_paired_and_csv(small_results_dir, capsys):
    code, out, err = run_cli(capsys, "analyze", "--in", str(small_results_dir),
                             "--paired", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "instance,standard,extended,change,p-value,sig"


def test_analyze_names_the_modes_of_a_one_mode_file(small_results_dir,
                                                    tmp_path, capsys):
    rows = [r for r in file_rows(small_results_dir)
            if r["mode"] == "extended"]
    write_results(rows, str(tmp_path / "results.csv"))
    code, out, err = run_cli(capsys, "analyze", "--in", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.endswith("\n(no instance has both modes; results contain "
                        "['extended'])\n")


FOOTPRINT_SCRIPT = """
import json, sys
import mrpsim.cli as cli
on_import = sorted({name.split(".")[0] for name in sys.modules}
                   & {"numpy", "scipy"})
codes = [cli.main(["analyze", "--in", sys.argv[1]]),
         cli.main(["analyze", "--paired", "--in", sys.argv[1]])]
print(json.dumps({"on_import": on_import, "codes": codes,
                  "scipy.stats": "scipy.stats" in sys.modules}))
"""


def test_analysis_never_imports_scipy_stats(tmp_path):
    """`import mrpsim.cli` loads neither numpy nor scipy, and a Welch and a
    paired analysis of costs that vary over replications leave
    `scipy.stats` unloaded."""
    rows = []
    for mode, costs in (("standard", (9500.0, 9700.0, 9300.0)),
                        ("extended", (9400.0, 9650.0, 9350.0))):
        for rep, cost in enumerate(costs):
            rows.append({
                "instance_id": "low-a0.06-b0-unbiased", "alpha": 0.06,
                "beta": 0, "bias": "unbiased", "utilization": "low",
                "mode": mode, "sst_factor": 0.2, "plt": 2, "policy": "FOP",
                "policy_param": 2, "comp_lot": 800, "replication": rep,
                "seed": 42, "overall_cost": cost, "wip_cost": 100.0,
                "fgi_cost": 50.0, "backorder_cost": 10.0,
                "service_level": 0.99, "n_final_orders": 720,
                "leadtime_mean": 2.5, "leadtime_sd": 0.4})
    path = tmp_path / "results.csv"
    write_results(rows, str(path))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(path)],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    *printed, facts = done.stdout.splitlines()
    assert json.loads(facts) == {"on_import": [], "codes": [0, 0],
                                 "scipy.stats": False}
    p_values = [float(line.split()[4]) for line in printed
                if line.startswith("low-a0.06-b0-unbiased")]
    assert len(p_values) == 2
    assert all(0.0 < p < 1.0 for p in p_values)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("command", ["analyze", "tables"])
def test_a_non_finite_cost_is_refused_in_either_row_order(
        small_results_dir, tmp_path, capsys, command, reverse):
    # a nan cost ranked as the best setting or not by where it stood
    rows = file_rows(small_results_dir)
    rows[0]["overall_cost"] = "nan"
    line = 2
    if reverse:
        rows.reverse()
        line = len(rows) + 1
    write_results(rows, str(tmp_path / "results.csv"))
    code, out, err = run_cli(capsys, command, "--in", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"error: results line {line}, column overall_cost: 'nan'" in err


@pytest.mark.parametrize("column, value", [
    ("alpha", "nan"), ("wip_cost", "nan"), ("sst_factor", "inf"),
    ("service_level", "-inf"), ("leadtime_mean", "nan")])
@pytest.mark.parametrize("command", [["analyze"], ["tables", "--csv"]])
def test_a_non_finite_value_is_refused_in_any_float_column(
        small_results_dir, tmp_path, capsys, command, column, value):
    # a nan alpha labelled its instance a=nan although its instance_id read
    # a0.06, and a nan wip_cost or service_level printed as nan
    rows = file_rows(small_results_dir)
    rows[1][column] = value
    write_results(rows, str(tmp_path / "results.csv"))
    code, out, err = run_cli(capsys, *command, "--in", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"error: results line 3, column {column}: '{value}'" in err


@pytest.mark.parametrize("defect", ["doubled", "shifted"])
@pytest.mark.parametrize("command", [["analyze"], ["tables", "--csv"]])
def test_replications_that_repeat_or_differ_are_refused(
        small_results_dir, tmp_path, capsys, command, defect):
    # every row written twice kept the counts equal and shrank the p-values;
    # one extended row's replication moved was paired with another's
    rows = file_rows(small_results_dir)
    if defect == "doubled":
        rows += rows
    else:
        moved = next(r for r in rows
                     if r["mode"] == "extended" and r["replication"] == "1")
        moved["replication"] = "2"
    write_results(rows, str(tmp_path / "results.csv"))
    code, out, err = run_cli(capsys, *command, "--in", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: replications differ or repeat across "
                          "parameter sets: ")


@pytest.mark.parametrize("command", [["analyze"], ["tables", "--csv"]])
def test_an_instance_with_two_identities_is_refused(small_results_dir,
                                                    tmp_path, capsys, command):
    # the last two rows once went to "low unbiased a=0.06" and exited 0
    rows = file_rows(small_results_dir)
    for row in rows[-2:]:
        row.update(alpha="0.1", utilization="high")
    write_results(rows, str(tmp_path / "results.csv"))
    code, out, err = run_cli(capsys, *command, "--in", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: instance low-a0.06-b0-unbiased has rows of two "
                   "identities (utilization, alpha, beta, bias): ('low', "
                   "0.06, 0, 'unbiased') and ('high', 0.1, 0, 'unbiased')\n")


def test_analyze_missing_results(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", "--in", str(tmp_path))
    assert code == 2
    assert "no results file" in err


def test_analyze_requires_in(capsys):
    code, out, err = run_cli(capsys, "analyze")
    assert code == 2


def _option_help(capsys, command):
    """The words of each option's entry in `command --help`; the column
    layout differs between commands, the words should not."""
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    entries, name = {}, None
    for line in out.splitlines():
        if line.startswith("  -"):
            name = line.split()[0]
        elif not line.startswith("   "):
            name = None
        if name is not None:
            entries.setdefault(name, []).extend(line.split())
    return entries


def test_analyze_and_tables_describe_their_shared_options_alike(capsys):
    analyze, tables = (_option_help(capsys, command)
                       for command in ("analyze", "tables"))
    for option in ("--in", "--paired", "--csv"):
        assert tables[option] == analyze[option]
    assert "t-test" in tables["--paired"]


def test_tables_renders_selected_table(small_results_dir, capsys):
    code, out, err = run_cli(capsys, "tables", "--in", str(small_results_dir),
                             "--table", "best-standard")
    assert code == 0
    assert "Best planning parameters (standard netting)" in out


def test_tables_ranks_the_results_file_once(small_results_dir, capsys,
                                           monkeypatch):
    """Seven tables, one grouping and ranking of the file."""
    from mrpsim import experiment

    calls = []
    grouping = experiment._best_cells
    monkeypatch.setattr(experiment, "_best_cells",
                        lambda rows: calls.append(rows) or grouping(rows))
    code, out, err = run_cli(capsys, "tables", "--in", str(small_results_dir))
    assert code == 0
    assert "Extended vs standard netting" in out
    assert len(calls) == 1


def test_tables_writes_files(small_results_dir, tmp_path, capsys):
    written = {}
    for ext, flags in (("txt", ()), ("csv", ("--csv",))):
        out_dir = tmp_path / ext
        code, out, err = run_cli(capsys, "tables", "--in",
                                 str(small_results_dir), "--out", str(out_dir),
                                 *flags)
        assert code == 0
        written[ext] = sorted(p.name for p in out_dir.iterdir())
    assert "mode-comparison.txt" in written["txt"]
    # CSV drops exactly the tables the text run drops
    assert written["csv"] == [name.replace(".txt", ".csv")
                              for name in written["txt"]]


# ----------------------------------------------------------------- general

def test_version(capsys):
    code, out, err = run_cli(capsys, "--version")
    assert code == 0
    assert "mrpsim" in out


def test_missing_command(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("validate", "--seed", "1"),
    ("analyze", "--in", "results", "--seed", "1"),
    ("tables", "--in", "results", "--seed", "1"),
    ("analyze", "--in", "results", "--config", "/nonexistent.json"),
    ("tables", "--in", "results", "--config", "/nonexistent.json"),
])
def test_options_a_command_ignores_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "mrpsim", "--version"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("mrpsim ")
