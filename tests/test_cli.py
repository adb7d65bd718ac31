"""Command-line interface: output formats, exit codes, file side effects."""

import hashlib
import json

import pytest

from mrpsim.cli import main
from mrpsim.experiment import GridSpec, run_grid, write_results


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


def test_validate_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"setup": {"turbo": 1.0}}))
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


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


def test_grid_rejects_unknown_preset(capsys):
    code, out, err = run_cli(capsys, "grid", "--preset", "everything",
                             "--dry-run")
    assert code == 2


# ---------------------------------------------------------------- simulate

def test_simulate_smoke(capsys):
    code, out, err = run_cli(capsys, "simulate", "--periods", "30",
                             "--warmup", "5")
    assert code == 0
    assert "overall cost" in out
    assert "service level" in out
    assert "final orders" in out
    assert "standard sst=0 plt=1 FOP:1" in out


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
    mrp = tmp_path / "mrp.csv"
    events = tmp_path / "events.csv"
    code, out, _ = run_cli(capsys, "simulate", "--periods", "20",
                           "--warmup", "5", "--mrp-trace", str(mrp),
                           "--event-trace", str(events), "--period-log")
    assert code == 0
    assert mrp.read_text().splitlines()[0] == \
        "period,item,bucket,gross,receipts,projected,net,lot"
    assert events.read_text().splitlines()[0] == \
        "minute,event,order,item,machine,qty"
    assert "period    1" in out


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


def test_analyze_missing_results(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", "--in", str(tmp_path))
    assert code == 2
    assert "no results file" in err


def test_analyze_requires_in(capsys):
    code, out, err = run_cli(capsys, "analyze")
    assert code == 2


def test_tables_renders_selected_table(small_results_dir, capsys):
    code, out, err = run_cli(capsys, "tables", "--in", str(small_results_dir),
                             "--table", "best-standard")
    assert code == 0
    assert "Best planning parameters (standard netting)" in out


def test_tables_writes_files(small_results_dir, tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, out, err = run_cli(capsys, "tables", "--in", str(small_results_dir),
                             "--out", str(out_dir))
    assert code == 0
    written = sorted(p.name for p in out_dir.iterdir())
    assert "mode-comparison.txt" in written


# ----------------------------------------------------------------- general

def test_version(capsys):
    code, out, err = run_cli(capsys, "--version")
    assert code == 0
    assert "mrpsim" in out


def test_missing_command(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
