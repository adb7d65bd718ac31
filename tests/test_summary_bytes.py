"""tools/summary_bytes.py on a small written results file."""

import importlib.util
import re
import sys
from pathlib import Path

from mrpsim.experiment import RESULT_COLUMNS, write_results

_PATH = Path(__file__).resolve().parent.parent / "tools" / "summary_bytes.py"
_SPEC = importlib.util.spec_from_file_location("summary_bytes", _PATH)
summary_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(summary_bytes)


def test_main_prints_rows_sets_bytes_and_ranking_peak(tmp_path, monkeypatch,
                                                      capsys):
    """Two instances x two modes x three parameter sets x two
    replications: 24 rows in 12 parameter sets."""
    base = dict.fromkeys(RESULT_COLUMNS, 0)
    rows = [{**base, "instance_id": instance, "alpha": 0.06,
             "bias": "unbiased", "utilization": "low", "mode": mode,
             "sst_factor": sst, "plt": 1, "policy": "FOP", "policy_param": 2,
             "comp_lot": 800, "replication": rep,
             "overall_cost": 1000.0 + 10 * sst + rep}
            for instance in ("low-a0.06-b0-unbiased", "low-a0.1-b0-unbiased")
            for mode in ("standard", "extended")
            for sst in (0.0, 0.2, 0.4) for rep in (0, 1)]
    rows[12:] = [{**row, "alpha": 0.1} for row in rows[12:]]
    path = tmp_path / "results.csv"
    write_results(rows, str(path))
    monkeypatch.setattr(sys, "argv", ["summary_bytes.py", str(path)])
    summary_bytes.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["rows: 24", "parameter sets: 12"]
    assert re.fullmatch(r"held by read_results: [\d,]+ B, [\d.]+ B per row, "
                        r"[\d.]+ B per parameter set", lines[2])
    assert re.fullmatch(r"ranking peak: [\d,]+ B, [\d.]+ B per row", lines[3])
    assert len(lines) == 4
    measured = summary_bytes.measure(str(path))
    assert measured["held"] > 0 and measured["ranking"] > 0
