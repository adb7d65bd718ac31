"""Measure the bytes a results file's summary holds, and ranking adds.

    python3 tools/summary_bytes.py PATH

PATH is a results CSV as `mrpsim grid` writes it.  The script prints the
file's rows and parameter sets, then the bytes that the summary
`experiment.read_results` returns holds, per row and per parameter set,
and the peak that `experiment.best_per_instance` adds while it ranks that
summary, per row.  Bytes are tracemalloc's, taken after mrpsim is
imported, so they count Python objects and not the interpreter; object
sizes differ between Python versions.  Standard library and mrpsim only;
mrpsim is imported from the `src/` directory beside `tools/`.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mrpsim.experiment import best_per_instance, read_results  # noqa: E402


def measure(path: str) -> dict[str, int]:
    """Rows, parameter sets, bytes held after `read_results` and the
    extra peak of `best_per_instance` on what it read."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = read_results(path)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        best_per_instance(summary)
        ranking = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return {"rows": len(summary),
            "sets": sum(map(len, summary._groups.values())),
            "held": held, "ranking": ranking}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="a results CSV")
    args = parser.parse_args()
    m = measure(args.path)
    rows, sets = m["rows"], m["sets"]
    print(f"rows: {rows:,}")
    print(f"parameter sets: {sets:,}")
    print(f"held by read_results: {m['held']:,} B, "
          f"{m['held'] / max(rows, 1):.1f} B per row, "
          f"{m['held'] / max(sets, 1):.1f} B per parameter set")
    print(f"ranking peak: {m['ranking']:,} B, "
          f"{m['ranking'] / max(rows, 1):.1f} B per row")


if __name__ == "__main__":
    main()
