"""mrpsim benchmark: grid and analysis throughput, set-up time, memory.

Run from the root of a source checkout; nothing needs installing:

    python3 perfbench/run.py --workload grid-crn --seed 42 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Diagnostics go to
standard error.  Exit codes: 0 success, 1 a correctness check failed (the
JSON then carries no metrics), 2 the checkout has no mrpsim sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def main(argv=None) -> int:
    if not (SRC / "mrpsim" / "__init__.py").is_file():
        print(f"error: no mrpsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30,
                        help="nominal measured seconds; scales the work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    tally = workloads.Tally()
    try:
        metrics = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), workdir, tally)
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run still uses it
    print(json.dumps({
        "correct": True, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
