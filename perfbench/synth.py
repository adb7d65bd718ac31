"""Seeded synthetic results file with the full study's shape.

Every (instance, parameter set, mode, replication) key of the given grid gets
one row whose KPI values come from `random.Random(seed)` alone, so one seed
always yields the same bytes.  The rows go through
`mrpsim.experiment.write_results`, so the file is what `mrpsim grid` would
have written for that grid.

Run as a script to write a file:

    PYTHONPATH=src python3 perfbench/synth.py --seed 42 --out /tmp/full.csv
"""

from __future__ import annotations

import argparse
import random

from mrpsim.experiment import GridSpec, enumerate_cells, write_results
from mrpsim.forecast import BIASED_SCHEDULES
from mrpsim.mrp import MODES

# All 960 parameter sets x 2 modes x 3 utilizations x 5 schedules, one noise
# level, two replications so the t-tests in compare_modes have variance.
FULL_SHAPE = GridSpec(name="analyze-full", utilizations=("low", "medium", "high"),
                      alphas=(0.06,), biased_schedules=BIASED_SCHEDULES,
                      modes=MODES, replications=2)


def synthesize(spec: GridSpec, seed: int) -> list[dict]:
    """One plausible result row per cell of `spec`, in enumeration order."""
    rng = random.Random(seed)
    rows = []
    for cell in enumerate_cells(spec):
        inst, params = cell.instance, cell.params
        wip = rng.uniform(4000.0, 9000.0)
        fgi = rng.uniform(300.0, 6000.0)
        backorder = rng.uniform(0.0, 4000.0) * rng.random()
        rows.append({
            "instance_id": inst.instance_id, "alpha": inst.alpha,
            "beta": inst.beta, "bias": inst.bias,
            "utilization": inst.utilization, "mode": cell.mode,
            "sst_factor": params.sst_factor, "plt": params.plt,
            "policy": params.policy, "policy_param": params.policy_param,
            "comp_lot": params.component_lot, "replication": cell.replication,
            "seed": seed, "overall_cost": wip + fgi + backorder,
            "wip_cost": wip, "fgi_cost": fgi, "backorder_cost": backorder,
            "service_level": rng.uniform(0.8, 1.0),
            "n_final_orders": rng.randint(600, 900),
            "leadtime_mean": rng.uniform(1.0, 6.0),
            "leadtime_sd": rng.uniform(0.1, 2.0),
        })
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_results(synthesize(FULL_SHAPE, args.seed), args.out)


if __name__ == "__main__":
    main()
