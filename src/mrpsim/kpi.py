"""Cost and service accounting over the measurement window.

Inventory is priced from end-of-period snapshots taken after fulfillment:
work in process (every released piece not yet in final-goods stock, plus
component stock), final-goods stock and open due demand per piece and
period, by default at 0.5, 1.0 and 19.0 CU (`costs.*` in
`config._DEFAULT_OVERRIDES`, which `--config` overrides).  Reported cost
figures are per-period averages over the measured periods (warmup excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def float_sum(values) -> float:
    """Add left to right from 0.0, as `sum()` does before Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def check_window(run_length: int, warmup: int) -> None:
    """Raise `ValueError` unless a period is measured after the warmup."""
    if not 0 <= warmup < run_length:
        raise ValueError(f"warmup must be at least 0 and end before the "
                         f"run does: warmup {warmup}, run length "
                         f"{run_length}")


@dataclass
class RunSummary:
    """KPI vector of one simulation run (costs are CU per period)."""

    overall_cost: float = 0.0
    wip_cost: float = 0.0
    fgi_cost: float = 0.0
    backorder_cost: float = 0.0
    service_level: float = 1.0
    n_final_orders: int = 0
    leadtime_mean: float = 0.0
    leadtime_sd: float = 0.0
    avg_wip_pieces: float = 0.0
    avg_fgi_pieces: float = 0.0
    avg_backorder_pieces: float = 0.0
    machine_utilization: dict[int, float] = field(default_factory=dict)
    demands_total: int = 0
    demands_on_time: int = 0


class KpiTracker:
    """Sums the measured periods' snapshots and collects order/demand
    outcomes during a run."""

    def __init__(self, run_length: int, warmup: int, period_minutes: float):
        check_window(run_length, warmup)
        self.run_length = run_length
        self.warmup = warmup
        self.period_minutes = period_minutes
        self.warmup_end = warmup * period_minutes   # in minutes
        self.n_snapshots = 0     # measured periods recorded so far
        self.wip_sum = 0
        self.fgi_sum = 0
        self.backorder_sum = 0
        self.leadtimes: list[float] = []
        self.n_final_orders = 0

    def record_snapshot(self, period: int, wip: int, fgi: int,
                        backorder: int) -> None:
        """Pieces held at the end of `period`; warmup periods do not count."""
        if period > self.warmup:
            self.n_snapshots += 1
            self.wip_sum += wip
            self.fgi_sum += fgi
            self.backorder_sum += backorder

    def record_release(self, release_time: float) -> None:
        if release_time >= self.warmup_end:
            self.n_final_orders += 1

    def record_completion(self, release_time: float,
                          completion_time: float) -> None:
        if completion_time >= self.warmup_end:
            self.leadtimes.append((completion_time - release_time)
                                  / self.period_minutes)

    def summarize(self, rates, demands,
                  machine_utilization: dict[int, float]) -> RunSummary:
        n, measured = self.n_snapshots, self.run_length - self.warmup
        if n != measured:
            raise ValueError(f"expected {measured} measured snapshots, got {n}")
        wip = self.wip_sum / n
        fgi = self.fgi_sum / n
        backorder = self.backorder_sum / n

        in_window = [d for d in demands
                     if self.warmup < d.due <= self.run_length]
        on_time = sum(1 for d in in_window if d.fulfilled_period == d.due)
        service = on_time / len(in_window) if in_window else 1.0

        lead_mean = lead_sd = 0.0
        if self.leadtimes:
            lead_mean = float_sum(self.leadtimes) / len(self.leadtimes)
            if len(self.leadtimes) > 1:
                var = (float_sum((x - lead_mean) ** 2 for x in self.leadtimes)
                       / (len(self.leadtimes) - 1))
                lead_sd = math.sqrt(var)

        summary = RunSummary(
            wip_cost=wip * rates.wip,
            fgi_cost=fgi * rates.fgi,
            backorder_cost=backorder * rates.backorder,
            service_level=service,
            n_final_orders=self.n_final_orders,
            leadtime_mean=lead_mean,
            leadtime_sd=lead_sd,
            avg_wip_pieces=wip,
            avg_fgi_pieces=fgi,
            avg_backorder_pieces=backorder,
            machine_utilization=dict(machine_utilization),
            demands_total=len(in_window),
            demands_on_time=on_time,
        )
        summary.overall_cost = (summary.wip_cost + summary.fgi_cost
                                + summary.backorder_cost)
        return summary
