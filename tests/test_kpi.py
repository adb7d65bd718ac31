"""Cost accrual, warmup windows, service level and lead-time statistics."""

import math

import pytest

from mrpsim.config import build_system
from mrpsim.inventory import CustomerDemand
from mrpsim.kpi import KpiTracker

RATES = build_system().cost_rates
PM = 1440.0   # minutes per period


def period_cost(wip, fgi, backorder):
    """Cost of one measured period holding the given pieces."""
    tracker = KpiTracker(run_length=2, warmup=1, period_minutes=PM)
    tracker.record_snapshot(1, 0, 0, 0)
    tracker.record_snapshot(2, wip, fgi, backorder)
    return tracker.summarize(RATES, demands=[],
                             machine_utilization={}).overall_cost


def test_accrue_cost_rates():
    # 200*0.5 + 100*1.0 + 50*19.0
    assert period_cost(200, 100, 50) == 1150.0
    assert period_cost(0, 0, 0) == 0.0


def test_accrue_backorder_dominates():
    assert period_cost(0, 0, 800) == 15200.0


def test_warmup_must_end_before_run():
    with pytest.raises(ValueError, match="warmup"):
        KpiTracker(run_length=40, warmup=40, period_minutes=PM)
    with pytest.raises(ValueError, match="warmup"):
        KpiTracker(run_length=40, warmup=41, period_minutes=PM)
    with pytest.raises(ValueError, match="warmup -1, run length 40"):
        KpiTracker(run_length=40, warmup=-1, period_minutes=PM)


def fill_tracker(run_length=10, warmup=2, wip=100, fgi=50, backorder=10):
    tracker = KpiTracker(run_length=run_length, warmup=warmup, period_minutes=PM)
    for period in range(1, run_length + 1):
        tracker.record_snapshot(period, wip, fgi, backorder)
    return tracker


def test_summarize_averages_and_decomposition():
    tracker = fill_tracker(wip=100, fgi=50, backorder=10)
    summary = tracker.summarize(RATES, demands=[],
                                machine_utilization={101: 0.9})
    assert summary.avg_wip_pieces == 100
    assert summary.avg_fgi_pieces == 50
    assert summary.avg_backorder_pieces == 10
    assert summary.wip_cost == 50.0
    assert summary.fgi_cost == 50.0
    assert summary.backorder_cost == 190.0
    assert summary.overall_cost == 290.0
    assert summary.overall_cost == (summary.wip_cost + summary.fgi_cost
                                    + summary.backorder_cost)
    assert summary.machine_utilization == {101: 0.9}


def test_summarize_requires_full_measurement_window():
    tracker = KpiTracker(run_length=10, warmup=2, period_minutes=PM)
    for period in range(1, 10):   # one snapshot short
        tracker.record_snapshot(period, 0, 0, 0)
    with pytest.raises(ValueError, match="snapshots"):
        tracker.summarize(RATES, [], {})


def test_warmup_snapshots_do_not_count():
    tracker = KpiTracker(run_length=10, warmup=2, period_minutes=PM)
    # expensive warmup, empty afterwards
    for period in range(1, 3):
        tracker.record_snapshot(period, 10000, 10000, 10000)
    for period in range(3, 11):
        tracker.record_snapshot(period, 0, 0, 0)
    summary = tracker.summarize(RATES, [], {})
    assert summary.overall_cost == 0.0


def test_service_level():
    tracker = fill_tracker()
    demands = []
    for i in range(20):
        d = CustomerDemand(10, due=3 + (i % 8), qty=800)
        d.fulfilled_period = d.due if i < 18 else d.due + 2
        demands.append(d)
    summary = tracker.summarize(RATES, demands, {})
    assert summary.service_level == pytest.approx(0.90)
    assert summary.demands_total == 20
    assert summary.demands_on_time == 18


def test_service_level_ignores_demands_outside_window():
    tracker = fill_tracker(run_length=10, warmup=2)
    inside = CustomerDemand(10, due=5, qty=800)
    inside.fulfilled_period = 5
    warmup_due = CustomerDemand(10, due=2, qty=800)       # never fulfilled
    beyond_run = CustomerDemand(10, due=11, qty=800)      # never fulfilled
    summary = tracker.summarize(RATES, [inside, warmup_due, beyond_run], {})
    assert summary.service_level == 1.0
    assert summary.demands_total == 1


def test_service_level_empty_is_one():
    tracker = fill_tracker()
    assert tracker.summarize(RATES, [], {}).service_level == 1.0


def test_lead_time_in_periods():
    tracker = KpiTracker(run_length=10, warmup=2, period_minutes=PM)
    # release at start of period k+1, complete two periods later
    tracker.record_completion(5 * PM, 7 * PM)
    assert tracker.leadtimes == [2.0]


def test_lead_time_mean_and_sample_sd():
    tracker = fill_tracker()
    tracker.record_completion(4 * PM, 6 * PM)    # 2.0
    tracker.record_completion(5 * PM, 9 * PM)    # 4.0
    summary = tracker.summarize(RATES, [], {})
    assert summary.leadtime_mean == pytest.approx(3.0)
    assert summary.leadtime_sd == pytest.approx(math.sqrt(2.0))


def test_completion_window_edges():
    tracker = KpiTracker(run_length=10, warmup=2, period_minutes=PM)
    tracker.record_completion(0.0, 2 * PM)        # exactly at warmup end: counts
    tracker.record_completion(0.0, 2 * PM - 1)    # just inside warmup: dropped
    assert tracker.leadtimes == [2.0]


def test_release_counter_window():
    tracker = KpiTracker(run_length=10, warmup=2, period_minutes=PM)
    tracker.record_release(2 * PM)        # counts
    tracker.record_release(2 * PM - 1)    # warmup: dropped
    tracker.record_release(9 * PM)
    assert tracker.n_final_orders == 2


def test_windows_and_lead_times_use_the_trackers_period_length():
    tracker = KpiTracker(run_length=10, warmup=2, period_minutes=60.0)
    tracker.record_release(119.0)            # warmup ends at minute 120
    tracker.record_release(120.0)
    tracker.record_completion(30.0, 119.0)   # dropped
    tracker.record_completion(30.0, 150.0)
    assert tracker.n_final_orders == 1
    assert tracker.leadtimes == [2.0]
