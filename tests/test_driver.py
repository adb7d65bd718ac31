"""Full simulation runs: determinism, CRN, conservation, golden steady state."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from mrpsim.driver import SimulationRun, build_tape, make_config
from mrpsim.forecast import (SCHEDULES, ForecastStream, advance, dump_tape,
                             load_replay, long_term_forecast, stream_rng)
from mrpsim.mrp import PlanningParams
from mrpsim.shopfloor import ProductionOrder

FOP1 = PlanningParams(0.0, 1, "FOP", 1)


def summarize(config, **kw):
    return SimulationRun(config, **kw).run()


def summary_tuple(s):
    d = dataclasses.asdict(s)
    d["machine_utilization"] = tuple(sorted(d["machine_utilization"].items()))
    return tuple(sorted(d.items()))


def test_deterministic_steady_state():
    # alpha=0 and fixed setups: the plant settles into a fully predictable
    # cycle.  Two 800-piece lots release per period at 0.5 CU WIP, component
    # stock waits its full 3-period lead time (3 x 1600 pieces per component),
    # so measured WIP is (1600 + 9600) * 0.5 = 5600 CU and nothing else accrues.
    cfg = make_config(alpha=0, params=FOP1, run_length=60, warmup=12,
                      overrides={"setup": {"cv": 0.0}})
    s = summarize(cfg)
    assert s.overall_cost == 5600.0
    assert s.wip_cost == 5600.0
    assert s.fgi_cost == 0.0
    assert s.backorder_cost == 0.0
    assert s.service_level == 1.0
    assert s.demands_total == 96
    assert s.n_final_orders == 96
    # 216 + 800*1.35 per stage, twice, in periods
    assert s.leadtime_mean == pytest.approx(1.8, abs=1e-9)
    assert s.leadtime_sd == pytest.approx(0.0, abs=1e-9)
    for mid in (101, 102, 111, 112):
        assert s.machine_utilization[mid] == pytest.approx(0.9, abs=1e-9)
    # one merged component lot per period: one 94-minute setup
    for mid in (201, 202):
        assert s.machine_utilization[mid] == pytest.approx(1182.0 / 1440.0,
                                                           abs=1e-9)


def test_alpha_zero_demands_are_expected_amount():
    cfg = make_config(alpha=0, params=FOP1, run_length=60, warmup=12)
    run = SimulationRun(cfg)
    run.run()
    assert run.demands_all
    assert all(d.qty == 800 for d in run.demands_all)


def test_same_config_same_summary():
    a = make_config(alpha=0.08, params=FOP1, run_length=80, warmup=20)
    b = make_config(alpha=0.08, params=FOP1, run_length=80, warmup=20)
    assert summary_tuple(summarize(a)) == summary_tuple(summarize(b))


def test_crn_demands_identical_across_parameters_and_modes():
    def demand_seq(params):
        cfg = make_config(alpha=0.10, params=params, run_length=80, warmup=20)
        run = SimulationRun(cfg)
        run.run()
        return [(d.product, d.due, d.qty) for d in run.demands_all]

    base = demand_seq(FOP1)
    assert base == demand_seq(PlanningParams(0.4, 3, "FOQ", 400))
    assert base == demand_seq(PlanningParams(0.4, 3, "FOP", 2, mode="extended"))


def test_replications_differ():
    a = make_config(alpha=0.08, params=FOP1, run_length=80, warmup=20,
                    replication=0)
    b = make_config(alpha=0.08, params=FOP1, run_length=80, warmup=20,
                    replication=1)
    assert summarize(a).overall_cost != summarize(b).overall_cost


def test_firmed_demands_match_stream_values():
    cfg = make_config(alpha=0.08, params=FOP1, run_length=60, warmup=12)
    run = SimulationRun(cfg)
    run.run()
    firmed = {(d.product, d.due): d.qty for d in run.demands_all}
    due_in_run = {key: values for key, values in run.tape.items()
                  if key[1] <= 60}
    assert firmed.keys() == due_in_run.keys()
    for key, values in due_in_run.items():
        # the j = 0 value is the final forecast; its update is always zero
        assert firmed[key] == values[0] == values[1]


def _reference_tape(cfg):
    """Forecast values by (product, due, j) as a period-by-period loop that
    opens each stream when its due date enters the forecast range and
    advances every open stream once per period."""
    demand, scenario = cfg.system.demand, cfg.scenario
    horizon = scenario.horizon
    long_term = long_term_forecast(scenario)
    streams, rngs, values = {}, {}, {}
    for t in range(1, cfg.run_length + 1):
        for product in sorted(demand.offsets):
            for due in range(t, t + horizon + 1):
                if due <= demand.first_delay or \
                        (due - demand.offsets[product]) % demand.interval:
                    continue
                key = (product, due)
                if key not in streams:
                    streams[key] = ForecastStream(product, due, long_term)
                    rngs[key] = stream_rng(cfg.base_seed, cfg.replication,
                                           product, due)
                advance(streams[key], due - t, scenario, rngs[key])
                values[product, due, due - t] = streams[key].value
    return values


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), replication=st.integers(0, 30),
       alpha=st.sampled_from((0.0, 0.02, 0.06, 0.12)),
       bias=st.sampled_from(sorted(SCHEDULES)),
       run_length=st.integers(1, 45), first_delay=st.integers(0, 14))
def test_tape_equals_period_by_period_streams(seed, replication, alpha, bias,
                                               run_length, first_delay):
    cfg = make_config(alpha=alpha, beta=int(bias != "unbiased"), bias=bias,
                      base_seed=seed, replication=replication,
                      run_length=run_length, warmup=0,
                      overrides={"demand": {"first_delay": first_delay}})
    reference = _reference_tape(cfg)
    tape = build_tape(cfg)
    got = {}
    for (product, due), values in tape.items():
        lo = max(0, due - run_length)
        for offset, value in enumerate(values):
            got[product, due, lo + offset] = value
    assert got == reference


def test_receipt_book_buckets_and_completion():
    run = SimulationRun(make_config(params=FOP1, run_length=30, warmup=5))
    comp = run.system.items[20]
    overdue = ProductionOrder(1, comp, 800, 3, 3, 1, 1, planned_completion=3)
    future = ProductionOrder(2, comp, 1600, 9, 9, 5, 6, planned_completion=9)
    twin = ProductionOrder(3, comp, 800, 9, 9, 5, 6, planned_completion=9)
    for order in (overdue, future, twin):
        run._commit(order)

    # overdue pieces count in the current bucket, later ones keep their
    # period, and receipts past the window are left out
    assert run._receipts(20, 5, 12) == {5: 800, 9: 2400}
    assert run._receipts(20, 5, 8) == {5: 800}
    assert run._receipts(21, 5, 12) == {}

    run._on_completion(future, 0.0)
    assert run.receipt_book[20] == {3: 800, 9: 800}
    run._on_completion(overdue, 0.0)
    assert run.receipt_book[20] == {9: 800}
    assert run.ledger.on_hand[20] == 2400


def test_debug_checks_catch_receipt_book_drift():
    cfg = make_config(alpha=0.06, params=FOP1, run_length=30, warmup=5,
                      debug_checks=True)
    run = SimulationRun(cfg)
    for t in range(1, 21):
        run.step(t)
    book = next(book for book in run.receipt_book.values() if book)
    book[next(iter(book))] += 1
    with pytest.raises(AssertionError, match="receipt book"):
        run.step(21)


def test_conservation_checks_pass_on_noisy_run():
    cfg = make_config(alpha=0.12, params=PlanningParams(0.4, 3, "FOQ", 200,
                                                        mode="extended"),
                      run_length=150, warmup=20, debug_checks=True)
    s = summarize(cfg)   # raises on any conservation violation
    assert s.overall_cost > 0


def test_replay_reproduces_run_without_sampling(tmp_path):
    cfg = make_config(alpha=0.08, params=FOP1, run_length=60, warmup=12)
    original = SimulationRun(cfg)
    summary_a = original.run()
    path = tmp_path / "streams.csv"
    dump_tape(original.tape, cfg.scenario, str(path))

    # alpha=0 would normally freeze all forecasts; the replay file re-injects
    # the recorded updates, so the original run comes back exactly
    replayed_cfg = make_config(alpha=0.0, params=FOP1, run_length=60,
                               warmup=12, replay=load_replay(str(path)))
    summary_b = summarize(replayed_cfg)
    assert summary_tuple(summary_a) == summary_tuple(summary_b)


def test_period_log_and_traces():
    cfg = make_config(alpha=0, params=FOP1, run_length=30, warmup=5,
                      overrides={"setup": {"cv": 0.0}})
    mrp_trace, event_log, period_log = [], [], []
    summarize(cfg, mrp_trace=mrp_trace, event_log=event_log,
              period_log=period_log)

    assert [e.period for e in period_log] == list(range(1, 31))
    # nothing moves before the first orders are planned
    assert period_log[0].wip_pieces == 0
    assert period_log[0].shipped_demands == 0
    # steady state ships the two due demands every period
    assert all(e.shipped_demands == 2 for e in period_log if e.period >= 13)

    assert all(len(row) == 8 for row in mrp_trace)         # period + 7 columns
    kinds = {e[1] for e in event_log}
    assert kinds == {"release", "start", "finish_op"}


def test_backorders_accrue_when_capacity_is_gone():
    # PLT 1 with strong noise at high utilization cannot keep service up;
    # late demand stays open and accrues backorder cost
    cfg = make_config(utilization="high", alpha=0.12, params=FOP1,
                      run_length=120, warmup=20)
    s = summarize(cfg)
    assert s.service_level < 1.0
    assert s.backorder_cost > 0


def test_runs_share_a_tape_and_leave_it_unchanged():
    cfg = make_config(alpha=0.10, params=FOP1, run_length=60, warmup=12)
    alone = summary_tuple(summarize(cfg))
    tape = {}
    first = SimulationRun(cfg, tape=tape)
    assert tape and first.tape is tape
    snapshot = dict(tape)
    first.run()
    other = dataclasses.replace(
        cfg, params=PlanningParams(0.4, 3, "FOQ", 400, mode="extended"))
    summarize(other, tape=tape)
    assert tape == snapshot == build_tape(cfg)
    assert summary_tuple(summarize(cfg, tape=tape)) == alone
