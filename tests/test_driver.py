"""Full simulation runs: determinism, CRN, conservation, golden steady state."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mrpsim import driver
from mrpsim.driver import SimulationRun, build_tape
from mrpsim.experiment import FULL_ALPHAS, make_config
from mrpsim.config import (_DEFAULT_OVERRIDES, COMPONENTS, DEMAND_OFFSETS,
                           FINAL_PRODUCTS)
from mrpsim.forecast import (HORIZON, SCHEDULES, StreamNormals, advance,
                             dump_tape, load_replay, long_term_forecast,
                             stream_rng)
from mrpsim.mrp import (FOP_PERIODS, FOQ_QUANTITIES, MODES, PLT_VALUES,
                        SST_FACTORS, PlannedLot, PlanningParams,
                        decision_windows)
from mrpsim.shopfloor import ProductionOrder
from test_forecast import normals

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
    due_in_run = {key: values for key, values in _keyed(run.tape).items()
                  if key[1] <= 60}
    assert firmed.keys() == due_in_run.keys()
    for key, values in due_in_run.items():
        # the j = 0 value is the final forecast; its update is always zero
        assert firmed[key] == values[0] == values[1]


@settings(max_examples=40, deadline=None)
@given(interval=st.integers(1, 9), first_delay=st.integers(0, 20),
       run_length=st.integers(1, 30), alpha=st.sampled_from((0.0, 0.08)))
@example(interval=1, first_delay=0, run_length=12, alpha=0.08)
def test_demands_firm_on_the_patterns_due_dates(interval, first_delay,
                                               run_length, alpha):
    cfg = make_config(alpha=alpha, params=FOP1, run_length=run_length,
                      warmup=0, overrides={"demand": {
                          "interval": interval, "first_delay": first_delay}})
    run = SimulationRun(cfg)
    run.run()
    # the driver steps each product's due period by the interval; the tape
    # is built from `DemandPattern.due_dates`, and the two must agree
    demand = cfg.system.demand
    due = {p: demand.due_dates(p, 1, run_length) for p in FINAL_PRODUCTS}
    expected = [(p, t, run.tape[p][t][0]) for t in range(1, run_length + 1)
                for p in FINAL_PRODUCTS if t in due[p]]
    assert [(d.product, d.due, d.qty) for d in run.demands_all] == expected
    assert run.next_due == {
        p: demand.due_dates(p, run_length + 1,
                            run_length + first_delay + interval)[0]
        for p in FINAL_PRODUCTS}


def _keyed(tape):
    """An indexed tape's streams keyed (product, due)."""
    return {(product, due): values for product, column in tape.items()
            for due, values in enumerate(column) if values is not None}


def _update(value, j, scenario, rng):
    """`value` after its one update j periods before delivery: a stream of
    one update through `advance`."""
    means = tuple(scenario.update_mean(k) for k in range(HORIZON + 1))
    return advance(value, range(j, j - 1, -1), means, scenario.update_std,
                   normals(rng))[0]


def _keyed_tape(cfg):
    """The forecast tape keyed (product, due), built stream by stream over
    `DemandPattern.due_dates`, one `advance` call per update."""
    scenario, last = cfg.scenario, cfg.run_length
    tape = {}
    for product in FINAL_PRODUCTS:
        for due in cfg.system.demand.due_dates(product, 1, last + HORIZON):
            value = long_term_forecast(scenario)
            rng = stream_rng(cfg.base_seed, cfg.replication, product, due)
            values = []
            for j in range(min(HORIZON, due - 1), max(0, due - last) - 1, -1):
                value = _update(value, j, scenario, rng)
                values.append(value)
            tape[product, due] = tuple(reversed(values))
    return tape


def _reference_tape(cfg):
    """Forecast values by (product, due, j) as a period-by-period loop that
    opens each stream when its due date enters the forecast range and
    advances every open stream once per period."""
    demand, scenario = cfg.system.demand, cfg.scenario
    long_term = long_term_forecast(scenario)
    current, rngs, values = {}, {}, {}
    for t in range(1, cfg.run_length + 1):
        for product in sorted(DEMAND_OFFSETS):
            for due in range(t, t + HORIZON + 1):
                if due <= demand.first_delay or \
                        (due - DEMAND_OFFSETS[product]) % demand.interval:
                    continue
                key = (product, due)
                if key not in current:
                    current[key] = long_term
                    rngs[key] = stream_rng(cfg.base_seed, cfg.replication,
                                           product, due)
                current[key] = _update(current[key], due - t, scenario,
                                       rngs[key])
                values[product, due, due - t] = current[key]
    return values


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), replication=st.integers(0, 30),
       alpha=st.sampled_from((0.0, 0.02, 0.06, 0.12)),
       bias=st.sampled_from(sorted(SCHEDULES)),
       run_length=st.integers(1, 45), first_delay=st.integers(0, 14))
def test_tape_equals_period_by_period_streams(seed, replication, alpha, bias,
                                               run_length, first_delay):
    cfg = make_config(alpha=alpha, bias=bias, base_seed=seed,
                      replication=replication, run_length=run_length, warmup=0,
                      overrides={"demand": {"first_delay": first_delay}})
    reference = _reference_tape(cfg)
    tape = build_tape(cfg)
    assert tuple(tape) == FINAL_PRODUCTS
    # one slot per due period the run can read, None where nothing is due
    assert {len(column) for column in tape.values()} == \
        {run_length + HORIZON + 1}
    got = {}
    for (product, due), values in _keyed(tape).items():
        lo = max(0, due - run_length)
        for offset, value in enumerate(values):
            got[product, due, lo + offset] = value
    assert got == reference


def test_receipt_book_buckets_and_completion():
    run = SimulationRun(make_config(params=FOP1, run_length=30, warmup=5))
    # each lot's order is booked at its planned completion as it is made (a
    # late lot past its due period too); component orders always release,
    # so all three wait on the floor
    run._release_new([PlannedLot(20, 2, 800, 0, 3, 2),
                      PlannedLot(20, 9, 1600, 0, 9, 9),
                      PlannedLot(20, 9, 800, 0, 9, 9)], 0.0)
    late, future, _ = sorted((event[3] for event in run.shop.events),
                             key=lambda order: order.uid)
    assert (late.qty, late.planned_completion) == (800, 3)
    book = run.states[20].receipts
    assert book == {3: 800, 9: 2400}

    # each period folds the overdue bucket into the current one; later
    # receipts keep their period
    run._fold_receipts(4)
    run._fold_receipts(5)
    assert book == {5: 800, 9: 2400}
    assert run.states[21].receipts == {}

    run._on_completion(future, 0.0)
    assert book == {5: 800, 9: 800}
    # an overdue order completes out of the current bucket
    run._on_completion(late, 0.0)
    assert book == {9: 800}
    assert run.states[20].on_hand == 2400

    # the book is the receipts dict MRP nets, for the whole run
    with mock.patch.object(driver, "run_mrp") as planner:
        run._plan(5)
    states = planner.call_args.args[0]
    assert states is run.states
    assert states[20].receipts is book


def test_covered_until_never_moves_back():
    run = SimulationRun(make_config(params=FOP1, run_length=30, warmup=5))
    product = run.system.items[10]
    seen = []
    for uid, covered_end in enumerate((9, 5, 12), start=1):
        run._release(ProductionOrder(uid, product, 800, covered_end,
                                     planned_completion=covered_end), 0.0)
        seen.append(run.states[10].covered_until)
    assert seen == [9, 9, 12]


def _checked_run_at(period):
    cfg = make_config(alpha=0.06, params=FOP1, run_length=30, warmup=5,
                      debug_checks=True)
    run = SimulationRun(cfg)
    for t in range(1, period + 1):
        run.step(t)
    return run


def test_debug_checks_catch_receipt_book_drift():
    run = _checked_run_at(20)
    book = next(s.receipts for s in run.states.values() if s.receipts)
    book[next(iter(book))] += 1
    with pytest.raises(AssertionError, match="receipt book out of step"):
        run.step(21)


def test_debug_checks_catch_backlog_drift():
    run = _checked_run_at(20)
    run.backlog[10] += 1
    with pytest.raises(AssertionError, match="backlog of product 10"):
        run.step(21)


def test_debug_checks_catch_unfolded_receipt_book():
    run = _checked_run_at(20)
    # a bucket two periods overdue escapes the one-bucket fold; moving a
    # piece there keeps the booked total right
    item, book = next((i, s.receipts) for i, s in run.states.items()
                      if s.receipts)
    book[next(iter(book))] -= 1
    book[18] = 1
    with pytest.raises(AssertionError,
                       match=f"item {item} holds period 18 before period 21"):
        run.step(21)


def test_debug_checks_catch_a_lost_piece():
    run = _checked_run_at(20)
    state = next(s for s in run.states.values() if s.on_hand > 0)
    state.on_hand -= 1
    with pytest.raises(AssertionError,
                       match="piece conservation broken in period 21"):
        run.step(21)


def test_debug_checks_catch_negative_stock():
    run = _checked_run_at(20)
    # more than a period can bring in, so the stock is still negative at
    # the period's end
    run.states[20].on_hand = -10**6
    with pytest.raises(AssertionError,
                       match="negative stock of 20 in period 21"):
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
                               warmup=12)
    tape = build_tape(replayed_cfg, load_replay(str(path)))
    summary_b = summarize(replayed_cfg, tape=tape)
    assert summary_tuple(summary_a) == summary_tuple(summary_b)


def test_period_log_and_traces():
    cfg = make_config(alpha=0, params=FOP1, run_length=30, warmup=5,
                      overrides={"setup": {"cv": 0.0}}, trace=True)
    run = SimulationRun(cfg)
    run.run()
    mrp_trace, event_log, period_log = (run.mrp_trace, run.shop.event_log,
                                        run.period_log)

    # rows are (period, wip, fgi, backorder, released, shipped)
    assert [e[0] for e in period_log] == list(range(1, 31))
    # nothing moves before the first orders are planned
    assert period_log[0][1] == 0
    assert period_log[0][5] == 0
    # steady state ships the two due demands every period
    assert all(e[5] == 2 for e in period_log if e[0] >= 13)

    assert all(len(row) == 8 for row in mrp_trace)         # period + 7 columns
    kinds = {e[1] for e in event_log}
    assert kinds == {"release", "start", "finish_op"}


def test_untraced_run_keeps_no_trace():
    run = SimulationRun(make_config(params=FOP1, run_length=10, warmup=2))
    run.run()
    assert run.mrp_trace is None
    assert run.period_log is None
    assert run.shop.event_log is None


def test_period_log_totals_match_orders_and_demands():
    # product orders wait for material here, so some orders made are
    # released late and some are still blocked at the end
    cfg = make_config(alpha=0.12, params=PlanningParams(0.0, 8, "FOQ", 1600),
                      run_length=60, warmup=5, trace=True)
    run = SimulationRun(cfg)
    run.run()
    assert run.blocked
    assert sum(row[4] for row in run.period_log) == run._uid - len(run.blocked)
    shipped = [d for d in run.demands_all if d.fulfilled_period is not None]
    assert sum(row[5] for row in run.period_log) == len(shipped)


def test_backorders_accrue_when_capacity_is_gone():
    # PLT 1 with strong noise at high utilization cannot keep service up;
    # late demand stays open and accrues backorder cost
    cfg = make_config(utilization="high", alpha=0.12, params=FOP1,
                      run_length=120, warmup=20)
    s = summarize(cfg)
    assert s.service_level < 1.0
    assert s.backorder_cost > 0


def test_runs_share_a_tape_and_leave_it_unchanged():
    # two runs on one store read the tape the first one built
    cfg = make_config(alpha=0.10, params=FOP1, run_length=60, warmup=12)
    alone = summary_tuple(summarize(cfg))
    normals = StreamNormals(cfg.base_seed, cfg.replication)
    first = SimulationRun(cfg, normals=normals)
    tape = first.tape
    snapshot = {product: list(column) for product, column in tape.items()}
    first.run()
    other = SimulationRun(dataclasses.replace(
        cfg, params=PlanningParams(0.4, 3, "FOQ", 400, mode="extended")),
        normals=normals)
    assert other.tape is tape
    other.run()
    assert tape == snapshot == build_tape(cfg)
    # the indexed tape holds the streams of the keyed one and nothing else
    assert _keyed(tape) == _keyed_tape(cfg)
    assert summary_tuple(summarize(cfg, normals=normals)) == alone
    assert summary_tuple(summarize(cfg, tape=tape)) == alone


def test_a_store_of_another_seed_or_replication_is_refused():
    cfg = make_config(alpha=0.10, params=FOP1, base_seed=9, replication=2,
                      run_length=30, warmup=5)
    tape = build_tape(cfg)
    for seed, replication in ((9, 3), (8, 2)):
        store = StreamNormals(seed, replication)
        message = (rf"\({seed}, {replication}\) cannot serve a run of "
                   r"\(9, 2\)")
        with pytest.raises(ValueError, match=message):
            build_tape(cfg, normals=store)
        with pytest.raises(ValueError, match=message):
            SimulationRun(cfg, normals=store)
        with pytest.raises(ValueError, match=message):
            SimulationRun(cfg, tape=tape, normals=store)
        assert store.key is None and not store.streams
        assert len(store.shop_normals) == 0


@pytest.mark.parametrize("bias", ["unbiased", "permanent_overbooking"])
def test_a_tape_reads_only_the_demand_section_of_the_plant(bias):
    # `grid` shares one tape among the utilizations of a forecast scenario:
    # utilization sets only setup times, which no tape reads
    def tape(utilization="low", overrides=None):
        return build_tape(make_config(utilization, 0.06, bias, FOP1, 7, 1,
                                      run_length=60, warmup=10,
                                      overrides=overrides))

    low = tape()
    assert tape("medium") == tape("high") == low
    for section, values in _DEFAULT_OVERRIDES.items():
        for key, value in values.items():
            changed = tape(overrides={section: {key: value * 2 + 1}})
            # every demand key, expected_amount among them, moves the tape
            assert (changed != low) == (section == "demand"), (section, key)


_POLICIES = ([("FOP", p) for p in FOP_PERIODS]
             + [("FOQ", q) for q in FOQ_QUANTITIES])


@settings(max_examples=60, deadline=None)
@given(utilization=st.sampled_from(("low", "high")),
       alpha=st.sampled_from((0.0, 0.06, 0.12)),
       bias=st.sampled_from(sorted(SCHEDULES)),
       first_delay=st.integers(0, 14), run_length=st.integers(1, 70),
       sst=st.sampled_from((0.0, 0.6, 2.0)), plt=st.sampled_from(PLT_VALUES),
       policy=st.sampled_from(_POLICIES), mode=st.sampled_from(MODES))
@example(utilization="high", alpha=0.12, bias="unbiased", first_delay=12,
         run_length=70, sst=0.0, plt=1, policy=("FOP", 1), mode="standard")
def test_planner_inputs_equal_per_period_rebuild(utilization, alpha, bias,
                                                 first_delay, run_length, sst,
                                                 plt, policy, mode):
    """Every period, MRP receives the gross and receipt dicts the planner
    built from scratch before they were kept live: gross from
    `due_dates` and a keyed tape, receipts from the outstanding orders
    bucketed at max(planned completion, now).  Each item's stock equals a
    count of the orders and demands that moved it."""
    params = PlanningParams(sst, plt, policy[0], policy[1], mode=mode)
    cfg = make_config(utilization=utilization, alpha=alpha, bias=bias,
                      params=params, run_length=run_length, warmup=0,
                      overrides={"demand": {"first_delay": first_delay}})
    system, scenario = cfg.system, cfg.scenario
    keyed = _keyed_tape(cfg)
    x = long_term_forecast(scenario)
    window = decision_windows(params, system)[0]
    safety = params.safety_stock(system.demand.expected_amount)
    run = SimulationRun(cfg)

    completed, released = set(), []
    complete, dispatch = run._on_completion, run.shop.dispatch
    run._on_completion = lambda order, time: (completed.add(order.uid),
                                              complete(order, time))
    run.shop.dispatch = lambda order, time: (released.append(order),
                                             dispatch(order, time))

    planned_periods = []
    real_run_mrp = driver.run_mrp

    def checked_run_mrp(states, gross, params_, t, system_, trace=None,
                        **scan):
        for product in FINAL_PRODUCTS:
            demand = {}
            backlog = sum(d.qty for d in run.demands_open[product])
            if backlog:
                demand[t] = backlog
            for due in system.demand.due_dates(product, t + 1, t + window):
                demand[due] = (x if due - t > HORIZON else
                               keyed[product, due][min(due, run_length) - t])
            assert gross[product] == demand
            covered = max((o.covered_end for o in released
                           if o.item == product), default=0)
            assert states[product].covered_until == covered
            assert states[product].safety_stock == safety
        # a component's gross holds the withdrawals of blocked orders
        for component in COMPONENTS:
            need = sum(o.component_need for o in run.blocked
                       if o.component == component)
            assert gross[component] == ({t: need} if need else {})
            assert states[component].safety_stock == 0
        # every order made is dispatched or still blocked
        outstanding = ([o for o in released if o.uid not in completed]
                       + run.blocked)
        assert list(states) == list(system.items)
        for item, state in states.items():
            receipts = {}
            for order in outstanding:
                if order.item == item:
                    bucket = max(order.planned_completion, t)
                    receipts[bucket] = receipts.get(bucket, 0) + order.qty
            assert state.receipts == receipts
            # stock: the start, plus completed orders, less the component
            # needs of released product orders and the shipped demands
            held = safety if item in FINAL_PRODUCTS else 0
            for order in released:
                if order.item == item and order.uid in completed:
                    held += order.qty
                if order.component == item:
                    held -= order.component_need
            held -= sum(d.qty for d in run.demands_all if d.product == item
                        and d.fulfilled_period is not None)
            assert state.on_hand == held
        planned_periods.append(t)
        return real_run_mrp(states, gross, params_, t, system_, trace=trace,
                            **scan)

    with mock.patch.object(driver, "run_mrp", checked_run_mrp):
        for t in range(1, run_length + 1):
            run.step(t)
    assert planned_periods == list(range(1, run_length + 1))


def _first_difference(a: dict, b: dict) -> int | None:
    """The first period whose entries differ between two {period: [...]}."""
    return min((t for t in a.keys() | b.keys() if a.get(t) != b.get(t)),
               default=None)


def _by_period(rows, period_of) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault(period_of(row), []).append(row)
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), replication=st.integers(0, 30),
       utilization=st.sampled_from(("low", "medium", "high")),
       alpha=st.sampled_from(FULL_ALPHAS),
       bias=st.sampled_from(sorted(SCHEDULES)),
       sst=st.sampled_from(SST_FACTORS), plt=st.sampled_from(PLT_VALUES),
       policy=st.sampled_from([("FOP", p) for p in (1, 2, 5, 9)]
                              + [("FOQ", q) for q in FOQ_QUANTITIES]),
       run_length=st.integers(2, 80))
@example(seed=42, replication=0, utilization="medium", alpha=0.06,
         bias="unbiased", sst=0.6, plt=1, policy=("FOQ", 200), run_length=80)
@example(seed=42, replication=0, utilization="medium", alpha=0.06,
         bias="unbiased", sst=0.6, plt=3, policy=("FOQ", 200), run_length=80)
def test_divergence_period_marks_where_the_netting_twins_part(
        seed, replication, utilization, alpha, bias, sst, plt, policy,
        run_length):
    """A standard run's `divergence_period` is the first period whose MRP
    plan its extended twin makes differently, traced or not.  Without one
    the twins' summaries are equal, and their releases never differ before
    it."""
    runs = {}
    for mode in MODES:
        params = PlanningParams(sst, plt, policy[0], policy[1], mode=mode)
        cell = dict(utilization=utilization, alpha=alpha, bias=bias,
                    params=params, base_seed=seed, replication=replication,
                    run_length=run_length, warmup=run_length // 4)
        cfg = make_config(**cell, trace=True)
        run = SimulationRun(cfg)
        summary = run.run()
        trace, events = run.mrp_trace, run.shop.event_log
        pm = cfg.system.period_minutes
        releases = [e for e in events if e[1] == "release"]
        runs[mode] = (run, summary, _by_period(trace, lambda row: row[0]),
                      _by_period(releases, lambda e: int(e[0] // pm) + 1))
        if mode == "standard":
            untraced = SimulationRun(make_config(**cell))
    (standard, std_summary, std_plans, std_releases) = runs["standard"]
    (extended, ext_summary, ext_plans, ext_releases) = runs["extended"]

    flagged = standard.divergence_period
    # only standard runs watch, and they stop once they have met one
    assert extended.divergence_period is None and extended.divergent is None
    assert (standard.divergent is None) == (flagged is not None)
    # an untraced run cuts its scan, yet parts where the traced run does
    assert untraced.run() == std_summary
    assert untraced.divergence_period == flagged
    assert flagged == _first_difference(std_plans, ext_plans)
    if flagged is None:
        assert std_summary == ext_summary
    released_apart = _first_difference(std_releases, ext_releases)
    if released_apart is not None:
        assert flagged is not None and flagged <= released_apart
