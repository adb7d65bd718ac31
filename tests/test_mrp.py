"""MRP core: netting rule, lot sizing, scheduling, explosion, covered horizon."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpsim.config import COMPONENTS, FINAL_PRODUCTS, build_system
from mrpsim.mrp import (
    COMPONENT_LOTS,
    FOP_PERIODS,
    FOQ_QUANTITIES,
    MODES,
    PLT_VALUES,
    POLICIES,
    SST_FACTORS,
    MrpItemState,
    PlannedLot,
    PlanningParams,
    plan_item,
    run_mrp,
)


# ---------------------------------------------------------------- netting

def net_requirement_extended(prev_on_hand: float, gross: float, receipts: float,
                             safety: float, period: int,
                             covered_until: int) -> float:
    """The netting rule of `mrpsim.mrp`'s docstring, which `plan_item`
    applies inline: the requirement that lifts the projection back to the
    threshold, zero inside the covered horizon (safety stock may be
    consumed, only a shortage below zero triggers), the safety stock beyond
    it.  `test_sparse_plan_item_equals_dense_netting_scan` ties the two."""
    threshold = 0 if period <= covered_until else safety
    return max(threshold - (prev_on_hand - gross + receipts), 0)


def net_requirement_standard(prev_on_hand: float, gross: float,
                             receipts: float, safety: float) -> float:
    """Requirement that lifts the projection back to the safety stock: the
    extended rule with nothing covered."""
    return net_requirement_extended(prev_on_hand, gross, receipts, safety, 0, -1)


def test_standard_netting_examples():
    assert net_requirement_standard(500, 400, 0, 160) == 60
    assert net_requirement_standard(100, 400, 0, 160) == 460
    # no demand and stock at or above safety: nothing to order
    assert net_requirement_standard(160, 0, 0, 160) == 0
    assert net_requirement_standard(500, 0, 0, 160) == 0
    # receipts count toward the projection
    assert net_requirement_standard(100, 400, 300, 160) == 160


def test_extended_netting_inside_covered_horizon():
    # safety stock absorbs the update
    assert net_requirement_extended(500, 400, 0, 160, period=3, covered_until=5) == 0
    # shortfall below zero still triggers an order
    assert net_requirement_extended(100, 400, 0, 160, period=3, covered_until=5) == 300
    assert net_requirement_extended(100, 400, 0, 160, period=5, covered_until=5) == 300


def test_extended_netting_beyond_covered_horizon_is_standard():
    rng = random.Random(4)
    for _ in range(2000):
        y = rng.randint(-500, 1500)
        g = rng.randint(0, 1200)
        r = rng.randint(0, 1200)
        s = rng.choice((0, 160, 320))
        delta = rng.randint(0, 10)
        t = delta + rng.randint(1, 5)
        assert (net_requirement_extended(y, g, r, s, t, delta)
                == net_requirement_standard(y, g, r, s))


def test_extended_never_exceeds_standard():
    rng = random.Random(5)
    for _ in range(2000):
        y = rng.randint(-500, 1500)
        g = rng.randint(0, 1200)
        r = rng.randint(0, 1200)
        s = rng.choice((0, 160, 320, 800))
        ext = net_requirement_extended(y, g, r, s, period=2, covered_until=6)
        std = net_requirement_standard(y, g, r, s)
        assert ext <= std


def test_extended_equals_standard_without_safety_stock():
    rng = random.Random(6)
    for _ in range(2000):
        y = rng.randint(-500, 1500)
        g = rng.randint(0, 1200)
        r = rng.randint(0, 1200)
        assert (net_requirement_extended(y, g, r, 0, period=2, covered_until=6)
                == net_requirement_standard(y, g, r, 0))


# ------------------------------------------------------------- lot sizing

def test_fop_window_cumulates_net_requirements():
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {5: 120, 7: 250}, item=10, policy="FOP",
                     policy_param=5, plt=1, current_period=5, horizon=10)
    # FOP window: both nets are cumulated into one lot due at the anchor
    assert len(lots) == 1
    assert lots[0].due == 5
    assert lots[0].qty == 370
    assert lots[0].covered_end == 9


def test_fop_window_of_one_orders_each_period():
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {5: 120, 7: 250}, item=10, policy="FOP",
                     policy_param=1, plt=1, current_period=5, horizon=10)
    assert [(l.due, l.qty) for l in lots] == [(5, 120), (7, 250)]


def test_fop_window_restarts_after_covered_end():
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {5: 100, 9: 200}, item=10, policy="FOP",
                     policy_param=2, plt=1, current_period=5, horizon=10)
    assert [(l.due, l.qty, l.covered_end) for l in lots] == [
        (5, 100, 6), (9, 200, 10)]


def test_no_requirements_no_lots():
    state = MrpItemState(on_hand=500)
    assert plan_item(state, {}, 10, "FOP", 1, 1, 1, 30) == []
    assert plan_item(state, {5: 100}, 10, "FOQ", 200, 1, 1, 30) == []


def test_foq_rounds_up_to_multiple():
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {3: 411}, item=10, policy="FOQ",
                     policy_param=200, plt=1, current_period=1, horizon=30)
    assert [(l.due, l.qty) for l in lots] == [(3, 600)]

    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {3: 800}, item=10, policy="FOQ",
                     policy_param=800, plt=1, current_period=1, horizon=30)
    assert [(l.due, l.qty) for l in lots] == [(3, 800)]


def test_foq_surplus_feeds_later_periods():
    # 600-piece lot covers the 411 and its 189 surplus absorbs the next demand
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {3: 411, 4: 150}, item=10, policy="FOQ",
                     policy_param=200, plt=1, current_period=1, horizon=30)
    assert [(l.due, l.qty) for l in lots] == [(3, 600)]


def test_foq_lots_are_multiples_property():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.choice(FOQ_QUANTITIES)
        gross = {p: rng.randint(1, 1500) for p in rng.sample(range(2, 28), 6)}
        state = MrpItemState(on_hand=rng.randint(0, 800),
                             safety_stock=rng.choice((0, 160)))
        lots = plan_item(state, gross, 10, "FOQ", q, 2, 1, 30)
        assert all(lot.qty % q == 0 and lot.qty > 0 for lot in lots)


def test_fop_lots_equal_sum_of_nets_property():
    rng = random.Random(12)
    for _ in range(300):
        p = rng.choice(FOP_PERIODS)
        gross = {t: rng.randint(1, 1500) for t in rng.sample(range(2, 20), 6)}
        state = MrpItemState(on_hand=rng.randint(0, 800),
                             safety_stock=rng.choice((0, 160)))
        trace = []
        lots = plan_item(state, gross, 10, "FOP", p, 2, 1, 30, trace=trace)
        assert sum(l.qty for l in lots) == sum(row[6] for row in trace)


def test_plan_item_does_not_mutate_state():
    state = MrpItemState(on_hand=100, receipts={4: 50}, safety_stock=160,
                         covered_until=3)
    first = plan_item(state, {5: 400}, 10, "FOP", 1, 2, 1, 30, extended=True)
    second = plan_item(state, {5: 400}, 10, "FOP", 1, 2, 1, 30, extended=True)
    assert [(l.due, l.qty) for l in first] == [(l.due, l.qty) for l in second]
    assert state.on_hand == 100 and state.receipts == {4: 50}


# ----------------------------------------------- safety-stock exploitation

def test_extended_mode_skips_order_inside_covered_horizon():
    # released coverage up to period 5; the demand update eats into safety
    # stock but stays above zero, so no new order inside delta
    state = MrpItemState(on_hand=500, safety_stock=160, covered_until=5)
    lots = plan_item(state, {4: 400}, 10, "FOP", 1, 1, 2, 30, extended=True)
    assert lots == []
    # standard mode orders the safety-stock refill immediately
    state = MrpItemState(on_hand=500, safety_stock=160, covered_until=5)
    lots = plan_item(state, {4: 400}, 10, "FOP", 1, 1, 2, 30, extended=False)
    assert [(l.due, l.qty) for l in lots] == [(4, 60)]


def test_extended_mode_still_covers_shortage_below_zero():
    state = MrpItemState(on_hand=100, safety_stock=160, covered_until=5)
    lots = plan_item(state, {4: 400}, 10, "FOP", 1, 1, 2, 30, extended=True)
    assert [(l.due, l.qty) for l in lots] == [(4, 300)]


def test_no_refill_lot_between_demand_periods():
    # After consuming safety stock inside the covered horizon the projection
    # rests just below the safety level.  The gap must be absorbed by the
    # next demand-period lot, not ordered as a standalone refill with its
    # own setup.
    state = MrpItemState(on_hand=156, receipts={5: 800}, safety_stock=160,
                         covered_until=5)
    lots = plan_item(state, {5: 800, 9: 838}, item=14, policy="FOP",
                     policy_param=1, plt=3, current_period=5, horizon=10,
                     extended=True)
    assert [(l.due, l.qty) for l in lots] == [(9, 842)]


def test_standard_mode_ignores_covered_until():
    state = MrpItemState(on_hand=500, safety_stock=160, covered_until=99)
    lots = plan_item(state, {4: 400}, 10, "FOP", 1, 1, 2, 30, extended=False)
    assert [(l.due, l.qty) for l in lots] == [(4, 60)]


def _dense_plan(state, gross, item, policy, policy_param, plt, current_period,
                horizon, extended):
    """Reference scan: visits every period of the horizon and nets each one
    through `net_requirement_extended`, where demand exists.  Trace rows are
    kept for the periods `plan_item` visits, those with a bucket."""
    covered_until = state.covered_until if extended else -1
    on_hand = state.on_hand
    lots, rows = [], []
    for period in range(current_period, current_period + horizon + 1):
        g = gross.get(period, 0)
        r = state.receipts.get(period, 0)
        net = 0
        if g > 0:
            net = int(net_requirement_extended(on_hand, g, r, state.safety_stock,
                                               period, covered_until))
        on_hand += r - g
        added = 0
        if net and policy == "FOP":
            if lots and period <= lots[-1].covered_end:
                lots[-1].qty += net
            else:
                lots.append(PlannedLot(item, period, net,
                                       covered_end=period + policy_param - 1))
            added = net
        elif net:
            added = -(-net // policy_param) * policy_param
            lots.append(PlannedLot(item, period, added, covered_end=period))
        if period in gross or period in state.receipts:
            rows.append((current_period, item, period, g, r, on_hand, net,
                         added))
        on_hand += added
    for lot in lots:   # backward from the due period, never before now
        lot.start = max(lot.due - plt, current_period)
        lot.completion = lot.start + plt
    return lots, rows


_offsets = st.dictionaries(st.integers(-3, 33), st.integers(0, 1600),
                           max_size=10)


@settings(max_examples=300, deadline=None)
@given(policy=st.sampled_from(POLICIES), mode=st.sampled_from(MODES),
       data=st.data())
def test_sparse_plan_item_equals_dense_netting_scan(policy, mode, data):
    policy_param = data.draw(st.sampled_from(
        FOP_PERIODS if policy == "FOP" else FOQ_QUANTITIES))
    plt = data.draw(st.sampled_from(PLT_VALUES))
    t = data.draw(st.integers(1, 40))
    horizon = data.draw(st.integers(0, 30))
    state = MrpItemState(
        on_hand=data.draw(st.integers(-800, 2400)),
        receipts={t + k: q for k, q in data.draw(_offsets).items()},
        safety_stock=data.draw(st.sampled_from((0, 160, 480, 1600))),
        covered_until=t + data.draw(st.integers(-3, 20)))
    gross = {t + k: q for k, q in data.draw(_offsets).items()}
    extended = mode == "extended"

    trace = []
    lots = plan_item(state, gross, 10, policy, policy_param, plt, t, horizon,
                     extended=extended, trace=trace)
    ref_lots, ref_rows = _dense_plan(state, gross, 10, policy, policy_param,
                                     plt, t, horizon, extended)
    assert _lot_rows(lots) == _lot_rows(ref_lots)
    assert trace == ref_rows


@settings(max_examples=300, deadline=None)
@given(policy=st.sampled_from(POLICIES), data=st.data())
def test_divergent_bucket_is_where_extended_netting_first_nets_differently(
        policy, data):
    policy_param = data.draw(st.sampled_from(
        FOP_PERIODS if policy == "FOP" else FOQ_QUANTITIES))
    t = data.draw(st.integers(1, 40))
    horizon = data.draw(st.integers(0, 30))
    state = MrpItemState(
        on_hand=data.draw(st.integers(-800, 2400)),
        receipts={t + k: q for k, q in data.draw(_offsets).items()},
        safety_stock=data.draw(st.sampled_from((0, 160, 480, 1600))),
        covered_until=t + data.draw(st.integers(-3, 20)))
    gross = {t + k: q for k, q in data.draw(_offsets).items()}

    rows = {}
    divergent = []
    for extended in (False, True):
        trace = rows[extended] = []
        plan_item(state, gross, 10, policy, policy_param, 2, t, horizon,
                  extended=extended, trace=trace,
                  divergent=None if extended else divergent)
    # both traces visit the same buckets; the first unequal row is the
    # first net the extended threshold changes
    apart = [row[2] for row, other in zip(rows[False], rows[True])
             if row != other]
    assert divergent == apart[:1]


def test_run_mrp_reports_whether_a_product_bucket_diverges():
    system = build_system("low")
    params = PlanningParams(0.2, 1, "FOP", 1)
    states = {10: MrpItemState(on_hand=500, safety_stock=160, covered_until=9),
              11: MrpItemState(on_hand=500, safety_stock=160, covered_until=9)}

    # only standard runs hand in a list (`SimulationRun.divergent`)
    def divergent():
        found = []
        inputs = _inputs(states, {10: {8: 400}, 11: {6: 400}})
        run_mrp(*inputs, params, 5, system, divergent=found)
        return found

    assert divergent() == [8, 6]
    states[11].covered_until = 5
    assert divergent() == [8]
    states[10].covered_until = 7
    assert divergent() == []


# ------------------------------------------------------------- scheduling

def test_backward_schedule():
    def scheduled(due, plt, current_period):
        lot, = plan_item(MrpItemState(on_hand=0), {due: 800}, 10, "FOQ", 200,
                         plt, current_period, 30)
        return lot.start, lot.completion

    assert scheduled(10, 3, 1) == (7, 10)
    # late lot: start clamps to now, completion = now + plt
    assert scheduled(2, 4, 1) == (1, 5)
    assert scheduled(7, 1, 7) == (7, 8)


def test_plan_item_schedules_lots():
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {10: 800}, 10, "FOP", 1, 3, 1, 30)
    assert lots[0].start == 7
    assert lots[0].completion == 10
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {2: 800}, 10, "FOP", 1, 4, 1, 30)
    assert lots[0].start == 1
    assert lots[0].completion == 5


# ---------------------------------------------------------------- run_mrp

def _inputs(states=None, gross=None):
    """`run_mrp`'s states and gross of every item: an empty item at zero
    stock unless `states` and `gross` give its own."""
    items = FINAL_PRODUCTS + COMPONENTS
    all_states = {i: MrpItemState(on_hand=0) for i in items}
    all_states.update(states or {})
    all_gross = {i: {} for i in items}
    all_gross.update(gross or {})
    return all_states, all_gross


def test_run_mrp_plans_products_then_components():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1)
    result = run_mrp(*_inputs(gross={10: {8: 800}}), params, current_period=4,
                     system=system)

    assert [(l.item, l.due, l.qty, l.start) for l in result.product_lots] == [
        (10, 8, 800, 7)]
    # exploded demand 1600 at start 7, component plt 3 -> start 4
    assert [(l.item, l.due, l.qty, l.start) for l in result.component_lots] == [
        (20, 7, 1600, 4)]
    # the product lot starts later; its component lot starts now
    assert result.release_products == []
    assert result.release_components == result.component_lots

    # one period earlier the lot is due past the product decision window
    # (3 + plt 1 + component plt 3 = 7): it cannot shape any release now
    result = run_mrp(*_inputs(gross={10: {8: 800}}), params, current_period=3,
                     system=system)
    assert result.product_lots == [] and result.component_lots == []
    assert result.release_products == []
    assert result.release_components == []


def test_run_mrp_releases_orders_starting_now():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1)
    result = run_mrp(*_inputs(gross={10: {8: 800}}), params, current_period=7,
                     system=system)
    assert [l.item for l in result.release_products] == [10]
    assert [l.item for l in result.release_components] == [20]
    # late component lot completes a full lead time from now
    assert result.component_lots[0].start == 7
    assert result.component_lots[0].completion == 10


def test_run_mrp_adds_same_period_product_lots():
    # products 10 and 11 both use component 20; their lots start in period 7
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1)
    states, gross = _inputs(gross={10: {8: 800}, 11: {8: 800}})
    # items are planned in config's order, not in the order of the dicts
    states, gross = dict(reversed(states.items())), dict(reversed(gross.items()))
    result = run_mrp(states, gross, params, current_period=4, system=system)
    assert [(l.item, l.start) for l in result.product_lots] == [(10, 7), (11, 7)]
    assert [(l.item, l.due, l.qty) for l in result.component_lots] == [
        (20, 7, 3200)]


def test_run_mrp_merges_extra_component_demand():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1,
                            component_lot=800)
    result = run_mrp(*_inputs(gross={20: {5: 500}}), params, current_period=3,
                     system=system)
    assert [(l.item, l.due, l.qty) for l in result.component_lots] == [
        (20, 5, 800)]


def test_run_mrp_component_lots_use_component_lot_size():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1,
                            component_lot=1600)
    result = run_mrp(*_inputs(gross={10: {8: 800}}), params, current_period=4,
                     system=system)
    assert result.component_lots[0].qty == 1600


def _lot_rows(lots):
    return [(l.item, l.due, l.qty, l.start, l.completion, l.covered_end)
            for l in lots]


# Longer than every decision window of the grid (at most 8 + 3 + 9 - 1).
_FULL_HORIZON = 30


def _full_horizon_releases(states, gross, params, t, system):
    """Reference plan: every item netted over a horizon past every window."""
    extended = params.mode == "extended"
    products = [lot for pid in FINAL_PRODUCTS
                for lot in plan_item(states[pid], gross[pid], pid,
                                     params.policy, params.policy_param,
                                     params.plt, t, _FULL_HORIZON,
                                     extended=extended)]
    need = {cid: dict(gross[cid]) for cid in COMPONENTS}
    for lot in products:
        item = system.items[lot.item]
        bucket = need[item.component]
        bucket[lot.start] = (bucket.get(lot.start, 0)
                             + lot.qty * item.component_qty)
    components = [lot for cid in COMPONENTS
                  for lot in plan_item(states[cid], need[cid], cid,
                                       "FOQ", params.component_lot,
                                       system.component_plt, t, _FULL_HORIZON)]
    return ([l for l in products if l.start <= t],
            [l for l in components if l.start <= t])


_SYSTEM = build_system("low")


@st.composite
def _params(draw):
    policy = draw(st.sampled_from(POLICIES))
    lot_values = FOP_PERIODS if policy == "FOP" else FOQ_QUANTITIES
    return PlanningParams(sst_factor=draw(st.sampled_from(SST_FACTORS)),
                          plt=draw(st.sampled_from(PLT_VALUES)), policy=policy,
                          policy_param=draw(st.sampled_from(lot_values)),
                          component_lot=draw(st.sampled_from(COMPONENT_LOTS)),
                          mode=draw(st.sampled_from(MODES)))


_buckets = st.dictionaries(st.integers(0, 29), st.integers(0, 1600),
                           max_size=12)


def _draw_planner_inputs(data, system, safety, t):
    """Random states and gross dicts of every item, in buckets from t on."""

    def shifted(buckets):
        return {t + k: qty for k, qty in buckets.items()}

    states, gross = {}, {}
    for pid in FINAL_PRODUCTS:
        states[pid] = MrpItemState(
            on_hand=data.draw(st.integers(-800, 2400)),
            receipts=shifted(data.draw(_buckets)), safety_stock=safety,
            covered_until=t + data.draw(st.integers(-2, 20)))
        gross[pid] = shifted(data.draw(_buckets))
    for cid in COMPONENTS:
        states[cid] = MrpItemState(
            on_hand=data.draw(st.integers(-1600, 6400)),
            receipts=shifted(data.draw(_buckets)))
        gross[cid] = shifted(data.draw(_buckets))
    return states, gross


@settings(max_examples=300, deadline=None)
@given(params=_params(), t=st.integers(1, 60), data=st.data())
def test_decision_window_releases_equal_full_horizon_plan(params, t, data):
    system = _SYSTEM
    safety = params.safety_stock(system.demand.expected_amount)
    states, gross = _draw_planner_inputs(data, system, safety, t)

    # run_mrp fills the component dicts it is handed: give it its own
    result = run_mrp(states, {i: dict(g) for i, g in gross.items()}, params, t,
                     system)
    products, components = _full_horizon_releases(states, gross, params, t,
                                                   system)
    assert _lot_rows(result.release_products) == _lot_rows(products)
    assert _lot_rows(result.release_components) == _lot_rows(components)


@settings(max_examples=300, deadline=None)
@given(policy=st.sampled_from([("FOP", p) for p in FOP_PERIODS]
                              + [("FOQ", q) for q in FOQ_QUANTITIES]),
       plt=st.sampled_from(PLT_VALUES), mode=st.sampled_from(MODES),
       sst=st.sampled_from(SST_FACTORS), watch=st.booleans(),
       t=st.integers(1, 60), data=st.data())
def test_cut_scan_equals_whole_window_plan(policy, plt, mode, sst, watch, t,
                                           data):
    """An untraced `run_mrp` opens product lots only where they can start by
    t + component_plt, or, in a standard run handed a `divergent` list,
    inside the covered range it watches.  It releases what the whole-window
    (traced) plan releases and fills its list as that plan does."""
    system = _SYSTEM
    params = PlanningParams(sst, plt, *policy, mode=mode)
    safety = params.safety_stock(system.demand.expected_amount)
    states, gross = _draw_planner_inputs(data, system, safety, t)

    # the driver hands a list to standard runs only, until it fills
    watched = watch and mode == "standard"
    divergent, whole_divergent = ([], []) if watched else (None, None)
    result = run_mrp(states, {i: dict(g) for i, g in gross.items()}, params,
                     t, system, divergent=divergent)
    whole = run_mrp(states, {i: dict(g) for i, g in gross.items()}, params,
                    t, system, trace=[], divergent=whole_divergent)
    assert _lot_rows(result.release_products) == \
        _lot_rows(whole.release_products)
    assert _lot_rows(result.release_components) == \
        _lot_rows(whole.release_components)
    assert divergent == whole_divergent
    for lot in result.product_lots:
        assert (lot.start <= t + system.component_plt
                or watched and lot.due <= states[lot.item].covered_until)


@settings(max_examples=300, deadline=None)
@given(params=_params(), t=st.integers(1, 60), data=st.data())
def test_released_lots_are_the_planned_lots_that_start_now(params, t, data):
    """`run_mrp` splits the released lots off as it plans; they are the
    planned lots that start by the current period, in planning order."""
    system = _SYSTEM
    safety = params.safety_stock(system.demand.expected_amount)
    result = run_mrp(*_draw_planner_inputs(data, system, safety, t), params, t,
                     system)
    for planned, released in ((result.product_lots, result.release_products),
                              (result.component_lots,
                               result.release_components)):
        expected = [lot for lot in planned if lot.start <= t]
        assert len(released) == len(expected)
        assert all(a is b for a, b in zip(released, expected))


# ------------------------------------------------------------- parameters

def test_planning_params_validation():
    with pytest.raises(ValueError, match="sst_factor"):
        PlanningParams(sst_factor=0.3, plt=1, policy="FOP", policy_param=1)
    with pytest.raises(ValueError, match="plt"):
        PlanningParams(sst_factor=0.2, plt=5, policy="FOP", policy_param=1)
    with pytest.raises(ValueError, match="policy"):
        PlanningParams(sst_factor=0.2, plt=1, policy="LFL", policy_param=1)
    with pytest.raises(ValueError, match="FOP parameter"):
        PlanningParams(sst_factor=0.2, plt=1, policy="FOP", policy_param=3)
    with pytest.raises(ValueError, match="FOQ parameter"):
        PlanningParams(sst_factor=0.2, plt=1, policy="FOQ", policy_param=300)
    with pytest.raises(ValueError, match="component_lot"):
        PlanningParams(sst_factor=0.2, plt=1, policy="FOP", policy_param=1,
                       component_lot=400)
    with pytest.raises(ValueError, match="mode"):
        PlanningParams(sst_factor=0.2, plt=1, policy="FOP", policy_param=1,
                       mode="hybrid")


@pytest.mark.parametrize("changes, message", [
    ({"sst_factor": 0.3}, "sst_factor must be one of (0.0, 0.2, 0.4, 0.6, "
                          "0.8, 1.0, 1.5, 2.0), got 0.3"),
    ({"plt": 5}, "plt must be one of (1, 2, 3, 4, 6, 8), got 5"),
    ({"policy": "LFL"}, "policy must be one of ('FOP', 'FOQ'), got 'LFL'"),
    ({"policy_param": 3}, "FOP parameter must be one of (1, 2, 5, 6, 9), "
                          "got 3"),
    ({"policy": "FOQ", "policy_param": 300},
     "FOQ parameter must be one of (200, 400, 800, 1200, 1600), got 300"),
    ({"component_lot": 400}, "component_lot must be one of (800, 1600), "
                             "got 400"),
    ({"mode": "hybrid"}, "mode must be one of ('standard', 'extended'), "
                         "got 'hybrid'"),
])
def test_planning_params_messages(changes, message):
    kwargs = {"sst_factor": 0.2, "plt": 1, "policy": "FOP", "policy_param": 1,
              **changes}
    with pytest.raises(ValueError) as info:
        PlanningParams(**kwargs)
    assert str(info.value) == message


def test_planning_params_helpers():
    params = PlanningParams(sst_factor=0.2, plt=3, policy="FOQ",
                            policy_param=400, mode="extended")
    assert params.safety_stock(800) == 160
    assert "extended" in params.label() and "FOQ:400" in params.label()
    assert PlanningParams(sst_factor=1.5, plt=1, policy="FOP",
                          policy_param=1).safety_stock(800) == 1200

