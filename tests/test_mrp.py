"""MRP core: netting rules, lot sizing, scheduling, explosion, covered horizon."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpsim.config import build_system
from mrpsim.mrp import (
    COMPONENT_LOTS,
    FOP_PERIODS,
    FOQ_QUANTITIES,
    MODES,
    PLT_VALUES,
    POLICIES,
    SST_FACTORS,
    MrpItemState,
    PlanningParams,
    backward_schedule,
    explode,
    net_requirement_extended,
    net_requirement_standard,
    plan_item,
    run_mrp,
    update_covered_until,
    validate_horizon,
)


# ---------------------------------------------------------------- netting

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
        assert sum(l.qty for l in lots) == sum(row[5] for row in trace)


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


def test_update_covered_until_is_monotone():
    state = MrpItemState(on_hand=0, covered_until=2)
    update_covered_until(state, 5)
    assert state.covered_until == 5
    update_covered_until(state, 3)
    assert state.covered_until == 5
    state = MrpItemState(on_hand=0, covered_until=9)
    update_covered_until(state, 5)
    assert state.covered_until == 9


# ------------------------------------------------------------- scheduling

def test_backward_schedule():
    assert backward_schedule(10, 3, 1) == (7, 10)
    # late lot: start clamps to now, completion = now + plt
    assert backward_schedule(2, 4, 1) == (1, 5)
    assert backward_schedule(7, 1, 7) == (7, 8)


def test_plan_item_schedules_lots():
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {10: 800}, 10, "FOP", 1, 3, 1, 30)
    assert lots[0].start == 7
    assert lots[0].completion == 10
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {2: 800}, 10, "FOP", 1, 4, 1, 30)
    assert lots[0].start == 1
    assert lots[0].completion == 5


# -------------------------------------------------------------- explosion

def test_explode_times_component_demand_at_lot_start():
    system = build_system("low")
    state = MrpItemState(on_hand=0)
    lots = plan_item(state, {8: 800}, 10, "FOP", 1, 1, 1, 30)
    gross = explode(lots, system)
    assert gross[20] == {7: 1600}
    assert gross[21] == {}


def test_explode_adds_same_period_lots():
    system = build_system("low")
    lots = (plan_item(MrpItemState(on_hand=0), {8: 800}, 10, "FOP", 1, 1, 1, 30)
            + plan_item(MrpItemState(on_hand=0), {8: 800}, 11, "FOP", 1, 1, 1, 30))
    gross = explode(lots, system)
    assert gross[20] == {7: 3200}


def test_explode_empty():
    system = build_system("low")
    assert explode([], system) == {20: {}, 21: {}}


# ---------------------------------------------------------------- run_mrp

def test_run_mrp_plans_products_then_components():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1)
    product_states = {10: MrpItemState(on_hand=0)}
    component_states = {20: MrpItemState(on_hand=0), 21: MrpItemState(on_hand=0)}
    result = run_mrp(product_states, {10: {8: 800}}, component_states,
                     {}, params, current_period=4, system=system)

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
    result = run_mrp(product_states, {10: {8: 800}}, component_states,
                     {}, params, current_period=3, system=system)
    assert result.product_lots == [] and result.component_lots == []
    assert result.release_products == []
    assert result.release_components == []


def test_run_mrp_releases_orders_starting_now():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1)
    product_states = {10: MrpItemState(on_hand=0)}
    component_states = {20: MrpItemState(on_hand=0), 21: MrpItemState(on_hand=0)}
    result = run_mrp(product_states, {10: {8: 800}}, component_states,
                     {}, params, current_period=7, system=system)
    assert [l.item for l in result.release_products] == [10]
    assert [l.item for l in result.release_components] == [20]
    # late component lot completes a full lead time from now
    assert result.component_lots[0].start == 7
    assert result.component_lots[0].completion == 10


def test_run_mrp_merges_extra_component_demand():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1,
                            component_lot=800)
    component_states = {20: MrpItemState(on_hand=0), 21: MrpItemState(on_hand=0)}
    result = run_mrp({}, {}, component_states, {20: {5: 500}}, params,
                     current_period=3, system=system)
    assert [(l.item, l.due, l.qty) for l in result.component_lots] == [
        (20, 5, 800)]


def test_run_mrp_component_lots_use_component_lot_size():
    system = build_system("low")
    params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP", policy_param=1,
                            component_lot=1600)
    product_states = {10: MrpItemState(on_hand=0)}
    component_states = {20: MrpItemState(on_hand=0), 21: MrpItemState(on_hand=0)}
    result = run_mrp(product_states, {10: {8: 800}}, component_states,
                     {}, params, current_period=4, system=system)
    assert result.component_lots[0].qty == 1600


def _lot_rows(lots):
    return [(l.item, l.due, l.qty, l.start, l.completion, l.covered_end)
            for l in lots]


def _full_horizon_releases(product_states, product_gross, component_states,
                           extra_gross, params, t, system):
    """Reference plan: every item netted over the whole planning horizon."""
    extended = params.mode == "extended"
    products = [lot for pid in sorted(product_states)
                for lot in plan_item(product_states[pid],
                                     product_gross.get(pid, {}), pid,
                                     params.policy, params.policy_param,
                                     params.plt, t, system.horizon,
                                     extended=extended)]
    gross = explode(products, system)
    for cid, extra in extra_gross.items():
        for period, qty in extra.items():
            gross[cid][period] = gross[cid].get(period, 0) + qty
    components = [lot for cid in sorted(component_states)
                  for lot in plan_item(component_states[cid], gross[cid], cid,
                                       "FOQ", params.component_lot,
                                       system.component_plt, t, system.horizon)]
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


@settings(max_examples=300, deadline=None)
@given(params=_params(), t=st.integers(1, 60), data=st.data())
def test_decision_window_releases_equal_full_horizon_plan(params, t, data):
    system = _SYSTEM
    safety = params.safety_stock(system.demand.expected_amount)

    def shifted(buckets):
        return {t + k: qty for k, qty in buckets.items()}

    product_states, product_gross = {}, {}
    for pid in sorted(system.final_products):
        product_states[pid] = MrpItemState(
            on_hand=data.draw(st.integers(-800, 2400)),
            receipts=shifted(data.draw(_buckets)), safety_stock=safety,
            covered_until=t + data.draw(st.integers(-2, 20)))
        product_gross[pid] = shifted(data.draw(_buckets))
    component_states, extra_gross = {}, {}
    for cid in sorted(system.components):
        component_states[cid] = MrpItemState(
            on_hand=data.draw(st.integers(-1600, 6400)),
            receipts=shifted(data.draw(_buckets)),
            safety_stock=system.component_sst)
        extra_gross[cid] = shifted(data.draw(_buckets))

    result = run_mrp(product_states, product_gross, component_states,
                     extra_gross, params, t, system)
    products, components = _full_horizon_releases(
        product_states, product_gross, component_states, extra_gross,
        params, t, system)
    assert _lot_rows(result.release_products) == _lot_rows(products)
    assert _lot_rows(result.release_components) == _lot_rows(components)


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


def test_planning_params_helpers():
    params = PlanningParams(sst_factor=0.2, plt=3, policy="FOQ",
                            policy_param=400, mode="extended")
    assert params.safety_stock(800) == 160
    assert "extended" in params.label() and "FOQ:400" in params.label()
    assert PlanningParams(sst_factor=1.5, plt=1, policy="FOP",
                          policy_param=1).safety_stock(800) == 1200


def test_validate_horizon_accepts_whole_grid():
    system = build_system("low")
    for plt in PLT_VALUES:
        for p in FOP_PERIODS:
            validate_horizon(PlanningParams(sst_factor=0.0, plt=plt,
                                            policy="FOP", policy_param=p), system)
        for q in FOQ_QUANTITIES:
            validate_horizon(PlanningParams(sst_factor=0.0, plt=plt,
                                            policy="FOQ", policy_param=q), system)


def test_validate_horizon_rejects_short_horizon():
    system = build_system("low", {"planning": {"horizon": 20}})
    params = PlanningParams(sst_factor=0.0, plt=4, policy="FOP", policy_param=6)
    with pytest.raises(ValueError, match="horizon"):
        validate_horizon(params, system)
