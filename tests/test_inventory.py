"""Material-gated release and all-or-nothing fulfillment on item states."""

from collections import deque

from hypothesis import given, settings, strategies as st

from mrpsim.config import COMPONENTS, FINAL_PRODUCTS, build_system
from mrpsim.driver import SimulationRun
from mrpsim.experiment import make_config
from mrpsim.inventory import CustomerDemand, fulfill_due_demands, try_release
from mrpsim.mrp import MrpItemState, PlanningParams
from mrpsim.shopfloor import ProductionOrder

SYSTEM = build_system("low")
ITEMS = sorted(SYSTEM.items)


def make_order(item_id, qty, uid=1):
    return ProductionOrder(uid=uid, item_cfg=SYSTEM.items[item_id], qty=qty,
                           covered_end=10, planned_completion=2)


def stock(on_hand: dict[int, int]) -> dict[int, MrpItemState]:
    """Item states keyed by item id, holding the given stock."""
    return {item: MrpItemState(qty) for item, qty in on_hand.items()}


def test_a_run_starts_products_at_safety_stock_and_components_empty():
    params = PlanningParams(0.2, 1, "FOP", 1)
    run = SimulationRun(make_config(params=params, run_length=10, warmup=2))
    safety = params.safety_stock(run.system.demand.expected_amount)
    assert safety > 0
    assert {p: run.states[p].on_hand for p in FINAL_PRODUCTS} == \
        dict.fromkeys(FINAL_PRODUCTS, safety)
    assert {c: run.states[c].on_hand for c in COMPONENTS} == \
        dict.fromkeys(COMPONENTS, 0)


def test_component_orders_always_release():
    states = stock({10: 0, 20: 0})
    order = make_order(20, 1600)
    assert try_release(order, states, 5.0)
    assert order.release_time == 5.0
    assert states[20].on_hand == 0   # a component order takes no material


def test_product_release_withdraws_components_atomically():
    states = stock({10: 0, 20: 2000})
    order = make_order(10, 800)   # needs 1600 component pieces
    assert try_release(order, states, 3.0)
    assert states[20].on_hand == 400
    assert states[10].on_hand == 0
    assert order.release_time == 3.0


def test_product_release_blocks_without_material():
    states = stock({10: 0, 20: 1599})
    order = make_order(10, 800)
    assert not try_release(order, states, 3.0)
    assert order.release_time == -1.0
    assert states[20].on_hand == 1599   # nothing withdrawn

    states[20].on_hand += 1   # a receipt
    assert try_release(order, states, 4.0)
    assert states[20].on_hand == 0


def test_fulfillment_no_overtaking():
    states = stock({10: 750})
    older = CustomerDemand(10, due=5, qty=800)
    younger = CustomerDemand(10, due=9, qty=700)
    queue = {10: deque([older, younger])}
    # stock covers the younger demand, but the older one blocks the queue
    assert fulfill_due_demands(queue, states, period=9) == []
    assert states[10].on_hand == 750

    states[10].on_hand += 750
    shipped = fulfill_due_demands(queue, states, period=9)
    assert [(d.product, d.due, d.fulfilled_period) for d in shipped] == [
        (10, 5, 9), (10, 9, 9)]
    assert states[10].on_hand == 0
    assert not queue[10]


def test_fulfillment_all_or_nothing():
    states = stock({10: 61})
    demand = CustomerDemand(10, due=13, qty=739)
    queue = {10: deque([demand])}
    assert fulfill_due_demands(queue, states, period=13) == []
    assert demand.fulfilled_period is None
    assert states[10].on_hand == 61

    states[10].on_hand += 800
    shipped = fulfill_due_demands(queue, states, period=13)
    assert shipped == [demand]
    assert demand.fulfilled_period == 13
    # surplus stays as finished-goods inventory
    assert states[10].on_hand == 122


def test_fulfillment_waits_for_due_period():
    states = stock({10: 800})
    queue = {10: deque([CustomerDemand(10, due=13, qty=800)])}
    assert fulfill_due_demands(queue, states, period=12) == []
    assert states[10].on_hand == 800
    assert len(fulfill_due_demands(queue, states, period=13)) == 1
    assert states[10].on_hand == 0


def test_fulfillment_handles_multiple_products():
    states = stock({10: 800, 11: 100})
    queue = {10: deque([CustomerDemand(10, due=5, qty=800)]),
             11: deque([CustomerDemand(11, due=5, qty=700)])}
    shipped = fulfill_due_demands(queue, states, period=5)
    assert [d.product for d in shipped] == [10]
    assert queue[11]   # still open, backordered
    assert (states[10].on_hand, states[11].on_hand) == (0, 100)


def test_fulfillment_serves_products_in_the_dicts_order():
    for order in ((11, 10), (10, 11)):
        states = stock({10: 800, 11: 800})
        queue = {p: deque([CustomerDemand(p, due=5, qty=300)]) for p in order}
        shipped = fulfill_due_demands(queue, states, period=5)
        assert [d.product for d in shipped] == list(order)


# One step of a random material flow: a receipt of an item, the release of
# a fresh order of an item, or a shipping pass in a period.
_STEPS = st.one_of(
    st.tuples(st.just("receive"), st.sampled_from(ITEMS),
              st.integers(0, 2000)),
    st.tuples(st.just("release"), st.sampled_from(ITEMS),
              st.integers(1, 1600)),
    st.tuples(st.just("ship"), st.integers(0, 12)))


@settings(max_examples=200, deadline=None)
@given(initial=st.fixed_dictionaries(
           {i: st.integers(0, 3000) for i in ITEMS}),
       demands=st.lists(st.tuples(st.sampled_from(FINAL_PRODUCTS),
                                  st.integers(1, 12), st.integers(0, 1500)),
                        max_size=20),
       steps=st.lists(_STEPS, max_size=40))
def test_release_and_shipping_never_drive_stock_below_zero(initial, demands,
                                                           steps):
    """Each call takes stock only after its own availability test: no
    `on_hand` goes below 0, and a call changes stock by exactly the
    component need it released or the quantities it shipped."""
    states = stock(initial)
    queues = {p: deque() for p in FINAL_PRODUCTS}
    for product, due, qty in sorted(demands, key=lambda d: d[1]):
        queues[product].append(CustomerDemand(product, due, qty))
    for uid, step in enumerate(steps, start=1):
        before = {i: s.on_hand for i, s in states.items()}
        change = dict.fromkeys(states, 0)
        if step[0] == "receive":
            _, item, qty = step
            states[item].on_hand += qty
            change[item] = qty
        elif step[0] == "release":
            _, item, qty = step
            order = make_order(item, qty, uid)
            if try_release(order, states, float(uid)):
                if order.component is not None:
                    change[order.component] = -order.component_need
            else:
                assert before[order.component] < order.component_need
        else:
            for demand in fulfill_due_demands(queues, states, step[1]):
                assert demand.due <= step[1]
                change[demand.product] -= demand.qty
        for item, state in states.items():
            assert state.on_hand >= 0
            assert state.on_hand == before[item] + change[item]
