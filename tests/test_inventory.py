"""Stock ledger, material-gated release, all-or-nothing fulfillment."""

from collections import deque

import pytest

from mrpsim.config import build_system
from mrpsim.inventory import (
    CustomerDemand,
    StockLedger,
    fulfill_due_demands,
    try_release,
)
from mrpsim.shopfloor import ProductionOrder


def make_order(system, item_id, qty):
    return ProductionOrder(uid=1, item_cfg=system.items[item_id], qty=qty,
                           covered_end=10, planned_completion=2)


def test_ledger_receive_withdraw():
    ledger = StockLedger([10, 20], initial={10: 160})
    assert ledger.on_hand == {10: 160, 20: 0}
    assert ledger.initial == {10: 160, 20: 0}
    ledger.receive(20, 800)
    ledger.withdraw(20, 300)
    assert ledger.on_hand[20] == 500
    assert ledger.withdrawn[20] == 300


def test_ledger_rejects_negative_stock():
    ledger = StockLedger([10])
    ledger.receive(10, 100)
    with pytest.raises(ValueError, match="negative"):
        ledger.withdraw(10, 101)
    assert ledger.on_hand[10] == 100   # unchanged after the failed withdrawal


def test_component_orders_always_release():
    system = build_system("low")
    ledger = StockLedger([10, 20])
    order = make_order(system, 20, 1600)
    assert try_release(order, ledger, 5.0)
    assert order.release_time == 5.0


def test_product_release_withdraws_components_atomically():
    system = build_system("low")
    ledger = StockLedger([10, 20], initial={20: 2000})
    order = make_order(system, 10, 800)   # needs 1600 component pieces
    assert try_release(order, ledger, 3.0)
    assert ledger.on_hand[20] == 400
    assert order.release_time == 3.0


def test_product_release_blocks_without_material():
    system = build_system("low")
    ledger = StockLedger([10, 20], initial={20: 1599})
    order = make_order(system, 10, 800)
    assert not try_release(order, ledger, 3.0)
    assert order.release_time == -1.0
    assert ledger.on_hand[20] == 1599   # nothing withdrawn

    ledger.receive(20, 1)
    assert try_release(order, ledger, 4.0)
    assert ledger.on_hand[20] == 0


def test_fulfillment_no_overtaking():
    ledger = StockLedger([10], initial={10: 750})
    older = CustomerDemand(10, due=5, qty=800)
    younger = CustomerDemand(10, due=9, qty=700)
    queue = {10: deque([older, younger])}
    # stock covers the younger demand, but the older one blocks the queue
    assert fulfill_due_demands(queue, ledger, period=9) == []
    assert ledger.on_hand[10] == 750

    ledger.receive(10, 750)
    shipped = fulfill_due_demands(queue, ledger, period=9)
    assert [(d.product, d.due, d.fulfilled_period) for d in shipped] == [
        (10, 5, 9), (10, 9, 9)]
    assert ledger.on_hand[10] == 0
    assert not queue[10]


def test_fulfillment_all_or_nothing():
    ledger = StockLedger([10], initial={10: 61})
    demand = CustomerDemand(10, due=13, qty=739)
    queue = {10: deque([demand])}
    assert fulfill_due_demands(queue, ledger, period=13) == []
    assert demand.fulfilled_period is None

    ledger.receive(10, 800)
    shipped = fulfill_due_demands(queue, ledger, period=13)
    assert shipped == [demand]
    assert demand.fulfilled_period == 13
    # surplus stays as finished-goods inventory
    assert ledger.on_hand[10] == 122


def test_fulfillment_waits_for_due_period():
    ledger = StockLedger([10], initial={10: 800})
    queue = {10: deque([CustomerDemand(10, due=13, qty=800)])}
    assert fulfill_due_demands(queue, ledger, period=12) == []
    assert ledger.on_hand[10] == 800
    assert len(fulfill_due_demands(queue, ledger, period=13)) == 1


def test_fulfillment_handles_multiple_products():
    ledger = StockLedger([10, 11], initial={10: 800, 11: 100})
    queue = {10: deque([CustomerDemand(10, due=5, qty=800)]),
             11: deque([CustomerDemand(11, due=5, qty=700)])}
    shipped = fulfill_due_demands(queue, ledger, period=5)
    assert [d.product for d in shipped] == [10]
    assert queue[11]   # still open, backordered
