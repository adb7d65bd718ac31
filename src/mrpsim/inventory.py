"""Material release and all-or-nothing demand fulfillment.

An item's stock is the `on_hand` of its planning state, the one count a run
keeps.  Both functions take the run's item-keyed states and take stock only
after their own availability test, so neither drives a stock below zero."""

from __future__ import annotations

from collections import deque

from .mrp import MrpItemState


class CustomerDemand:
    """A firmed customer order: due at the end of its due period."""

    __slots__ = ("product", "due", "qty", "fulfilled_period")

    def __init__(self, product: int, due: int, qty: int):
        self.product = product
        self.due = due
        self.qty = qty
        self.fulfilled_period: int | None = None


def try_release(order, states: dict[int, MrpItemState], time: float) -> bool:
    """Release an order if its component material is on hand: a product
    order withdraws its full component need atomically or stays blocked;
    components always release."""
    if order.component is not None:
        state = states[order.component]
        if state.on_hand < order.component_need:
            return False
        state.on_hand -= order.component_need
    order.release_time = time
    return True


def fulfill_due_demands(open_demands: dict[int, deque[CustomerDemand]],
                        states: dict[int, MrpItemState],
                        period: int) -> list[CustomerDemand]:
    """Ship every due or backordered demand that stock fully covers and
    return them.  Strict FIFO per product: an unfillable older demand
    blocks younger ones (no overtaking), and demands ship complete or not
    at all.  Products are served in `open_demands`' order."""
    shipped: list[CustomerDemand] = []
    for product, queue in open_demands.items():
        state = states[product]
        while queue:
            demand = queue[0]
            if demand.due > period or state.on_hand < demand.qty:
                break
            state.on_hand -= demand.qty
            demand.fulfilled_period = period
            shipped.append(demand)
            queue.popleft()
    return shipped
