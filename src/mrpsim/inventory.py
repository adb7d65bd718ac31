"""Stock ledger, material release and all-or-nothing demand fulfillment."""

from __future__ import annotations

from collections import deque


class CustomerDemand:
    """A firmed customer order: due at the end of its due period."""

    __slots__ = ("product", "due", "qty", "fulfilled_period")

    def __init__(self, product: int, due: int, qty: int):
        self.product = product
        self.due = due
        self.qty = qty
        self.fulfilled_period: int | None = None


class StockLedger:
    """Physical on-hand per item with conservation counters."""

    def __init__(self, item_ids, initial: dict[int, int] | None = None):
        self.on_hand: dict[int, int] = {i: 0 for i in item_ids}
        if initial:
            for item, qty in initial.items():
                self.on_hand[item] = qty
        self.initial: dict[int, int] = dict(self.on_hand)
        self.withdrawn: dict[int, int] = {i: 0 for i in item_ids}

    def receive(self, item: int, qty: int) -> None:
        self.on_hand[item] += qty

    def withdraw(self, item: int, qty: int) -> None:
        if self.on_hand[item] < qty:
            raise ValueError(f"stock of item {item} would go negative: "
                             f"{self.on_hand[item]} - {qty}")
        self.on_hand[item] -= qty
        self.withdrawn[item] += qty


def try_release(order, ledger: StockLedger, time: float) -> bool:
    """Release an order if its component material is on hand.

    Components have no material predecessors and always release.  A product
    order withdraws its full component need atomically or stays blocked.
    """
    if order.component is not None:
        if ledger.on_hand[order.component] < order.component_need:
            return False
        ledger.withdraw(order.component, order.component_need)
    order.release_time = time
    return True


def fulfill_due_demands(open_demands: dict[int, deque[CustomerDemand]],
                        ledger: StockLedger, period: int) -> list[CustomerDemand]:
    """Ship every due or backordered demand that stock fully covers.

    Strict FIFO per product: an unfillable older demand blocks younger ones
    of the same product (no overtaking), and demands ship complete or not at
    all.  Products are served in `open_demands`' order (the driver's is
    `config.FINAL_PRODUCTS`).  Returns the demands fulfilled this period.
    """
    shipped: list[CustomerDemand] = []
    for product, queue in open_demands.items():
        while queue:
            demand = queue[0]
            if demand.due > period or ledger.on_hand[product] < demand.qty:
                break
            ledger.withdraw(product, demand.qty)
            demand.fulfilled_period = period
            shipped.append(demand)
            queue.popleft()
    return shipped
