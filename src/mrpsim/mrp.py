"""Rolling-horizon MRP: netting, lot sizing, backward scheduling, explosion.

Each period the planner rebuilds the material plan from scratch (planned
orders are never carried over; only released production orders persist).  For
every item the projected on-hand balance is rolled forward over the item's
decision window (see `decision_windows`),

    projected[t] = projected[t-1] - gross[t] + receipts[t] + planned lots[t],

and whenever the projection at a demand period would fall below the netting
threshold a net requirement arises and is covered by a lot sized per the
active policy:

    FOP P: the lot lands in the first uncovered requirement period and
           absorbs all net requirements of the following P-1 periods too.
    FOQ Q: the lot is the smallest multiple of Q covering the requirement;
           surplus raises the projection of later periods.

Two netting modes differ only in the threshold.  Standard netting keeps the
projection at or above the safety stock everywhere.  Extended netting splits
the horizon at the newest due period already covered by a released order
("covered_until"): inside that range the threshold drops to zero, so safety
stock absorbs short-term forecast swings instead of triggering nervous
re-orders, while beyond it the safety stock is planned as usual.  Final
products track covered_until at every release; components never carry safety
stock, which makes both modes identical for them.

Lots are scheduled backward from their due period by the planned lead time,
clamped to the current period (a late lot is simply released now and its
receipt projected one planned lead time ahead).  Released product lots pull
component demand at their planned start: the component gross requirement of
a product lot of q pieces is q * BOM quantity, timed at the lot's start.

Only lots that start in the current period are released; the rest are
discarded and planned afresh next period.  The scan runs forward in time, so
periods past the last one that can shape a released lot are never netted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SST_FACTORS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0)
PLT_VALUES = (1, 2, 3, 4, 6, 8)
FOP_PERIODS = (1, 2, 5, 6, 9)
FOQ_QUANTITIES = (200, 400, 800, 1200, 1600)
COMPONENT_LOTS = (800, 1600)
POLICIES = ("FOP", "FOQ")
MODES = ("standard", "extended")


@dataclass(frozen=True)
class PlanningParams:
    """One planning-parameter set of the experiment grid."""

    sst_factor: float
    plt: int
    policy: str
    policy_param: int
    component_lot: int = 800
    mode: str = "standard"

    def __post_init__(self) -> None:
        if self.sst_factor not in SST_FACTORS:
            raise ValueError(f"sst_factor must be one of {SST_FACTORS}, "
                             f"got {self.sst_factor}")
        if self.plt not in PLT_VALUES:
            raise ValueError(f"plt must be one of {PLT_VALUES}, got {self.plt}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        allowed = FOP_PERIODS if self.policy == "FOP" else FOQ_QUANTITIES
        if self.policy_param not in allowed:
            raise ValueError(f"{self.policy} parameter must be one of {allowed}, "
                             f"got {self.policy_param}")
        if self.component_lot not in COMPONENT_LOTS:
            raise ValueError(f"component_lot must be one of {COMPONENT_LOTS}, "
                             f"got {self.component_lot}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def safety_stock(self, expected_amount: int) -> int:
        return round(self.sst_factor * expected_amount)

    def label(self) -> str:
        return (f"{self.mode} sst={self.sst_factor:g} plt={self.plt} "
                f"{self.policy}:{self.policy_param} comp={self.component_lot}")


def net_requirement_standard(prev_on_hand: float, gross: float,
                             receipts: float, safety: float) -> float:
    """Requirement that lifts the projection back to the safety stock."""
    return max(safety - (prev_on_hand - gross + receipts), 0)


def net_requirement_covered(prev_on_hand: float, gross: float,
                            receipts: float) -> float:
    """Requirement inside the already-covered horizon: only an actual
    projected shortage below zero triggers, safety stock may be consumed."""
    return max(-prev_on_hand + gross - receipts, 0)


def net_requirement_extended(prev_on_hand: float, gross: float, receipts: float,
                             safety: float, period: int,
                             covered_until: int) -> float:
    if period <= covered_until:
        return net_requirement_covered(prev_on_hand, gross, receipts)
    return net_requirement_standard(prev_on_hand, gross, receipts, safety)


@dataclass
class PlannedLot:
    item: int
    due: int
    qty: int
    start: int = 0
    completion: int = 0
    covered_end: int = 0


@dataclass
class MrpItemState:
    """Planner-facing snapshot of one item at the start of an MRP run."""

    on_hand: int
    receipts: dict[int, int] = field(default_factory=dict)
    safety_stock: int = 0
    covered_until: int = 0


def backward_schedule(due: int, plt: int, current_period: int) -> tuple[int, int]:
    """Planned (start, completion): start plt periods before the due period,
    never before now; a clamped (late) lot completes one lead time from now."""
    start = max(due - plt, current_period)
    return start, start + plt


def decision_windows(params: PlanningParams, system) -> tuple[int, int]:
    """Look-ahead (products, components) in periods past the current one
    that can change a lot released now.

    A component lot releases only if due within component_plt periods.  The
    component gross it nets comes from product lots starting by then, i.e.
    due at most plt periods later, and an FOP product lot absorbs the
    requirements of its P-1 following periods too.
    """
    lot_window = params.policy_param - 1 if params.policy == "FOP" else 0
    component = system.component_plt
    return params.plt + component + lot_window, component


def plan_item(state: MrpItemState, gross: dict[int, int], item: int,
              policy: str, policy_param: int, plt: int, current_period: int,
              horizon: int, extended: bool = False,
              trace: list | None = None) -> list[PlannedLot]:
    """Net one item over `horizon` periods past `current_period` and size
    the covering lots.

    Only periods with demand or scheduled receipts can change the projection,
    so the scan touches just those.
    """
    safety = state.safety_stock
    covered_until = state.covered_until if extended else -1
    receipts = state.receipts
    last = current_period + horizon

    buckets = set(gross)
    buckets.update(receipts)
    periods = sorted(p for p in buckets if current_period <= p <= last)

    lots: list[PlannedLot] = []
    on_hand = state.on_hand   # all quantities are whole pieces
    window_lot: PlannedLot | None = None
    for period in periods:
        g = gross.get(period, 0)
        r = receipts.get(period, 0)
        on_hand = on_hand - g + r
        threshold = 0 if (extended and period <= covered_until) else safety
        # Requirements exist only where demand does.  A projection resting
        # below the safety level between demands must not spawn a refill lot
        # of its own (and its own setup); the next demand-period lot absorbs
        # the gap instead.
        net = max(threshold - on_hand, 0) if g > 0 else 0
        added = 0
        if net > 0:
            net = int(net)
            if policy == "FOP":
                if window_lot is not None and period <= window_lot.covered_end:
                    window_lot.qty += net
                else:
                    window_lot = PlannedLot(item=item, due=period, qty=net,
                                            covered_end=period + policy_param - 1)
                    lots.append(window_lot)
                added = net
            else:
                added = -(-net // policy_param) * policy_param
                lots.append(PlannedLot(item=item, due=period, qty=added,
                                       covered_end=period))
        if trace is not None:
            trace.append((item, period, g, r, on_hand, int(net), added))
        on_hand += added

    for lot in lots:
        lot.start, lot.completion = backward_schedule(lot.due, plt, current_period)
    return lots


def explode(product_lots: list[PlannedLot], system) -> dict[int, dict[int, int]]:
    """Component gross requirements implied by planned product lots, timed at
    each lot's planned start."""
    gross: dict[int, dict[int, int]] = {cid: {} for cid in system.components}
    for lot in product_lots:
        item = system.items[lot.item]
        comp = item.component
        need = lot.qty * item.component_qty
        bucket = gross[comp]
        bucket[lot.start] = bucket.get(lot.start, 0) + need
    return gross


@dataclass
class MrpResult:
    product_lots: list[PlannedLot]
    component_lots: list[PlannedLot]
    release_products: list[PlannedLot]
    release_components: list[PlannedLot]


def run_mrp(product_states: dict[int, MrpItemState],
            product_gross: dict[int, dict[int, int]],
            component_states: dict[int, MrpItemState],
            component_extra_gross: dict[int, dict[int, int]],
            params: PlanningParams, current_period: int, system,
            trace: list | None = None) -> MrpResult:
    """One planning run over the decision windows: products first, then
    exploded components.  Lots due past the windows are never planned.

    `component_extra_gross` carries demand that is not visible through the
    fresh product plan, e.g. withdrawals still pending for committed product
    orders that wait for material.
    """
    extended = params.mode == "extended"
    product_window, component_window = decision_windows(params, system)
    product_lots: list[PlannedLot] = []
    for pid in sorted(product_states):
        lots = plan_item(product_states[pid], product_gross.get(pid, {}), pid,
                         params.policy, params.policy_param, params.plt,
                         current_period, product_window, extended=extended,
                         trace=trace)
        product_lots.extend(lots)

    component_gross = explode(product_lots, system)
    for cid, extra in component_extra_gross.items():
        bucket = component_gross.setdefault(cid, {})
        for period, qty in extra.items():
            bucket[period] = bucket.get(period, 0) + qty

    component_lots: list[PlannedLot] = []
    for cid in sorted(component_states):
        lots = plan_item(component_states[cid], component_gross.get(cid, {}),
                         cid, "FOQ", params.component_lot, system.component_plt,
                         current_period, component_window, extended=False,
                         trace=trace)
        component_lots.extend(lots)

    return MrpResult(
        product_lots=product_lots,
        component_lots=component_lots,
        release_products=[l for l in product_lots if l.start <= current_period],
        release_components=[l for l in component_lots if l.start <= current_period],
    )


def update_covered_until(state: MrpItemState, lot_covered_end: int) -> None:
    """Advance the covered-horizon marker when a product order is released."""
    if lot_covered_end > state.covered_until:
        state.covered_until = lot_covered_end


def validate_horizon(params: PlanningParams, system) -> None:
    """The planning horizon bounds the look-ahead: it must span lead time,
    lot window, component lead time and the forecast range.  That contains
    every decision window (`decision_windows`), which alone sets how far
    each netting scan runs."""
    from .forecast import HORIZON as FORECAST_HORIZON
    window = params.policy_param if params.policy == "FOP" else 1
    needed = params.plt + window + system.component_plt + FORECAST_HORIZON
    if system.horizon < needed:
        raise ValueError(
            f"planning horizon {system.horizon} too short for plt={params.plt}, "
            f"lot window {window}, component plt {system.component_plt} and "
            f"forecast range {FORECAST_HORIZON}: needs at least {needed}")
