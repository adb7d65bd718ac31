"""Rolling-horizon MRP: netting, lot sizing, backward scheduling, explosion.

Each period the planner rebuilds the material plan from scratch; only
released production orders persist.  For every item the projected on-hand
balance is rolled forward over the item's decision window
(`decision_windows`),

    projected[t] = projected[t-1] - gross[t] + receipts[t] + planned lots[t],

and where the projection at a demand period would fall below the netting
threshold a net requirement arises and is covered by a lot of the active
policy:

    FOP P: the lot lands in the first uncovered requirement period and
           absorbs all net requirements of the following P-1 periods too.
    FOQ Q: the lot is the smallest multiple of Q covering the requirement;
           surplus raises the projection of later periods.

Netting.  The two modes differ only in the threshold.  Standard netting
keeps the projection at or above the safety stock everywhere.  Extended
netting splits the horizon at the newest due period already covered by a
released order (`covered_until`): inside that range the threshold drops to
zero, so safety stock absorbs short-term forecast swings instead of
triggering nervous re-orders; beyond it the safety stock is planned as
usual.  At a period t with demand,

    net[t] = max(threshold[t] - (projected[t-1] - gross[t] + receipts[t]), 0),
    threshold[t] = 0 if t <= covered_until else safety stock,

and standard netting is the same rule with nothing covered.  `plan_item`
applies it inline; tests/test_mrp.py states it as a function and checks
`plan_item` against a dense scan through it.  The driver advances
`covered_until` at every product release; components carry no safety
stock, so both modes plan them alike.

Netting twins.  A standard run and its extended twin (same instance,
replication and parameter set) read the same random numbers, so they can
part only where the thresholds differ: at a demand bucket inside the
covered range whose projection lies below a positive safety stock.
`plan_item` appends an item's first such bucket to the `divergent` list it
is handed, which a standard run hands every MRP run until the list fills.
Until then the twins plan, release and cost exactly alike, so a standard
run that never met such a bucket is its twin's run too, and the grid takes
its row for the twin.  Tests in tests/test_mrp.py and tests/test_driver.py:

    test_divergent_bucket_is_where_extended_netting_first_nets_differently
    test_divergence_period_marks_where_the_netting_twins_part

The cut scan.  Lots are scheduled backward from their due period by the
planned lead time, clamped to now.  Only lots that start now are released;
the rest are discarded and planned afresh next period.  A product lot that
opens past now + plt + component_plt starts after now + component_plt: it
is not released, its component gross lands past the component window, and
under forward netting it cannot change an earlier lot.  So an untraced run
ends each product's scan at the first bucket past that limit that also
lies past the open FOP lot's window (the lot still absorbs its window's
nets) and, with a `divergent` list, past `covered_until`.  Every bucket
scanned nets as over the whole window, so the run releases and reports
divergence exactly as a whole-window plan does
(test_cut_scan_equals_whole_window_plan).  A run handed a trace list nets
and traces the whole window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import COMPONENTS, FINAL_PRODUCTS

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
        allowed = FOP_PERIODS if self.policy == "FOP" else FOQ_QUANTITIES
        for name, value, values in (
                ("sst_factor", self.sst_factor, SST_FACTORS),
                ("plt", self.plt, PLT_VALUES),
                ("policy", self.policy, POLICIES),
                (f"{self.policy} parameter", self.policy_param, allowed),
                ("component_lot", self.component_lot, COMPONENT_LOTS),
                ("mode", self.mode, MODES)):
            if value not in values:
                raise ValueError(f"{name} must be one of {values}, got {value!r}")

    def safety_stock(self, expected_amount: int) -> int:
        return round(self.sst_factor * expected_amount)

    def label(self) -> str:
        return (f"{self.mode} sst={self.sst_factor:g} plt={self.plt} "
                f"{self.policy}:{self.policy_param} comp={self.component_lot}")


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
    """Planning state of one item, one object for the whole run.  `on_hand`
    is the item's stock, the run's only count of it, which release, shipping
    and completions move; `receipts` is the item's receipt book, and the
    driver moves `covered_until` as product lots release.  A component's
    safety stock and `covered_until` stay 0."""

    on_hand: int
    receipts: dict[int, int] = field(default_factory=dict)
    safety_stock: int = 0
    covered_until: int = 0


def decision_windows(params: PlanningParams, system) -> tuple[int, int]:
    """Look-ahead (products, components) in periods past the current one
    that can change a lot released now.  A component lot releases only if
    due within component_plt periods; the gross it nets comes from product
    lots due at most plt periods later, and an FOP product lot absorbs the
    requirements of its P-1 following periods too."""
    lot_window = params.policy_param - 1 if params.policy == "FOP" else 0
    component = system.component_plt
    return params.plt + component + lot_window, component


def plan_item(state: MrpItemState, gross: dict[int, int], item: int,
              policy: str, policy_param: int, plt: int, current_period: int,
              horizon: int, extended: bool = False,
              trace: list | None = None,
              divergent: list | None = None,
              opens: int | None = None) -> list[PlannedLot]:
    """Net one item over `horizon` periods past `current_period` by the
    module's rule, size the covering lots and schedule each plt periods
    before its due period, but never before now; `state` is left as it is.
    Only periods with demand or scheduled receipts are scanned.  A `trace`
    list receives one row per scanned bucket, led by `current_period`; a
    `divergent` list, the first bucket where the netting twins part.  With
    `opens`, the scan is cut past `current_period + opens` as the module
    docstring's cut scan states."""
    safety = state.safety_stock
    covered_until = state.covered_until if extended else -1
    watch_until = (state.covered_until if divergent is not None and safety > 0
                   else -1)
    receipts = state.receipts
    last = current_period + horizon
    # the scan's end: past the opening limit, the watch and the FOP window
    stop = last if opens is None else current_period + opens
    if stop < watch_until:
        stop = watch_until
    if stop > last:
        stop = last
    periods = sorted(gross.keys() | receipts.keys() if receipts else gross)

    fop = policy == "FOP"
    lots: list[PlannedLot] = []
    on_hand = state.on_hand   # all quantities are whole pieces
    lot, window_end = None, current_period - 1   # the open FOP window
    receipt = receipts.get
    for period in periods:
        if period > stop:
            break
        if period < current_period:
            continue
        g = gross.get(period, 0)
        r = receipt(period, 0)
        projected = on_hand - g + r
        # Requirements exist only where demand does: a projection resting
        # below the safety level between demands spawns no refill lot (and
        # setup) of its own; the next demand-period lot absorbs the gap.
        net = 0
        if g > 0:
            net = (0 if period <= covered_until else safety) - projected
            if period <= watch_until and projected < safety:
                divergent.append(period)
                watch_until = -1
        if net <= 0:
            on_hand = projected
            if trace is not None:
                trace.append((current_period, item, period, g, r, on_hand,
                              0, 0))
            continue
        net = int(net)
        if fop and period <= window_end:
            lot.qty += net
            added = net
        else:
            start = period - plt
            if start < current_period:
                start = current_period
            if fop:
                added, window_end = net, period + policy_param - 1
                lot = PlannedLot(item, period, net, start, start + plt,
                                 window_end)
                if window_end > stop:
                    stop = window_end if window_end < last else last
            else:
                added = -(-net // policy_param) * policy_param
                lot = PlannedLot(item, period, added, start, start + plt,
                                 period)
            lots.append(lot)
        if trace is not None:
            trace.append((current_period, item, period, g, r, projected,
                          net, added))
        on_hand = projected + added
    return lots


@dataclass
class MrpResult:
    product_lots: list[PlannedLot]
    component_lots: list[PlannedLot]
    release_products: list[PlannedLot]
    release_components: list[PlannedLot]


def run_mrp(states: dict[int, MrpItemState], gross: dict[int, dict[int, int]],
            params: PlanningParams, current_period: int, system,
            trace: list | None = None,
            divergent: list | None = None) -> MrpResult:
    """Plan `config.FINAL_PRODUCTS`, then `config.COMPONENTS`, over their
    decision windows, and release the lots that start now.  `states` and
    `gross` hold every item by id.  A component's gross arrives holding the
    withdrawals of product orders blocked on material, and each product
    lot adds q * BOM quantity to it at the lot's start, so a caller hands
    in dicts it will not read again.  `trace` and `divergent` go to
    `plan_item`; an untraced run cuts the product scans.  Every component
    lot starts now, its window being its lead time, so `release_components`
    is `component_lots`, the same list."""
    policy, policy_param, plt = params.policy, params.policy_param, params.plt
    extended = params.mode == "extended"
    product_window, component_window = decision_windows(params, system)
    opens = None if trace is not None else plt + component_window
    product_lots, release_products = [], []
    for pid in FINAL_PRODUCTS:
        lots = plan_item(states[pid], gross[pid], pid, policy, policy_param,
                         plt, current_period, product_window, extended, trace,
                         divergent, opens)
        if not lots:
            continue
        item = system.items[pid]
        bucket = gross[item.component]
        for lot in lots:
            start = lot.start
            bucket[start] = bucket.get(start, 0) + lot.qty * item.component_qty
            if start <= current_period:
                release_products.append(lot)
        product_lots += lots

    component_lots = []
    for cid in COMPONENTS:
        component_lots += plan_item(states[cid], gross[cid], cid, "FOQ",
                                    params.component_lot, system.component_plt,
                                    current_period, component_window, False,
                                    trace)

    return MrpResult(product_lots, component_lots, release_products,
                     component_lots)
