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
re-orders, while beyond it the safety stock is planned as usual.  At a
period t with demand,

    net[t] = max(threshold[t] - (projected[t-1] - gross[t] + receipts[t]), 0),
    threshold[t] = 0 if t <= covered_until else safety stock,

and standard netting is the same rule with nothing covered.  `plan_item`
applies it inline; tests/test_mrp.py states it as a function and checks
`plan_item` against a dense scan of every period through it.
The driver advances covered_until at every product release; components
never carry safety stock, which makes both modes identical for them.

The modes can part only where that threshold matters: a demand bucket inside
the covered range whose projection lies below a positive safety stock.
`run_mrp` appends each product's first bucket where the other threshold
would give another net to the `divergent` list it is handed, which the
driver hands a standard run's plans until it fills.  Until one occurs, a
standard run and its extended twin on the same random numbers plan, release
and cost exactly alike, so the grid reuses a standard run that never met
one as its twin's result.

Lots are scheduled backward from their due period by the planned lead time,
clamped to the current period (a late lot is simply released now and its
receipt projected one planned lead time ahead).  `run_mrp`'s inputs are keyed
by item and planned in `config`'s order, every final product, then every
component.  A component's gross arrives holding the withdrawals of product
orders blocked on material, and every product lot planned in the decision
window adds component demand at its planned start: q * BOM quantity for a
lot of q pieces.

Only lots that start in the current period are released; the rest are
discarded and planned afresh next period.  The scan runs forward in time, so
periods past the last one that can shape a released lot are never netted.

Nor need a product lot open that cannot shape one.  A lot opens at its due
period and starts plt periods earlier, or now; so a lot that opens past
now + plt + component_plt starts after now + component_plt.  It is not
released, its component gross lands past the component window and is never
netted, and under forward netting it cannot change an earlier lot.  An
untraced run therefore ends each product's scan at the first bucket past
that limit which lies past the open FOP lot's window too (the lot still
absorbs the nets of its window) and, when it is handed a `divergent`
list, past `covered_until`.  Every bucket scanned is netted as over the
whole window, so the run releases and reports divergence exactly as a
whole-window plan does.  A run handed a trace list nets the whole window:
its trace lists every bucket.
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
    that can change a lot released now.

    A component lot releases only if due within component_plt periods.  The
    component gross it nets comes from product lots starting by then, i.e.
    due at most plt periods later, and an FOP product lot absorbs the
    requirements of its P-1 following periods too.  That P-1 tail matters
    only to an FOP lot already open and to a `divergent` list; an untraced
    `run_mrp` scans it for nothing else (see the module docstring).
    """
    lot_window = params.policy_param - 1 if params.policy == "FOP" else 0
    component = system.component_plt
    return params.plt + component + lot_window, component


def plan_item(state: MrpItemState, gross: dict[int, int], item: int,
              policy: str, policy_param: int, plt: int, current_period: int,
              horizon: int, extended: bool = False,
              trace: list | None = None,
              divergent: list | None = None,
              opens: int | None = None) -> list[PlannedLot]:
    """Net one item over `horizon` periods past `current_period`, size the
    covering lots and schedule each plt periods before its due period, but
    never before now.

    Only periods with demand or scheduled receipts can change the projection,
    so the scan touches just those.  A demand period nets the shortfall of
    its projection below the threshold: zero up to `state.covered_until`
    when `extended`, the safety stock elsewhere (the module docstring states
    the rule).  A `trace` list receives one row per scanned bucket, led by
    `current_period`.  A `divergent` list receives the first demand bucket,
    if any, where the other netting mode would net differently: one up to
    `state.covered_until` whose projection lies below a positive safety stock.

    With `opens`, the scan ends at the first bucket past `current_period +
    opens`, past the open FOP lot's window and, with a `divergent` list,
    past `state.covered_until`; it nets every bucket it scans as over the
    whole horizon, the default (the module docstring argues the cut).
    """
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
    """Plan `config.FINAL_PRODUCTS`, then `config.COMPONENTS`, in that order,
    over the decision windows; each product lot adds its component demand,
    and each lot that starts now is released, as it is planned.  Lots due
    past the windows are never planned.

    `states` and `gross` hold every item, keyed by item id.  A product's
    gross is its demand; a component's arrives holding the withdrawals of
    product orders blocked on material, which the fresh product plan does
    not show, and `run_mrp` adds each product lot's component demand to it:
    a caller hands it dicts it will not read again.

    A `trace` list receives every bucket of the whole window.  Without one,
    `plan_item`'s `opens` for products is plt + component_plt: the last
    bucket whose new lot starts by now + component_plt.  A `divergent` list,
    which a standard run hands in while it watches, receives each product's
    first bucket where the other netting mode would net differently, if any;
    `plan_item` fills it.  Every component lot starts now, as its window is
    its planned lead time, so `release_components` is `component_lots`, the
    same list.
    """
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
