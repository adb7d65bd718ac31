"""Production system description for the MRP simulation.

The modeled plant makes eight final products (ids 10..17) on two identical
two-stage lines and two purchased-part style components (ids 20, 21) on one
machine each:

    products 10..13:  M102 -> M101, consuming component 20
    products 14..17:  M112 -> M111, consuming component 21
    component 20:     M201
    component 21:     M202

Each final product piece consumes `bom.quantity` component pieces.  Demand
arrives as one customer order per product every `demand.interval` periods
with an expected quantity of `demand.expected_amount` pieces; the eight
products are staggered so that two of them (one per line) are due every
period.

Machine load is tuned through the setup time of the product machines: with
one 800-piece lot per day and machine, setup means of 216 / 288 / 331.2
minutes put the product machines at 90% / 95% / 98% planned utilization.
Component machines always run a 94-minute setup; their planned utilization is
88.6% with 800-piece component lots and 82.1% with 1600-piece lots.

`_DEFAULT_OVERRIDES` is the one home of every plant number: `build_system`
reads each value from it, and a JSON config file (`load_overrides`, README)
overrides any of them within the bounds `_merge_overrides` checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# The one statement of which items are final products and which components.
FINAL_PRODUCTS = (10, 11, 12, 13, 14, 15, 16, 17)
COMPONENTS = (20, 21)

RUN_LENGTH = 400                 # simulated periods per replication
WARMUP = 40                      # periods excluded from all KPIs

UTILIZATION_LEVELS = ("low", "medium", "high")

# Every overridable plant number, in the sections and keys of a JSON config
# file.  README's "Config overrides" block must equal this table.
_DEFAULT_OVERRIDES = {
    # CU per piece and period: released pieces and component stock (wip),
    # final-goods stock (fgi), unfilled due demand (backorder)
    "costs": {"wip": 0.5, "fgi": 1.0, "backorder": 19.0},
    # pieces per customer order, periods between two orders of one product,
    # and no due dates during the first first_delay periods
    "demand": {"expected_amount": 800, "interval": 4, "first_delay": 12},
    # minutes per piece: final products at each stage, components
    "processing": {"final_min": 1.35, "component_min": 0.68},
    # Setup time means (minutes per lot).  The product-machine value selects
    # the utilization level of the whole system; components always use the
    # same mean.  cv is the coefficient of variation of lognormal setups.
    "setup": {"low": 216.0, "medium": 288.0, "high": 331.2,
              "component": 94.0, "cv": 0.2},
    # component pieces per final-product piece
    "bom": {"quantity": 2},
    # planned lead time (periods) of component orders
    "planning": {"component_plt": 3},
    # one period is one day of available machine time
    "capacity": {"period_minutes": 1440.0},
}

# Every value must be >= 0, and these three must exceed 0: a demand interval
# of 0 or a period of no minutes divides by zero, and every product consumes
# its component.  Keys whose default is an int take integral numbers only.
_LOWER_BOUNDS = {"demand.interval": (1, ">="), "bom.quantity": (1, ">="),
                 "capacity.period_minutes": (0, ">")}

# Product k is due in periods p > demand.first_delay with
# p % interval == offset % interval.
DEMAND_OFFSETS = {10: 1, 14: 1, 11: 2, 15: 2, 12: 3, 16: 3, 13: 4, 17: 4}

_ROUTINGS = {
    10: (102, 101), 11: (102, 101), 12: (102, 101), 13: (102, 101),
    14: (112, 111), 15: (112, 111), 16: (112, 111), 17: (112, 111),
    20: (201,), 21: (202,),
}
_PRODUCT_COMPONENT = {10: 20, 11: 20, 12: 20, 13: 20,
                      14: 21, 15: 21, 16: 21, 17: 21}
# the machines the products' and the components' routings visit, in id order
_PRODUCT_MACHINES, _COMPONENT_MACHINES = (
    tuple(sorted({mid for item in items for mid in _ROUTINGS[item]}))
    for items in (FINAL_PRODUCTS, COMPONENTS))


@dataclass(frozen=True)
class Item:
    """One planned item: a final product or a component."""

    id: int
    processing_min: float        # per piece, per operation
    routing: tuple[int, ...]     # machine ids in processing order
    component: int | None = None # consumed component id (finals only)
    component_qty: int = 0       # component pieces per piece of this item


@dataclass(frozen=True)
class Machine:
    id: int
    setup_mean_min: float
    setup_cv: float


@dataclass(frozen=True)
class CostRates:
    wip: float
    fgi: float
    backorder: float


@dataclass(frozen=True)
class DemandPattern:
    """Cyclic customer-order schedule for the final products."""

    interval: int
    first_delay: int
    expected_amount: int

    def first_due(self, item_id: int) -> int:
        return self.due_dates(item_id, 0, self.first_delay + self.interval)[0]

    def due_dates(self, item_id: int, start: int, end: int) -> range:
        """Due dates of one product in [start, end]: every interval-th
        period on the product's offset, none at or before the delay."""
        start = max(start, self.first_delay + 1)
        first = start + (DEMAND_OFFSETS[item_id] - start) % self.interval
        return range(first, end + 1, self.interval)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of plant, demand pattern and cost rates."""

    items: dict[int, Item]
    machines: dict[int, Machine]
    cost_rates: CostRates
    demand: DemandPattern
    bom_quantity: int
    component_plt: int
    period_minutes: float


def build_system(utilization: str = "low",
                 overrides: dict | None = None) -> SystemConfig:
    """Assemble the default plant at one of the three utilization levels.

    `overrides` takes the (already parsed) JSON override mapping; unknown
    sections or keys and out-of-range values raise ValueError so typos
    cannot silently change a run.
    """
    o = _merge_overrides(overrides)
    if utilization not in UTILIZATION_LEVELS:
        raise ValueError(f"utilization must be one of {UTILIZATION_LEVELS}, "
                         f"got {utilization!r}")

    bom_qty = o["bom"]["quantity"]
    items: dict[int, Item] = {}
    proc = o["processing"]
    for pid in FINAL_PRODUCTS:
        items[pid] = Item(id=pid, processing_min=proc["final_min"],
                          routing=_ROUTINGS[pid],
                          component=_PRODUCT_COMPONENT[pid],
                          component_qty=bom_qty)
    for cid in COMPONENTS:
        items[cid] = Item(id=cid, processing_min=proc["component_min"],
                          routing=_ROUTINGS[cid])

    cv = o["setup"]["cv"]
    product_setup = o["setup"][utilization]
    machines = {mid: Machine(mid, product_setup, cv) for mid in _PRODUCT_MACHINES}
    for mid in _COMPONENT_MACHINES:
        machines[mid] = Machine(mid, o["setup"]["component"], cv)

    demand = DemandPattern(interval=o["demand"]["interval"],
                           first_delay=o["demand"]["first_delay"],
                           expected_amount=o["demand"]["expected_amount"])
    rates = CostRates(wip=o["costs"]["wip"], fgi=o["costs"]["fgi"],
                      backorder=o["costs"]["backorder"])

    return SystemConfig(items=items, machines=machines, cost_rates=rates,
                        demand=demand, bom_quantity=bom_qty,
                        component_plt=o["planning"]["component_plt"],
                        period_minutes=o["capacity"]["period_minutes"])


def _merge_overrides(overrides: dict | None) -> dict:
    merged = {sec: dict(vals) for sec, vals in _DEFAULT_OVERRIDES.items()}
    for section, values in (overrides or {}).items():
        if section not in merged:
            raise ValueError(f"unknown config section {section!r}; known: "
                             f"{sorted(merged)}")
        if not isinstance(values, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key, val in values.items():
            if key not in merged[section]:
                raise ValueError(f"unknown config key {section}.{key}; known: "
                                 f"{sorted(merged[section])}")
            merged[section][key] = _checked(f"{section}.{key}", val,
                                            type(merged[section][key]))
    return merged


def _checked(name: str, val, kind: type):
    """`val` as the default's type, once it is a finite number within
    bounds; an integer too large for a float is not."""
    try:
        finite = (isinstance(val, (int, float)) and not isinstance(val, bool)
                  and math.isfinite(val))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"config key {name} must be a number")
    if kind is int and isinstance(val, float) and not val.is_integer():
        raise ValueError(f"config key {name} must be an integer, got {val}")
    low, op = _LOWER_BOUNDS.get(name, (0, ">="))
    if not (val > low if op == ">" else val >= low):
        raise ValueError(f"config key {name} must be {op} {low}, got {val}")
    return kind(val)


def load_overrides(path: str) -> dict:
    """Read a JSON override file and reject malformed structure early."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    _merge_overrides(data)   # validation only
    return data


def planned_utilization(system: SystemConfig, machine_id: int,
                        lots_per_period: float, pieces_per_period: float) -> float:
    """Deterministic planned load of one machine.

    (pieces * processing + lots * mean setup) / available minutes, using the
    processing time of the items routed over the machine.
    """
    machine = system.machines.get(machine_id)
    if machine is None:
        raise KeyError(f"unknown machine id {machine_id}")
    proc = None
    for item in system.items.values():
        if machine_id in item.routing:
            proc = item.processing_min
            break
    if proc is None:
        raise KeyError(f"no item routed over machine {machine_id}")
    busy = pieces_per_period * proc + lots_per_period * machine.setup_mean_min
    return busy / system.period_minutes


def planned_utilization_table(overrides: dict | None = None) -> list[tuple[str, str, float]]:
    """Reference utilization table: one 800-piece product lot per machine and
    day, and component lots of 800 or 1600 pieces covering the exploded
    component demand of 1600 pieces per day."""
    rows: list[tuple[str, str, float]] = []
    for level in UTILIZATION_LEVELS:
        system = build_system(level, overrides)
        amount = system.demand.expected_amount
        for mid in _PRODUCT_MACHINES:
            rows.append((f"M{mid}", level,
                         planned_utilization(system, mid, 1.0, amount)))
    system = build_system("low", overrides)
    comp_demand = system.demand.expected_amount * system.bom_quantity
    for lot in (800, 1600):
        lots = comp_demand / lot
        for mid in _COMPONENT_MACHINES:
            rows.append((f"M{mid}", f"foq{lot}",
                         planned_utilization(system, mid, lots, comp_demand)))
    return rows
