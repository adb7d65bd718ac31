"""Production system description for the MRP simulation.

The modeled plant makes eight final products (ids 10..17) on two identical
two-stage lines and two purchased-part style components (ids 20, 21) on one
machine each:

    products 10..13:  M102 -> M101, consuming component 20
    products 14..17:  M112 -> M111, consuming component 21
    component 20:     M201
    component 21:     M202

Each final product piece consumes BOM_QUANTITY component pieces.  Demand
arrives as one customer order per product every DEMAND_INTERVAL periods with
an expected quantity of EXPECTED_ORDER_AMOUNT pieces; the eight products are
staggered so that two of them (one per line) are due every period.

Machine load is tuned through the setup time of the product machines: with
one 800-piece lot per day and machine, setup means of 216 / 288 / 331.2
minutes put the product machines at 90% / 95% / 98% planned utilization.
Component machines always run a 94-minute setup; their planned utilization is
88.6% with 800-piece component lots and 82.1% with 1600-piece lots.

Every constant here can be overridden through a JSON config file, see
`load_overrides` and README for the key schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PERIOD_MINUTES = 1440.0          # one period is one day of available machine time

FINAL_PRODUCTS = (10, 11, 12, 13, 14, 15, 16, 17)
COMPONENTS = (20, 21)

FINAL_PROCESSING_MIN = 1.35      # minutes per final-product piece, each stage
COMPONENT_PROCESSING_MIN = 0.68  # minutes per component piece
BOM_QUANTITY = 2                 # component pieces per final-product piece

EXPECTED_ORDER_AMOUNT = 800      # pieces per customer order
DEMAND_INTERVAL = 4              # periods between two orders of one product
FIRST_DEMAND_DELAY = 12          # no due dates during the first 12 periods

# Setup time means (minutes per lot).  The product-machine value selects the
# utilization level of the whole system; components always use the same mean.
PRODUCT_SETUP_MIN = {"low": 216.0, "medium": 288.0, "high": 331.2}
COMPONENT_SETUP_MIN = 94.0
SETUP_CV = 0.2                   # coefficient of variation of lognormal setups

WIP_COST = 0.5                   # CU per piece and period, released and component stock
FGI_COST = 1.0                   # CU per piece and period in final-goods stock
BACKORDER_COST = 19.0            # CU per piece and period of unfilled due demand

COMPONENT_PLT = 3                # planned lead time for component orders

RUN_LENGTH = 400                 # simulated periods per replication
WARMUP = 40                      # periods excluded from all KPIs

UTILIZATION_LEVELS = ("low", "medium", "high")

# Product k is due in periods p > FIRST_DEMAND_DELAY with p % 4 == offset % 4.
DEMAND_OFFSETS = {10: 1, 14: 1, 11: 2, 15: 2, 12: 3, 16: 3, 13: 4, 17: 4}

_ROUTINGS = {
    10: (102, 101), 11: (102, 101), 12: (102, 101), 13: (102, 101),
    14: (112, 111), 15: (112, 111), 16: (112, 111), 17: (112, 111),
    20: (201,), 21: (202,),
}
_PRODUCT_COMPONENT = {10: 20, 11: 20, 12: 20, 13: 20,
                      14: 21, 15: 21, 16: 21, 17: 21}


@dataclass(frozen=True)
class Item:
    """One planned item: a final product or a component."""

    id: int
    kind: str                    # "final" or "component"
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
    wip: float = WIP_COST
    fgi: float = FGI_COST
    backorder: float = BACKORDER_COST


@dataclass(frozen=True)
class DemandPattern:
    """Cyclic customer-order schedule for the final products."""

    interval: int = DEMAND_INTERVAL
    offsets: dict[int, int] = field(default_factory=lambda: dict(DEMAND_OFFSETS))
    first_delay: int = FIRST_DEMAND_DELAY
    expected_amount: int = EXPECTED_ORDER_AMOUNT

    def first_due(self, item_id: int) -> int:
        return self.due_dates(item_id, 0, self.first_delay + self.interval)[0]

    def due_dates(self, item_id: int, start: int, end: int) -> range:
        """Due dates of one product in [start, end]: every interval-th
        period on the product's offset, none at or before the delay."""
        start = max(start, self.first_delay + 1)
        first = start + (self.offsets[item_id] - start) % self.interval
        return range(first, end + 1, self.interval)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of plant, demand pattern and cost rates."""

    items: dict[int, Item]
    machines: dict[int, Machine]
    cost_rates: CostRates
    demand: DemandPattern
    bom_quantity: int = BOM_QUANTITY
    component_plt: int = COMPONENT_PLT
    period_minutes: float = PERIOD_MINUTES

    @property
    def final_products(self) -> tuple[int, ...]:
        return tuple(i for i, it in self.items.items() if it.kind == "final")

    @property
    def components(self) -> tuple[int, ...]:
        return tuple(i for i, it in self.items.items() if it.kind == "component")


def build_system(utilization: str = "low",
                 overrides: dict | None = None) -> SystemConfig:
    """Assemble the default plant at one of the three utilization levels.

    `overrides` takes the (already parsed) JSON override mapping; unknown
    sections or keys raise ValueError so typos cannot silently change a run.
    """
    o = _merge_overrides(overrides)
    if utilization not in UTILIZATION_LEVELS:
        raise ValueError(f"utilization must be one of {UTILIZATION_LEVELS}, "
                         f"got {utilization!r}")

    bom_qty = o["bom"]["quantity"]
    items: dict[int, Item] = {}
    for pid in FINAL_PRODUCTS:
        items[pid] = Item(id=pid, kind="final",
                          processing_min=o["processing"]["final_min"],
                          routing=_ROUTINGS[pid],
                          component=_PRODUCT_COMPONENT[pid],
                          component_qty=bom_qty)
    for cid in COMPONENTS:
        items[cid] = Item(id=cid, kind="component",
                          processing_min=o["processing"]["component_min"],
                          routing=_ROUTINGS[cid])

    cv = o["setup"]["cv"]
    product_setup = o["setup"][utilization]
    machines: dict[int, Machine] = {}
    for mid in (101, 102, 111, 112):
        machines[mid] = Machine(mid, product_setup, cv)
    for mid in (201, 202):
        machines[mid] = Machine(mid, o["setup"]["component"], cv)

    demand = DemandPattern(interval=o["demand"]["interval"],
                           first_delay=o["demand"]["first_delay"],
                           expected_amount=o["demand"]["expected_amount"])
    rates = CostRates(wip=o["costs"]["wip"], fgi=o["costs"]["fgi"],
                      backorder=o["costs"]["backorder"])

    system = SystemConfig(items=items, machines=machines, cost_rates=rates,
                          demand=demand, bom_quantity=bom_qty,
                          component_plt=o["planning"]["component_plt"],
                          period_minutes=o["capacity"]["period_minutes"])
    validate_system(system)
    return system


_DEFAULT_OVERRIDES = {
    "costs": {"wip": WIP_COST, "fgi": FGI_COST, "backorder": BACKORDER_COST},
    "demand": {"expected_amount": EXPECTED_ORDER_AMOUNT,
               "interval": DEMAND_INTERVAL, "first_delay": FIRST_DEMAND_DELAY},
    "processing": {"final_min": FINAL_PROCESSING_MIN,
                   "component_min": COMPONENT_PROCESSING_MIN},
    "setup": {"low": PRODUCT_SETUP_MIN["low"], "medium": PRODUCT_SETUP_MIN["medium"],
              "high": PRODUCT_SETUP_MIN["high"], "component": COMPONENT_SETUP_MIN,
              "cv": SETUP_CV},
    "bom": {"quantity": BOM_QUANTITY},
    "planning": {"component_plt": COMPONENT_PLT},
    "capacity": {"period_minutes": PERIOD_MINUTES},
}


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
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ValueError(f"config key {section}.{key} must be a number")
            merged[section][key] = type(merged[section][key])(val)
    return merged


def load_overrides(path: str) -> dict:
    """Read a JSON override file and reject malformed structure early."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    _merge_overrides(data)   # validation only
    return data


def validate_system(system: SystemConfig) -> None:
    """Structural invariants of the plant description."""
    first_stage = set()
    second_stage = set()
    for item in system.items.values():
        if item.kind == "final":
            if len(item.routing) != 2:
                raise ValueError(f"final product {item.id} needs a two-stage routing")
            first_stage.add(item.routing[0])
            second_stage.add(item.routing[1])
            if item.component not in system.items:
                raise ValueError(f"product {item.id} consumes unknown component")
            if item.component_qty <= 0:
                raise ValueError(f"product {item.id} has non-positive BOM quantity")
        else:
            if len(item.routing) != 1:
                raise ValueError(f"component {item.id} needs a one-stage routing")
        for mid in item.routing:
            if mid not in system.machines:
                raise ValueError(f"item {item.id} routed over unknown machine {mid}")
    if first_stage & second_stage:
        raise ValueError("first and second stage machine sets must be disjoint")
    for pid in system.final_products:
        if pid not in system.demand.offsets:
            raise ValueError(f"product {pid} has no demand offset")
        if system.demand.first_due(pid) <= system.demand.first_delay:
            raise ValueError("first due date must lie after the demand delay")


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
        for mid in (101, 102, 111, 112):
            rows.append((f"M{mid}", level,
                         planned_utilization(system, mid, 1.0, amount)))
    system = build_system("low", overrides)
    comp_demand = system.demand.expected_amount * system.bom_quantity
    for lot in (800, 1600):
        lots = comp_demand / lot
        for mid in (201, 202):
            rows.append((f"M{mid}", f"foq{lot}",
                         planned_utilization(system, mid, lots, comp_demand)))
    return rows
