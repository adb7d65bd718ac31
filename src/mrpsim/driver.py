"""Per-period simulation driver tying planning, floor and demand together.

One simulated period runs through a fixed sequence:

  1. customer orders due this period firm at their final forecast value
  2. MRP run on this period's forecast picture over each item's decision window
     (netting, lot sizing, scheduling, component explosion); planned lots
     outside the release window are discarded and rebuilt next period
  3. order release: previously material-blocked orders retry first (FIFO),
     then the new release-set; product lots withdraw their component need
     atomically or stay blocked, components always release
  4. the shop floor advances one period of continuous time; component
     receipts during the period retry blocked product orders immediately
  5. due and backordered demands ship all-or-nothing from final-goods stock
  6. end-of-period snapshot prices WIP, FGI and open demand

Steps 1 and 2 read the forecast tape (`build_tape`): every forecast value of one
(seed, replication, instance), drawn from common-random-number substreams
before the first period, so demand histories are identical across planning
parameters and netting modes.  Setup times use a separate substream.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .config import SystemConfig, build_system
from .forecast import (ForecastStream, ScenarioParams, advance,
                       long_term_forecast, stream_rng, substream_seed)
from .inventory import CustomerDemand, StockLedger, fulfill_due_demands, try_release
from .kpi import KpiTracker, PeriodSnapshot, RunSummary
from .mrp import (MrpItemState, PlanningParams, decision_windows, run_mrp,
                  validate_horizon)
from .shopfloor import ProductionOrder, ShopFloor


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    scenario: ScenarioParams
    params: PlanningParams
    base_seed: int = 42
    replication: int = 0
    run_length: int = 400
    warmup: int = 40
    debug_checks: bool = False
    replay: dict | None = None          # {(product, due, j): epsilon}


@dataclass
class PeriodLogEntry:
    period: int
    wip_pieces: int
    fgi_pieces: int
    backorder_pieces: int
    released_orders: int
    shipped_demands: int


Tape = dict[tuple[int, int], tuple[int, ...]]


def build_tape(config: RunConfig) -> Tape:
    """Every forecast value a run of `config` reads, keyed (product, due):
    a stream's values in order of rising j, one per update from j = min(H,
    due - 1) down to j = max(0, due - run_length).  Planning parameters
    never enter, so runs that differ only in them can share one tape."""
    scenario, last, replay = config.scenario, config.run_length, config.replay
    tape: Tape = {}
    for product in sorted(config.system.final_products):
        for due in config.system.demand.due_dates(product, 1, last + scenario.horizon):
            stream = ForecastStream(product, due, long_term_forecast(scenario))
            rng = stream_rng(config.base_seed, config.replication, product, due)
            values = []
            for j in range(min(scenario.horizon, due - 1), max(0, due - last) - 1, -1):
                advance(stream, j, scenario, rng,
                        replay.get((product, due, j)) if replay else None)
                values.append(stream.value)
            tape[product, due] = tuple(reversed(values))
    return tape


class SimulationRun:
    """State of one replication; `run()` executes it and returns KPIs.
    Runs that share a forecast tape pass one `tape` dict, which the first
    finds empty and fills; without one a run builds its own."""

    def __init__(self, config: RunConfig, mrp_trace: list | None = None,
                 event_log: list | None = None,
                 period_log: list | None = None, tape: Tape | None = None):
        validate_horizon(config.params, config.system)
        self.config = config
        system = config.system
        self.system = system
        self.scenario = config.scenario
        self.params = config.params
        self.pm = system.period_minutes
        self.products = sorted(system.final_products)
        self.components = sorted(system.components)
        self.x = long_term_forecast(config.scenario)
        self.safety = config.params.safety_stock(system.demand.expected_amount)

        self.tape: Tape = {} if tape is None else tape
        if not self.tape:
            self.tape.update(build_tape(config))
        self.demands_open: dict[int, deque] = {p: deque() for p in self.products}
        self.demands_all: list[CustomerDemand] = []

        # The run starts at its planning target: final-product stock equals
        # the safety stock so high-SST cells need no build-up burst, which
        # from an empty system would swamp the component machines for weeks.
        # Warm-up absorbs what remains of the initialization.
        self.ledger = StockLedger(list(system.items),
                                  initial={p: self.safety for p in self.products})
        shop_rng = random.Random(substream_seed(config.base_seed,
                                                config.replication, "shop"))
        warm_min = config.warmup * self.pm
        end_min = config.run_length * self.pm
        self.shop = ShopFloor(system, shop_rng, warm_min, end_min, event_log)
        self.kpi = KpiTracker(config.run_length, config.warmup)

        # Scheduled receipts per item, {planned completion period: pieces},
        # of every committed order that has not completed yet.
        self.receipt_book: dict[int, dict[int, int]] = {
            i: {} for i in system.items}
        self.blocked: list[ProductionOrder] = []
        self.covered_until: dict[int, int] = {p: 0 for p in self.products}
        self._uid = 0
        self._dispatched_pieces = 0
        self._shipped_pieces = 0
        self.mrp_trace = mrp_trace
        self.period_log = period_log
        self._released_this_period = 0

    # -- demand ----------------------------------------------------------------

    def _firm_demands(self, t: int) -> None:
        for product in self.products:
            for due in self.system.demand.due_dates(product, t, t):
                demand = CustomerDemand(product, t, self.tape[product, due][0])
                self.demands_open[product].append(demand)
                self.demands_all.append(demand)

    # -- planning ------------------------------------------------------------

    def _receipts(self, item: int, t: int, last: int) -> dict[int, int]:
        """Scheduled receipts of one item bucketed for netting in [t, last].

        Overdue receipts count in the current bucket.  Pushing them out
        instead makes netting order a duplicate lot for every period an
        order runs late, which snowballs once a machine is congested.
        """
        receipts: dict[int, int] = {}
        for period, qty in self.receipt_book[item].items():
            if period <= last:
                bucket = max(period, t)
                receipts[bucket] = receipts.get(bucket, 0) + qty
        return receipts

    def _plan(self, t: int):
        system = self.system
        fh = self.scenario.horizon
        rl = self.config.run_length
        product_last, component_last = (
            t + w for w in decision_windows(self.params, system))

        product_states: dict[int, MrpItemState] = {}
        product_gross: dict[int, dict[int, int]] = {}
        for product in self.products:
            gross: dict[int, int] = {}
            backlog = sum(d.qty for d in self.demands_open[product])
            if backlog:
                gross[t] = backlog
            for due in system.demand.due_dates(product, t + 1, product_last):
                # tape entries start at j = max(0, due - run_length)
                gross[due] = (self.x if due - t > fh else
                              self.tape[product, due][min(due, rl) - t])
            product_gross[product] = gross
            product_states[product] = MrpItemState(
                on_hand=self.ledger.on_hand[product],
                receipts=self._receipts(product, t, product_last),
                safety_stock=self.safety,
                covered_until=self.covered_until[product])

        component_states: dict[int, MrpItemState] = {}
        extra_gross: dict[int, dict[int, int]] = {c: {} for c in self.components}
        for order in self.blocked:
            bucket = extra_gross[order.component]
            bucket[t] = bucket.get(t, 0) + order.component_need
        for comp in self.components:
            component_states[comp] = MrpItemState(
                on_hand=self.ledger.on_hand[comp],
                receipts=self._receipts(comp, t, component_last),
                safety_stock=system.component_sst, covered_until=0)

        trace = [] if self.mrp_trace is not None else None
        result = run_mrp(product_states, product_gross, component_states,
                         extra_gross, self.params, t, system, trace=trace)
        if trace is not None:
            self.mrp_trace.extend((t,) + row for row in trace)
        return result

    # -- releasing and material flow ------------------------------------------

    def _make_order(self, lot, t: int) -> ProductionOrder:
        self._uid += 1
        return ProductionOrder(self._uid, self.system.items[lot.item], lot.qty,
                               lot.due, lot.covered_end, t, lot.start,
                               lot.completion)

    def _release(self, order: ProductionOrder, time: float) -> None:
        self.shop.dispatch(order, time)
        self._dispatched_pieces += order.qty
        self._released_this_period += 1
        if order.component is not None:
            # a released final-product lot extends the covered horizon
            if order.covered_end > self.covered_until[order.item]:
                self.covered_until[order.item] = order.covered_end
            self.kpi.record_release(self.pm, time)

    def _retry_blocked(self, time: float) -> None:
        if not self.blocked:
            return
        still_blocked: list[ProductionOrder] = []
        failed: set[int] = set()
        for order in self.blocked:
            if order.component in failed or not try_release(order, self.ledger, time):
                failed.add(order.component)
                still_blocked.append(order)
            else:
                self._release(order, time)
        self.blocked = still_blocked

    def _commit(self, order: ProductionOrder) -> None:
        book = self.receipt_book[order.item]
        period = order.planned_completion
        book[period] = book.get(period, 0) + order.qty

    def _release_new(self, lots, t: int, time: float) -> None:
        for lot in lots:
            order = self._make_order(lot, t)
            self._commit(order)
            if try_release(order, self.ledger, time):
                self._release(order, time)
            else:
                self.blocked.append(order)

    def _on_completion(self, order: ProductionOrder, time: float) -> None:
        self.ledger.receive(order.item, order.qty)
        book = self.receipt_book[order.item]
        period = order.planned_completion
        book[period] -= order.qty
        if not book[period]:
            del book[period]
        if order.component is not None:
            self.kpi.record_completion(self.pm, order.release_time, time)
        else:
            # fresh component stock may unblock waiting product orders
            self._retry_blocked(time)

    # -- one period ------------------------------------------------------------

    def step(self, t: int) -> None:
        minute_start = (t - 1) * self.pm
        minute_end = t * self.pm
        self._released_this_period = 0

        self._firm_demands(t)
        result = self._plan(t)
        self._retry_blocked(minute_start)
        self._release_new(result.release_products, t, minute_start)
        self._release_new(result.release_components, t, minute_start)
        self.shop.advance(minute_end, self._on_completion)
        shipped = fulfill_due_demands(self.demands_open, self.ledger, t)
        self._shipped_pieces += sum(d.qty for d in shipped)

        ledger = self.ledger
        fgi = sum(ledger.on_hand[p] for p in self.products)
        comp_stock = sum(ledger.on_hand[c] for c in self.components)
        wip = self.shop.pieces_on_floor + comp_stock
        backorder = sum(d.qty for q in self.demands_open.values() for d in q)
        self.kpi.record_snapshot(PeriodSnapshot(t, wip, fgi, backorder))

        if self.period_log is not None:
            self.period_log.append(PeriodLogEntry(
                t, wip, fgi, backorder, self._released_this_period,
                len(shipped)))
        if self.config.debug_checks:
            self._check_invariants(t, wip, fgi)

    def _check_invariants(self, t: int, wip: int, fgi: int) -> None:
        ledger = self.ledger
        for item, qty in ledger.on_hand.items():
            if qty < 0:
                raise AssertionError(f"negative stock of {item} in period {t}")
        withdrawn_comp = sum(ledger.withdrawn[c] for c in self.components)
        initial = sum(ledger.initial.values())
        balance = (initial + self._dispatched_pieces - self._shipped_pieces
                   - withdrawn_comp)
        if wip + fgi != balance:
            raise AssertionError(
                f"piece conservation broken in period {t}: wip+fgi={wip + fgi} "
                f"vs dispatched-shipped-consumed={balance}")
        booked = sum(sum(book.values()) for book in self.receipt_book.values())
        outstanding = (self.shop.pieces_on_floor
                       + sum(order.qty for order in self.blocked))
        if booked != outstanding:
            raise AssertionError(
                f"receipt book out of step in period {t}: {booked} pieces "
                f"booked vs {outstanding} on the floor or blocked")

    def run(self) -> RunSummary:
        for t in range(1, self.config.run_length + 1):
            self.step(t)
        window_min = (self.config.run_length - self.config.warmup) * self.pm
        return self.kpi.summarize(self.system.cost_rates, self.demands_all,
                                  self.shop.utilization(window_min),
                                  self.shop.piece_minutes)


def run(config: RunConfig) -> RunSummary:
    return SimulationRun(config).run()


def make_config(utilization: str = "low", alpha: float = 0.0, beta: int = 0,
                bias: str = "unbiased", params: PlanningParams | None = None,
                base_seed: int = 42, replication: int = 0,
                run_length: int = 400, warmup: int = 40,
                overrides: dict | None = None, debug_checks: bool = False,
                replay: dict | None = None) -> RunConfig:
    """Convenience constructor used by the CLI and the experiment harness."""
    from .forecast import SCHEDULES
    system = build_system(utilization, overrides)
    scenario = ScenarioParams(alpha=alpha, beta=beta, schedule=SCHEDULES[bias],
                              expected_amount=system.demand.expected_amount)
    if params is None:
        params = PlanningParams(sst_factor=0.0, plt=1, policy="FOP",
                                policy_param=1)
    return RunConfig(system=system, scenario=scenario, params=params,
                     base_seed=base_seed, replication=replication,
                     run_length=run_length, warmup=warmup,
                     debug_checks=debug_checks, replay=replay)
