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

Steps 1 and 2 read the forecast tape (`build_tape`), per product a list indexed
by due period that holds every forecast value of one (seed, replication,
scenario), drawn from common-random-number substreams before the first period,
so demand histories are identical across utilizations, parameters and netting
modes.  The substreams' standard normals belong to the (seed, replication)
alone: a `forecast.StreamNormals` store draws them once for every scenario's
tape and keeps the last tape.  Setup times read a separate substream, the
shop's, whose standard normals the same store draws once for every run of
the replication.  Step 2 nets each item's stock and receipt book as they
are: the `on_hand` and `receipts` of the item's one `MrpItemState`, kept all
run, which steps 3 to 5 move.  A run's settings arrive as one `RunConfig`,
built only by `experiment.make_config`.
A traced run's MRP nets each product's whole window.  A standard run owns
the list it hands MRP to watch for a bucket that extended netting would net
differently; the first period that fills it is `divergence_period`, after
which the run hands none.  While it is None the run's extended twin is this
same run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .config import COMPONENTS, FINAL_PRODUCTS, SystemConfig
from .forecast import (HORIZON, ScenarioParams, StreamNormals, advance,
                       long_term_forecast, stream_rng)
from .inventory import CustomerDemand, fulfill_due_demands, try_release
from .kpi import KpiTracker, RunSummary
from .mrp import MrpItemState, PlanningParams, decision_windows, run_mrp
from .shopfloor import ProductionOrder, ShopFloor


@dataclass(frozen=True)
class RunConfig:
    """Everything one replication reads; `experiment.make_config` builds it."""

    system: SystemConfig
    scenario: ScenarioParams
    params: PlanningParams
    base_seed: int
    replication: int
    run_length: int
    warmup: int
    debug_checks: bool
    trace: bool


def _store(config: RunConfig, normals: StreamNormals | None) -> StreamNormals:
    """`normals`, or a new store of the config's seed and replication; a
    store of another (seed, replication) is refused."""
    if normals is None:
        return StreamNormals(config.base_seed, config.replication)
    held = (normals.base_seed, normals.replication)
    if held != (config.base_seed, config.replication):
        raise ValueError(f"a store of (seed, replication) {held} cannot "
                         f"serve a run of ({config.base_seed}, "
                         f"{config.replication})")
    return normals


def build_tape(config: RunConfig, replay: dict | None = None,
               normals: StreamNormals | None = None) -> dict:
    """Every forecast value a run of `config` reads: per product a list
    indexed by due period, None where no order is due.  An entry holds one
    stream's values in order of rising j, one per update from j = min(H,
    due - 1) down to j = max(0, due - run_length).  Only the scenario, the
    demand pattern, the seed, the replication and the run length enter, so
    runs differing only in planning parameters or utilization share a tape.
    The draws replay `normals`, the store of this seed and replication that
    every scenario's tape shares, and add to it; without one the tape draws
    into a store of its own, and a store of another seed or replication is
    refused.  The store keeps the tape and hands it back while the
    (scenario, demand pattern, run length) stays the same; another key drops
    it before the build, so a store never holds two tapes.

    A `replay` (`forecast.load_replay`) must hold each of these updates and
    each stream's long-term value (j = H + 1), equal to this run's."""
    scenario, last = config.scenario, config.run_length
    if replay is None:
        normals = _store(config, normals)
        key = (scenario, config.system.demand, last)
        if normals.key == key:
            return normals.tape
        normals.key = normals.tape = None
    start, std = long_term_forecast(scenario), scenario.update_std
    means = tuple(scenario.update_mean(j) for j in range(HORIZON + 1))
    tape = {}
    for product in FINAL_PRODUCTS:
        column = tape[product] = [None] * (last + HORIZON + 1)
        for due in config.system.demand.due_dates(product, 1, last + HORIZON):
            js = range(min(HORIZON, due - 1), max(0, due - last) - 1, -1)
            if replay is None:   # a stream with std 0 draws nothing
                column[due] = advance(start, js, means, std, normals.replay(
                    product, due, stream_rng) if std else None)
                continue
            held = replay.get((product, due, HORIZON + 1), "missing")
            if held != start:
                raise ValueError(f"replay's long-term value for product {product} "
                                 f"due {due} is {held}, this run's is {start}")
            eps = [replay.get((product, due, j)) for j in js]
            if None in eps:
                raise ValueError(f"replay has no update for product {product}"
                                 f" due {due} at j={js[eps.index(None)]}")
            column[due] = values = advance(start, js, means, std, None, eps)
            for j, value in zip(js, reversed(values)):
                if value < 0:   # only a replay can: sampling truncates at 0
                    raise ValueError(f"forecast of product {product} due "
                                     f"{due} went negative at j={j}")
    if replay is None:
        normals.key, normals.tape = key, tape
    return tape


class SimulationRun:
    """State of one replication; `run()` executes it and returns KPIs.
    An item's stock lives only in its planning state, `states[item].on_hand`.
    A run reads `normals`, the store of its seed and replication, or a
    store of its own: its setups read the store's shop normals, and its
    forecasts a given `tape`, such as a replayed one, as it is, and
    otherwise `build_tape`'s on the store, which hands back the tape the
    store holds for this config.  A traced run keeps its MRP rows in
    `mrp_trace`, its shop events in `shop.event_log` and one
    (t, wip, fgi, backorder, released, shipped) row per period in
    `period_log`; an untraced run keeps none of them."""

    def __init__(self, config: RunConfig, tape: dict | None = None,
                 normals: StreamNormals | None = None):
        self.config = config
        self.system = system = config.system
        self.pm = system.period_minutes
        self.x = long_term_forecast(config.scenario)
        self.safety = config.params.safety_stock(system.demand.expected_amount)
        self.product_window = decision_windows(config.params, system)[0]

        normals = _store(config, normals)
        self.tape = tape or build_tape(config, normals=normals)
        # the first due period of each product that has not firmed yet
        self.next_due = {p: system.demand.first_due(p) for p in FINAL_PRODUCTS}
        self.demands_open: dict[int, deque] = {p: deque() for p in FINAL_PRODUCTS}
        self.backlog = {p: 0 for p in FINAL_PRODUCTS}   # open demand pieces
        self.demands_all: list[CustomerDemand] = []

        warm_min = config.warmup * self.pm
        end_min = config.run_length * self.pm
        self.shop = ShopFloor(system, normals.shop(), warm_min, end_min,
                              [] if config.trace else None)
        self.kpi = KpiTracker(config.run_length, config.warmup, self.pm)

        # One planning state per item.  Its on_hand is the item's stock, and
        # its receipts are the item's receipt book, {planned completion
        # period: pieces} of every committed order that has not completed
        # yet.  The run starts at its planning target: final-product stock
        # equals the safety stock so high-SST cells need no build-up burst,
        # which from an empty system would swamp the component machines for
        # weeks.  Warm-up absorbs what remains of the initialization.
        self.states = {p: MrpItemState(self.safety, {}, self.safety)
                       for p in FINAL_PRODUCTS}
        self.states.update((c, MrpItemState(0)) for c in COMPONENTS)
        self.blocked: list[ProductionOrder] = []
        self.period = 0   # the receipt books' current bucket, see _fold_receipts
        self._uid = 0
        self._dispatched_pieces = 0
        self._shipped_pieces = 0
        self._consumed_pieces = 0   # component pieces withdrawn by releases
        self.mrp_trace, self.period_log = (([], []) if config.trace
                                           else (None, None))
        # the first period extended netting would have planned differently;
        # a standard run watches for it with a list MRP fills, until it does
        self.divergence_period: int | None = None
        self.divergent = [] if config.params.mode == "standard" else None

    # -- demand ----------------------------------------------------------------

    def _firm_demands(self, t: int) -> None:
        for product in FINAL_PRODUCTS:
            if self.next_due[product] == t:
                demand = CustomerDemand(product, t, self.tape[product][t][0])
                self.demands_open[product].append(demand)
                self.demands_all.append(demand)
                self.backlog[product] += demand.qty
                self.next_due[product] = t + self.system.demand.interval

    # -- planning ------------------------------------------------------------

    def _fold_receipts(self, t: int) -> None:
        """Move each book's overdue bucket, period t - 1, into period t: pushed
        out, late receipts would order a duplicate lot every late period."""
        self.period = t
        overdue = t - 1
        for state in self.states.values():
            book = state.receipts
            if overdue in book:
                book[t] = book.get(t, 0) + book.pop(overdue)

    def _plan(self, t: int):
        tape, backlog, next_due, x = self.tape, self.backlog, self.next_due, self.x
        interval, rl = self.system.demand.interval, self.config.run_length
        last = t + self.product_window
        # dues up to `near` read the tape, later ones the long-term forecast
        near = min(last, t + HORIZON)

        # components start from the withdrawals of blocked product orders
        gross: dict[int, dict[int, int]] = {c: {} for c in COMPONENTS}
        for order in self.blocked:
            bucket = gross[order.component]
            bucket[t] = bucket.get(t, 0) + order.component_need
        for product in FINAL_PRODUCTS:
            demand = gross[product] = ({t: backlog[product]} if backlog[product]
                                       else {})
            column, due = tape[product], next_due[product]
            while due <= near:
                # tape entries start at j = max(0, due - run_length)
                demand[due] = column[due][(due if due <= rl else rl) - t]
                due += interval
            while due <= last:
                demand[due] = x
                due += interval

        return run_mrp(self.states, gross, self.config.params, t, self.system,
                       trace=self.mrp_trace, divergent=self.divergent)

    # -- releasing and material flow ------------------------------------------

    def _release(self, order: ProductionOrder, time: float) -> None:
        self.shop.dispatch(order, time)
        self._dispatched_pieces += order.qty
        if order.component is not None:
            self._consumed_pieces += order.component_need
            # a released final-product lot extends the covered horizon
            state = self.states[order.item]
            if order.covered_end > state.covered_until:
                state.covered_until = order.covered_end
            self.kpi.record_release(time)

    def _retry_blocked(self, time: float) -> None:
        if not self.blocked:
            return
        still_blocked: list[ProductionOrder] = []
        failed: set[int] = set()
        for order in self.blocked:
            if order.component in failed or not try_release(order, self.states, time):
                failed.add(order.component)
                still_blocked.append(order)
            else:
                self._release(order, time)
        self.blocked = still_blocked

    def _release_new(self, lots, time: float) -> None:
        """Make, book and release each lot's order, or block it on material."""
        items, states = self.system.items, self.states
        for lot in lots:
            self._uid += 1
            order = ProductionOrder(self._uid, items[lot.item], lot.qty,
                                    lot.covered_end, lot.completion)
            book = states[lot.item].receipts
            book[lot.completion] = book.get(lot.completion, 0) + lot.qty
            if try_release(order, states, time):
                self._release(order, time)
            else:
                self.blocked.append(order)

    def _on_completion(self, order: ProductionOrder, time: float) -> None:
        state = self.states[order.item]
        state.on_hand += order.qty
        book = state.receipts
        period = order.planned_completion
        if period < self.period:   # folded into the current bucket when overdue
            period = self.period
        book[period] -= order.qty
        if not book[period]:
            del book[period]
        if order.component is not None:
            self.kpi.record_completion(order.release_time, time)
        else:
            # fresh component stock may unblock waiting product orders
            self._retry_blocked(time)

    # -- one period ------------------------------------------------------------

    def step(self, t: int) -> None:
        minute_start, minute_end = (t - 1) * self.pm, t * self.pm
        # each release of this period writes one "release" row from here on
        logged = len(self.shop.event_log) if self.period_log is not None else 0

        self._fold_receipts(t)
        self._firm_demands(t)
        result = self._plan(t)
        if self.divergent:
            self.divergence_period, self.divergent = t, None
        self._retry_blocked(minute_start)
        self._release_new(result.release_products, minute_start)
        self._release_new(result.release_components, minute_start)
        self.shop.advance(minute_end, self._on_completion)
        shipped = fulfill_due_demands(self.demands_open, self.states, t)
        for demand in shipped:
            self.backlog[demand.product] -= demand.qty
            self._shipped_pieces += demand.qty

        states = self.states
        fgi = sum(states[p].on_hand for p in FINAL_PRODUCTS)
        wip = (self.shop.pieces_on_floor
               + sum(states[c].on_hand for c in COMPONENTS))
        backorder = sum(self.backlog.values())
        self.kpi.record_snapshot(t, wip, fgi, backorder)

        if self.period_log is not None:
            released = sum(1 for e in self.shop.event_log[logged:]
                           if e[1] == "release")
            self.period_log.append((t, wip, fgi, backorder, released,
                                    len(shipped)))
        if self.config.debug_checks:
            self._check_invariants(t, wip, fgi)

    def _check_invariants(self, t: int, wip: int, fgi: int) -> None:
        for item, state in self.states.items():
            if state.on_hand < 0:
                raise AssertionError(f"negative stock of {item} in period {t}")
        initial = self.safety * len(FINAL_PRODUCTS)
        balance = (initial + self._dispatched_pieces - self._shipped_pieces
                   - self._consumed_pieces)
        if wip + fgi != balance:
            raise AssertionError(
                f"piece conservation broken in period {t}: wip+fgi={wip + fgi} "
                f"vs dispatched-shipped-consumed={balance}")
        for product, queue in self.demands_open.items():
            if self.backlog[product] != sum(d.qty for d in queue):
                raise AssertionError(
                    f"backlog of product {product} out of step in period {t}")
        for item, state in self.states.items():
            if state.receipts and min(state.receipts) < t:
                raise AssertionError(
                    f"receipt book of item {item} holds period "
                    f"{min(state.receipts)} before period {t}")
        booked = sum(sum(s.receipts.values()) for s in self.states.values())
        outstanding = (self.shop.pieces_on_floor
                       + sum(order.qty for order in self.blocked))
        if booked != outstanding:
            raise AssertionError(
                f"receipt book out of step in period {t}: {booked} pieces "
                f"booked vs {outstanding} on the floor or blocked")

    def run(self) -> RunSummary:
        for t in range(1, self.config.run_length + 1):
            self.step(t)
        return self.kpi.summarize(self.system.cost_rates, self.demands_all,
                                  self.shop.utilization())

