"""Event-driven job shop processing released production orders.

Machines serve one lot at a time from a FIFO queue.  Each operation takes a
lognormal setup around the machine's mean (coefficient of variation
`setup.cv`; 0 gives fixed setups) plus deterministic per-piece processing
time, and lots move to the next routing stage only as a whole.  Time is
continuous in minutes; the driver advances the floor period by period.

A setup is `exp(mu + z * sigma)` of the next standard normal z of the
run's shop substream: bit for bit `random.lognormvariate(mu, sigma)`, as
the `forecast` module docstring argues.

The floor also keeps the bookkeeping the KPIs need: setup+processing busy
minutes per machine clipped to the measurement window, and the count of
pieces on the floor.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Iterator

_ARRIVE = 0
_DONE = 1


class ProductionOrder:
    """One released or material-blocked lot on its way through the plant."""

    __slots__ = ("uid", "item", "qty", "covered_end", "planned_completion",
                 "release_time", "stage", "routing",
                 "proc_min", "component", "component_need")

    def __init__(self, uid: int, item_cfg, qty: int, covered_end: int,
                 planned_completion: int):
        self.uid = uid
        self.item = item_cfg.id
        self.qty = qty
        self.covered_end = covered_end
        self.planned_completion = planned_completion
        self.release_time = -1.0
        self.stage = 0
        self.routing = item_cfg.routing
        self.proc_min = item_cfg.processing_min
        self.component = item_cfg.component
        self.component_need = qty * item_cfg.component_qty


class _MachineState:
    __slots__ = ("id", "setup_mean", "setup_mu", "setup_sigma", "queue",
                 "busy", "busy_window_min")

    def __init__(self, machine_cfg):
        self.id = machine_cfg.id
        mean, cv = machine_cfg.setup_mean_min, machine_cfg.setup_cv
        # lognormal (mu, sigma) of the given mean and coefficient of
        # variation; sigma None marks a fixed setup that draws nothing
        self.setup_mean = max(mean, 0.0)
        self.setup_mu = self.setup_sigma = None
        if mean > 0 and cv > 0:
            sigma2 = math.log(1.0 + cv * cv)
            self.setup_mu = math.log(mean) - sigma2 / 2.0
            self.setup_sigma = math.sqrt(sigma2)
        self.queue: deque = deque()
        self.busy = False
        self.busy_window_min = 0.0

    def draw_setup(self, normals: Iterator[float]) -> float:
        """One setup time: the fixed mean, which reads no normal, or
        `exp(mu + z * sigma)` of the next of the standard `normals` z."""
        if self.setup_sigma is None:
            return self.setup_mean
        return math.exp(self.setup_mu + next(normals) * self.setup_sigma)


class ShopFloor:
    """All machines plus the shared future-event heap; setups read the
    standard `normals`, an iterator such as `StreamNormals.shop`'s."""

    def __init__(self, system, normals: Iterator[float],
                 window_start_min: float = 0.0,
                 window_end_min: float = float("inf"),
                 event_log: list | None = None):
        self.normals = normals
        self.machines = {mid: _MachineState(m) for mid, m in system.machines.items()}
        self.events: list = []
        self._seq = 0
        self.window = (window_start_min, window_end_min)
        self.event_log = event_log
        self.pieces_on_floor = 0

    def dispatch(self, order: ProductionOrder, time: float) -> None:
        """Send a released order to the first machine of its routing."""
        order.stage = 0
        self.pieces_on_floor += order.qty
        self._seq += 1
        heapq.heappush(self.events, (time, self._seq, _ARRIVE, order))
        if self.event_log is not None:
            self.event_log.append((time, "release", order.uid, order.item,
                                   "", order.qty))

    def advance(self, until: float, on_completion) -> None:
        """Process all floor events up to and including `until` minutes.
        After an arrival or an operation's end, an idle machine starts the
        first lot of its queue: it draws the setup, books the operation's
        minutes inside the window as busy and schedules the end.
        `on_completion(order, time)` may dispatch lots onto the same heap."""
        events, machines, normals, log = (self.events, self.machines,
                                          self.normals, self.event_log)
        lo, hi = self.window
        pop, push = heapq.heappop, heapq.heappush
        while events and events[0][0] <= until:
            time, _, kind, order = pop(events)
            machine = machines[order.routing[order.stage]]
            if kind == _ARRIVE:
                machine.queue.append(order)
            else:
                machine.busy = False
                if log is not None:
                    log.append((time, "finish_op", order.uid, order.item,
                                f"M{machine.id}", order.qty))
                order.stage += 1
                if order.stage < len(order.routing):
                    self._seq += 1
                    push(events, (time, self._seq, _ARRIVE, order))
                else:
                    self.pieces_on_floor -= order.qty
                    on_completion(order, time)
            if machine.busy or not machine.queue:
                continue
            order = machine.queue.popleft()
            end = time + (machine.draw_setup(normals)
                          + order.qty * order.proc_min)
            machine.busy = True
            overlap = min(end, hi) - max(time, lo)
            if overlap > 0:
                machine.busy_window_min += overlap
            self._seq += 1
            push(events, (end, self._seq, _DONE, order))
            if log is not None:
                log.append((time, "start", order.uid, order.item,
                            f"M{machine.id}", order.qty))

    def utilization(self) -> dict[int, float]:
        """Busy share of each machine over the measurement window."""
        lo, hi = self.window
        return {mid: m.busy_window_min / (hi - lo)
                for mid, m in self.machines.items()}
