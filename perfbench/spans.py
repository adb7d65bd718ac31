"""Span tracing of mrpsim's layers, installed from outside the program.

`Tracer.install()` replaces the public functions and methods each layer
exposes with wrappers that time every call, and puts every original back
when the `with` block ends.  Wrappers go on the names the program actually
calls: the driver binds `advance`, `run_mrp`, `try_release` and friends at
import, so those are replaced in `mrpsim.driver`, not in the modules that
define them.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.  Counting hooks read only call arguments and return values;
the time they take is booked to `trace.hooks`, never to a layer, so the self
times of all spans still add up to the wall time they cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

HOOKS = "trace.hooks"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_mrp_lots(counts, args, kwargs, result) -> None:
    counts["lots_planned"] += len(result.product_lots) + len(result.component_lots)
    counts["lots_released"] += (len(result.release_products)
                                + len(result.release_components))


def _count_buckets(counts, args, kwargs, result) -> None:
    # plan_item(state, gross, item, policy, policy_param, plt, current_period,
    #           horizon, ...): the periods its netting scan visits.
    state = _arg(args, kwargs, 0, "state")
    gross = _arg(args, kwargs, 1, "gross")
    first = _arg(args, kwargs, 6, "current_period")
    last = first + _arg(args, kwargs, 7, "horizon")
    periods = set(gross)
    periods.update(state.receipts)
    counts["buckets"] += sum(1 for p in periods if first <= p <= last)


def _count_blocked(counts, args, kwargs, result) -> None:
    if result is False:
        counts["blocked"] += 1


def targets():
    """(owner, attribute, span name, counting hook) for every wrapped name."""
    from mrpsim import driver, experiment, mrp, tables
    from mrpsim.driver import SimulationRun
    from mrpsim.kpi import KpiTracker
    from mrpsim.shopfloor import ShopFloor

    return [
        (driver, "advance", "forecast.advance", None),
        (driver, "stream_rng", "forecast.stream_rng", None),
        (driver, "run_mrp", "mrp.run_mrp", _count_mrp_lots),
        (mrp, "plan_item", "mrp.plan_item", _count_buckets),
        (driver, "try_release", "inventory.try_release", _count_blocked),
        (driver, "fulfill_due_demands", "inventory.fulfill_due_demands", None),
        (ShopFloor, "advance", "shopfloor.advance", None),
        (ShopFloor, "dispatch", "shopfloor.dispatch", None),
        (KpiTracker, "record_snapshot", "kpi", None),
        (KpiTracker, "record_release", "kpi", None),
        (KpiTracker, "record_completion", "kpi", None),
        (KpiTracker, "summarize", "kpi", None),
        (SimulationRun, "__init__", "driver.init", None),
        (SimulationRun, "run", "driver.run", None),
        (experiment, "build_system", "config.build_system", None),
        (experiment, "run_cell", "experiment.run_cell", None),
        (experiment, "write_results", "experiment.write_results", None),
        (experiment, "read_results", "experiment.read_results", None),
        (experiment, "compare_modes", "experiment.compare_modes", None),
        (experiment, "best_per_instance", "experiment.best_per_instance", None),
        (tables, "compare_modes", "experiment.compare_modes", None),
        (tables, "best_per_instance", "experiment.best_per_instance", None),
        (tables, "best_parameters_table", "tables.render", None),
        (tables, "mode_comparison_table", "tables.render", None),
        (tables, "noise_response_table", "tables.render", None),
        (tables, "bias_response_table", "tables.render", None),
    ]


class Tracer:
    """Self time, call counts and counters per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []   # child seconds of each open span

    def wrap(self, name: str, fn, hook=None):
        clock, stack = self.clock, self._stack
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - children[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                start = clock()
                hook(counts, args, kwargs, result)
                elapsed = clock() - start
                self_s[HOOKS] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def install(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total_self(self) -> float:
        return sum(self.self_s.values())
