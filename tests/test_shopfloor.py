"""Job shop: setup sampling, FIFO machines, staged routing, busy accounting."""

import dataclasses
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpsim.config import build_system
from mrpsim.kpi import float_sum
from mrpsim.shopfloor import ProductionOrder, ShopFloor


def make_order(system, item_id, qty, uid=1):
    order = ProductionOrder(uid=uid, item_cfg=system.items[item_id], qty=qty,
                            covered_end=10, planned_completion=2)
    order.release_time = 0.0
    return order


def _ignore(order, time):
    pass


def deterministic_system():
    return build_system("low", {"setup": {"cv": 0.0}})


def setup_draws(mean, cv, n, seed=1):
    """n setups drawn by the shop floor's own machine state for one product
    machine set to the given setup mean and coefficient of variation."""
    system = build_system("low")
    machine = dataclasses.replace(system.machines[102], setup_mean_min=mean,
                                  setup_cv=cv)
    floor = ShopFloor(dataclasses.replace(system, machines={102: machine}),
                      random.Random(seed))
    return [floor.machines[102].draw_setup(floor.rng) for _ in range(n)]


def test_sample_setup_moments():
    draws = setup_draws(216.0, 0.2, 100000, seed=2024)
    mean = statistics.fmean(draws)
    cv = statistics.stdev(draws) / mean
    assert mean == pytest.approx(216.0, rel=0.01)
    assert cv == pytest.approx(0.2, rel=0.02)
    assert all(d > 0 for d in draws)


def test_sample_setup_edge_cases():
    assert setup_draws(0.0, 0.2, 3) == [0.0] * 3
    assert setup_draws(-5.0, 0.2, 3) == [0.0] * 3
    assert setup_draws(216.0, 0.0, 3) == [216.0] * 3
    # a fixed setup draws nothing from the floor's stream
    system = build_system("low", {"setup": {"cv": 0.0}})
    floor = ShopFloor(system, random.Random(5))
    state = floor.rng.getstate()
    floor.machines[101].draw_setup(floor.rng)
    assert floor.rng.getstate() == state


@pytest.mark.parametrize("cv", (0.05, 0.2, 1.0))
def test_setup_draw_is_the_stdlib_lognormal_bit_for_bit(cv):
    system = build_system("low", {"setup": {"cv": cv}})
    for seed in (1, 7, 2024, 2**32 - 1):
        floor = ShopFloor(system, random.Random(seed))
        machine, stdlib = floor.machines[102], random.Random(seed)
        draws = [machine.draw_setup(floor.rng) for _ in range(1000)]
        assert draws == [stdlib.lognormvariate(machine.setup_mu,
                                               machine.setup_sigma)
                         for _ in range(1000)]
        assert floor.rng.getstate() == stdlib.getstate()


def test_single_lot_operation_time():
    # zero setup variation: one 800-piece operation is 216 + 800*1.35 = 1296
    system = deterministic_system()
    floor = ShopFloor(system, random.Random(0))
    order = make_order(system, 10, 800)
    floor.dispatch(order, 0.0)

    done = []
    floor.advance(5000.0, lambda o, t: done.append((o, t)))
    # two stages back to back: completes at 2592
    assert done == [(order, 2592.0)]
    assert floor.pieces_on_floor == 0


def test_component_single_stage():
    system = deterministic_system()
    floor = ShopFloor(system, random.Random(0))
    order = make_order(system, 20, 1600)
    floor.dispatch(order, 0.0)
    done = []
    floor.advance(5000.0, lambda o, t: done.append(t))
    # 94 + 1600*0.68 = 1182 on M201
    assert done == [1182.0]


def test_fifo_order_on_one_machine():
    system = deterministic_system()
    events = []
    floor = ShopFloor(system, random.Random(0), event_log=events)
    first = make_order(system, 10, 800, uid=1)
    second = make_order(system, 11, 800, uid=2)
    floor.dispatch(first, 0.0)
    floor.dispatch(second, 1.0)
    floor.advance(10000.0, _ignore)

    starts = [(t, uid, machine) for t, kind, uid, item, machine, qty in events
              if kind == "start" and machine == "M102"]
    # the second lot waits for the full first operation
    assert starts == [(0.0, 1, "M102"), (1296.0, 2, "M102")]


def test_lot_moves_to_second_stage_as_a_whole():
    system = deterministic_system()
    events = []
    floor = ShopFloor(system, random.Random(0), event_log=events)
    floor.dispatch(make_order(system, 10, 800), 0.0)
    floor.advance(10000.0, _ignore)
    starts = [(t, machine) for t, kind, uid, item, machine, qty in events
              if kind == "start"]
    assert starts == [(0.0, "M102"), (1296.0, "M101")]


def test_busy_minutes_clipped_to_window():
    system = deterministic_system()
    floor = ShopFloor(system, random.Random(0),
                      window_start_min=0.0, window_end_min=1440.0)
    floor.dispatch(make_order(system, 10, 800), 0.0)
    floor.advance(5000.0, _ignore)
    # stage 1 runs 0..1296 inside the window; stage 2 runs 1296..2592 of
    # which only 1296..1440 counts
    util = floor.utilization()
    assert util[102] == pytest.approx(1296.0 / 1440.0)
    assert util[101] == pytest.approx(144.0 / 1440.0)
    assert util[201] == 0.0


def test_utilization_divides_by_a_window_that_starts_late():
    system = deterministic_system()
    floor = ShopFloor(system, random.Random(0),
                      window_start_min=1440.0, window_end_min=2880.0)
    floor.dispatch(make_order(system, 10, 800, uid=1), 0.0)
    floor.dispatch(make_order(system, 11, 800, uid=2), 1500.0)
    floor.advance(5000.0, _ignore)
    # M102: lot 1 at 0..1296 (outside), lot 2 at 1500..2796 (all inside);
    # M101: lot 1 at 1296..2592 (1440..2592 inside), lot 2 from 2796
    util = floor.utilization()
    assert util[102] == pytest.approx(1296.0 / 1440.0)
    assert util[101] == pytest.approx((1152.0 + 84.0) / 1440.0)
    assert util[201] == 0.0


def test_pieces_on_floor_count_released_lots_until_completion():
    system = deterministic_system()
    floor = ShopFloor(system, random.Random(0))
    floor.dispatch(make_order(system, 10, 800, uid=1), 0.0)
    floor.dispatch(make_order(system, 20, 1600, uid=2), 0.0)
    assert floor.pieces_on_floor == 2400
    # the component lot completes at 1182, the product lot at 2592
    floor.advance(2000.0, _ignore)
    assert floor.pieces_on_floor == 800
    floor.advance(3000.0, _ignore)
    assert floor.pieces_on_floor == 0


def test_queueing_delays_completion():
    system = deterministic_system()
    floor = ShopFloor(system, random.Random(0))
    first = make_order(system, 10, 800, uid=1)
    second = make_order(system, 11, 800, uid=2)
    done = {}
    floor.dispatch(first, 0.0)
    floor.dispatch(second, 0.0)
    floor.advance(10000.0, lambda o, t: done.__setitem__(o.uid, t))
    assert done[1] == 2592.0
    # second lot: starts stage 1 at 1296, stage 2 at 2592 (machine free), done 3888
    assert done[2] == 3888.0


def test_stochastic_setups_vary_but_stay_positive():
    system = build_system("low")
    floor = ShopFloor(system, random.Random(99))
    done = []
    for uid in range(1, 6):
        floor.dispatch(make_order(system, 10, 800, uid=uid), 0.0)
    floor.advance(50000.0, lambda o, t: done.append(t))
    assert len(done) == 5
    assert len(set(done)) == 5   # lognormal setups make completions distinct
    assert all(t > 0 for t in done)


_lots = st.lists(st.tuples(st.sampled_from((10, 11, 14, 20, 21)),
                           st.integers(1, 1600), st.floats(0.0, 6000.0)),
                 min_size=1, max_size=10)


@settings(max_examples=200, deadline=None)
@given(lots=_lots, cv=st.sampled_from((0.0, 0.2, 1.0)),
       lo=st.floats(0.0, 4000.0), width=st.floats(0.0, 20000.0),
       seed=st.integers(0, 2**32 - 1))
def test_operations_run_fifo_and_book_their_window_minutes(lots, cv, lo,
                                                           width, seed):
    system = build_system("low", {"setup": {"cv": cv}})
    events = []
    floor = ShopFloor(system, random.Random(seed), window_start_min=lo,
                      window_end_min=lo + width, event_log=events)
    done = []
    for uid, (item, qty, minute) in enumerate(sorted(lots, key=lambda l: l[2]),
                                              start=1):
        floor.advance(minute, lambda o, t: done.append(o.uid))
        order = make_order(system, item, qty, uid=uid)
        floor.dispatch(order, minute)
    floor.advance(float("inf"), lambda o, t: done.append(o.uid))
    assert sorted(done) == list(range(1, len(lots) + 1))
    assert floor.pieces_on_floor == 0

    # walk the log: an operation arrives at its machine on release or when
    # the previous stage finishes, and runs from its start to its finish_op
    routing = {uid: system.items[item].routing
               for _, kind, uid, item, _, _ in events if kind == "release"}
    stage, arrived, running, ops = {}, {}, {}, {}
    for index, (time, kind, uid, item, machine, qty) in enumerate(events):
        if kind == "release":
            stage[uid] = 0
            arrived[uid] = (time, index)
        elif kind == "start":
            assert machine == f"M{routing[uid][stage[uid]]}"
            running[uid] = [arrived[uid], time, None]
            ops.setdefault(machine, []).append(running[uid])
        else:
            assert machine == f"M{routing[uid][stage[uid]]}"
            running.pop(uid)[2] = time
            stage[uid] += 1
            arrived[uid] = (time, index)
    assert not running
    hi = lo + width
    for mid, state in floor.machines.items():
        spans = ops.get(f"M{mid}", [])
        arrivals = [arrival for arrival, _, _ in spans]
        assert arrivals == sorted(arrivals)                   # FIFO
        assert all(prev[2] <= op[1] for prev, op in zip(spans, spans[1:]))
        assert state.busy_window_min == float_sum(
            max(min(finish, hi) - max(start, lo), 0.0)
            for _, start, finish in spans)


def test_lots_ending_a_stage_together_move_in_heap_order():
    # fixed setups: both lots end their first stage at minute 1296; each
    # move joins the heap behind the other finish, so both finishes come first
    system = deterministic_system()
    events = []
    floor = ShopFloor(system, random.Random(0), event_log=events)
    floor.dispatch(make_order(system, 10, 800, uid=1), 0.0)
    floor.dispatch(make_order(system, 14, 800, uid=2), 0.0)
    floor.advance(1296.0, _ignore)
    assert [(t, kind, uid, machine) for t, kind, uid, _, machine, _ in events
            if t == 1296.0] == [(1296.0, "finish_op", 1, "M102"),
                                (1296.0, "finish_op", 2, "M112"),
                                (1296.0, "start", 1, "M101"),
                                (1296.0, "start", 2, "M111")]
