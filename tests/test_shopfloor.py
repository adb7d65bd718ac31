"""Job shop: setup sampling, FIFO machines, staged routing, busy accounting."""

import dataclasses
import random
import statistics
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpsim.config import build_system
from mrpsim.driver import SimulationRun
from mrpsim.experiment import make_config
from mrpsim.forecast import StreamNormals, substream_seed
from mrpsim.kpi import float_sum
from mrpsim.mrp import PlanningParams
from mrpsim.shopfloor import ProductionOrder, ShopFloor


def make_order(system, item_id, qty, uid=1):
    order = ProductionOrder(uid=uid, item_cfg=system.items[item_id], qty=qty,
                            covered_end=10, planned_completion=2)
    order.release_time = 0.0
    return order


def _ignore(order, time):
    pass


def normals(rng):
    """The standard normals of generator `rng`, as setups read them."""
    return iter(partial(rng.normalvariate, 0.0, 1.0), None)


def deterministic_system():
    return build_system("low", {"setup": {"cv": 0.0}})


def setup_draws(mean, cv, n, seed=1):
    """n setups drawn by the shop floor's own machine state for one product
    machine set to the given setup mean and coefficient of variation."""
    system = build_system("low")
    machine = dataclasses.replace(system.machines[102], setup_mean_min=mean,
                                  setup_cv=cv)
    floor = ShopFloor(dataclasses.replace(system, machines={102: machine}),
                      normals(random.Random(seed)))
    return [floor.machines[102].draw_setup(floor.normals) for _ in range(n)]


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
    rng = random.Random(5)
    floor = ShopFloor(system, normals(rng))
    state = rng.getstate()
    floor.machines[101].draw_setup(floor.normals)
    assert rng.getstate() == state


@pytest.mark.parametrize("cv", (0.05, 0.2, 1.0))
def test_setup_draw_is_the_stdlib_lognormal_bit_for_bit(cv):
    system = build_system("low", {"setup": {"cv": cv}})
    for seed in (1, 7, 2024, 2**32 - 1):
        rng = random.Random(seed)
        floor = ShopFloor(system, normals(rng))
        machine, stdlib = floor.machines[102], random.Random(seed)
        draws = [machine.draw_setup(floor.normals) for _ in range(1000)]
        assert draws == [stdlib.lognormvariate(machine.setup_mu,
                                               machine.setup_sigma)
                         for _ in range(1000)]
        assert rng.getstate() == stdlib.getstate()


def test_single_lot_operation_time():
    # zero setup variation: one 800-piece operation is 216 + 800*1.35 = 1296
    system = deterministic_system()
    floor = ShopFloor(system, normals(random.Random(0)))
    order = make_order(system, 10, 800)
    floor.dispatch(order, 0.0)

    done = []
    floor.advance(5000.0, lambda o, t: done.append((o, t)))
    # two stages back to back: completes at 2592
    assert done == [(order, 2592.0)]
    assert floor.pieces_on_floor == 0


def test_component_single_stage():
    system = deterministic_system()
    floor = ShopFloor(system, normals(random.Random(0)))
    order = make_order(system, 20, 1600)
    floor.dispatch(order, 0.0)
    done = []
    floor.advance(5000.0, lambda o, t: done.append(t))
    # 94 + 1600*0.68 = 1182 on M201
    assert done == [1182.0]


def test_fifo_order_on_one_machine():
    system = deterministic_system()
    events = []
    floor = ShopFloor(system, normals(random.Random(0)), event_log=events)
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
    floor = ShopFloor(system, normals(random.Random(0)), event_log=events)
    floor.dispatch(make_order(system, 10, 800), 0.0)
    floor.advance(10000.0, _ignore)
    starts = [(t, machine) for t, kind, uid, item, machine, qty in events
              if kind == "start"]
    assert starts == [(0.0, "M102"), (1296.0, "M101")]


def test_busy_minutes_clipped_to_window():
    system = deterministic_system()
    floor = ShopFloor(system, normals(random.Random(0)),
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
    floor = ShopFloor(system, normals(random.Random(0)),
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
    floor = ShopFloor(system, normals(random.Random(0)))
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
    floor = ShopFloor(system, normals(random.Random(0)))
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
    floor = ShopFloor(system, normals(random.Random(99)))
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
    floor = ShopFloor(system, normals(random.Random(seed)),
                      window_start_min=lo, window_end_min=lo + width,
                      event_log=events)
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
    floor = ShopFloor(system, normals(random.Random(0)), event_log=events)
    floor.dispatch(make_order(system, 10, 800, uid=1), 0.0)
    floor.dispatch(make_order(system, 14, 800, uid=2), 0.0)
    floor.advance(1296.0, _ignore)
    assert [(t, kind, uid, machine) for t, kind, uid, _, machine, _ in events
            if t == 1296.0] == [(1296.0, "finish_op", 1, "M102"),
                                (1296.0, "finish_op", 2, "M112"),
                                (1296.0, "start", 1, "M101"),
                                (1296.0, "start", 2, "M111")]


def shop_generator(seed, replication):
    return random.Random(substream_seed(seed, replication, "shop"))


@pytest.mark.parametrize("cv", (0.05, 0.2, 1.0))
def test_setups_read_from_a_store_are_the_shop_substreams_lognormals(cv):
    system = build_system("low", {"setup": {"cv": cv}})
    means = {101: 216.0, 102: 331.2, 201: 94.0, 202: 7.5}
    system = dataclasses.replace(system, machines={
        mid: dataclasses.replace(system.machines[mid], setup_mean_min=mean)
        for mid, mean in means.items()})
    for seed, replication in ((42, 0), (7, 3)):
        store = StreamNormals(seed, replication)
        floor = ShopFloor(system, store.shop())
        machines = [floor.machines[mid] for mid in (101, 202, 202, 102, 201)]
        assert len({(m.setup_mu, m.setup_sigma) for m in machines}) == 4
        order = machines * 200
        draws = [m.draw_setup(floor.normals) for m in order]
        stdlib = shop_generator(seed, replication)
        assert draws == [stdlib.lognormvariate(m.setup_mu, m.setup_sigma)
                         for m in order]
        assert len(store.shop_normals) == len(order)
        # a second reader replays the stored normals and draws none
        again = ShopFloor(system, store.shop())
        assert [m.draw_setup(again.normals) for m in order] == draws
        assert len(store.shop_normals) == len(order)


def test_interleaved_readers_of_a_store_each_read_the_substream():
    # the lead passes between the readers, so each reads past the stored
    # normals and later falls behind what the other has stored
    store = StreamNormals(11, 2)
    readers, taken = (store.shop(), store.shop()), ([], [])
    for turn, n in enumerate((3, 5, 4, 1, 0, 6, 2, 3, 6, 6)):
        taken[turn % 2].extend(next(readers[turn % 2]) for _ in range(n))
    assert (len(taken[0]), len(taken[1])) == (15, 21)
    stdlib = shop_generator(11, 2)
    substream = [stdlib.normalvariate(0.0, 1.0) for _ in range(21)]
    assert taken[0] == substream[:len(taken[0])]
    assert taken[1] == substream[:len(taken[1])]
    assert store.shop_normals.tolist() == substream


def _finish(run):
    """The summary `run()` returns, for a run stepped through all periods."""
    return run.kpi.summarize(run.system.cost_rates, run.demands_all,
                             run.shop.utilization())


def test_runs_sharing_a_store_give_the_rows_of_fresh_stores():
    # two utilizations of one replication: different setup means, and so
    # different numbers of setups per period, read one shop substream
    configs = [make_config(utilization=utilization, alpha=0.06,
                           params=PlanningParams(0.4, 2, "FOQ", 400),
                           base_seed=5, replication=1, run_length=40,
                           warmup=5)
               for utilization in ("low", "high")]
    fresh = [repr(SimulationRun(cfg).run()) for cfg in configs]
    for order in ((0, 1), (1, 0)):
        store = StreamNormals(5, 1)
        shared = {i: repr(SimulationRun(configs[i], normals=store).run())
                  for i in order}
        assert [shared[0], shared[1]] == fresh
    store = StreamNormals(5, 1)
    runs = [SimulationRun(cfg, normals=store) for cfg in configs]
    for t in range(1, 41):
        for run in runs:
            run.step(t)
    assert [repr(_finish(run)) for run in runs] == fresh
    # the store holds the substream's first normals, each drawn once
    stdlib = shop_generator(5, 1)
    assert store.shop_normals.tolist() == [
        stdlib.normalvariate(0.0, 1.0) for _ in store.shop_normals]
    assert len(store.shop_normals) > 0


def test_fixed_setups_leave_the_store_empty():
    store = StreamNormals(3, 0)
    SimulationRun(make_config(overrides={"setup": {"cv": 0.0}}, base_seed=3,
                              run_length=30, warmup=5), normals=store).run()
    assert len(store.shop_normals) == 0
    system = build_system("low")
    for mean in (0.0, -5.0):
        machine = dataclasses.replace(system.machines[102],
                                      setup_mean_min=mean)
        floor = ShopFloor(dataclasses.replace(system, machines={102: machine}),
                          store.shop())
        assert [floor.machines[102].draw_setup(floor.normals)
                for _ in range(3)] == [0.0] * 3
    assert len(store.shop_normals) == 0
