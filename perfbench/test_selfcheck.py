"""Fast self-check of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

from mrpsim import driver, experiment, tables  # noqa: E402
from mrpsim.experiment import GridSpec  # noqa: E402
from mrpsim.mrp import MODES  # noqa: E402
from mrpsim.shopfloor import ShopFloor  # noqa: E402

from spans import HOOKS, Tracer  # noqa: E402
from speed import SpeedTimer  # noqa: E402
from synth import FULL_SHAPE, synthesize  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_span_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 3.0

    def hook(counts, args, kwargs, result):
        clock.now += 0.5
        counts["inner"] += 1

    wrapped_inner = tracer.wrap("inner", inner, hook)
    tracer.wrap("outer", outer)()

    assert tracer.self_s["outer"] == 4.0
    assert tracer.self_s["inner"] == 4.0
    assert tracer.self_s[HOOKS] == 1.0
    assert tracer.total_self() == 9.0 == clock.now
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.counts["inner"] == 2


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            wrapped()
        clock.now += 2.0

    wrapped = tracer.wrap("failing", failing)
    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"failing": 1.0, "outer": 2.0}


def test_speed_timer_scales_units_by_bracketing_probes():
    clock = FakeClock()
    speeds = iter([1.0, 0.5, 2.0])
    timer = SpeedTimer(clock=clock, probe=lambda: next(speeds))
    clock.now += 0.02
    timer.mark()                 # shorter than the probe interval: no probe
    clock.now += 0.04
    timer.mark()                 # probe: both units scale by (1.0 + 0.5) / 2
    clock.now += 0.5             # not timed: between mark(end) and restart
    timer.restart()
    clock.now += 0.1
    end = clock.now
    clock.now += 0.3             # not timed: after the unit's end
    timer.mark(end)              # probe: scales by (0.5 + 2.0) / 2
    assert timer.close() == pytest.approx([0.015, 0.03, 0.125])
    assert timer.raw == pytest.approx([0.02, 0.04, 0.1])
    assert timer.speed == pytest.approx(0.17 / 0.16)


def test_install_restores_every_original():
    originals = (driver.advance, driver.run_mrp, ShopFloor.__dict__["advance"],
                 experiment.read_results, tables.best_per_instance)
    with pytest.raises(RuntimeError):
        with Tracer().install():
            assert driver.advance is not originals[0]
            assert driver.advance.__wrapped__ is originals[0]
            raise RuntimeError("leave the block early")
    assert (driver.advance, driver.run_mrp, ShopFloor.__dict__["advance"],
            experiment.read_results, tables.best_per_instance) == originals


TINY = GridSpec(name="tiny", utilizations=("high",), alphas=(0.1,),
                sst_factors=(0.2,), plts=(1,), fop_periods=(),
                foq_quantities=(200,), component_lots=(800,), modes=MODES,
                replications=1, run_length=60, warmup=10)


def test_traced_counts_repeat_and_results_do_not_change():
    untraced = experiment.run_grid(TINY, base_seed=3, workers=1)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.install():
            rows = experiment.run_grid(TINY, base_seed=3, workers=1)
        assert rows == untraced
        runs.append((dict(tracer.calls), dict(tracer.counts)))
    assert runs[0] == runs[1]
    calls, counts = runs[0]
    assert calls["experiment.run_cell"] == TINY.n_cells == 2
    assert calls["mrp.run_mrp"] == 2 * TINY.run_length
    assert 0 < counts["lots_released"] < counts["lots_planned"]
    assert 0 < counts["buckets"]


def _synth_bytes(spec, seed, path):
    experiment.write_results(synthesize(spec, seed), str(path))
    return path.read_bytes()


def test_synthesizer_is_byte_stable(tmp_path):
    small = replace(FULL_SHAPE, sst_factors=(0.0, 1.0), plts=(2,))
    first = _synth_bytes(small, 42, tmp_path / "a.csv")
    assert _synth_bytes(small, 42, tmp_path / "b.csv") == first
    assert _synth_bytes(small, 43, tmp_path / "c.csv") != first
    assert len(experiment.read_results(str(tmp_path / "a.csv"))) == small.n_cells


def test_synthesizer_matches_pinned_full_shape(tmp_path):
    pinned = json.loads((HERE / "pinned.json").read_text())
    data = _synth_bytes(FULL_SHAPE, 42, tmp_path / "full.csv")
    name = f"analyze-full/full.csv[{FULL_SHAPE.n_cells} rows]"
    assert hashlib.sha256(data).hexdigest() == pinned[name]
