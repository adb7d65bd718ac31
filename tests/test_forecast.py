"""Forecast evolution: replay oracles, truncation, bias schedules, dump/replay."""

import math
import random
import statistics

import pytest

from mrpsim.driver import build_tape, make_config
from mrpsim.forecast import (
    BIASED_SCHEDULES,
    HORIZON,
    SCHEDULES,
    ForecastStream,
    ScenarioParams,
    advance,
    dump_tape,
    load_replay,
    long_term_forecast,
    sample_update,
    stream_rng,
    substream_seed,
)


# Three published example trajectories, one per scenario kind.  Epsilons are
# indexed j = 10..1; the j = 0 update is always zero and every trajectory
# firms at 739 pieces.
REPLAY_CASES = [
    ("unbiased", 0, 800,
     (24, 32, -15, -47, 123, 27, -125, 56, -58, -78),
     (824, 856, 841, 794, 917, 944, 819, 875, 817, 739)),
    ("permanent_underbooking", 1, 480,
     (56, 64, 17, -15, 155, 59, -93, 88, -26, -46),
     (536, 600, 617, 602, 757, 816, 723, 811, 785, 739)),
    ("temporary_overbooking", 1, 800,
     (24, 32, 17, -15, 187, 27, -125, -8, -90, -110),
     (824, 856, 873, 858, 1045, 1072, 947, 939, 849, 739)),
]


@pytest.mark.parametrize("schedule,beta,start,eps,values", REPLAY_CASES)
def test_replay_trajectories(schedule, beta, start, eps, values):
    scenario = ScenarioParams(alpha=0.04, beta=beta,
                              schedule=SCHEDULES[schedule])
    assert long_term_forecast(scenario) == start

    stream = ForecastStream(product=10, due=40, long_term=start)
    rng = random.Random(0)  # never consulted when eps is injected
    for j, e, expected in zip(range(10, 0, -1), eps, values):
        got = advance(stream, j, scenario, rng, injected_eps=e)
        assert got == e
        assert stream.value == expected
    advance(stream, 0, scenario, rng)
    assert stream.value == 739
    # trajectory identity: firmed value = start + sum of updates
    assert stream.value == start + sum(eps)


def test_long_term_forecast_values():
    under = ScenarioParams(beta=1, schedule=SCHEDULES["permanent_underbooking"])
    over = ScenarioParams(beta=1, schedule=SCHEDULES["permanent_overbooking"])
    assert long_term_forecast(under) == 480
    assert long_term_forecast(over) == 1120
    for name in SCHEDULES:
        scen = ScenarioParams(beta=0, schedule=SCHEDULES[name])
        assert long_term_forecast(scen) == 800
    for name in ("unbiased", "temporary_overbooking", "temporary_underbooking"):
        scen = ScenarioParams(beta=1, schedule=SCHEDULES[name])
        assert long_term_forecast(scen) == 800


def test_schedule_shapes():
    assert all(b == 0.0 for b in SCHEDULES["unbiased"].b)
    for name in ("temporary_overbooking", "temporary_underbooking"):
        assert math.isclose(sum(SCHEDULES[name].b), 0.0, abs_tol=1e-12)
        assert not SCHEDULES[name].permanent
    assert SCHEDULES["permanent_overbooking"].b == (-0.04,) * 10
    assert SCHEDULES["permanent_underbooking"].b == (0.04,) * 10
    assert SCHEDULES["permanent_overbooking"].permanent
    assert set(BIASED_SCHEDULES) == set(SCHEDULES) - {"unbiased"}
    # factors outside the update range contribute nothing
    sched = SCHEDULES["permanent_underbooking"]
    assert sched.factor(0) == 0.0
    assert sched.factor(11) == 0.0
    assert sched.factor(10) == 0.04
    # temporary overbooking inflates mid-range forecasts and deflates late ones
    tover = SCHEDULES["temporary_overbooking"]
    assert tover.factor(6) == pytest.approx(0.08)
    assert tover.factor(3) == pytest.approx(-0.08)


def test_scenario_validation():
    with pytest.raises(ValueError, match="alpha"):
        ScenarioParams(alpha=-0.1)
    with pytest.raises(ValueError, match="beta"):
        ScenarioParams(beta=2)
    scen = ScenarioParams(alpha=0.06, beta=1,
                          schedule=SCHEDULES["permanent_underbooking"])
    assert scen.update_std == pytest.approx(48.0)
    assert scen.update_mean(5) == pytest.approx(32.0)
    assert scen.update_mean(11) == 0.0


def test_degenerate_update_is_zero():
    # negative mean at least as large as the previous value collapses the
    # truncation interval
    rng = random.Random(1)
    assert sample_update(20, -32.0, 10.0, rng) == 0
    assert sample_update(32, -32.0, 10.0, rng) == 0
    assert sample_update(0, -1.0, 10.0, rng) == 0


def test_zero_std_returns_mean():
    rng = random.Random(1)
    assert sample_update(800, 0.0, 0.0, rng) == 0
    assert sample_update(800, 32.0, 0.0, rng) == 32
    assert sample_update(800, -32.0, 0.0, rng) == -32
    # positive means always sit inside [-prev, prev + 2*mean]
    assert sample_update(10, 500.0, 0.0, rng) == 500


def test_sample_update_bounds():
    rng = random.Random(7)
    for _ in range(20000):
        eps = sample_update(800, 32.0, 320.0, rng)
        assert -800 <= eps <= 864
        assert isinstance(eps, int)
    # tight interval around a small previous value
    for _ in range(5000):
        eps = sample_update(3, 0.0, 500.0, rng)
        assert -3 <= eps <= 3


def test_sample_update_moments():
    rng = random.Random(12345)
    n = 100000
    draws = [sample_update(800, 32.0, 32.0, rng) for _ in range(n)]
    # truncation bounds sit 25 sigma away, so moments match the normal
    assert statistics.fmean(draws) == pytest.approx(32.0, abs=0.5)
    assert statistics.stdev(draws) == pytest.approx(32.0, rel=0.01)


def test_advance_outside_horizon_is_noop():
    scen = ScenarioParams(alpha=0.1)
    stream = ForecastStream(10, 40, 800)
    rng = random.Random(2)
    state = rng.getstate()
    assert advance(stream, 11, scen, rng) == 0
    assert stream.value == 800
    assert rng.getstate() == state


def test_advance_final_update_is_zero():
    scen = ScenarioParams(alpha=0.1)
    stream = ForecastStream(10, 40, 800)
    rng = random.Random(2)
    state = rng.getstate()
    assert advance(stream, 0, scen, rng) == 0
    assert stream.value == 800
    assert rng.getstate() == state


def test_negative_forecast_rejected():
    stream = ForecastStream(11, 25, 100)
    with pytest.raises(ValueError, match="negative"):
        stream.apply(4, -200)


def test_alpha_zero_unbiased_never_moves():
    scen = ScenarioParams(alpha=0.0, beta=0)
    rng = random.Random(3)
    stream = ForecastStream(10, 40, 800)
    for j in range(10, -1, -1):
        advance(stream, j, scen, rng)
        assert stream.value == 800


def test_unbiased_streams_average_to_expectation():
    scen = ScenarioParams(alpha=0.06, beta=0)
    finals = []
    for rep in range(2500):
        rng = stream_rng(99, rep, 10, 40)
        stream = ForecastStream(10, 40, 800)
        for j in range(10, -1, -1):
            advance(stream, j, scen, rng)
        assert stream.value >= 0
        finals.append(stream.value)
    # sd of one firmed value is ~ 48 * sqrt(10) = 152, so the mean of 2500
    # streams lands within +-10 of 800 at ~3 sigma
    assert statistics.fmean(finals) == pytest.approx(800, abs=10)


def test_substream_independence_of_generation_order():
    scen = ScenarioParams(alpha=0.10, beta=0)
    keys = [(p, due) for p in (10, 11, 14) for due in (21, 25, 29)]

    def run(order):
        values = {}
        for p, due in order:
            rng = stream_rng(42, 0, p, due)
            stream = ForecastStream(p, due, 800)
            for j in range(10, -1, -1):
                advance(stream, j, scen, rng)
            values[(p, due)] = stream.value
        return values

    assert run(keys) == run(list(reversed(keys)))


def test_substream_seed_is_stable_and_distinct():
    assert substream_seed(42, 0, "demand", 10, 21) == substream_seed(42, 0, "demand", 10, 21)
    seen = {substream_seed(42, rep, "demand", p, due)
            for rep in range(3) for p in (10, 11) for due in (21, 25)}
    assert len(seen) == 12


def test_dump_and_replay_roundtrip(tmp_path):
    # alpha = 0 never samples, so the replayed tape can only come from the
    # injected epsilons; run_length 30 leaves streams unfinished at the end
    cfg = make_config(alpha=0.08, run_length=30, warmup=5,
                      overrides={"demand": {"first_delay": 3}})
    tape = build_tape(cfg)
    path = tmp_path / "tape.csv"
    dump_tape(tape, cfg.scenario, str(path))
    replay = load_replay(str(path))

    frozen = make_config(alpha=0.0, run_length=30, warmup=5, replay=replay,
                         overrides={"demand": {"first_delay": 3}})
    assert build_tape(frozen) == tape
    assert len(replay) == sum(len(values) for values in tape.values())

    lines = path.read_text().splitlines()
    assert lines[0] == "product,due_date,j,epsilon,value"
    # product 10 (offset 1) is first due at 5: opened at j = 4, firmed at 0
    assert [line.split(",")[2] for line in lines[1:7]] == \
        ["11", "4", "3", "2", "1", "0"]
    assert lines[1] == "10,5,11,0,800"


def test_load_replay_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("product,due,j,eps,value\n10,21,5,12,812\n")
    with pytest.raises(ValueError, match="header"):
        load_replay(str(path))


def test_load_replay_rejects_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("product,due_date,j,epsilon,value\n10,21,xyz,12,812\n")
    with pytest.raises(ValueError, match="line 2"):
        load_replay(str(path))
